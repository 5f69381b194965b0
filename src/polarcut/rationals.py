"""Exact rational scalars and fixed-dimension vectors.

Every numeric quantity in this package is an exact rational; there are no
floats anywhere. Scalars are fractions.Fraction: arbitrary precision,
reduced to lowest terms with a positive denominator on construction.
Vectors are plain tuples of scalars.

The evaluators (gauge, minimal sublinear function, support, membership,
recession test) and the LP solver do not use Fraction arithmetic on their
hot paths: integer_rows() turns a set's rows, each query point and each LP
row into Python ints over one common denominator, the pairings are int dot
products, the simplex tableau is fraction-free, and a Fraction is built
only for a value that is returned.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm

ZERO = Fraction(0)
ONE = Fraction(1)

# Canonical text form: optional sign, integer numerator, optional positive
# denominator. "3", "-3", "1/2", "-7/4". Never "3/-2", never "1/0".
_RATIONAL_TEXT = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$")

Vec = tuple  # tuple of Fraction, one entry per coordinate


def parse_rational(value):
    """Parse a JSON-level scalar (int or 'p/q' string) to an exact rational.

    Floats are rejected: they are not exact and have no place here.
    """
    if isinstance(value, bool):
        raise ValueError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise ValueError(f"floats are not exact rationals: {value!r}")
    if isinstance(value, str):
        text = value.strip().replace("−", "-")  # tolerate unicode minus
        if not _RATIONAL_TEXT.match(text):
            raise ValueError(f"not a rational: {value!r}")
        num, _, den = text.partition("/")
        return Fraction(int(num), int(den)) if den else Fraction(int(num))
    raise ValueError(f"not a rational: {value!r}")


def json_scalar(q):
    """JSON encoding: native int when integral, the canonical text 'p/q'
    (Fraction's str) otherwise."""
    if q.denominator == 1:
        return q.numerator
    return str(q)


def is_integral(q) -> bool:
    return q.denominator == 1


def vector(entries) -> Vec:
    """Coerce an iterable of ints/Fractions to a Vec."""
    return tuple(Fraction(e) for e in entries)


def zero_vector(dim: int) -> Vec:
    return (ZERO,) * dim


def is_zero_vector(v: Vec) -> bool:
    return all(x == 0 for x in v)


def dot(u: Vec, v: Vec):
    """Exact inner product; mismatched dimensions are an error."""
    if len(u) != len(v):
        raise ValueError(f"dimension mismatch: {len(u)} vs {len(v)}")
    total = ZERO
    for a, b in zip(u, v):
        total += a * b
    return total


def integer_rows(vectors) -> tuple[tuple, int]:
    """Fraction-free form of a list of rational vectors.

    Returns (rows, den): one tuple of ints per vector and the least positive
    common denominator of all entries, so that vectors[i] == rows[i] / den
    entrywise.
    """
    den = lcm(*(q.denominator for v in vectors for q in v))
    rows = tuple(
        tuple(q.numerator * (den // q.denominator) for q in v) for v in vectors
    )
    return rows, den


def vadd(u: Vec, v: Vec) -> Vec:
    if len(u) != len(v):
        raise ValueError(f"dimension mismatch: {len(u)} vs {len(v)}")
    return tuple(a + b for a, b in zip(u, v))


def vsub(u: Vec, v: Vec) -> Vec:
    if len(u) != len(v):
        raise ValueError(f"dimension mismatch: {len(u)} vs {len(v)}")
    return tuple(a - b for a, b in zip(u, v))


def vscale(t, v: Vec) -> Vec:
    return tuple(t * x for x in v)
