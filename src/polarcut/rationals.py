"""Exact rational scalars and fixed-dimension vectors.

Every numeric quantity in this package is an exact rational; there are no
floats anywhere. Scalars are gmpy2.mpq when available, with
fractions.Fraction as a drop-in fallback. Both are arbitrary precision,
reduce to lowest terms with a positive denominator on construction, and
compare/hash interchangeably, so nothing downstream cares which backend is
active. Vectors are plain tuples of scalars.

The evaluators (gauge, minimal sublinear function, support, membership,
recession test) and the LP solver do not use the backend's arithmetic at
all: integer_rows() turns a set's rows, each query point and each LP row
into Python ints over one common denominator, the pairings are int dot
products, the simplex tableau is fraction-free, and a rational is built
only for a value that is returned. The fractions backend is therefore a
complete fallback, and the acceptance time bounds hold on it.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm

try:
    from gmpy2 import mpq as QScalar

    BACKEND = "gmpy2"
except ImportError:  # pragma: no cover - exercised only where gmpy2 is absent
    QScalar = Fraction

    BACKEND = "fractions"

ZERO = QScalar(0)
ONE = QScalar(1)

# Canonical text form: optional sign, integer numerator, optional positive
# denominator. "3", "-3", "1/2", "-7/4". Never "3/-2", never "1/0".
_RATIONAL_TEXT = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$")

Vec = tuple  # tuple of QScalar, one entry per coordinate


def make_rational(num, den=1):
    """Reduced rational num/den with positive denominator.

    A zero denominator is a construction error (ZeroDivisionError), matching
    the backends' own behaviour.
    """
    if den == 0:
        raise ZeroDivisionError("rational with zero denominator")
    return QScalar(num, den)


def parse_rational(value):
    """Parse a JSON-level scalar (int or 'p/q' string) to an exact rational.

    Floats are rejected: they are not exact and have no place here.
    """
    if isinstance(value, bool):
        raise ValueError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return QScalar(value)
    if isinstance(value, float):
        raise ValueError(f"floats are not exact rationals: {value!r}")
    if isinstance(value, str):
        text = value.strip().replace("−", "-")  # tolerate unicode minus
        if not _RATIONAL_TEXT.match(text):
            raise ValueError(f"not a rational: {value!r}")
        num, _, den = text.partition("/")
        return QScalar(int(num), int(den)) if den else QScalar(int(num))
    raise ValueError(f"not a rational: {value!r}")


def json_scalar(q):
    """JSON encoding: native int when integral, the canonical text 'p/q'
    (both backends' str) otherwise."""
    if q.denominator == 1:
        return int(q.numerator)
    return str(q)


def is_integral(q) -> bool:
    return q.denominator == 1


def nearest_int(q) -> int:
    """Nearest integer to q, ties to the even neighbour (round-half-even)."""
    floor = int(q.numerator // q.denominator)
    frac = q - floor
    half = QScalar(1, 2)
    if frac < half:
        return floor
    if frac > half:
        return floor + 1
    return floor if floor % 2 == 0 else floor + 1


def vector(entries) -> Vec:
    """Coerce an iterable of ints/Fractions/backend scalars to a Vec."""
    return tuple(QScalar(e) for e in entries)


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
    den = lcm(*(int(q.denominator) for v in vectors for q in v))
    rows = tuple(
        tuple(int(q.numerator) * (den // int(q.denominator)) for q in v)
        for v in vectors
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
