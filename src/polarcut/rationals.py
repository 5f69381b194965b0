"""Exact rational scalars, fixed-dimension vectors, and scaled points.

Every numeric quantity in this package is an exact rational; there are no
floats anywhere. Scalars are fractions.Fraction: arbitrary precision,
reduced to lowest terms with a positive denominator on construction.
Vectors are plain tuples of scalars.

A point has a second form, owned by this module: Scaled(ints, den), the
int numerators of its coordinates over one positive common denominator.
It is the one form a point takes between the JSON boundary and the
evaluators. jsonio parses "points" rows straight into it (scaled_row, with
the grammar of rational_pair, which reads one scalar as an int pair), the
scans scale their anchor once, and the property suite scales each sample
once; scaled() converts a rational tuple at a public boundary and
unscaled() builds the rationals back for a value that is reported.

The evaluators (gauge, minimal sublinear function, support, membership,
recession test) and the LP solver do not use Fraction arithmetic on their
hot paths: integer_rows() turns a set's rows and each LP row into Python
ints over one common denominator, the pairings are int dot products with
a scaled point, the simplex tableau is fraction-free, and a Fraction is
built only for a value that is returned.
"""

from __future__ import annotations

import re
from collections import namedtuple
from fractions import Fraction
from math import gcd, lcm

ZERO = Fraction(0)
ONE = Fraction(1)

# Canonical text form in ASCII digits: optional sign, integer numerator,
# optional positive denominator. "3", "-3", "1/2", "-7/4". Never "3/-2",
# never "1/0", never a fullwidth or other non-ASCII digit.
_RATIONAL_TEXT = re.compile(r"^([+-]?\d+)(?:/([1-9]\d*))?$", re.ASCII)

Vec = tuple  # tuple of Fraction, one entry per coordinate


class Scaled(namedtuple("Scaled", "ints den")):
    """A point as int numerators over one positive common denominator: its
    coordinates are ints[i] / den. Build one with scaled() or scaled_row();
    the evaluators pass a hand-built one through scaled(), which rejects a
    denominator that is not a positive int."""

    __slots__ = ()


class TooLongToPrint(ValueError):
    """A value whose decimal text is longer than the interpreter prints."""


def rational_pair(value) -> tuple[int, int]:
    """A JSON-level scalar (int or 'p/q' string) as ints (num, den), den > 0,
    not necessarily in lowest terms.

    Floats are rejected: they are not exact and have no place here. A digit
    string longer than the interpreter's int conversion limit is rejected
    with int()'s own ValueError.
    """
    if type(value) is int:  # the common case first; bool is not int here
        return value, 1
    if isinstance(value, str):
        # tolerate surrounding blanks and the unicode minus
        match = _RATIONAL_TEXT.match(value.strip().replace("−", "-"))
        if match is None:
            raise ValueError(f"not a rational: {value!r}")
        return int(match[1]), int(match[2] or 1)
    if isinstance(value, bool):
        raise ValueError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return value, 1
    if isinstance(value, float):
        raise ValueError(f"floats are not exact rationals: {value!r}")
    raise ValueError(f"not a rational: {value!r}")


def parse_rational(value):
    """Parse a JSON-level scalar (int or 'p/q' string) to an exact rational;
    the grammar and errors are rational_pair's."""
    return Fraction(*rational_pair(value))


def json_scalar(q):
    """JSON encoding: native int when integral, the canonical text 'p/q'
    (Fraction's str) otherwise. TooLongToPrint when that text is longer
    than the interpreter's int-to-str limit."""
    if q.denominator == 1:
        return q.numerator
    try:
        return str(q)
    except ValueError as exc:
        raise TooLongToPrint(str(exc)) from None


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


def scaled_row(values) -> Scaled:
    """The scaled point of a row of JSON-level scalars, over the least
    common denominator (integer_rows' form). Each entry is read by
    rational_pair, so the first bad one raises its ValueError."""
    nums = []
    dens = []
    for value in values:
        num, den = rational_pair(value)
        nums.append(num)
        dens.append(den)
    den = lcm(*dens)
    ints = [n * (den // d) for n, d in zip(nums, dens)]
    g = gcd(den, *ints)
    if g == 1:
        return Scaled(tuple(ints), den)
    return Scaled(tuple(n // g for n in ints), den // g)


def scaled(x) -> Scaled:
    """The scaled form of a point given in either form; a Scaled is returned
    as it is, once its denominator is checked to be a positive int."""
    if isinstance(x, Scaled):
        if type(x.den) is not int or x.den <= 0:
            raise ValueError(f"a Scaled denominator must be a positive int: {x.den!r}")
        return x
    (ints,), den = integer_rows((x,))
    return Scaled(ints, den)


def unscaled(x) -> Vec:
    """The rational tuple of a point given in either form; a rational tuple
    is returned as it is."""
    if isinstance(x, Scaled):
        return tuple(Fraction(v, x.den) for v in x.ints)
    return x
