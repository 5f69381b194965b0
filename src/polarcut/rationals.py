"""Exact rational scalars, fixed-dimension vectors, and scaled points.

Every numeric quantity in this package is an exact rational; there are no
floats anywhere. Scalars are fractions.Fraction: arbitrary precision,
reduced to lowest terms with a positive denominator on construction.
Vectors are plain tuples of scalars.

JSON-level scalars (ints and "p/q" texts) have one grammar, _SCALAR,
read one scalar at a time by parse_rational and a block at a time by
scaled_columns.

A point has a second form, owned by this module: Scaled(ints, den), the
int numerators of its coordinates over one positive common denominator.
It is the library's per-point form: the scans scale their anchor once,
the property suite scales each sample once, scaled() converts a rational
tuple at a public boundary, and unscaled() builds the rationals back for
a value that is reported.

Many points at once take a third form, int columns: scaled_columns()
reads a block of rows into cols[j][k], the numerator of coordinate j of
point k over that point's positive denominator dens[k]. The block is
parsed whole at C level; vector() is called on its rows only to raise
the first bad entry's error. Values come back the same way: Values(nums,
dens) is a column of rationals in lowest terms, value k being nums[k] /
dens[k] with dens[k] > 0 (0 is 0/1), as sublinear.block_values returns
them and the CLI prints them, with no Fraction in between.

The evaluators (gauge, minimal sublinear function, support, membership,
recession test) and the LP solver do not use Fraction arithmetic on their
hot paths: integer_rows() turns a set's rows into Python ints over one
common denominator once (the set's compiled form, which every LP over the
set poses as its rows), the pairings are int dot products with a scaled
point, lp.solve reads each program row through integer_rows too (ints are
read at C speed), the simplex tableau is fraction-free, and a Fraction is
built only for a value that is returned.
"""

from __future__ import annotations

import re
import sys
from collections import namedtuple
from fractions import Fraction
from itertools import chain, repeat
from math import lcm
from operator import floordiv, itemgetter, mul

ZERO = Fraction(0)
ONE = Fraction(1)

# The scalar grammar, in ASCII digits: optional sign, integer numerator,
# optional positive denominator. "3", "-3", "1/2", "-7/4". Never "3/-2",
# never "1/0", never a fullwidth or other non-ASCII digit. A text is read
# after its surrounding blanks are stripped and its unicode minus made "-".
_SCALAR = r"[+-]?[0-9]+(?:/[1-9][0-9]*)?"
_RATIONAL_TEXT = re.compile(_SCALAR)

# Matches at the start of the first line outside _SCALAR in a block of
# scalars joined by "\n" (each stripped, its unicode minus made "-"). A
# search for a bad line keeps no state from one line to the next; a match
# of the whole block with a repeated group would stack a backtracking
# point per entry (twice the time, and 0.5 MB, for 1,024 entries), and
# Python 3.10's re has no possessive quantifier to stop it. Kept as text:
# re compiles it on first use (and caches it), so only the commands that
# read query points pay for the compile at start-up.
_BAD_LINE = rf"(?m)^(?!{_SCALAR}$)"

Vec = tuple  # tuple of Fraction, one entry per coordinate


class Scaled(namedtuple("Scaled", "ints den")):
    """A point as int numerators over one positive common denominator: its
    coordinates are ints[i] / den. Build one with scaled(); the evaluators
    pass a hand-built one through scaled(), which rejects a denominator
    that is not a positive int."""

    __slots__ = ()


class Values(namedtuple("Values", "nums dens")):
    """A column of rationals in lowest terms: value k is nums[k] / dens[k],
    with dens[k] > 0 and 0 as 0/1. Fraction(n, d) for each pair gives the
    rationals back."""

    __slots__ = ()


def parse_rational(value):
    """An exact rational from a Fraction (returned as it is) or a JSON-level
    scalar: an int, or a text in the _SCALAR grammar.

    Floats are rejected: they are not exact and have no place here. A digit
    string longer than the interpreter's int conversion limit is rejected
    with a ValueError that names the limit.
    """
    if isinstance(value, Fraction):
        return value
    if type(value) is int:  # the common case first; bool is not int here
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip().replace("\u2212", "-")
        if _RATIONAL_TEXT.fullmatch(text) is None:
            raise ValueError(f"not a rational: {value!r}")
        num, _, den = text.partition("/")
        try:
            return Fraction(int(num), int(den or 1))
        except ValueError:  # past the interpreter's int conversion limit
            raise ValueError(
                "too many digits: a number may have at most "
                f"{sys.get_int_max_str_digits()} decimal digits"
            ) from None
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, float):
        raise ValueError(f"floats are not exact rationals: {value!r}")
    raise ValueError(f"not a rational: {value!r}")


class TooLongToPrint(ValueError):
    """A value whose decimal text is longer than the interpreter prints."""


def rational_text(q) -> str:
    """str(q), the canonical text; TooLongToPrint where the interpreter's
    int-to-str limit refuses it."""
    try:
        return str(q)
    except ValueError as exc:
        raise TooLongToPrint(str(exc)) from None


def json_scalar(q):
    """JSON encoding: native int when integral, the canonical text 'p/q'
    (Fraction's str) otherwise. Text longer than the interpreter's
    int-to-str limit raises str's ValueError."""
    if q.denominator == 1:
        return q.numerator
    return str(q)


def is_integral(q) -> bool:
    return q.denominator == 1


def vector(entries) -> Vec:
    """Coerce an iterable of scalars to a Vec, each entry by parse_rational."""
    return tuple(parse_rational(e) for e in entries)


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


def _read_block(rows, dim: int):
    """scaled_columns' result, or None for rows it does not read. Each pass
    runs over the whole block in C: the entries are stripped and joined as
    text, their unicode minus made "-", the text searched once for a
    _BAD_LINE, split into "p/q/1" or "p/1" pieces (so piece[1] is the
    denominator either way) and converted by int()."""
    if not all(map(isinstance, rows, repeat(list))) or not set(map(len, rows)) <= {dim}:
        return None
    flat = list(chain.from_iterable(rows))
    if not flat:  # no rows, or rows of width 0
        return tuple([] for _ in range(dim)), [1] * len(rows)
    if not set(map(type, flat)) <= {int, str}:
        return None
    try:
        text = "\n".join(map(str.strip, map(str, flat))).replace("\u2212", "-")
        if re.search(_BAD_LINE, text) is not None:
            return None
        pieces = (text.replace("\n", "/1\n") + "/1").split("\n")
        if len(pieces) != len(flat):  # some text held a "\n" of its own
            return None
        pieces = list(map(str.split, pieces, repeat("/")))
        nums = list(map(int, map(itemgetter(0), pieces)))
        entry_dens = list(map(int, map(itemgetter(1), pieces)))
    except ValueError:  # an int too long for the interpreter's str/int limit
        return None
    den_cols = [entry_dens[j::dim] for j in range(dim)]
    dens = list(map(lcm, *den_cols))
    cols = tuple(
        list(map(mul, nums[j::dim], map(floordiv, dens, den_cols[j])))
        for j in range(dim)
    )
    return cols, dens


def scaled_columns(rows, dim: int) -> tuple[tuple, list]:
    """The points of rows, each a list of dim JSON-level scalars (ints and
    texts, as json.load makes them), as int columns (cols, dens):
    coordinate j of point k is cols[j][k] / dens[k], with dens[k] > 0 the
    lcm of point k's entry denominators.

    The block is read whole, in the _SCALAR grammar. When it cannot be,
    the rows are diagnosed in order: a row that is not a list of dim
    entries raises ValueError, and vector() raises the first bad entry's
    parse_rational error."""
    block = _read_block(rows, dim)
    if block is not None:
        return block
    for row in rows:
        if not isinstance(row, list) or len(row) != dim:
            raise ValueError(f"expected a list of {dim} entries")
        vector(row)
    # every entry is a rational, yet not a JSON int or text that the block
    # reader can spell out (an int subclass, an int past the str limit)
    raise ValueError("expected JSON ints and rational texts")


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
