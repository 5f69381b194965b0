"""Exact rational scalars, fixed-dimension vectors, and scaled points.

Every numeric quantity in this package is an exact rational; there are no
floats anywhere. Scalars are fractions.Fraction: arbitrary precision,
reduced to lowest terms with a positive denominator on construction.
Vectors are plain tuples of scalars.

JSON-level scalars (ints and "p/q" texts) have one grammar, _SCALAR,
read one scalar at a time by parse_rational and a row at a time by
scaled_vector; scaled_columns reads a whole list of points at once in
the spelling the CLI writes, a subset of it.

A point has a second form, owned by this module: Scaled(ints, den), the
int numerators of its coordinates over one positive common denominator.
It is the library's per-point form: the scans scale their anchor once,
the property suite's samples are drawn in it, scaled() reads any rational
vector (a tuple of ints as its own ints over 1), scaled_vector() reads a
row of scalars of any JSON-level form (a set's and a body's rows and
right-hand sides, from jsonio through make_body and normalize) with no
Fraction built, texts split to ints, and a Scaled taken as it is, and
unscaled() builds the rationals back for a value that is reported.

Many points at once take a third form, int columns: scaled_columns()
reads a block of rows (a document's whole "points" list) into cols[j][k],
the numerator of coordinate j of point k over that point's positive
denominator dens[k], parsed whole at C level. It reads only a block in
the CLI's own spelling (JSON ints and "p/q" texts): repr writes it out as
one text, a few passes over that text gate it, and one json.loads reads
it as a flat list of ints, two per entry. Any other block gives None,
and jsonio.points_from_json reads it row by row. Values come back the
same way: Values(nums, dens), a column of rationals in lowest terms,
value k being nums[k] / dens[k] with dens[k] > 0 (0 is 0/1), as
sublinear.block_values returns them and the CLI prints them, with no
Fraction in between.

The evaluators (gauge, minimal sublinear function, support, membership)
and the LP solver do not use Fraction arithmetic on their hot paths:
integer_rows() turns a set's rows into Python ints over one
common denominator once (the set's compiled form, which every LP over the
set poses as its rows), the pairings are int dot products with a scaled
point, lp.solve reads each program row and its objective through
scaled() (every library LP is posed in ints), the simplex tableau is
fraction-free, and a Fraction is built only for a value that is returned.
lowest() is the one int spelling of a rational vector; over_lcm() puts
such spellings over their lcm, which is integer_rows of their vectors.
"""

from __future__ import annotations

import json
import re
import sys
from collections import namedtuple
from fractions import Fraction
from itertools import chain, repeat
from math import gcd, lcm
from numbers import Rational
from operator import floordiv, mul

ZERO = Fraction(0)
ONE = Fraction(1)
_INT = frozenset((int,))  # exact ints: a bool's type is not int

# The scalar grammar, in ASCII digits: optional sign, integer numerator,
# optional positive denominator. "3", "-3", "1/2", "-7/4". Never "3/-2",
# never "1/0", never a fullwidth or other non-ASCII digit. A text is read
# after its surrounding blanks are stripped and its unicode minus made "-".
_SCALAR = r"[+-]?[0-9]+(?:/[1-9][0-9]*)?"
_RATIONAL_TEXT = re.compile(_SCALAR)

# The gate of _typed_entries over repr's text of a block of entries.
# _TYPED_BYTES: the bytes of ints, quoted "p/q" texts and ", " separators;
# deleted, they must leave only the list's own brackets, so no escape,
# double quote, "+", dot, letter, other bracket or non-ASCII character.
# _TWO_SLASHES: a text with two slashes, kept as text: re compiles it on
# first use (and caches it), so only the commands that read query points
# pay for the compile.
_TYPED_BYTES = b"0123456789/,' -"
_TWO_SLASHES = r"/[0-9-]*/"
# Quotes dropped and "/" made ",": a "p/q" text becomes the fields p,q.
_UNQUOTE = str.maketrans("/", ",", "'")

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
    if isinstance(value, int) and type(value) is not bool:  # bool has no subclass
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
    entrywise. An entry that is not an exact rational (a float, a text,
    None) is a ValueError that names it.
    """
    try:
        den = lcm(*(q.denominator for v in vectors for q in v))
        rows = tuple(
            tuple(q.numerator * (den // q.denominator) for q in v) for v in vectors
        )
    except AttributeError:
        raise _not_exact(chain.from_iterable(vectors)) from None
    return rows, den


def lowest(ints, den: int) -> tuple:
    """(ints, den) over den > 0 divided by their gcd: the one int spelling
    of the rational vector ints / den, its numerators over its least
    denominator."""
    g = gcd(den, *ints)
    return tuple(c // g for c in ints), den // g


def over_lcm(keys) -> tuple[tuple, int]:
    """(rows, den), each key (ints, d) over den, the lcm of the d's > 0:
    for keys in lowest terms, integer_rows of the vectors ints / d, as a
    vector's least denominator is the lcm of its entries'."""
    den = lcm(*(d for _, d in keys))
    return tuple(tuple(c * (den // d) for c in ints) for ints, d in keys), den


def _not_exact(entries) -> ValueError:
    """The error for the first of entries that is not an exact rational."""
    bad = next(q for q in entries if not isinstance(q, Rational))
    return ValueError(f"not an exact rational (an int or a Fraction): {bad!r}")


def _typed_entries(flat):
    """The flat int list [n0, d0, n1, d1, ...], entry k being n_k / d_k
    with d_k > 0, for entries in the spelling the CLI writes: JSON ints
    and "p/q" texts, signed by "-" alone, with no leading zero and no
    blank. None for any other block, or json.loads' ValueError where it
    refuses a field.

    repr writes the block as one text, "[1, '-7/4']": a text quoted, a
    non-printable character escaped, a printable non-ASCII one left as it
    is (its bytes are not ASCII). The gate: _TYPED_BYTES, deleted in one
    pass over the bytes, leave only the list's brackets; as many commas
    and blanks as separators, so no text holds one; one slash per quoted
    text; and no _TWO_SLASHES in one text. Then each entry has ",1"
    appended, a quoted one drops it, and one translate drops the quotes
    and makes "/" ",": p,1 or p,q, two fields per entry, so that no count
    check is needed. One json.loads of the flat list reads those ints, or
    refuses a field JSON does not spell ("007", "", "-"), and a
    denominator that is not positive refuses the block too. What is left
    is exactly the ints and the texts -?(0|[1-9][0-9]*)/[1-9][0-9]*. An
    int past the digit limit raises repr's ValueError."""
    if not set(map(type, flat)) <= {int, str}:
        return None
    text, seps = repr(flat), len(flat) - 1
    if text.encode().translate(None, _TYPED_BYTES) != b"[]" or text.count(",") != seps:
        return None
    if text.count(" ") != seps or 2 * text.count("/") != text.count("'"):
        return None
    if re.search(_TWO_SLASHES, text) is not None:
        return None
    toks = json.loads(
        text.replace(", ", ",1,").replace("]", ",1]").replace("',1", "").translate(_UNQUOTE)
    )
    return toks if min(toks[1::2]) > 0 else None


def scaled_columns(rows, dim: int):
    """The points of rows, each a list of dim JSON-level scalars (ints and
    texts, as json.load makes them), as int columns (cols, dens):
    coordinate j of point k is cols[j][k] / dens[k], with dens[k] > 0 the
    lcm of point k's entry denominators. The entries are read by
    _typed_entries, in a few passes over the whole list in C, and only in
    the CLI's own spelling; None for any other list, which
    jsonio.points_from_json reads row by row."""
    if not all(map(isinstance, rows, repeat(list))) or not set(map(len, rows)) <= {dim}:
        return None
    if not rows or not dim:
        return tuple([] for _ in range(dim)), [1] * len(rows)
    try:
        toks = _typed_entries(list(chain.from_iterable(rows)))
    except ValueError:  # a field json refuses, or an int past the digit limit
        return None
    if toks is None:
        return None
    step = 2 * dim
    den_cols = [toks[j::step] for j in range(1, step, 2)]
    dens = list(map(lcm, *den_cols))
    cols = tuple(
        list(map(mul, toks[2 * j :: step], map(floordiv, dens, den_cols[j])))
        for j in range(dim)
    )
    return cols, dens


def scaled(x) -> Scaled:
    """The scaled form of a point given in either form; a Scaled is returned
    as it is, once its denominator is checked to be a positive int, and a
    tuple of ints (bools excluded) is its own ints over 1."""
    if isinstance(x, Scaled):
        if type(x.den) is not int or x.den <= 0:
            raise ValueError(f"a Scaled denominator must be a positive int: {x.den!r}")
        return x
    # tuple.__new__ skips namedtuple's Python-level __new__
    if type(x) is tuple and _INT.issuperset(map(type, x)):
        return tuple.__new__(Scaled, (x, 1))
    (ints,), den = integer_rows((x,))
    return tuple.__new__(Scaled, (ints, den))


def scaled_vector(entries) -> Scaled:
    """scaled(vector(entries)), with parse_rational's errors, and no
    Fraction built: an int or a Fraction is read as it is, and a text in
    the _SCALAR grammar (stripped, its unicode minus made "-") is split at
    its "/" into ints over their gcd. A Scaled is returned as it is."""
    if type(entries) is Scaled:
        return entries
    entries = tuple(entries)
    if _INT.issuperset(map(type, entries)):
        return tuple.__new__(Scaled, (entries, 1))
    nums, dens = [], []
    for e in entries:
        if type(e) is int:
            num, den = e, 1
        elif type(e) is str and _RATIONAL_TEXT.fullmatch(
            text := e.strip().replace("\u2212", "-")
        ):
            try:
                num, den = map(int, (text + "/1").split("/")[:2])
            except ValueError:  # past the int conversion limit
                parse_rational(e)  # raises its "too many digits" error
            g = gcd(num, den)
            num, den = num // g, den // g
        else:
            q = parse_rational(e)
            num, den = q.numerator, q.denominator
        nums.append(num)
        dens.append(den)
    den = lcm(*dens)
    return tuple.__new__(Scaled, (tuple(n * (den // d) for n, d in zip(nums, dens)), den))


def unscaled(x) -> Vec:
    """The rational tuple of a point given in either form; a rational tuple
    is returned as it is."""
    if isinstance(x, Scaled):
        return tuple(Fraction(v, x.den) for v in x.ints)
    return x
