import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import vadd, vscale, vsub
from polarcut.jsonio import points_from_json
from polarcut.polyhedra import membership, normalize
from polarcut.rationals import (
    Scaled,
    dot,
    integer_rows,
    is_integral,
    json_scalar,
    parse_rational,
    rational_pair,
    scaled,
    scaled_row,
    unscaled,
    vector,
    zero_vector,
)
from polarcut.sublinear import gauge

rationals = st.fractions(max_denominator=512)
wide_rationals = st.fractions(max_denominator=10**40)
nonzero_rationals = rationals.filter(lambda q: q != 0)
vec3 = st.tuples(rationals, rationals, rationals)


@given(rationals)
def test_canonical_form(q):
    assert q.denominator > 0
    assert math.gcd(q.numerator, q.denominator) == 1


@given(rationals, rationals, rationals)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + 0 == a and a * 1 == a
    assert a - a == 0


@given(nonzero_rationals)
def test_multiplicative_inverse(a):
    assert a * (1 / a) == 1


@given(rationals)
def test_text_round_trip(q):
    assert parse_rational(str(q)) == q


def test_parse_forms():
    assert parse_rational(3) == 3
    assert parse_rational("3") == 3
    assert parse_rational("-7/4") == Fraction(-7, 4)
    assert parse_rational("−1/2") == Fraction(-1, 2)
    # digits of other scripts (fullwidth, Arabic-Indic) are not numerals here
    for bad in ("1/0", "3/-2", "0.5", "a", 0.5, True, None, [1], "１", "٣/4", "1/２"):
        with pytest.raises(ValueError):
            parse_rational(bad)


def test_json_scalar_forms():
    assert json_scalar(Fraction(2)) == 2
    assert json_scalar(Fraction(-3, 1)) == -3
    assert json_scalar(Fraction(1, 2)) == "1/2"
    assert type(json_scalar(Fraction(-6, 2))) is int
    assert is_integral(Fraction(4, 2))
    assert not is_integral(Fraction(1, 3))


def test_dot_and_mismatch():
    assert dot(vector([2, 3]), vector([0, 1])) == 3
    with pytest.raises(ValueError):
        dot(vector([1, 2]), vector([1, 2, 3]))


@given(vec3, vec3, vec3, rationals)
def test_dot_bilinear(u, v, w, t):
    assert dot(u, v) == dot(v, u)
    assert dot(u, vadd(v, w)) == dot(u, v) + dot(u, w)
    assert dot(vscale(t, u), v) == t * dot(u, v)
    assert dot(u, vsub(v, w)) == dot(u, v) - dot(u, w)


def test_zero_vector():
    z = zero_vector(3)
    assert len(z) == 3 and all(c == 0 for c in z)


def text_forms(q):
    """JSON spellings of q: int (when integral), "p/q", unreduced "2p/2q",
    "+p/q" or a unicode minus, and blanks around "p/q"."""
    n, d = q.numerator, q.denominator
    forms = [f"{n}/{d}", f"{2 * n}/{2 * d}", f" {n}/{d} "]
    forms.append(f"+{n}/{d}" if n >= 0 else f"\u2212{-n}/{d}")
    if d == 1:
        forms += [n, f"+{n}" if n >= 0 else f"\u2212{-n}"]
    return forms


@given(st.lists(wide_rationals, min_size=1, max_size=5))
def test_scaled_parse_matches_parse_rational(row):
    for q in row:
        for form in text_forms(q):
            num, den = rational_pair(form)
            assert den > 0 and Fraction(num, den) == parse_rational(form) == q
    # one row per spelling: the scaled form is integer_rows' form of the
    # parsed rationals, whatever the spelling
    expected = scaled(tuple(row))
    (ints,), den = integer_rows((tuple(row),))
    assert expected == Scaled(ints, den) and unscaled(expected) == tuple(row)
    forms = [text_forms(q) for q in row]
    for k in range(5):
        spelled = [f[k % len(f)] for f in forms]
        assert scaled_row(spelled) == expected
        assert points_from_json({"points": [spelled]}, len(row)) == (expected,)


def test_scaled_forms_pass_through():
    s = Scaled((1, -2), 3)
    assert scaled(s) is s
    assert unscaled(s) == (Fraction(1, 3), Fraction(-2, 3))
    x = (Fraction(1, 2), Fraction(0))
    assert unscaled(x) is x
    assert scaled(x) == Scaled((1, 0), 2)
    assert scaled_row(["0/4", "0/6"]) == Scaled((0, 0), 1)
    assert scaled_row([" 2/4", "\u22123/6"]) == Scaled((1, -1), 2)


@pytest.mark.parametrize("den", [0, -4, 2.0, True, Fraction(1)])
def test_scaled_rejects_bad_denominator(den):
    # a hand-built Scaled must not flip a verdict or divide by zero later
    k = normalize([(1, 0), (0, 1)], [1, 1])
    with pytest.raises(ValueError, match="positive int"):
        scaled(Scaled((1, 2), den))
    with pytest.raises(ValueError, match="positive int"):
        membership(k, Scaled((1, 2), den))
    with pytest.raises(ValueError, match="positive int"):
        gauge(k, Scaled((1, 2), den))
