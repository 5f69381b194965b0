import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from polarcut.rationals import (
    dot,
    is_integral,
    json_scalar,
    parse_rational,
    vadd,
    vector,
    vscale,
    vsub,
    zero_vector,
)

rationals = st.fractions(max_denominator=512)
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
    for bad in ("1/0", "3/-2", "0.5", "a", 0.5, True, None, [1]):
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
    with pytest.raises(ValueError):
        vadd(vector([1]), vector([1, 2]))


@given(vec3, vec3, vec3, rationals)
def test_dot_bilinear(u, v, w, t):
    assert dot(u, v) == dot(v, u)
    assert dot(u, vadd(v, w)) == dot(u, v) + dot(u, w)
    assert dot(vscale(t, u), v) == t * dot(u, v)
    assert dot(u, vsub(v, w)) == dot(u, v) - dot(u, w)


def test_zero_vector():
    z = zero_vector(3)
    assert len(z) == 3 and all(c == 0 for c in z)
