import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import vadd, vscale, vsub
from polarcut.cuts import CornerInstance, make_body
from polarcut.jsonio import points_from_json
from polarcut.lp import LinearProgram
from polarcut.polyhedra import membership, normalize
from polarcut.rationals import (
    Scaled,
    _read_block,
    dot,
    integer_rows,
    is_integral,
    json_scalar,
    parse_rational,
    rational_pair,
    scaled,
    scaled_columns,
    scaled_row,
    unscaled,
    vector,
    zero_vector,
)
from polarcut.sublinear import block_values, gauge

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
    half = Fraction(1, 2)
    assert parse_rational(half) is half
    # digits of other scripts (fullwidth, Arabic-Indic) are not numerals here
    for bad in ("1/0", "3/-2", "0.5", "a", 0.5, True, None, [1], "１", "٣/4", "1/２"):
        with pytest.raises(ValueError):
            parse_rational(bad)


QUARTER = (Fraction(1, 4),)

# Each coercing constructor with v at one scalar position; every one of
# them builds for v in 1, 1/2 and "1/2".
CONSTRUCTORS = {
    "normalize rows": lambda v: normalize([(v, 0), (0, 1)], [1, 1]),
    "normalize rhs": lambda v: normalize([(1, 0), (0, 1)], [v, 1]),
    "make_body rows": lambda v: make_body([[v], [-1]], [1, 0], QUARTER),
    "make_body rhs": lambda v: make_body([[1], [-1]], [v, 0], QUARTER),
    "CornerInstance f": lambda v: CornerInstance.make(2, ["1/2", v], [[1, 0]]),
    "CornerInstance rays": lambda v: CornerInstance.make(1, ["1/2"], [[v]]),
    "CornerInstance P rows": lambda v: CornerInstance.make(1, ["1/2"], [[1]], [[v]], [1]),
    "CornerInstance P rhs": lambda v: CornerInstance.make(1, ["1/2"], [[1]], [[1]], [v]),
    "LinearProgram objective": lambda v: LinearProgram.make("max", [v, 1], [([1, 1], "<=", 1)]),
    "LinearProgram rows": lambda v: LinearProgram.make("max", [1, 1], [([1, v], "<=", 1)]),
    "LinearProgram rhs": lambda v: LinearProgram.make("max", [1, 1], [([1, 1], "<=", v)]),
}


@pytest.mark.parametrize("site", CONSTRUCTORS)
def test_constructors_take_the_json_scalar_rule(site):
    # A float is not its binary expansion, a bool is not 1 and "1.5" is
    # not 3/2: each is refused with the text parse_rational gives it.
    build = CONSTRUCTORS[site]
    for bad in (0.1, True, "1.5", None):
        with pytest.raises(ValueError) as expected:
            parse_rational(bad)
        with pytest.raises(ValueError) as got:
            build(bad)
        assert str(got.value) == str(expected.value)
    for good in (1, Fraction(1, 2), "1/2"):
        assert build(good) == build(parse_rational(good))


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
        (block,) = points_from_json({"points": [spelled]}, len(row))
        assert block_points(block) == [tuple(row)]


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
    # the same for a hand-built block of int columns
    for clamp in (True, False):
        with pytest.raises(ValueError, match="positive int"):
            block_values(k, (([1, 3], [2, 1]), [1, den]), clamp)


def block_points(block):
    """The rational points of a (cols, dens) block, checking its shape."""
    cols, dens = block
    assert all(type(d) is int and d > 0 for d in dens)
    assert all(type(v) is int for col in cols for v in col)
    assert all(len(col) == len(dens) for col in cols)
    return [tuple(Fraction(col[k], d) for col in cols) for k, d in enumerate(dens)]


def canonical_form(q):
    """The spelling json_scalar writes: an int, or the text "p/q"."""
    return q.numerator if q.denominator == 1 else str(q)


# Entries the block reader must refuse with scaled_row's error: a digit
# string past int()'s limit, a bool, a float, an empty text, texts holding
# the block's separator or a comma, and a fullwidth digit; then a blank
# inside, a signed, zero-led or unicode-minus denominator, and two signs.
SPECIAL_SCALARS = ["9" * 5000, True, 0.5, "", "1\n2", "1,2", "\uff11"]
SPECIAL_SCALARS += ["1 /2", "1/-2", "1/02", "1/\u22122", "+-1", "\u2212\u22121"]


def more_forms(q):
    """Tolerant spellings beyond text_forms: other blanks (tab, newline,
    carriage return, no-break and ideographic space) and leading zeros."""
    n, d = q.numerator, q.denominator
    sign, digits = ("-", -n) if n < 0 else ("", n)
    return [
        f"\t{n}/{d}\n",
        f"\u00a0{n}/{d}\u3000",
        f"{n}/{d}\r\n",
        f"{sign}00{digits}/{d}",
    ]


def reference_rows(rows):
    """scaled_row on each row: the rational points, or the text of the
    first ValueError."""
    try:
        return [unscaled(scaled_row(row)) for row in rows]
    except ValueError as exc:
        return str(exc)


def block_rows(rows, dim):
    try:
        return block_points(scaled_columns(rows, dim))
    except ValueError as exc:
        return str(exc)


@given(st.data())
def test_scaled_columns_match_scaled_row(data):
    # A block read whole equals scaled_row on each of its rows (the same
    # rational points) or raises the same ValueError, whatever the
    # spelling; every block of rationals is read whole, tolerant ones too.
    dim = data.draw(st.integers(1, 4))
    rows = data.draw(st.lists(st.lists(wide_rationals, min_size=dim, max_size=dim), max_size=6))
    mode = data.draw(st.sampled_from(["canonical", "tolerant", "special"]))
    spelled = []
    for row in rows:
        forms = []
        for q in row:
            choices = [canonical_form(q)]
            if mode != "canonical":
                choices += text_forms(q) + more_forms(q)
            if mode == "special":
                choices += SPECIAL_SCALARS
            forms.append(data.draw(st.sampled_from(choices)))
        spelled.append(forms)
    expected = reference_rows(spelled)
    assert block_rows(spelled, dim) == expected
    if mode != "special":
        assert expected == [tuple(row) for row in rows]
    if not isinstance(expected, str):
        assert block_points(_read_block(spelled, dim)) == expected


@pytest.mark.parametrize("special", SPECIAL_SCALARS, ids=repr)
def test_scaled_columns_special_scalars(special):
    # Each special entry, alone or among canonical rows, at the start, in
    # the middle or at the end of the block: the error scaled_row raises.
    with pytest.raises(ValueError) as excinfo:
        rational_pair(special)
    canonical = [[1, "-2/3"], ["5/7", 0], [-4, "9/2"]]
    for k in range(3):
        for j in range(2):
            rows = [list(r) for r in canonical]
            rows[k][j] = special
            assert block_rows(rows, 2) == reference_rows(rows) == str(excinfo.value)
    assert block_rows([[special]], 1) == str(excinfo.value)


def test_scaled_columns_shape():
    # int columns over each point's lcm of entry denominators (not reduced
    # further), rows of another width or type refused, no rows no points
    assert scaled_columns([["1/2", "1/3"], [4, "6/4"], ["0/5", 7]], 2) == (
        ([3, 16, 0], [2, 6, 35]),
        [6, 4, 5],
    )
    assert scaled_columns([], 3) == (([], [], []), [])
    assert scaled_columns([[], []], 0) == ((), [1, 1])

    class Count(int):
        pass

    # a rational, but not the int json.load makes: refused by the block
    assert scaled_row([Count(3)]) == Scaled((3,), 1)
    with pytest.raises(ValueError, match="expected JSON ints and rational texts"):
        scaled_columns([[Count(3)]], 1)
    for rows in ([[1, 2, 3]], [[1]], ["12"], [(1, 2)], [None]):
        with pytest.raises(ValueError, match="expected a list of 2 entries"):
            scaled_columns(rows, 2)
