import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    make_instance,
    make_program,
    reference_body_from_json,
    reference_points_from_json,
    reference_polyhedron_from_json,
    vadd,
    vscale,
    vsub,
)
from polarcut import jsonio
from polarcut import rationals as rationals_module
from polarcut.cuts import CornerInstance, make_body
from polarcut.jsonio import SchemaError, points_from_json
from polarcut.lp import LinearProgram, solve
from polarcut.polyhedra import (
    HPolyhedron,
    VPolytope,
    hull_membership,
    membership,
    normalize,
    polar,
)
from polarcut.rationals import (
    Scaled,
    dot,
    integer_rows,
    json_scalar,
    parse_rational,
    scaled,
    scaled_columns,
    unscaled,
    vector,
    zero_vector,
)
from polarcut.sublinear import block_values, gauge, minimal_sublinear, support

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
# them builds for v in 1, 1/2 and "1/2". The library's are normalize and
# make_body; the tests build instances and programs from JSON-level
# scalars with conftest's make_instance and make_program, which keep the
# same rule.
CONSTRUCTORS = {
    "normalize rows": lambda v: normalize([(v, 0), (0, 1)], [1, 1]),
    "normalize rhs": lambda v: normalize([(1, 0), (0, 1)], [v, 1]),
    "make_body rows": lambda v: make_body([[v], [-1]], [1, 0], QUARTER),
    "make_body rhs": lambda v: make_body([[1], [-1]], [v, 0], QUARTER),
    "CornerInstance f": lambda v: make_instance(2, ["1/2", v], [[1, 0]]),
    "CornerInstance rays": lambda v: make_instance(1, ["1/2"], [[v]]),
    "CornerInstance P rows": lambda v: make_instance(1, ["1/2"], [[1]], [[v]], [1]),
    "CornerInstance P rhs": lambda v: make_instance(1, ["1/2"], [[1]], [[1]], [v]),
    "LinearProgram objective": lambda v: make_program("max", [v, 1], [([1, 1], "<=", 1)]),
    "LinearProgram rows": lambda v: make_program("max", [1, 1], [([1, v], "<=", 1)]),
    "LinearProgram rhs": lambda v: make_program("max", [1, 1], [([1, 1], "<=", v)]),
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
            assert parse_rational(form) == q
    # one row per spelling: the scaled form is integer_rows' form of the
    # parsed rationals, whatever the spelling
    expected = scaled(tuple(row))
    (ints,), den = integer_rows((tuple(row),))
    assert expected == Scaled(ints, den) and unscaled(expected) == tuple(row)
    forms = [text_forms(q) for q in row]
    for k in range(5):
        spelled = [f[k % len(f)] for f in forms]
        assert scaled(vector(spelled)) == expected
        block = points_from_json({"points": [spelled]}, len(row))
        assert block_points(block) == [tuple(row)]


def test_scaled_forms_pass_through():
    s = Scaled((1, -2), 3)
    assert scaled(s) is s
    assert unscaled(s) == (Fraction(1, 3), Fraction(-2, 3))
    x = (Fraction(1, 2), Fraction(0))
    assert unscaled(x) is x
    assert scaled(x) == Scaled((1, 0), 2)
    assert scaled(vector(["0/4", "0/6"])) == Scaled((0, 0), 1)
    assert scaled(vector([" 2/4", "\u22123/6"])) == Scaled((1, -1), 2)


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


def _inexact_entry_points():
    """Each library entry point that reads rationals as they are (no
    parse), called with a bad entry in one coordinate."""
    k = normalize([(1, 0), (0, 1)], [1, 1])
    return {
        "gauge": lambda bad: gauge(k, (bad, 1)),
        "minimal_sublinear": lambda bad: minimal_sublinear(k, (1, bad)),
        "membership": lambda bad: membership(k, (bad, 1)),
        "support": lambda bad: support(polar(k), (bad, 1)),
        "hull_membership": lambda bad: hull_membership((bad, 1), polar(k)),
        "solve objective": lambda bad: solve(
            LinearProgram("max", (bad, 1), (((1, 1), "<=", 1),), ("nonneg",) * 2)
        ),
        "solve row": lambda bad: solve(
            LinearProgram("max", (1, 1), (((1, bad), "<=", 1),), ("nonneg",) * 2)
        ),
        "HPolyhedron.compiled": lambda bad: HPolyhedron(2, ((1, bad),)).compiled,
        "VPolytope.compiled": lambda bad: VPolytope(2, ((bad, 1),)).compiled,
        "CornerInstance": lambda bad: CornerInstance(1, (bad,), ((1,),)),
    }


@pytest.mark.parametrize("bad", [1.5, "1/2", None], ids=repr)
@pytest.mark.parametrize("site", sorted(_inexact_entry_points()))
def test_inexact_entries_are_value_errors(site, bad):
    # A float, a text or None where the library takes an int or a Fraction
    # is refused with a ValueError that names the entry, not an
    # AttributeError on its missing denominator.
    with pytest.raises(ValueError, match=re.escape(repr(bad))):
        _inexact_entry_points()[site](bad)


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


# Entries the block reader must refuse with parse_rational's error: a digit
# string past int()'s limit, a bool, a float, an empty text, texts holding
# the block's separator or a comma, and a fullwidth digit; then a blank
# inside, a signed, zero-led or unicode-minus denominator, and two signs;
# then JSON's own tokens, which json.loads would read but the grammar
# refuses: its constants, floats and exponents, a list, a quoted text, a
# second slash, and Python's digit separator and hex prefix.
SPECIAL_SCALARS = ["9" * 5000, True, 0.5, "", "1\n2", "1,2", "\uff11"]
SPECIAL_SCALARS += ["1 /2", "1/-2", "1/02", "1/\u22122", "+-1", "\u2212\u22121"]
SPECIAL_SCALARS += ["NaN", "Infinity", "-Infinity", "1e5", "1E5", "1.0", "-0.0"]
SPECIAL_SCALARS += ["true", "null", "[1]", '"1"', "1/2/3", "1_000", "0x10"]


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
    """scaled(vector(row)) on each row: the rational points, or the text
    of the first ValueError."""
    try:
        return [unscaled(scaled(vector(row))) for row in rows]
    except ValueError as exc:
        return str(exc)


def block_rows(rows, dim):
    """The block reader's rational points, or None where it refuses."""
    block = scaled_columns(rows, dim)
    return None if block is None else block_points(block)


def points_read(read, rows, dim):
    """The rational points read (points_from_json or its entry-by-entry
    reference) yields for the document {"points": rows}, or the text of
    the SchemaError it raises."""
    try:
        return block_points(read({"points": rows}, dim))
    except SchemaError as exc:
        return str(exc)


def check_points(rows, dim):
    """points_from_json on rows gives the per-row parse's points, or the
    entry-by-entry reference's SchemaError text when that parse raises;
    scaled_columns gives None or exactly those points. Returns what
    scaled_columns gives, as block_rows does."""
    expected = reference_rows(rows)
    got = points_read(points_from_json, rows, dim)
    if isinstance(expected, str):
        assert got == points_read(reference_points_from_json, rows, dim)
        assert got.endswith(f": {expected}")
    else:
        assert got == expected
    block = block_rows(rows, dim)
    assert block is None or block == expected
    return block


@given(st.data())
def test_scaled_columns_match_per_row_parse(data):
    # points_from_json reads a block to vector() on each of its rows (the
    # same rational points), or raises the entry-by-entry reference's
    # SchemaError exactly when that per-row parse raises, whatever the
    # spelling; scaled_columns reads a canonical block whole, and never
    # a block to other points.
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
    block = check_points(spelled, dim)
    if mode == "canonical":
        assert block is not None
    if mode != "special":
        assert reference_rows(spelled) == [tuple(row) for row in rows]


@pytest.mark.parametrize("special", SPECIAL_SCALARS, ids=repr)
def test_scaled_columns_special_scalars(special):
    # Each special entry, alone or among canonical rows, at the start, in
    # the middle or at the end of the block: the block reader refuses it,
    # and points_from_json names the entry with parse_rational's error.
    with pytest.raises(ValueError) as excinfo:
        parse_rational(special)
    message = str(excinfo.value)
    canonical = [[1, "-2/3"], ["5/7", 0], [-4, "9/2"]]
    for k in range(3):
        for j in range(2):
            rows = [list(r) for r in canonical]
            rows[k][j] = special
            assert block_rows(rows, 2) is None
            assert reference_rows(rows) == message
            with pytest.raises(SchemaError) as raised:
                points_from_json({"points": rows}, 2)
            assert str(raised.value) == f"field 'points[{k}][{j}]': {message}"
    assert block_rows([[special]], 1) is None


# Spellings in the grammar that the typed gate refuses: a "+" sign or
# leading zeros on the numerator, and a unicode minus. Each is mapped to
# the gate's re calls it passes before it is refused: a "+" or a unicode
# minus fails the byte deletion and a slash-less text the slash count,
# both before the _TWO_SLASHES search, and a zero-led numerator over a
# denominator the decode, after it.
TYPED_GATE = [("search", rationals_module._TWO_SLASHES)]
PADDED_FORMS = {
    "+3": [],
    "007": [],
    "-007": [],
    "+0": [],
    "00/3": TYPED_GATE,
    "-00/5": TYPED_GATE,
    "+007/5": [],
    "\u2212007/2": [],
}


class RecordingRe:
    """The re functions scaled_columns calls, each call recorded as
    (function name, pattern)."""

    def __init__(self):
        self.calls = []

    def fullmatch(self, pattern, text):
        self.calls.append(("fullmatch", pattern))
        return re.fullmatch(pattern, text)

    def search(self, pattern, text):
        self.calls.append(("search", pattern))
        return re.search(pattern, text)

    def sub(self, pattern, repl, text):
        self.calls.append(("sub", pattern))
        return re.sub(pattern, repl, text)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_scaled_columns_typed_gate_calls(dim, monkeypatch):
    # A canonical 256-row block runs the gate's _TWO_SLASHES search alone,
    # and no re.fullmatch or re.sub, and reads to the per-row parse's
    # points. Blocks of slash-less int texts, and the canonical block with
    # one padded entry at the first, a middle or the last entry, then with
    # every entry padded, are refused by the gate after the calls they
    # pass, and points_from_json reads each row by row to the per-row
    # parse's points.
    rng = random.Random(dim)
    rows = [
        [canonical_form(Fraction(rng.randint(-99, 99), rng.randint(1, 9))) for _ in range(dim)]
        for _ in range(256)
    ]
    recorder = RecordingRe()
    monkeypatch.setattr(rationals_module, "re", recorder)
    assert block_rows(rows, dim) == reference_rows(rows)
    assert recorder.calls == TYPED_GATE
    texts = [[str(v) for v in row] for row in rows]
    for k in range(0, len(texts), 3):
        texts[k] = [str(rng.randint(-99, 99)) for _ in range(dim)]
    blocks = [(texts, []), ([["5"] * dim for _ in rows], [])]
    last = len(rows) * dim - 1
    for form, typed_calls in PADDED_FORMS.items():
        for at in (0, last // 2, last):
            spelled = [list(r) for r in rows]
            spelled[at // dim][at % dim] = form
            blocks.append((spelled, typed_calls))
        blocks.append(([[form] * dim for _ in rows], typed_calls))
    for spelled, typed_calls in blocks:
        recorder.calls.clear()
        assert block_rows(spelled, dim) is None
        assert recorder.calls == typed_calls
        expected = reference_rows(spelled)
        assert isinstance(expected, list)
        assert points_read(points_from_json, spelled, dim) == expected


# Blocks the typed route refuses, at least one for each condition of its
# gate: a blank, a unicode minus (bytes that are not ASCII), a comma inside
# a text, an empty text, two slashes in a text, a slash-less text, a zero
# or signed denominator and a zero-led numerator. points_from_json then
# reads or refuses them row by row as the per-row parse does.
GATE_BLOCKS = [
    ["1 /2"],
    ["\u22121/2"],
    ["1,2", "5"],
    ["1,2/3"],
    [""],
    ["5", "1/2/3"],
    ["5"],
    ["-0"],
    ["1/0"],
    ["1/-2"],
    ["007"],
]


@pytest.mark.parametrize("block", GATE_BLOCKS, ids=repr)
def test_typed_gate_refuses_each_condition(block):
    # Each block is refused by the gate and read row by row; the per-row
    # parse's points, spelled as the CLI writes them, pass the gate.
    assert rationals_module._typed_entries(block) is None
    assert check_points([block], len(block)) is None
    expected = reference_rows([block])
    if isinstance(expected, list):
        canonical = [[canonical_form(q) for q in x] for x in expected]
        assert block_rows(canonical, len(block)) == expected


def test_typed_route_reads_json_spelling():
    # JSON's "-0" numerator is 0 over the text's denominator; a slash-less
    # text is refused, and read row by row as an int over 1.
    block = ["-0/1", "-0/5", -3, "-7/4"]
    assert rationals_module._typed_entries(block) == [0, 1, 0, 5, -3, 1, -7, 4]
    assert block_rows([block], 4) == reference_rows([block])
    for block in (["5"], ["-0"], ["-0/5", "5"]):
        assert rationals_module._typed_entries(block) is None
        assert check_points([block], len(block)) is None


def test_scaled_columns_match_per_row_parse_on_drawn_blocks():
    # Seeded blocks of canonical entries, with odd spellings mixed in at
    # drawn positions: points_from_json reads each to the per-row parse's
    # points, or raises the reference's SchemaError exactly when that
    # parse raises, and scaled_columns reads a block with no odd entry.
    # Many of them pass the typed gate, the rest are read row by row.
    rng = random.Random(38)
    odd = [*PADDED_FORMS, *SPECIAL_SCALARS, *(e for b in GATE_BLOCKS for e in b)]
    odd += ["5", "-5", "0", "-0", "-0/5", " 3", "1/", "/2", "-", "3//4"]
    typed = 0
    for _ in range(20_000):
        dim = rng.randint(1, 4)
        rows = []
        for _ in range(rng.randint(1, 6)):
            row = []
            for _ in range(dim):
                q = Fraction(rng.randint(-(10 ** rng.randint(1, 30)), 10**30), rng.randint(1, 9))
                row.append(canonical_form(q))
            rows.append(row)
        odd_entries = rng.choice([0, 0, 1, 2])
        for _ in range(odd_entries):
            rows[rng.randrange(len(rows))][rng.randrange(dim)] = rng.choice(odd)
        block = check_points(rows, dim)
        assert odd_entries or block is not None, rows
        typed += block is not None
    assert typed >= 5_000, typed


# A set's and a body's rows and right-hand sides, and the structural
# faults the entry-by-entry reader names: a row of another width, a row
# or a list that is not a list, a missing or short "rhs".
ROW_DOC = {"rows": [[1, "-2/3"], ["5/7", 0]], "rhs": ["3/2", 2]}
ROW_POSITIONS = [("rows", 0, 0), ("rows", 0, 1), ("rows", 1, 0), ("rows", 1, 1), ("rhs", 0), ("rhs", 1)]
ROW_FAULTS = [
    {"rows": [[1, 2, 3], [1, 0]], "rhs": [1, 1]},
    {"rows": [[1, 0], "12"], "rhs": [1, 1]},
    {"rows": "rows", "rhs": [1]},
    {"rows": [[1, 0]]},
    {"rows": [[1, 0]], "rhs": [1, 2]},
    {"rows": [[1, 0]], "rhs": {"0": 1}},
    {"rhs": [1]},
    [[1, 0]],
]


def _outcome(read, *args):
    """read(*args), or the type and text of the ValueError it raises."""
    try:
        return read(*args)
    except ValueError as exc:
        return type(exc).__name__, str(exc)


def _spelled_docs():
    """ROW_DOC with one entry spelled each way, at every position: each
    text_forms and more_forms spelling of a few rationals, and each
    SPECIAL_SCALARS entry."""
    forms = list(SPECIAL_SCALARS)
    for q in (Fraction(0), Fraction(3), Fraction(-7, 4), Fraction(10**30, 7)):
        forms += text_forms(q) + more_forms(q)
    for key, *at in ROW_POSITIONS:
        for form in forms:
            doc = {"rows": [list(r) for r in ROW_DOC["rows"]], "rhs": list(ROW_DOC["rhs"])}
            entries = doc[key][at[0]] if key == "rows" else doc[key]
            entries[at[-1]] = form
            yield doc


def test_set_and_body_rows_read_to_ints():
    # Every spelling at every position of a set's and a body's rows and
    # right-hand sides: an accepted document reads to the Scaled rows
    # scaled(vector(row)) and its right-hand sides to scaled(vector(rhs)),
    # and builds the set (and body) the entry-by-entry reader builds; a
    # refused one raises that reader's exact error, SchemaError text and
    # all, as does each structural fault.
    f = (Fraction(1, 2), Fraction(1, 3))
    accepted = refused = 0
    for doc in [*_spelled_docs(), *ROW_FAULTS]:
        read = _outcome(jsonio._rows_from_json, doc, 2)
        expected = _outcome(reference_polyhedron_from_json, {"dim": 2, **doc} if isinstance(doc, dict) else doc)
        if isinstance(read, tuple) and isinstance(read[1], Scaled):
            rows, rhs = read
            assert rows == [scaled(vector(r)) for r in doc["rows"]]
            assert rhs == scaled(vector(doc["rhs"]))
            accepted += 1
        else:
            refused += 1
        got = _outcome(jsonio.polyhedron_from_json, {"dim": 2, **doc} if isinstance(doc, dict) else doc)
        assert got == expected
        assert _outcome(jsonio.body_from_json, doc, f) == _outcome(reference_body_from_json, doc, f)
    assert accepted >= 200, accepted
    assert refused == len(SPECIAL_SCALARS) * len(ROW_POSITIONS) + len(ROW_FAULTS)


# Characters near the scalar grammar: digits, signs (the unicode minus
# too), the slash, a decimal point, blanks (no-break space too) and a
# fullwidth digit; then exponent letters, JSON's separators and quote, and
# the digit separator, so that near-JSON texts are drawn too.
GRAMMAR_CHARS = "0123456789+-\u2212/. \t\n\u00a0\uff11eE,[]_\""


@settings(max_examples=500)
@given(st.text(GRAMMAR_CHARS, max_size=8))
@example("-1")
@example("\u22121/2")
@example("1/0")
@example("1/02")
@example("1e5")
@example("-0")
@example("-7/4")
def test_block_grammar_matches_parse_rational(text):
    # points_from_json and parse_rational's _RATIONAL_TEXT spell one
    # grammar: a text is read by both, as the same rational, or refused
    # by both, with the reference's SchemaError; scaled_columns reads it
    # to that rational or refuses it, and reads the text the CLI writes.
    block = check_points([[text]], 1)
    expected = reference_rows([[text]])
    if isinstance(expected, list) and text == canonical_form(expected[0][0]):
        assert block == expected


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

    # rationals, but not the ints json.load makes: refused by the block,
    # and read by points_from_json as _row reads them in a set's rows
    for big in (Count(3), 10**5000):
        assert scaled(vector([big])) == Scaled((big,), 1)
        assert scaled_columns([[big]], 1) is None
        x = jsonio._row([big, 1], "points", 2, 0)
        assert x == Scaled((big, 1), 1)
        assert points_from_json({"points": [[big, 1]]}, 2) == ([[x.ints[0]], [1]], [1])
    for rows in ([[1, 2, 3]], [[1]], ["12"], [(1, 2)], [None]):
        assert scaled_columns(rows, 2) is None


def read_block(read, rows, dim):
    """(cols as a list, dens) of read({"points": rows}, dim), or the text
    of the SchemaError it raises."""
    try:
        cols, dens = read({"points": rows}, dim)
    except SchemaError as exc:
        return str(exc)
    return list(cols), dens


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_points_from_json_matches_reference_on_whole_lists(dim):
    # Canonical lists of 0 to 20,000 rows, each also with one loose entry
    # (blanks, a unicode minus) or one bad entry ("1.5") at the first, a
    # middle or the last row: points_from_json reads the whole list as one
    # block, laid out as the entry-by-entry reference lays it out, or
    # raises the reference's SchemaError, naming the same first bad field.
    # The reference reads each row alone, so a list with a loose row k is
    # expected to read as the canonical list with point k read alone.
    rng = random.Random(4000 + dim)
    for count in (0, 1, 255, 256, 257, 2_000, 20_000):
        rows = [
            [canonical_form(Fraction(rng.randint(-99, 99), rng.randint(1, 9))) for _ in range(dim)]
            for _ in range(count)
        ]
        cols, dens = read_block(reference_points_from_json, rows, dim)
        assert read_block(points_from_json, rows, dim) == (cols, dens)
        assert len(dens) == count
        for entry in (" 1/2", "\u22127", "1.5"):
            for k in sorted({0, count // 2, count - 1}) if count else ():
                j = rng.randrange(dim)
                spelled = list(rows)
                spelled[k] = list(rows[k])
                spelled[k][j] = entry
                if entry == "1.5":
                    expected = read_block(reference_points_from_json, spelled, dim)
                    assert expected == f"field 'points[{k}][{j}]': not a rational: '1.5'"
                else:
                    one_cols, one_den = read_block(reference_points_from_json, [spelled[k]], dim)
                    expected = (
                        [c[:k] + one + c[k + 1 :] for c, one in zip(cols, one_cols)],
                        dens[:k] + one_den + dens[k + 1 :],
                    )
                assert read_block(points_from_json, spelled, dim) == expected


# Every ASCII character, a unicode minus, a fullwidth digit and a lone
# surrogate, alone and placed before, inside and after a "p/q" text.
GATE_CHARS = [chr(i) for i in range(128)] + ["\u2212", "\uff11", "\ud800"]


@pytest.mark.parametrize("char", GATE_CHARS, ids=ascii)
def test_typed_gate_reads_every_character_as_the_reference(char):
    # Each entry, among canonical rows, is read by points_from_json exactly
    # as the per-row parse reads it (or refused with the reference's
    # SchemaError), and scaled_columns reads its block to those points or
    # refuses it.
    for entry in (char, f"{char}3/4", f"3{char}/4", f"3/{char}4", f"3/4{char}"):
        check_points([[1, "-2/3"], [entry, 5], ["7/2", -4]], 2)
        check_points([[entry]], 1)
