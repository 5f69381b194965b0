import random
import time
from collections import Counter
from fractions import Fraction
from itertools import product
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    cone_is_pointed,
    fraction_check_unit_ball,
    fraction_random_unit_ball_rep,
    fraction_search_proves,
    fraction_sup_over,
    fraction_sample_points,
    fraction_support_lp,
    gauge_bracket,
    in_recession,
    lp_exposed_point,
    make_program,
    polar_support_lp,
    pivots_logged,
    polar_question,
    programs_logged,
    per_point_off_recession_check,
    per_point_reconstruct_check,
    per_point_sandwich_check,
    raise_polar_support,
    raise_rho,
    rational_property_suite,
    rational_samples,
    ray_off,
    use_fraction_routes,
    vadd,
    vscale,
    zero_witness,
)
import conftest
from polarcut import jsonio, polyhedra, sublinear
from polarcut.lp import solve
from polarcut.polyhedra import (
    HPolyhedron,
    VPolytope,
    hull_membership,
    membership,
    normalize,
    polar,
    proved_bounded,
    random_polyhedron,
    ray_certificate,
)
from polarcut.rationals import (
    ZERO,
    Values,
    dot,
    integer_rows,
    is_zero_vector,
    scaled,
    unscaled,
    vector,
)
from polarcut.sublinear import (
    block_values,
    check_unit_ball,
    gauge,
    minimal_sublinear,
    off_recession_check,
    property_suite,
    random_unit_ball_rep,
    reconstruct_check,
    sample_points,
    sandwich_check,
    support,
)


def V(*entries):
    return vector(entries)


coords = st.fractions(min_value=-8, max_value=8, max_denominator=24)
vec2 = st.tuples(coords, coords)
scales = st.fractions(min_value=0, max_value=6, max_denominator=12)


def test_quadrant_values(quadrant_k):
    assert gauge(quadrant_k, V(3, 2)) == 3
    assert gauge(quadrant_k, V(-1, -2)) == 0
    assert minimal_sublinear(quadrant_k, V(3, 2)) == 3
    assert minimal_sublinear(quadrant_k, V(-1, -2)) == -1
    assert minimal_sublinear(quadrant_k, V(Fraction(1, 2), Fraction(1, 4))) == Fraction(1, 2)
    gens = VPolytope(2, (V(1, 0), V(0, 1)))
    assert support(gens, V(3, 2)) == 3
    assert support(gens, V(-1, -2)) == -1
    with pytest.raises(ValueError):
        gauge(quadrant_k, V(1, 2, 3))


@given(vec2, vec2, scales)
@settings(max_examples=60)
def test_sublinearity_properties(x, y, t):
    h = normalize([(1, 0), (0, 1)], [1, 1])
    for fn in (lambda p: gauge(h, p), lambda p: minimal_sublinear(h, p)):
        assert fn(vscale(t, x)) == t * fn(x)  # positive homogeneity
        assert fn(vadd(x, y)) <= fn(x) + fn(y)  # subadditivity
    assert gauge(h, x) >= 0
    assert minimal_sublinear(h, x) <= gauge(h, x)
    if gauge(h, x) > 0:
        assert minimal_sublinear(h, x) == gauge(h, x)


def test_gauge_against_bisection_oracle():
    rng = random.Random(7)
    for _ in range(6):
        h = random_polyhedron(rng.randint(1, 3), rng.randint(2, 6), rng)
        for x in rational_samples(h, 13, 15):
            lo, hi = gauge_bracket(h, x)
            g = gauge(h, x)
            assert lo <= g <= hi


def test_gauge_is_polar_support():
    # independent LP route: gauge = sup over the polar body
    rng = random.Random(17)
    for _ in range(5):
        h = random_polyhedron(2, 5, rng)
        for x in sample_points(h, 19, 10):
            assert polar_support_lp(h, x) == gauge(h, x)


def test_polar_support_matches_the_multiplier_lp():
    # support(polar(h), x), the max over the polar's generators that the
    # off-recession check reads, against the multiplier LP over the same
    # points, on seeded 1-4-D sets, in and off the recession cone, with
    # the sample as a rational tuple and in its scaled form.
    rng = random.Random(2024)
    seen = Counter()
    for index in range(30):
        dim = rng.randint(1, 4)
        h = random_polyhedron(dim, rng.randint(dim, dim + 4), rng)
        k_star = polar(h)
        for x in sample_points(h, index, 24):
            value = polar_support_lp(h, x)
            assert support(k_star, x) == support(k_star, scaled(x)) == value
            assert value == gauge(h, x)
            seen["in recession" if in_recession(h, x) else "off"] += 1
            seen[dim] += 1
    assert min(seen.values()) >= 40, seen


def test_check_unit_ball_cases(quadrant_k):
    rows_only = VPolytope(2, (V(1, 0), V(0, 1)))
    with_origin = polar(quadrant_k)
    assert check_unit_ball(rows_only, quadrant_k)
    assert check_unit_ball(with_origin, quadrant_k)
    # missing the second row: its hull no longer covers (0,1)
    assert not check_unit_ball(VPolytope(2, (V(1, 0),)), quadrant_k)
    # a generator outside the polar: sup over K exceeds 1
    assert not check_unit_ball(
        VPolytope(2, (V(1, 0), V(0, 1), V(2, 0))), quadrant_k
    )
    # a generator with unbounded support over this (unbounded) K
    assert not check_unit_ball(
        VPolytope(2, (V(1, 0), V(0, 1), V(-1, 0))), quadrant_k
    )
    with pytest.raises(ValueError):
        check_unit_ball(VPolytope(1, ((Fraction(1),),)), quadrant_k)


def test_random_unit_ball_rep_valid_and_deterministic(quadrant_k):
    gens = random_unit_ball_rep(quadrant_k, 0, 0)
    assert gens.points == quadrant_k.rows
    rng = random.Random(29)
    for _ in range(6):
        h = random_polyhedron(rng.randint(1, 3), rng.randint(2, 6), rng)
        gens1 = random_unit_ball_rep(h, 4, 5)
        gens2 = random_unit_ball_rep(h, 4, 5)
        assert gens1 == gens2
        assert check_unit_ball(gens1, h)
        body = polar(h)
        for p in gens1.points:
            assert hull_membership(p, body).inside


def test_sandwich_quadrant_and_random(quadrant_k):
    gens = random_unit_ball_rep(quadrant_k, 3, 4)
    report = sandwich_check(quadrant_k, gens, sample_points(quadrant_k, 5, 100))
    assert report.passed and report.samples_checked == 100
    assert report.violations == ()


def test_sandwich_rejects_invalid_candidate(quadrant_k):
    bad = VPolytope(2, (V(1, 0),))
    with pytest.raises(ValueError):
        sandwich_check(quadrant_k, bad, sample_points(quadrant_k, 5, 5))


def test_reconstruct_quadrant_and_random(quadrant_k):
    assert reconstruct_check(quadrant_k, sample_points(quadrant_k, 21, 200))
    rng = random.Random(31)
    for _ in range(6):
        h = random_polyhedron(rng.randint(1, 4), rng.randint(2, 7), rng)
        assert reconstruct_check(h, sample_points(h, 23, 60))


def test_off_recession_quadrant(quadrant_k):
    assert off_recession_check(quadrant_k, V(3, 2))
    assert off_recession_check(quadrant_k, V(1, -5))
    with pytest.raises(ValueError):
        off_recession_check(quadrant_k, V(-1, -2))


def test_sample_points_deterministic_mix(quadrant_k):
    pts = sample_points(quadrant_k, 42, 120)
    assert pts == sample_points(quadrant_k, 42, 120)
    assert len(pts) == 120
    # the mix covers the interesting strata for this unbounded set
    assert any(in_recession(quadrant_k, x) for x in pts)
    boundary = [x for x in pts if minimal_sublinear(quadrant_k, x) == 1]
    assert boundary
    assert any(gauge(quadrant_k, x) > 1 for x in pts)


# ------------------------------------------- integer evaluators vs Fraction


def _huge_rationals(low=-(10**45)):
    """Rationals whose denominators dwarf the corpus's (at most 24 there)."""
    return st.builds(
        Fraction, st.integers(low, 10**45), st.integers(10**30, 10**40)
    )


small_entries = st.fractions(min_value=-6, max_value=6, max_denominator=6)
entries = st.one_of(small_entries, _huge_rationals())


@st.composite
def set_and_points(draw):
    """A canonical set, rational points, and (when the set was built with a
    recession direction d, i.e. every raw row has <a, d> < 0) points t*d on
    which the minimal sublinear function is negative."""
    dim = draw(st.integers(1, 4))
    d = tuple(draw(st.integers(-3, 3)) for _ in range(dim))
    recedes = any(d) and draw(st.booleans())
    raw = []
    for _ in range(draw(st.integers(1, 6))):
        b = tuple(draw(small_entries) for _ in range(dim))
        if recedes:
            # shift b along d so that <a, d> = -c < 0
            c = draw(st.fractions(min_value=Fraction(1, 8), max_value=4))
            t = (sum(x * y for x, y in zip(b, d)) + c) / sum(y * y for y in d)
            b = tuple(x - t * y for x, y in zip(b, d))
        raw.append(b)
    rhs = [
        draw(st.one_of(st.integers(1, 5), _huge_rationals(low=1)))
        for _ in raw
    ]
    if all(not any(b) for b in raw):
        raw[0] = (Fraction(1),) + (Fraction(0),) * (dim - 1)
    h = normalize(raw, rhs)
    points = [
        vector(draw(entries) for _ in range(dim))
        for _ in range(draw(st.integers(1, 6)))
    ]
    # points on the boundary, so that "boundary" verdicts are exercised
    for x in list(points):
        top = max(dot(a, x) for a in h.rows)
        if top > 0:
            points.append(vscale(1 / top, x))
    if recedes:
        for _ in range(draw(st.integers(1, 3))):
            t = draw(_huge_rationals(low=1))
            points.append(vscale(t, vector(d)))
    gens = VPolytope(
        dim,
        tuple(
            vector(draw(entries) for _ in range(dim))
            for _ in range(draw(st.integers(1, 5)))
        ),
    )
    return h, points, gens, recedes


@given(set_and_points())
@settings(max_examples=100, deadline=None)
def test_integer_evaluators_match_fraction_reference(case):
    h, points, gens, recedes = case
    negative_rho = 0
    for x in points:
        values = [dot(a, x) for a in h.rows]
        top = max(values)
        assert minimal_sublinear(h, x) == top
        assert gauge(h, x) == max(ZERO, top)
        assert support(gens, x) == max(
            dot(p, x) for p in gens.points
        )
        assert in_recession(h, x) == all(v <= 0 for v in values)
        verdict = membership(h, x)
        if top > 1:
            assert verdict.position == "outside" and verdict.tight_rows == ()
        elif top < 1:
            assert verdict.position == "interior" and verdict.tight_rows == ()
        else:
            assert verdict.position == "boundary"
            assert verdict.tight_rows == tuple(
                i for i, v in enumerate(values) if v == 1
            )
        negative_rho += top < 0
    if recedes:
        assert negative_rho > 0


def test_sandwich_violations_match_fraction_reference(quadrant_k, monkeypatch):
    # A candidate outside the polar breaks the sandwich; with the unit-ball
    # precondition bypassed, the violations reported must be exactly the
    # samples where the plain Fraction comparison fails, with exact values.
    bad = VPolytope(
        2,
        (
            V(1, 0),
            V(0, 1),
            V(Fraction(1, 4), 0),
            V(2, 0),
            V(Fraction(-1, 3), 5),
        ),
    )
    samples = rational_samples(quadrant_k, 8, 200)
    monkeypatch.setattr(sublinear, "check_unit_ball", lambda gens, h: True)
    report = sandwich_check(quadrant_k, bad, samples)
    expected = []
    for x in samples:
        low = max(dot(a, x) for a in quadrant_k.rows)
        mid = max(dot(p, x) for p in bad.points)
        high = max(ZERO, low)
        if not low <= mid <= high:
            expected.append((x, low, mid, high))
    assert expected
    assert report.violations == tuple(expected)
    assert report.samples_checked == 200 and not report.passed


def test_sample_points_match_fraction_reference():
    # The int draws, boundary rescalings and sign search give the same
    # points as the Fraction route, compared after unscaled, on bounded sets
    # (recession cone {0}) and unbounded ones alike.
    rng = random.Random(2718)
    bounded = receding = 0
    for case in range(60):
        dim = 1 + case % 4
        h = random_polyhedron(dim, rng.randint(1, dim + 3), rng)
        for seed, count in ((case, 40), (case + 1000, 97)):
            points = rational_samples(h, seed, count)
            assert points == fraction_sample_points(h, seed, count)
            assert len(points) == count
        members = [
            x for x in points if any(x) and all(dot(a, x) <= 0 for a in h.rows)
        ]
        receding += bool(members)
        bounded += _bounded(h)
    assert bounded > 5 and receding > 5, (bounded, receding)


def test_sample_points_skip_the_sign_search_on_proved_bounded_sets(monkeypatch):
    # On a set that polyhedra.proved_bounded proves bounded, the recession
    # cone is {0}: sample_points runs no sign search, and a zero base, the
    # only one that passes, gets every sign +1. The samples equal, Scaled
    # for Scaled, those of the sign-search route (the proof patched away)
    # and match the Fraction reference. Zero bases are drawn.
    rng = random.Random(2584)
    real = sublinear._first_recession_signs
    patterns = []

    def logged(products):
        patterns.append(real(products))
        return patterns[-1]

    monkeypatch.setattr(sublinear, "_first_recession_signs", logged)
    proved = 0
    for case in range(80):
        dim = 1 + case % 4
        h = random_polyhedron(dim, rng.randint(dim + 1, dim + 4), rng)
        if not proved_bounded(h.compiled):
            continue
        proved += 1
        for seed, count in ((case, 40), (case + 1000, 97)):
            searched = len(patterns)
            points = sample_points(h, seed, count)
            assert len(patterns) == searched
            with monkeypatch.context() as mp:
                mp.setattr(sublinear, "proved_bounded", lambda compiled: False)
                assert sample_points(h, seed, count) == points
            assert tuple(map(unscaled, points)) == fraction_sample_points(h, seed, count)
    passed = [p for p in patterns if p is not None]
    assert proved >= 20 and len(patterns) >= 500, (proved, len(patterns))
    assert passed and set(passed) <= {(1,) * k for k in range(1, 5)}, passed


def test_inline_draws_match_randint():
    # sublinear._randints draws rng.randint's numbers from rng.getrandbits
    # with randint's own rejection loop (k = width.bit_length() bits, drawn
    # again while they reach the width). That loop is a CPython
    # implementation detail (Random._randbelow_with_getrandbits), not a
    # documented guarantee, so this test pins it: seeded draws over the
    # ranges that sample_points and random_unit_ball_rep use (0..4,
    # -12..12, 1..6), width 1 and random widths up to 2^70, interleaved,
    # give the same numbers and leave both generators in the same state.
    rng = random.Random(1597)
    spans = [(0, 4), (-12, 12), (1, 6), (7, 7), (-3, -3)]
    spans += [(lo, lo + rng.randrange(2 ** rng.randint(1, 70))) for lo in range(-20, 20)]
    for seed in range(50):
        drawn = [rng.choice(spans) for _ in range(200)]
        mine, reference = random.Random(seed), random.Random(seed)
        assert sublinear._randints(mine.getrandbits, drawn) == [
            reference.randint(lo, hi) for lo, hi in drawn
        ]
        assert mine.getstate() == reference.getstate()


def _bounded(h):
    """A set is bounded iff it has a finite maximum along each signed axis."""
    for k in range(h.dim):
        for sign in (1, -1):
            e = [0] * h.dim
            e[k] = sign
            program = make_program(
                "max", e, [(a, "<=", 1) for a in h.rows], ("free",) * h.dim
            )
            if solve(program).status == "unbounded":
                return False
    return True


def test_sign_search_matches_enumeration():
    # The pruned depth-first search returns the first passing pattern of
    # product((1, -1), repeat=dim), or None, on random int rows in 1-7-D;
    # zeros and a few dominant coordinates make both outcomes common.
    rng = random.Random(1618)
    found = 0
    for case in range(2000):
        dim = 1 + case % 7
        products = [
            tuple(rng.choice((0, 0, 1, -1, 3, -5, 12)) * rng.randint(1, 4) for _ in range(dim))
            for _ in range(rng.randint(1, 2 * dim + 1))
        ]
        expected = next(
            (
                signs
                for signs in product((1, -1), repeat=dim)
                if all(sum(s * v for s, v in zip(signs, t)) <= 0 for t in products)
            ),
            None,
        )
        assert sublinear._first_recession_signs(products) == expected
        found += expected is not None
    assert 200 < found < 1800, found


def test_sample_points_match_fraction_reference_up_to_7d():
    # sample_points against the 2^dim enumeration of the Fraction route in
    # 5-7-D (1-4-D is covered above).
    rng = random.Random(3141)
    for case in range(15):
        dim = 5 + case % 3
        h = random_polyhedron(dim, rng.randint(1, dim + 3), rng)
        for seed, count in ((case, 40), (case + 1000, 97)):
            assert rational_samples(h, seed, count) == fraction_sample_points(h, seed, count)


def test_sample_points_30d_box_finishes():
    # The box {|x_i| <= 1} is bounded, so every candidate fails every sign
    # pattern; the search drops a candidate as soon as one coordinate is
    # signed. Enumerating 2^30 patterns per candidate would never finish.
    dim = 30
    rows = tuple(
        tuple(Fraction(s if j == i else 0) for j in range(dim))
        for i in range(dim)
        for s in (1, -1)
    )
    h = HPolyhedron(dim, rows)
    start = time.perf_counter()
    points = sample_points(h, 0, 200)
    assert len(points) == 200 and all(len(x.ints) == dim for x in points)
    assert time.perf_counter() - start < 30


def _break_check(monkeypatch, check):
    """The four deliberately broken checks of test_cli.py, each fault put
    on both routes: the column route of property_suite and the evaluators
    that the per-point route of rational_property_suite calls. A zero
    exposed witness is put on both routes of the suite's exposed_point,
    the ray's and the LP's, and on fraction_exposed_witness, the
    reference's witness for every row."""
    if check == "off_recession":
        raise_polar_support(monkeypatch)
        real = sublinear.support
        monkeypatch.setattr(sublinear, "support", lambda gens, x: real(gens, x) + 1)
    elif check == "exposed":
        zero_witness(monkeypatch)
        monkeypatch.setattr(conftest, "fraction_exposed_witness", lambda h, i: (ZERO,) * h.dim)
    elif check == "reconstruct":
        raise_rho(monkeypatch)
        real = sublinear.minimal_sublinear
        monkeypatch.setattr(sublinear, "minimal_sublinear", lambda h, x: real(h, x) + 1)
    elif check == "sandwich":
        monkeypatch.setattr(
            sublinear,
            "random_unit_ball_rep",
            lambda h, seed, n: VPolytope(h.dim, tuple(vscale(2, a) for a in h.rows)),
        )
        monkeypatch.setattr(sublinear, "check_unit_ball", lambda gens, h: True)


@pytest.mark.parametrize("broken", [None, "sandwich", "reconstruct", "off_recession", "exposed"])
def test_property_suite_matches_rational_route(broken, monkeypatch):
    # Pre-scaled samples give the same tally, and the same first violations
    # as Fraction vectors, as every check fed the rational samples.
    rng = random.Random(4242)
    instances = [random_polyhedron(rng.randint(1, 4), rng.randint(3, 8), rng) for _ in range(6)]
    _break_check(monkeypatch, broken)
    tally, violations = property_suite(instances, 17, 40)
    assert (tally, violations) == rational_property_suite(instances, 17, 40)
    assert (violations > 0) == (broken is not None)
    if broken in ("sandwich", "off_recession"):
        assert tally[broken]["first_violation"] is not None
    for name in ("sandwich", "off_recession"):
        x = tally[name]["first_violation"]
        assert x is None or all(type(v) is Fraction for v in x)


def test_property_suite_counts_a_redundant_row_as_one_exposed_failure():
    # A hand-built set, not normalized, with (1, 0) redundant beside (2, 0):
    # exposed_point finds no point for it (its support LP stays at 1/2), a
    # failure of that row alone; the other rows keep witnesses tight on
    # them alone, and every other check still holds on the set's rows.
    rows = (vector((0, 1)), vector((1, 0)), vector((2, 0)))
    for order in (rows, rows[::-1]):
        h = HPolyhedron(2, order)
        tally, violations = property_suite([h], 3, 24)
        assert tally["exposed"] == {"rows_checked": 3, "failures": 1}
        assert violations == 1


def zero_coefficient_set(rng, dim):
    """A seeded canonical set in dim coordinates whose rows have zero
    coefficients; a single row (a half-space) one time in four."""
    while True:
        count = 1 if rng.randrange(4) == 0 else rng.randint(2, 7)
        rows = [[rng.choice((0, 0, 1, -1, 2, -3, 5)) for _ in range(dim)] for _ in range(count)]
        rhs = [Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in rows]
        try:
            return normalize(rows, rhs)
        except ValueError:  # all rows zero or vacuous
            continue


def spelled_points(rng, dim, count):
    """count seeded points, each entry an int or "p/q" text."""
    out = []
    for _ in range(count):
        row = (Fraction(rng.randint(-40, 40), rng.randint(1, 9)) for _ in range(dim))
        out.append([q.numerator if q.denominator == 1 else str(q) for q in row])
    return out


def test_block_values_match_per_point_evaluators():
    # block_values on the block jsonio reads equals gauge and
    # minimal_sublinear point by point, on seeded 1-5-D sets with zero
    # coefficients (and single rows), for point counts from 0 to 513;
    # each value is an int pair in lowest terms over a positive denominator.
    rng = random.Random(256)
    counts = (0, 1, 255, 256, 257, 513)
    seen_zero = seen_single = 0
    for dim in range(1, 6):
        for count in counts:
            h = zero_coefficient_set(rng, dim)
            seen_zero += any(0 in a for a in h.compiled[0])
            seen_single += len(h.rows) == 1
            doc = {"points": spelled_points(rng, dim, count)}
            points = [tuple(map(Fraction, row)) for row in doc["points"]]
            block = jsonio.points_from_json(doc, dim)
            assert len(block[1]) == count
            for clamp, evaluate in ((True, gauge), (False, minimal_sublinear)):
                column = block_values(h, block, clamp)
                assert type(column) is Values
                pairs = list(zip(*column))
                assert all(type(n) is type(d) is int for n, d in pairs)
                assert all(gcd(n, d) == 1 and d > 0 for n, d in pairs)
                got = [Fraction(n, d) for n, d in pairs]
                assert got == [evaluate(h, x) for x in points], (dim, count, clamp)
    assert seen_zero >= 10 and seen_single >= 3


def test_block_values_rejects_bad_shapes(quadrant_k):
    # a block of another width, or with columns shorter than its dens
    with pytest.raises(ValueError, match="dimension mismatch"):
        block_values(quadrant_k, (([1], [2], [3]), [1]), True)
    with pytest.raises(ValueError, match="every column must hold 2 points"):
        block_values(quadrant_k, (([1, 2], [3]), [1, 1]), False)


def _per_point_off_recession(h, samples):
    """(samples checked, violating samples) of the per-point route."""
    checked, missed = 0, []
    for x in samples:
        if in_recession(h, x):
            continue
        checked += 1
        if not per_point_off_recession_check(h, x):
            missed.append(x)
    return checked, missed


def _column_off_recession(h, samples):
    """The same pair from the suite's column route over one sample block."""
    _, block = sublinear._sample_block(samples, h.dim)
    rho = polyhedra.column_max(h.compiled, block)
    ks, misses = sublinear._off_recession_samples(h, block, rho)
    return len(ks), [samples[k] for k in misses]


def _drop_last_polar_row(mp):
    real = sublinear.polar
    mp.setattr(sublinear, "polar", lambda h: VPolytope(h.dim, real(h).points[:-1]))


def test_column_checks_match_per_point_route(monkeypatch):
    # On seeded 1-4-D sets, zero-coefficient ones among them, the column
    # checks report what the per-point route of conftest reports, with the
    # samples given as rational tuples and as Scaled, 0 samples among them:
    # equal sandwich reports for candidates in the polar (polar(h) itself
    # among them, whose origin is a zero vector for the kernel) and outside
    # it (check_unit_ball bypassed), equal reconstruct verdicts (with rho
    # raised by 1 too), and the same off-recession samples and violations
    # sample for sample, with the honest polar and with one row dropped.
    rng = random.Random(9973)
    seen = Counter()
    for case in range(30):
        dim = 1 + case % 4
        if case % 2:
            h = zero_coefficient_set(rng, dim)
        else:
            h = random_polyhedron(dim, rng.randint(1, dim + 4), rng)
        pts = sample_points(h, case, (0, 9, 40)[case % 3])
        valid = (random_unit_ball_rep(h, case, 5), polar(h))
        rand = tuple(
            tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(dim))
            for _ in range(3)
        )
        outside = (VPolytope(dim, tuple(vscale(2, a) for a in h.rows)), VPolytope(dim, rand))
        for samples in (pts, tuple(map(scaled, pts))):
            for gens in valid:
                report = sandwich_check(h, gens, samples)
                assert report == per_point_sandwich_check(h, gens, samples)
                assert report.passed and report.samples_checked == len(samples)
            with monkeypatch.context() as mp:
                mp.setattr(sublinear, "check_unit_ball", lambda gens, h: True)
                for gens in outside:
                    report = sandwich_check(h, gens, samples)
                    reference = per_point_sandwich_check(h, gens, samples)
                    assert report.violations == reference.violations
                    assert report == reference
                    seen["sandwich violations"] += len(report.violations)
            assert reconstruct_check(h, samples) is per_point_reconstruct_check(h, samples)
            # The column route's gauge is max(rho, 0) of the same maxima, so
            # rho + 1 also rescales the samples with rho in (-1, 0]; both
            # routes fail alike once some sample has a positive gauge.
            if any(gauge(h, x) > 0 for x in samples):
                with monkeypatch.context() as mp:
                    _break_check(mp, "reconstruct")
                    verdict = reconstruct_check(h, samples)
                    assert verdict is per_point_reconstruct_check(h, samples)
                    seen["reconstruct failures"] += not verdict
            for drop in (False, True):
                with monkeypatch.context() as mp:
                    if drop:
                        _drop_last_polar_row(mp)
                    column = _column_off_recession(h, samples)
                    assert column == _per_point_off_recession(h, samples)
                    seen["off-recession samples"] += column[0]
                    seen[f"off-recession misses, dropped {drop}"] += len(column[1])
                    for x in samples:
                        if in_recession(h, x):
                            with pytest.raises(ValueError):
                                off_recession_check(h, x)
                            with pytest.raises(ValueError):
                                per_point_off_recession_check(h, x)
                        else:
                            assert off_recession_check(h, x) is per_point_off_recession_check(h, x)
    assert seen["sandwich violations"] > 100, seen
    assert seen["reconstruct failures"] > 10, seen
    assert seen["off-recession samples"] > 100, seen
    assert seen["off-recession misses, dropped False"] == 0, seen
    assert seen["off-recession misses, dropped True"] > 10, seen


def test_property_suite_pairs_a_sample_once(monkeypatch):
    # The suite's checks pair a sample with the set's rows point by point
    # only in reconstruction's membership cross-check, and each exposed
    # witness once; everything else, sample_points included, is column
    # passes, also where a fault makes violations.
    rng = random.Random(5151)
    instances = [random_polyhedron(rng.randint(1, 4), rng.randint(3, 8), rng) for _ in range(4)]
    seed, samples = 17, 40
    calls = Counter()
    real = polyhedra.pairings

    def counted(compiled, x):
        calls["pairings"] += 1
        return real(compiled, x)

    monkeypatch.setattr(polyhedra, "pairings", counted)
    monkeypatch.setattr(sublinear, "pairings", counted)
    per_sample = len(instances) * samples + sum(len(h.rows) for h in instances)
    for broken in (None, "sandwich", "reconstruct", "off_recession", "exposed"):
        with monkeypatch.context() as mp:
            _break_check(mp, broken)
            calls.clear()
            _, violations = property_suite(instances, seed, samples)
        assert (violations > 0) == (broken is not None)
        assert calls["pairings"] <= per_sample + violations, (broken, calls)


def test_property_suite_makes_seven_column_passes_per_set(monkeypatch):
    # Per set: sample_points' boundary pass, rho over the samples and the
    # reconstruction's boundary block over the rows, one pass per
    # candidate, and one over polar(h) for the off-recession check.
    rng = random.Random(6262)
    instances = [random_polyhedron(rng.randint(1, 4), rng.randint(3, 8), rng) for _ in range(3)]
    instances += [zero_coefficient_set(rng, dim) for dim in (2, 3, 4)]
    calls = Counter()
    real = polyhedra.column_max

    def counted(compiled, block):
        if compiled is h.compiled:
            calls["rows"] += 1
        elif not any(compiled[0][0]) and compiled[0][1:] == h.compiled[0]:
            calls["polar"] += 1
        else:
            calls["candidates"] += 1
        return real(compiled, block)

    monkeypatch.setattr(sublinear, "column_max", counted)
    for index, h in enumerate(instances):
        calls.clear()
        property_suite([h], 31 + index, 40)
        assert calls == {"rows": 3, "candidates": 3, "polar": 1}, calls


def test_sample_points_make_no_pairings(monkeypatch):
    # The draws take their boundary rescalings from one column pass over
    # the rows: no per-point pairing, so no gauge either.
    calls = Counter()
    real = polyhedra.pairings

    def counted(compiled, x):
        calls["pairings"] += 1
        return real(compiled, x)

    monkeypatch.setattr(polyhedra, "pairings", counted)
    monkeypatch.setattr(sublinear, "pairings", counted)
    rng = random.Random(4343)
    drawn = 0
    for case in range(12):
        dim = 1 + case % 4
        h = random_polyhedron(dim, rng.randint(1, dim + 4), rng)
        drawn += len(sample_points(h, case, 64))
    assert drawn == 12 * 64 and calls["pairings"] == 0, calls
    assert gauge(h, (1,) * h.dim) is not None and calls["pairings"] == 1


def _row_certificate(h, i):
    """ray_certificate of row i of h among its other rows: the witness
    property_suite checks for that row, or None."""
    rows, den = h.compiled
    return ray_certificate(rows[i], rows[:i] + rows[i + 1 :], den)


def _gram_and_lp_verdicts(h):
    """Per row of h, (ray verdict, LP verdict): whether the ray route's
    witness is tight on that row alone (None when the row has no
    certificate), and whether the support LP's is (lp_exposed_point; None
    when it finds the row redundant)."""
    out = []
    for i in range(len(h.rows)):
        w = _row_certificate(h, i)
        gram = None if w is None else membership(h, w).tight_rows == (i,)
        w = lp_exposed_point(h, i)
        out.append((gram, None if w is None else membership(h, w).tight_rows == (i,)))
    return out


def test_gram_witnesses_match_the_lp_route():
    # On seeded 1-4-D sets, zero-coefficient sets and random_polyhedron
    # ones, the ray route and the LP route give the same verdict on every
    # row that has a certificate (both witnesses tight on that row alone).
    # With a redundant row added (half a row, or the mean of two rows), the
    # ray route finds no certificate for it, as the LP finds no witness,
    # and every other row's certified witness is still tight on it alone.
    # (A row can gain or lose its certificate there: the added row changes
    # which bases are tried.)
    rng = random.Random(7877)
    seen = Counter()
    for case in range(80):
        dim = 1 + case % 4
        if case % 2:
            h = zero_coefficient_set(rng, dim)
            kind = "zero-coefficient"
        else:
            h = random_polyhedron(dim, rng.randint(2, dim + 5), rng)
            kind = "random"
        verdicts = _gram_and_lp_verdicts(h)
        assert all(lp is True and gram in (True, None) for gram, lp in verdicts)
        seen[f"{kind} rows"] += len(verdicts)
        seen[f"{kind} uncertified"] += sum(gram is None for gram, _ in verdicts)
        extra = vscale(Fraction(1, 2), h.rows[0])
        if len(h.rows) > 1 and any(vadd(h.rows[0], h.rows[1])):
            extra = vscale(Fraction(1, 2), vadd(h.rows[0], h.rows[1]))
        padded = HPolyhedron(dim, h.rows + (extra,))
        *kept, (gram, lp) = _gram_and_lp_verdicts(padded)
        assert gram is None and lp is None
        assert all(lp is True and gram in (True, None) for gram, lp in kept)
        seen["redundant"] += 1
    # 11 of 141 random rows go to the LP (30 with the Gram test alone)
    random_share = seen["random uncertified"] / seen["random rows"]
    assert 0.05 < random_share < 0.15, seen
    assert seen["zero-coefficient uncertified"] > 0 and seen["redundant"] == 80, seen


def test_property_suite_poses_no_lp_on_certified_sets():
    # On sets whose every row has a ray certificate the suite poses no
    # LP at all: the exposed witnesses come from the certificates, the
    # drawn generators carry their weights and every row is a generator.
    # On the other sets it poses one exposed LP per row without one.
    rng = random.Random(1597)
    certified, others = [], []
    while len(certified) < 8 or len(others) < 8:
        dim = rng.randint(1, 4)
        h = random_polyhedron(dim, rng.randint(2, dim + 5), rng)
        missing = sum(_row_certificate(h, i) is None for i in range(len(h.rows)))
        (others if missing else certified).append((h, missing))
    (tally, violations), programs = programs_logged(
        property_suite, [h for h, _ in certified[:8]], 5, 40
    )
    assert programs == [] and violations == 0
    assert tally["exposed"]["rows_checked"] == sum(len(h.rows) for h, _ in certified[:8])
    (_, violations), programs = programs_logged(
        property_suite, [h for h, _ in others[:8]], 5, 40
    )
    assert len(programs) == sum(missing for _, missing in others[:8]) and violations == 0


def _generator_sets():
    """Seeded 1-5-D sets, bounded and unbounded, one with a single row and
    one with huge denominators."""
    rng = random.Random(6765)
    sets = [normalize([(3, 0)], [2])]
    sets.append(
        normalize(
            [(Fraction(1, 10**30), 7), (-5, Fraction(3, 10**29 + 1)), (0, -1)],
            [1, 1, Fraction(2, 3)],
        )
    )
    for _ in range(8):
        dim = rng.randint(1, 5)
        sets.append(random_polyhedron(dim, rng.randint(1, dim + 5), rng))
    return sets


def test_random_unit_ball_rep_matches_fraction_sums():
    # The int column sums over h.compiled, deduplicated on int keys, give
    # the very generator tuples and weights that the Fraction sums over the
    # polar's points gave, deduplicated by hashing, seed by seed: draws
    # equal to a row or to an earlier draw are merged alike.
    merged = 0
    for h in _generator_sets():
        for seed in range(50):
            for count in (0, 1, 5):
                gens = random_unit_ball_rep(h, seed, count)
                reference = fraction_random_unit_ball_rep(h, seed, count)
                assert gens.points == reference.points
                assert gens.polar_weights == reference.polar_weights
                merged += len(h.rows) + count - len(gens.points)
    assert merged >= 100, merged


def test_random_unit_ball_rep_hands_over_its_compiled_form():
    # The generator set is built with its compiled form already set, from
    # the ints its points were drawn in, and that form is integer_rows of
    # its points, as VPolytope.compiled derives it.
    for h in _generator_sets():
        for seed in range(20):
            for count in (0, 1, 5):
                gens = random_unit_ball_rep(h, seed, count)
                assert "compiled" in vars(gens)
                assert gens.compiled == integer_rows(gens.points)


# ------------------------------ generators proven by their convex weights


def _mean(h, weights):
    """sum_i w_i p_i / sum w over polar(h).points, in Fractions."""
    anchors = polar(h).points
    total = Fraction(sum(weights))
    return tuple(
        sum(w * p[d] for w, p in zip(weights, anchors)) / total for d in range(h.dim)
    )


def _claim_holds(h, v, weights) -> bool:
    """Do the weights prove v in the polar? By Fraction arithmetic: one
    int weight >= 0 per point of polar(h), a positive total, and v their
    weighted mean."""
    return (
        len(weights) == len(h.rows) + 1
        and all(type(w) is int and w >= 0 for w in weights)
        and sum(weights) > 0
        and _mean(h, weights) == v
    )


def _in_polar(h, v) -> bool:
    top = fraction_sup_over(h.rows, v)
    return top is not None and top <= 1


def _skipped(h, v) -> bool:
    """check_unit_ball needs no proof for a row or the origin."""
    return v in h.rows or is_zero_vector(v)


def _genuine_claim(h, rng, last_zero=False):
    """A seeded point of the polar, neither a row nor the origin, with int
    weights over polar(h).points that prove it; the last weight 0 when
    last_zero. None when the draws find none."""
    for _ in range(50):
        weights = [rng.randint(0, 4) for _ in range(len(h.rows) + 1)]
        if last_zero:
            weights[-1] = 0
        if sum(weights) > 0:
            point = _mean(h, weights)
            if not _skipped(h, point):
                return point, tuple(weights)
    return None


def _forgeries(h, other, rng) -> list:
    """(kind, point, weights): seeded claims over polar(h).points that do
    not prove their point. Twice a row lies outside the polar, and so may
    a nudged point; the others lie inside it."""
    v, w = _genuine_claim(h, rng)
    i = rng.randrange(len(h.rows))
    twice = vscale(2, h.rows[i])
    unit = [0] * (len(h.rows) + 1)
    negative = list(unit)
    negative[0], negative[i + 1] = -1, 2  # sums to 2 a_i over a total of 1
    doubled = list(unit)
    doubled[i + 1] = 2  # a_i over a total of 2, given as 2 a_i
    den = h.compiled[1]
    cases = [
        ("negative weight", twice, tuple(negative)),
        ("zero total", twice, tuple(unit)),
        ("zero total", v, tuple(unit)),
        ("wrong length", v, w + (0,)),
        ("nudged by 1/den", (v[0] + Fraction(1, den),) + v[1:], w),
        ("nudged by 1/den", v[:-1] + (v[-1] - Fraction(1, den),), w),
        ("claims 2 a_i", twice, tuple(doubled)),
    ]
    short = _genuine_claim(h, rng, last_zero=True)
    if short is not None:
        cases.append(("wrong length", short[0], short[1][:-1]))
    if other.dim == h.dim:
        cases.append(("another set's", v, _genuine_claim(other, rng)[1]))
    return [
        (kind, x, weights)
        for kind, x, weights in cases
        if not _skipped(h, x) and not _claim_holds(h, x, weights)
    ]


def _direction(ints) -> tuple:
    """A nonzero int vector divided by the gcd of its entries."""
    g = gcd(*ints)
    return tuple(c // g for c in ints)


def _rescaled_support_lps(h, programs, points) -> None:
    """programs, check_unit_ball's support LPs, are one per point, each a
    positive rescale of the support LP of h's Fraction rows at the point
    (fraction_support_lp): its objective a positive multiple of the
    point's ints, and, since positive row and objective scales keep
    Bland's choices, the same status, pivots and point, and the same ray
    up to a positive factor (a ray along an entering slack scales with
    that slack's row)."""
    assert len(programs) == len(points)
    for program, v in zip(programs, points):
        assert _direction(program.objective) == _direction(scaled(v).ints)
        outcome, pivots = pivots_logged(solve, program)
        reference, reference_pivots = pivots_logged(fraction_support_lp, h.rows, v)
        assert (outcome.status, pivots, outcome.point) == (
            reference.status,
            reference_pivots,
            reference.point,
        )
        if outcome.status == "unbounded":
            k = next(k for k, r in enumerate(reference.ray) if r)
            t = outcome.ray[k] / reference.ray[k]
            assert t > 0 and outcome.ray == tuple(t * r for r in reference.ray)


def _weights_agree(h, other, rng, seen: Counter) -> None:
    """check_unit_ball equals the LP-only reference on random_unit_ball_rep
    candidates of h (no LP), on the same points without their weights (one
    LP per point that is neither a row nor the origin, unless the basis
    search, fraction_search_proves, puts it in the polar) and on each
    forged claim of _forgeries (one LP, at the forged point, unless a ray
    proves it outside the polar or the search inside)."""
    for seed in range(3):
        gens = random_unit_ball_rep(h, rng.randrange(10**6), 1 + 2 * seed)
        added = [
            (v, w) for v, w in zip(gens.points, gens.polar_weights) if not _skipped(h, v)
        ]
        assert all(_claim_holds(h, v, w) for v, w in added)
        verdict, programs = programs_logged(check_unit_ball, gens, h)
        assert verdict is True and fraction_check_unit_ball(gens, h) is True
        assert programs == []
        seen["certified"] += len(added)
        bare = VPolytope(h.dim, gens.points)
        verdict, programs = programs_logged(check_unit_ball, bare, h)
        assert verdict is True
        posed = [v for v, _ in added if not fraction_search_proves(v, h.rows)]
        _rescaled_support_lps(h, programs, posed)
        seen["inside by search"] += len(added) - len(posed)
        seen["inside by LP"] += len(posed)
    for kind, x, weights in _forgeries(h, other, rng):
        gens = VPolytope(
            h.dim, h.rows + (x,), (None,) * len(h.rows) + (weights,)
        )
        verdict, programs = programs_logged(check_unit_ball, gens, h)
        assert verdict == fraction_check_unit_ball(gens, h), kind
        ray = ray_certificate(*polar_question(h, x)) is not None
        search = not ray and fraction_search_proves(x, h.rows)
        _rescaled_support_lps(h, programs, [] if ray or search else [x])
        assert verdict == _in_polar(h, x) and not (ray and verdict), kind
        assert not (search and not verdict), kind
        seen[kind] += 1
        seen["outside"] += not verdict
        seen["ray"] += ray
        seen["search"] += search


def test_polar_weights_prove_generators_as_the_lp_does():
    # Seeded 1-5-D sets, bounded and unbounded, one-row sets and sets with
    # huge denominators: the certified route and the LP-only reference give
    # the same verdicts, genuine weights spare every LP, and every forged
    # claim takes the LP route and is never taken for a point outside.
    rng = random.Random(28657)
    sets = _generator_sets()
    sets.append(normalize([(Fraction(10**25 + 7, 10**24),), (-1,)], [1, 1]))
    for _ in range(20):
        dim = rng.randint(1, 5)
        sets.append(random_polyhedron(dim, rng.randint(1, dim + 4), rng))
    seen = Counter()
    for h, other in zip(sets, sets[1:] + sets[:1]):
        _weights_agree(h, other, rng, seen)
        seen["bounded" if cone_is_pointed(h) else "unbounded"] += 1
        seen["one row"] += len(h.rows) == 1
        seen["huge den"] += h.compiled[1] > 10**20
    kinds = (
        "negative weight",
        "zero total",
        "wrong length",
        "another set's",
        "nudged by 1/den",
        "claims 2 a_i",
    )
    assert min(seen[kind] for kind in kinds) >= 5, seen
    assert seen["certified"] >= 100 and seen["outside"] >= 40, seen
    # A ray proves most points outside with no LP; the LP proves the rest.
    assert seen["ray"] >= 40 and seen["outside"] - seen["ray"] >= 5, seen
    # The basis search puts most points inside with no LP; the LP the rest.
    assert seen["inside by search"] >= 100 and seen["inside by LP"] >= 20, seen
    assert seen["search"] >= 50, seen
    assert min(seen[k] for k in ("bounded", "unbounded", "one row", "huge den")) >= 1, seen


@st.composite
def _weight_cases(draw):
    """Two canonical 1-4-D sets of small and huge-denominator rows, and a
    seed for the claims."""
    entries = st.one_of(
        st.just(Fraction(0)),
        st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)),
        st.builds(Fraction, st.integers(-(10**30), 10**30), st.integers(1, 10**30)),
    )

    def canonical(dim):
        row = st.tuples(*[entries] * dim).filter(lambda a: not is_zero_vector(a))
        rows = draw(st.lists(row, min_size=1, max_size=6))
        return normalize(rows, [1] * len(rows))

    dim = draw(st.integers(1, 4))
    return canonical(dim), canonical(dim), draw(st.integers(0, 2**32))


@given(_weight_cases())
@settings(max_examples=100, deadline=None)
def test_polar_weights_prove_generators_as_the_lp_does_on_drawn_sets(case):
    h, other, seed = case
    _weights_agree(h, other, random.Random(seed), Counter())


def test_polar_weights_stay_out_of_equality():
    # Two generator sets with the same points are equal, and hash alike,
    # whatever weights they carry; a weights tuple of the wrong length is
    # refused.
    h = normalize([(1, 0), (0, 1)], [1, 1])
    gens = random_unit_ball_rep(h, 3, 4)
    bare = VPolytope(h.dim, gens.points)
    assert gens.polar_weights is not None and bare.polar_weights is None
    assert gens == bare and hash(gens) == hash(bare)
    with pytest.raises(ValueError, match="one entry per point"):
        VPolytope(h.dim, gens.points, gens.polar_weights[:-1])


def _lp_witness(h, i):
    """sublinear's exposed_point at row i of h with the ray off: the support
    LP at every row, by the library's route or by the reference that
    use_fraction_routes puts in its place."""
    rows, den = h.compiled
    with pytest.MonkeyPatch.context() as mp:
        ray_off(mp)
        return sublinear.exposed_point(rows[i], rows[:i] + rows[i + 1 :], den)


def _logged_suite(raw_sets, seed: int, samples: int):
    """normalize on each raw set, property_suite on the sets, then the
    suite's exposed_point at every row of every set with the ray off: the
    three results, and the programs lp.solve is given in each of the three
    steps."""
    sets, normalize_programs = programs_logged(
        lambda: [normalize(rows, [1] * len(rows)) for rows in raw_sets]
    )
    tally, suite_programs = programs_logged(property_suite, sets, seed, samples)
    witnesses, exposed_programs = programs_logged(
        lambda: [unscaled(_lp_witness(h, i)) for h in sets for i in range(len(h.rows))]
    )
    return (sets, tally, witnesses), normalize_programs, suite_programs, exposed_programs


def _support_lp_at(program):
    """(objective, rational rows) of a support LP, the objective as ints
    over its least denominator (scaled) and each row <a, x> <= b read as
    a / b: the generator and the set of a support LP, whether the
    generator is posed as its rationals or as its ints."""
    return scaled(program.objective).ints, tuple(
        tuple(Fraction(c) / b for c in coeffs) for coeffs, _, b in program.rows
    )


def test_support_lps_pose_int_rows_as_often_as_the_fraction_routes():
    # Guarded by counts, not timing: every program of normalize, of the
    # property suite and of exposed_point's LP at every row is a support LP
    # ('<=' rows, free variables), posed in ints. The LPs are accounted for
    # exactly: the Fraction-row routes pose one support LP per suite
    # generator that is neither a row nor the origin, and the library poses
    # none of those, since each such generator carries its convex weights.
    # The generators are counted from the candidates' points, not from
    # their weights. Both suites pose one exposed LP per row without a ray
    # certificate, and the third step one per row. Both normalize routes
    # pose one LP per row that neither a ray nor the basis search settles.
    rng = random.Random(10946)
    raw_sets = []
    for _ in range(14):
        dim = rng.randint(1, 4)
        raw_sets.append(
            [
                tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(dim))
                for _ in range(rng.randint(dim + 1, dim + 5))
            ]
        )
    candidates = []
    draw = sublinear.random_unit_ball_rep

    def recorded(h, seed, count):
        gens = draw(h, seed, count)
        candidates.append((h, gens))
        return gens

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sublinear, "random_unit_ball_rep", recorded)
        result, normalize_programs, suite_programs, exposed_programs = _logged_suite(
            raw_sets, 3, 24
        )
    with pytest.MonkeyPatch.context() as mp:
        use_fraction_routes(mp)
        reference, reference_normalize, reference_suite, reference_exposed = _logged_suite(
            raw_sets, 3, 24
        )
    assert result == reference
    sets = result[0]
    rows = sum(len(h.rows) for h in sets)
    uncertified = sum(
        _row_certificate(h, i) is None for h in sets for i in range(len(h.rows))
    )
    assert len(exposed_programs) == len(reference_exposed) == rows
    assert len(suite_programs) == uncertified and 0 < uncertified < rows
    programs = normalize_programs + suite_programs + exposed_programs
    reference_programs = reference_normalize + reference_suite + reference_exposed
    generators = [
        (scaled(v).ints, h.rows)
        for h, gens in candidates
        for v in gens.points
        if v not in h.rows and not is_zero_vector(v)
    ]
    assert len(candidates) == 3 * len(result[0]) and len(generators) >= 50
    assert len(programs) + len(generators) == len(reference_programs)
    suite_generators = set(generators)
    for program in programs:
        assert set(program.bounds) == {"free"}
        assert {rel for _, rel, _ in program.rows} <= {"<="}
        assert _support_lp_at(program) not in suite_generators
        for coeffs, _, rhs in program.rows:
            assert {type(c) for c in coeffs} | {type(rhs)} == {int}
    assert len(programs) >= 50, len(programs)
    # The reference suite poses its support LP at each of those generators
    # (normalize may pose one at a dropped row that a generator equals).
    assert len(generators) == sum(
        set(program.bounds) == {"free"} and _support_lp_at(program) in suite_generators
        for program in reference_suite
    )
    # The reference really is the Fraction route.
    assert any(
        type(rhs) is Fraction for program in reference_programs for _, _, rhs in program.rows
    )
