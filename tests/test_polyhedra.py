import random
import tempfile
from collections import Counter
from fractions import Fraction
from itertools import product
from operator import mul

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    axis_sup_bounded,
    cone_is_pointed,
    fraction_exposed_witness,
    fraction_hull_membership,
    fraction_ray_proves,
    fraction_remove_redundancy,
    fraction_search_proves,
    fraction_sup_over,
    fraction_support_lp,
    fraction_witness,
    in_recession,
    lp_exposed_point,
    margin_exposed_witness,
    pivots_logged,
    polar_question,
    programs_logged,
    rational_samples,
    ray_off,
    recheck_hull_verdict,
    search_off,
    unimodular_body,
    use_fraction_routes,
    vadd,
    vscale,
)
from test_cli_golden import CALLS, run_call, write_documents
from test_readme import README, python_blocks
import polarcut
from polarcut import cuts, jsonio, lp, polyhedra
from polarcut.cuts import make_body
from polarcut.polyhedra import (
    ColumnMax,
    HPolyhedron,
    ImproperSetError,
    OriginNotInteriorError,
    VPolytope,
    column_max,
    exposed_point,
    hull_membership,
    membership,
    normalize,
    pairings,
    polar,
    random_polyhedron,
    ray_certificate,
    remove_redundancy,
)
from polarcut.rationals import (
    ONE,
    Scaled,
    dot,
    integer_rows,
    is_zero_vector,
    scaled,
    unscaled,
    vector,
    zero_vector,
)


def V(*entries):
    return vector(entries)


def test_normalize_quadrant_example(quadrant_k):
    assert quadrant_k.dim == 2
    assert set(quadrant_k.rows) == {V(1, 0), V(0, 1)}


def test_normalize_scales_rhs():
    h = normalize([(2, 0), (0, 3)], [2, 3])
    assert set(h.rows) == {V(1, 0), V(0, 1)}


def test_normalize_drops_zero_rows_and_duplicates():
    h = normalize([(0, 0), (1, 0), (2, 0)], [5, 1, 2])
    assert h.rows == (V(1, 0),)


def test_normalize_rejects_nonpositive_rhs():
    with pytest.raises(OriginNotInteriorError):
        normalize([(1, 0), (0, 1)], [1, 0])
    with pytest.raises(OriginNotInteriorError):
        normalize([(1,)], [-2])


def test_normalize_rejects_whole_space():
    with pytest.raises(ImproperSetError):
        normalize([(0, 0)], [1])
    with pytest.raises(ImproperSetError):
        normalize([], [])


def test_remove_redundancy_drops_dominated_row(quadrant_k):
    h = normalize(
        [(1, 0), (0, 1), (Fraction(1, 2), Fraction(1, 2))], [1, 1, 1]
    )
    assert set(h.rows) == set(quadrant_k.rows)
    # direct call, duplicates included
    again = remove_redundancy(
        2, [V(1, 0), V(1, 0), V(0, 1), V(Fraction(1, 2), Fraction(1, 2))]
    )
    assert set(again.rows) == set(quadrant_k.rows)


def test_normalize_idempotent_on_random_instances():
    rng = random.Random(11)
    for _ in range(20):
        h = random_polyhedron(rng.randint(1, 3), rng.randint(2, 6), rng)
        again = normalize(h.rows, [1] * len(h.rows))
        assert again == h


def _drawn_row(rng, dim, max_den):
    while True:
        a = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, max_den)) for _ in range(dim))
        if not is_zero_vector(a):
            return a


def test_built_sets_hand_over_their_compiled_form():
    # normalize (through remove_redundancy), make_body, random_polyhedron
    # and polar(h) build each set with its compiled form already set, from
    # the ints they hold, and that form is integer_rows of its rows or
    # points, as .compiled derives it. The kept rows go over their own
    # lcm: a dropped row's denominator is not in it.
    dropped = normalize([(1, 0), (0, 1), V(Fraction(1, 3), Fraction(1, 3))], [1, 1, 1])
    rng = random.Random(4181)
    sets = [dropped]
    for _ in range(40):
        dim = rng.randint(1, 5)
        max_den = rng.choice((4, 10**12))
        raw = [_drawn_row(rng, dim, max_den) for _ in range(rng.randint(1, dim + 5))]
        f = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(dim))
        margins = [Fraction(rng.randint(1, 9), rng.randint(1, 7)) for _ in raw]
        sets.append(normalize(raw, margins))
        sets.append(cuts.make_body(raw, [dot(a, f) + m for a, m in zip(raw, margins)], f))
        sets.append(random_polyhedron(dim, rng.randint(1, dim + 5), rng))
    for h in sets:
        assert "compiled" in vars(h) and h.compiled == integer_rows(h.rows)
        body = polar(h)
        assert "compiled" in vars(body) and body.compiled == integer_rows(body.points)
    assert dropped.compiled == (((1, 0), (0, 1)), 1)


def test_membership_quadrant_values(quadrant_k):
    assert membership(quadrant_k, V(-5, 0)).position == "interior"
    verdict = membership(quadrant_k, V(1, 1))
    assert verdict.position == "boundary"
    assert verdict.tight_rows == (0, 1)
    assert membership(quadrant_k, V(2, 0)).position == "outside"
    verdict = membership(quadrant_k, V(1, 0))
    assert verdict.position == "boundary" and len(verdict.tight_rows) == 1


def test_column_max_is_the_max_of_per_point_pairings():
    # column_max equals the max of pairings at every point of a block, top
    # and scale alike: vector lists with a zero vector first (polar(h)'s
    # form), a single vector, a lone zero vector and several vectors with
    # zero coefficients; blocks of 0, 1 and 257 points; ints up to 9 and
    # past 10^30, in the vectors, den and the points.
    rng = random.Random(3030)
    seen = Counter()

    def draw(dim, bound):
        return tuple(rng.randint(-bound, bound) * rng.randint(0, 1) for _ in range(dim))

    kinds = ("polar", "single", "zero", "several")
    cases = product((9, 3 * 10**30), range(1, 5), kinds, (0, 1, 257))
    for bound, dim, kind, count in cases:
        rows = [draw(dim, bound) for _ in range(rng.randint(2, 5))]
        vectors = {
            "polar": [(0,) * dim] + rows,
            "single": rows[:1],
            "zero": [(0,) * dim],
            "several": rows,
        }[kind]
        compiled = (tuple(vectors), rng.randint(1, bound))
        points = [Scaled(draw(dim, bound), rng.randint(1, bound)) for _ in range(count)]
        block = ([[p.ints[j] for p in points] for j in range(dim)], [p.den for p in points])
        got = column_max(compiled, block)
        assert type(got) is ColumnMax
        expected = [pairings(compiled, p) for p in points]
        assert got.tops == [max(values) for values, _ in expected]
        assert got.scales == [scale for _, scale in expected]
        seen[kind, count] += 1
        seen["past 10^30"] += any(abs(t) > 10**30 for t in got.tops)
    assert len(seen) == 13 and seen["past 10^30"] >= 12, seen


def test_polar_quadrant_example(quadrant_k):
    body = polar(quadrant_k)
    assert set(body.points) == {V(0, 0), V(1, 0), V(0, 1)}


def test_polar_box_is_cross_polytope():
    h = normalize([(1, 0), (-1, 0), (0, 1), (0, -1)], [1, 1, 1, 1])
    assert set(polar(h).points) == {
        V(0, 0), V(1, 0), V(-1, 0), V(0, 1), V(0, -1),
    }


def test_membership_level_polar_involution():
    # x in K iff <x, y> <= 1 for every generator y of the polar body.
    rng = random.Random(23)
    for _ in range(10):
        h = random_polyhedron(rng.randint(1, 3), rng.randint(2, 6), rng)
        pts = polar(h).points
        for x in rational_samples(h, 97, 20):
            inside = membership(h, x).position != "outside"
            assert inside == all(dot(x, y) <= 1 for y in pts)


def test_rows_are_vertices_of_polar():
    rng = random.Random(37)
    for _ in range(10):
        h = random_polyhedron(rng.randint(1, 3), rng.randint(3, 7), rng)
        pts = polar(h).points
        for i, row in enumerate(h.rows):
            others = tuple(p for p in pts if p != row)
            verdict = hull_membership(row, VPolytope(h.dim, others))
            assert not verdict.inside
            assert recheck_hull_verdict(row, VPolytope(h.dim, others), verdict)
            assert verdict == fraction_hull_membership(row, VPolytope(h.dim, others))


def test_hull_membership_inside_with_multipliers(quadrant_k):
    body = polar(quadrant_k)
    verdict = hull_membership(V(Fraction(1, 2), Fraction(1, 2)), body)
    assert verdict.inside
    assert verdict.multipliers == (Fraction(0), Fraction(1, 2), Fraction(1, 2))
    assert recheck_hull_verdict(V(Fraction(1, 2), Fraction(1, 2)), body, verdict)
    assert verdict == fraction_hull_membership(V(Fraction(1, 2), Fraction(1, 2)), body)


def test_hull_membership_outside_with_separator(quadrant_k):
    body = polar(quadrant_k)
    verdict = hull_membership(V(1, 1), body)
    assert not verdict.inside
    c, gamma = verdict.separator
    assert dot(c, V(1, 1)) > gamma
    assert all(dot(c, q) <= gamma for q in body.points)
    assert recheck_hull_verdict(V(1, 1), body, verdict)
    assert verdict == fraction_hull_membership(V(1, 1), body)


def test_hull_membership_exact_generator_fast_path(quadrant_k):
    body = polar(quadrant_k)
    verdict = hull_membership(V(1, 0), body)
    assert verdict.inside
    assert verdict.multipliers == (Fraction(0), Fraction(1), Fraction(0))


def test_hull_membership_invariant_under_redundant_points():
    square = VPolytope(2, (V(0, 0), V(1, 0), V(0, 1), V(1, 1)))
    padded = VPolytope(
        2, square.points + (V(Fraction(1, 2), Fraction(1, 2)),)
    )
    for p in (V(Fraction(3, 4), Fraction(1, 4)), V(2, 0), V(1, 1)):
        assert hull_membership(p, square).inside == hull_membership(p, padded).inside
        for body in (square, padded):
            assert hull_membership(p, body) == fraction_hull_membership(p, body)


def _row_point(h, i):
    """exposed_point of row i of h among its other rows, as the property
    suite asks it."""
    rows, den = h.compiled
    return exposed_point(rows[i], rows[:i] + rows[i + 1 :], den)


def test_exposed_point_quadrant(quadrant_k):
    w = unscaled(_row_point(quadrant_k, 0))
    assert dot(quadrant_k.rows[0], w) == 1
    assert dot(quadrant_k.rows[1], w) < 1


def test_exposed_point_single_row_line():
    h = normalize([(1,)], [1])
    assert unscaled(_row_point(h, 0)) == (Fraction(1),)


def test_exposed_point_sweep_strict():
    rng = random.Random(41)
    for _ in range(8):
        h = random_polyhedron(rng.randint(1, 3), rng.randint(3, 7), rng)
        for i, row in enumerate(h.rows):
            w = unscaled(_row_point(h, i))
            assert dot(row, w) == 1
            assert all(
                dot(other, w) < 1
                for j, other in enumerate(h.rows)
                if j != i
            )


# Sets where more rows meet at a vertex than the dimension needs: the
# octahedron |x1| + |x2| + |x3| <= 1 (four rows at each vertex) and the
# square pyramid +-x1 + x3 <= 1, +-x2 + x3 <= 1, -x3 <= 1 (four at the apex).
DEGENERATE_SETS = [
    [(s1, s2, s3) for s1 in (1, -1) for s2 in (1, -1) for s3 in (1, -1)],
    [(1, 0, 1), (-1, 0, 1), (0, 1, 1), (0, -1, 1), (0, 0, -1)],
]


def test_exposed_point_lp_matches_margin_lp():
    # The support LP's maximizer scaled onto the row is the very point the
    # margin LP found, on seeded 1-5-D sets, single rows and degenerate
    # sets alike; with the ray on, every witness, the ray's or the LP's, is
    # tight on its row and slack on the rest.
    rng = random.Random(2718)
    sets = [normalize(rows, [1] * len(rows)) for rows in DEGENERATE_SETS]
    for _ in range(10):
        dim = rng.randint(1, 5)
        sets.append(random_polyhedron(dim, 1, rng))
    for _ in range(60):
        dim = rng.randint(1, 5)
        sets.append(random_polyhedron(dim, rng.randint(2, 12), rng))
    seen = {"bounded": 0, "unbounded": 0}
    for h in sets:
        for i, row in enumerate(h.rows):
            others = h.rows[:i] + h.rows[i + 1 :]
            top = fraction_sup_over(others, row) if others else None
            seen["unbounded" if top is None else "bounded"] += 1
            assert unscaled(lp_exposed_point(h, i)) == margin_exposed_witness(h, i)
            w = unscaled(_row_point(h, i))
            assert dot(row, w) == 1
            assert all(dot(a, w) < 1 for a in others)
    assert min(seen.values()) >= 20, seen


def test_exposed_point_of_a_redundant_row_is_none(lp_solves):
    # (1, 0) beside (2, 0) is redundant: the support LP of the other row
    # at (1, 0) is 1/2, so no point is tight on it and slack on (2, 0).
    # The same rows over 3 compile to the same ints over den 3, where the
    # LP at the compiled row (1, 0) reads 3/2: above 1, but not above den.
    # One other row in 2-D gives the basis search no basis, so each of
    # these Nones takes one LP. A row among its own others is redundant
    # too: the basis of its twin and (1, 0) proves it with no LP, and with
    # the search off its LP says the same.
    for t in (1, Fraction(1, 3)):
        h = HPolyhedron(2, (V(t, 0), V(2 * t, 0)))
        lp_solves.clear()
        assert _row_point(h, 0) is None and dict(lp_solves) == {"optimal": 1}
        assert unscaled(_row_point(h, 1)) == V(Fraction(1, 2) / t, 0)
    lp_solves.clear()
    assert exposed_point((0, 1), [(1, 0), (0, 1)], 1) is None
    assert dict(lp_solves) == {}
    with pytest.MonkeyPatch.context() as mp:
        search_off(mp)
        assert exposed_point((0, 1), [(1, 0), (0, 1)], 1) is None
    assert dict(lp_solves) == {"optimal": 1}


def _forged(status):
    """An outcome that no support LP certifies: a bare status, or a point
    outside the set claimed as the maximizer."""
    if status == "outside":
        return lambda program: lp.LPOutcome(
            status="optimal", point=(5, 5), value=10, dual=(1, 1)
        )
    return lambda program: lp.LPOutcome(status=status)


@pytest.mark.parametrize("status", ["infeasible", "unbounded", "nonsense", "outside"])
def test_exposed_point_refuses_an_uncertified_outcome(monkeypatch, status):
    # The LP starts at the feasible origin, so it cannot be infeasible, and
    # an outcome that lp.verify_certificate refuses is a fault: here an
    # infeasible claim with no Farkas row, an unbounded one with no ray, a
    # status the solver never gives, and a maximizer outside the set. The
    # row (2, 2) among (1, 3) and (2, -2) has no ray certificate (see
    # test_cli), so its support LP is posed.
    rows = [(1, 3), (2, 2), (2, -2)]
    assert ray_certificate(rows[1], [rows[0], rows[2]], 1) is None
    monkeypatch.setattr(lp, "solve", _forged(status))
    with pytest.raises(RuntimeError, match="fails lp.verify_certificate"):
        exposed_point(rows[1], [rows[0], rows[2]], 1)


def _exposed_row_case(rows, i, seen: Counter) -> None:
    """exposed_point of row i of the rational rows among the others, in
    their compiled ints, against the Fraction references: None exactly
    when fraction_sup_over of the others at the row is at most 1; else a
    point on the row and strictly inside every other, ray_certificate's
    with no LP where a ray proves the row, None with no LP where
    fraction_search_proves the row redundant, and otherwise, from one LP,
    fraction_witness's point (the LP's maximizer or ray scaled onto the
    row)."""
    ints, den = integer_rows(rows)
    r, others = ints[i], ints[:i] + ints[i + 1 :]
    a, rest = rows[i], rows[:i] + rows[i + 1 :]
    x, programs = programs_logged(exposed_point, r, others, den)
    top = fraction_sup_over(rest, a) if rest else None
    assert (x is None) == (top is not None and top <= 1)
    if x is not None:
        assert sum(map(mul, r, x.ints)) == den * x.den
        assert all(sum(map(mul, s, x.ints)) < den * x.den for s in others)
    ray = ray_certificate(r, others, den)
    if ray is not None:
        assert (x, programs) == (ray, [])
        seen["ray"] += 1
        return
    if fraction_search_proves(a, rest):
        assert (x, programs) == (None, [])
        seen["redundant by search"] += 1
        return
    assert len(programs) == 1
    assert (None if x is None else unscaled(x)) == fraction_witness(a, rest)
    seen["redundant" if x is None else "unbounded" if top is None else "optimal"] += 1


def _exposed_generator_case(h, v, seen: Counter) -> None:
    """exposed_point at a generator v among h's rows, posed as
    check_unit_ball poses it (polar_question), against the Fraction
    support LP: not None exactly when fraction_sup_over(h.rows, v) is
    unbounded or above 1. Then the point lies on v, <v, x> = 1, and
    strictly inside the set; a ray proves it with no LP, or one LP. Inside
    the polar, fraction_search_proves v there with no LP, or one LP."""
    question = polar_question(h, v)
    x, programs = programs_logged(exposed_point, *question)
    top = fraction_sup_over(h.rows, v)
    assert (x is not None) == (top is None or top > 1)
    ray = ray_certificate(*question)
    search = ray is None and fraction_search_proves(v, h.rows)
    assert len(programs) == (ray is None and not search)
    if x is None:
        seen["inside by search" if search else "inside"] += 1
        return
    point = unscaled(x)
    assert dot(v, point) == 1 and all(dot(a, point) < 1 for a in h.rows)
    seen["outside by ray" if ray is not None else "outside by LP"] += 1


def test_exposed_point_matches_the_fraction_routes():
    # Seeded 1-5-D rows with derived rows mixed in (_gram_cases: ties,
    # parallel and redundant rows), every row asked among the others, and
    # seeded generators at seeded sets: random points, row multiples and
    # midpoints of rows, asked as check_unit_ball asks them. Every route is
    # met: a ray's point, an optimal LP above den, an unbounded LP, a
    # redundant row that the basis search proves or only the LP proves,
    # and generators outside the polar that a ray proves or only the LP
    # proves, and inside it, by the search or the LP.
    rng = random.Random(6765)
    seen = Counter()
    for _ in range(120):
        dim = rng.randint(1, 5)
        rows = _gram_cases(rng, dim, _raw_rows(rng, dim, rng.randint(1, dim + 5)))
        for i in range(len(rows)):
            _exposed_row_case(rows, i, seen)
    for _ in range(45):
        dim = rng.randint(1, 4)
        h = random_polyhedron(dim, rng.randint(1, dim + 4), rng)
        points = [
            tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(dim))
            for _ in range(4)
        ]
        for _ in range(4):
            a, b = rng.choice(h.rows), rng.choice(h.rows)
            points.append(vscale(Fraction(rng.randint(1, 8), 4), a))
            points.append(vscale(Fraction(rng.randint(1, 5), 4), vadd(a, b)))
        for v in points:
            if not is_zero_vector(v):
                _exposed_generator_case(h, v, seen)
    kinds = ("ray", "optimal", "unbounded", "redundant", "redundant by search")
    kinds += ("outside by ray", "outside by LP", "inside", "inside by search")
    assert min(seen[kind] for kind in kinds) >= 10, seen


def test_recession_quadrant(quadrant_k):
    assert in_recession(quadrant_k, V(-1, -2))
    assert not in_recession(quadrant_k, V(1, 0))
    assert not in_recession(quadrant_k, V(Fraction(1, 10), -5))


def test_recession_scaling_invariance():
    rng = random.Random(53)
    h = random_polyhedron(2, 4, rng)
    for x in rational_samples(h, 3, 30):
        scaled = vscale(Fraction(7, 3), x)
        assert in_recession(h, x) == in_recession(h, scaled)
    assert in_recession(h, zero_vector(2))


def test_random_polyhedron_deterministic():
    a = random_polyhedron(3, 6, random.Random(99))
    b = random_polyhedron(3, 6, random.Random(99))
    assert a == b


def test_hpolyhedron_rejects_garbage():
    with pytest.raises(ValueError):
        HPolyhedron(2, (V(0, 0),))
    with pytest.raises(ValueError):
        HPolyhedron(2, (V(1, 0), V(1, 0)))
    with pytest.raises(ImproperSetError):
        HPolyhedron(2, ())
    with pytest.raises(ValueError):
        VPolytope(2, ())
    with pytest.raises(ValueError):
        hull_membership(V(1, 0, 0), VPolytope(2, (V(1, 0),)))


GOOD_ROWS = (V(1, 0), V(0, Fraction(1, 2)))


@pytest.mark.parametrize(
    "ints, message",
    [
        pytest.param(((2, 0), (0, 0)), "zero rows are not canonical", id="zero"),
        pytest.param(((2, 0), (2, 0)), "duplicate rows are not canonical", id="duplicate"),
        pytest.param(((2, 0), (1,)), "row width differs from dimension", id="short"),
    ],
)
def test_hpolyhedron_checks_a_compiled_form_on_its_ints(ints, message):
    # A set handed its compiled form is checked on those int rows, with
    # the messages of the checks on its rows.
    with pytest.raises(ValueError, match=message):
        HPolyhedron(2, GOOD_ROWS, (ints, 2))
    assert HPolyhedron(2, GOOD_ROWS, (((2, 0), (0, 1)), 2)).compiled == integer_rows(GOOD_ROWS)


def test_built_sets_hash_no_fraction(monkeypatch):
    # normalize and make_body check the sets they build on the int rows
    # they hand over: no Fraction is hashed, with rows kept or dropped.
    def no_hash(q):
        raise AssertionError("a Fraction was hashed")

    monkeypatch.setattr(Fraction, "__hash__", no_hash)
    kept = normalize([V(1, 0), V(0, Fraction(1, 2)), V(-1, -1)], [1, 1, 1])
    dropped = normalize([(1, 0), (0, 1), V(Fraction(1, 3), Fraction(1, 3))], [1, 1, 1])
    body = cuts.make_body([(1, 0), (-1, 0), (0, 1)], [1, 0, 2], V(Fraction(1, 2), 0))
    assert (len(kept.rows), len(dropped.rows), len(body.rows)) == (3, 2, 3)


def test_remove_redundancy_hands_over_integer_rows():
    # The compiled form remove_redundancy hands its set is integer_rows of
    # the kept rows: the distinct rows over their lcm when none is dropped,
    # the kept ones over their own lcm when one is (a dropped row's
    # denominator leaves it). Drawn sets see both cases.
    cases = {
        "none dropped": remove_redundancy(
            2, [V(Fraction(1, 2), 0), V(0, Fraction(1, 3)), V(-1, -1)]
        ),
        "one dropped": remove_redundancy(
            2, [(1, 0), (0, 1), V(Fraction(1, 3), Fraction(1, 3))]
        ),
    }
    assert cases["none dropped"].compiled == (((3, 0), (0, 2), (-6, -6)), 6)
    assert cases["one dropped"].compiled == (((1, 0), (0, 1)), 1)
    rng = random.Random(610)
    seen = Counter()
    for _ in range(200):
        dim = rng.randint(1, 4)
        rows = [_drawn_row(rng, dim, 6) for _ in range(rng.randint(1, dim + 4))]
        h = remove_redundancy(dim, rows)
        assert h.compiled == integer_rows(h.rows)
        seen["one dropped" if len(h.rows) < len(set(rows)) else "none dropped"] += 1
    for name, h in cases.items():
        assert h.compiled == integer_rows(h.rows), name
    assert min(seen.values()) >= 40, seen


def _outside_polar(h, v) -> bool:
    return exposed_point(*polar_question(h, v)) is not None


def test_exposed_point_decides_polar_membership():
    # sigma_K(v) <= 1 exactly when v lies in the polar conv({0} union rows),
    # and every row is a tight polar point: sigma_K(a) = 1, so a row is
    # redundant beside the rows and lies in the polar.
    rng = random.Random(8128)
    seen = {"bounded": 0, "unbounded": 0, "inside": 0, "outside": 0}
    for _ in range(80):
        dim = rng.randint(1, 4)
        h = random_polyhedron(dim, rng.randint(dim, dim + 4), rng)
        seen["bounded" if cone_is_pointed(h) else "unbounded"] += 1
        for a in h.rows:
            assert fraction_sup_over(h.rows, a) == 1 and not _outside_polar(h, a)
        points = [
            tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(dim))
            for _ in range(8)
        ]
        for _ in range(4):
            a, b = rng.choice(h.rows), rng.choice(h.rows)
            t = Fraction(rng.randint(1, 5), 4)
            points.append(vscale(t / 2, vadd(a, b)))
        polar_h = polar(h)
        for v in points:
            top = fraction_sup_over(h.rows, v)
            verdict = hull_membership(v, polar_h)
            assert verdict == fraction_hull_membership(v, polar_h)
            inside = verdict.inside
            assert (top is not None and top <= 1) == inside == (not _outside_polar(h, v))
            seen["inside" if inside else "outside"] += 1
    assert min(seen.values()) >= 20, seen


def boundedness_case(rng, kind):
    """A seeded 1-4-D canonical set of the given kind: "drawn" is a
    random_polyhedron (bounded or not), "split" a pair of opposite rows
    in 2-4-D, whose lineality space is the hyperplane they vanish on, and
    "lineality" a drawn set whose rows all vanish on the last axis."""
    dim = rng.randint(1, 4)
    if kind == "drawn":
        return random_polyhedron(dim, rng.randint(dim, dim + 5), rng)
    dim = max(dim, 2)
    if kind == "split":
        a = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(dim)]
        if not any(a):
            a[rng.randrange(dim)] = ONE
        b = [-Fraction(rng.randint(1, 4), rng.randint(1, 3)) * c for c in a]
        return normalize([a, b], [1, 1])
    flat = random_polyhedron(dim - 1, rng.randint(dim, dim + 4), rng)
    return normalize([a + (0,) for a in flat.rows], [1] * len(flat.rows))


def test_is_bounded_matches_the_axis_lps(monkeypatch):
    # The basis search, then one rank test and at most one LP, against the
    # 2 * dim support LPs and the recession-cone reference, on drawn sets,
    # splits and sets with a lineality space. The LP is posed only when
    # the search proves nothing and the rows could positively span: more
    # rows than axes, full rank. With the search off (the LP route) the
    # verdict is the same, and that LP is posed whenever they could.
    rng = random.Random(1953)
    calls = []
    real_solve = lp.solve

    def counted(program):
        calls.append(program)
        return real_solve(program)

    seen = Counter()
    for kind in ("drawn", "split", "lineality") * 60:
        h = boundedness_case(rng, kind)
        expected = axis_sup_bounded(h)
        assert expected == cone_is_pointed(h)
        spans = len(h.rows) > h.dim and polyhedra._rank(h.compiled[0]) == h.dim
        proved = polyhedra.proved_bounded(h.compiled)
        assert not proved or expected
        for search in (True, False):
            with monkeypatch.context() as mp:
                if not search:
                    search_off(mp)
                mp.setattr(lp, "solve", counted)
                calls.clear()
                bounded = polyhedra.is_bounded(h.compiled)
            assert bounded == expected, (kind, h, search)
            assert len(calls) == int(spans and not (search and proved))
            assert all(type(c) is int for p in calls for row, _, b in p.rows for c in (*row, b))
        seen[kind, bounded] += 1
        seen["LP unbounded"] += spans and not bounded
        seen["search bounded"] += proved
        seen["LP bounded"] += bounded and not proved
    print("boundedness cases:", dict(seen))
    assert seen["drawn", True] >= 20 and seen["drawn", False] >= 20, seen
    assert seen["split", False] == 60 and seen["lineality", False] == 60, seen
    assert seen["search bounded"] >= 20 and seen["LP bounded"] >= 1, seen
    assert seen["LP unbounded"] >= 10, seen


def test_rank_matches_fraction_elimination():
    # _rank against Gaussian elimination over Fractions on seeded int rows,
    # duplicate, zero and dependent rows among them.
    rng = random.Random(1954)
    for _ in range(300):
        dim = rng.randint(1, 5)
        rows = [tuple(rng.randint(-3, 3) for _ in range(dim)) for _ in range(rng.randint(0, 6))]
        if rows and rng.random() < 0.5:
            a, b = rng.choice(rows), rng.choice(rows)
            rows.append(tuple(2 * x - 3 * y for x, y in zip(a, b)))
        matrix = [[Fraction(c) for c in r] for r in rows]
        rank = 0
        for col in range(dim):
            pivot = next((r for r in matrix[rank:] if r[col]), None)
            if pivot is None:
                continue
            matrix.remove(pivot)
            matrix.insert(rank, pivot)
            for r in matrix[rank + 1 :]:
                factor = r[col] / pivot[col]
                r[:] = [x - factor * y for x, y in zip(r, pivot)]
            rank += 1
        assert polyhedra._rank(rows) == rank, rows


def _fraction_det(matrix) -> Fraction:
    """The determinant by Gaussian elimination over Fractions."""
    m = [[Fraction(c) for c in row] for row in matrix]
    det = Fraction(1)
    for col in range(len(m)):
        pivot = next((r for r in range(col, len(m)) if m[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, len(m)):
            factor = m[r][col] / m[col][col]
            m[r] = [x - factor * y for x, y in zip(m[r], m[col])]
    return det


def test_normal_is_the_cofactor_vector():
    # _normal on n - 1 seeded int rows of width n, 2-7-D (closed forms up
    # to 4-D, Bareiss minors above), dependent rows and huge entries among
    # them: c_j is (-1)^j times the Fraction determinant of the rows
    # without column j, so c is orthogonal to every row, and it is 0
    # exactly when the rows are dependent.
    rng = random.Random(1968)
    dependent = 0
    for _ in range(400):
        n = rng.randint(2, 7)
        rows = [tuple(rng.choice((0, 0, 1, -1, 2, -3, 7, 10**20)) for _ in range(n)) for _ in range(n - 1)]
        if n > 2 and rng.random() < 0.2:
            a, b = rng.sample(rows, 2)
            rows[-1] = tuple(2 * x - 3 * y for x, y in zip(a, b))
        c = polyhedra._normal(rows)
        minors = [[r[:j] + r[j + 1 :] for r in rows] for j in range(n)]
        assert list(c) == [(-1) ** j * _fraction_det(m) for j, m in enumerate(minors)]
        assert all(sum(map(mul, r, c)) == 0 for r in rows)
        assert any(c) == (polyhedra._rank(rows) == n - 1)
        dependent += not any(c)
    assert dependent >= 20, dependent


@pytest.mark.parametrize("status", ["optimal", "infeasible", "unbounded"])
def test_is_bounded_refuses_an_unchecked_outcome(monkeypatch, status):
    # A boundedness LP outcome that fails lp.verify_certificate is a fault,
    # whatever it claims. The pentagon is bounded, but the basis search
    # leaves it to the LP: t = -(sum of the rows) = (0, -1), and the four
    # rows most aligned with t, (2, -3), (1, -2), (1, 0) and (-1, 3), hold
    # it in the cone of no two of them.
    pentagon = normalize([V(1, 0), V(-1, 3), V(-3, 3), V(2, -3), V(1, -2)], [1] * 5)
    assert len(pentagon.rows) == 5 and not polyhedra.proved_bounded(pentagon.compiled)
    assert polyhedra.is_bounded(pentagon.compiled)
    forged = lp.LPOutcome(status=status, point=(ONE,) * 5, value=ONE, ray=(ONE,) * 5, dual=(ONE, ONE))
    monkeypatch.setattr(lp, "solve", lambda program: forged)
    with pytest.raises(RuntimeError, match="boundedness LP"):
        polyhedra.is_bounded(pentagon.compiled)


@pytest.mark.parametrize("status", ["unbounded", "nonsense"])
def test_hull_membership_refuses_an_impossible_status(monkeypatch, status):
    # The hull LP maximizes 0, so it is optimal or infeasible; anything else
    # is a fault, also under python -O.
    monkeypatch.setattr(lp, "solve", lambda program: lp.LPOutcome(status=status))
    with pytest.raises(RuntimeError, match=status):
        hull_membership(V(1, 1), VPolytope(2, (V(0, 0), V(1, 0))))


def test_hull_membership_refuses_forged_multipliers(monkeypatch):
    # An optimal outcome whose multipliers do not reproduce the point, (0, 0)
    # for (1, 1), fails lp.verify_certificate, so no verdict rests on it.
    forged = lp.LPOutcome(status="optimal", point=(1, 0), value=0, dual=(0, 0, 0))
    monkeypatch.setattr(lp, "solve", lambda program: forged)
    with pytest.raises(RuntimeError, match="fails lp.verify_certificate"):
        hull_membership(V(1, 1), VPolytope(2, (V(0, 0), V(1, 0))))


# The support LPs pose a set's compiled int rows <r, x> <= den. The routes
# they replaced posed its Fraction rows <a, x> <= 1 (conftest): the same
# set, so the same pivots, point and value, and a ray at most rescaled.


def _same_support_lp(compiled, rows, v) -> str:
    """The support LP that exposed_point poses over compiled at v's ints
    over its least den d (with the ray and the basis search off), solved
    again, and the support LP of the rational rows it compiles at v agree:
    pivots, status, point, the value times d, and rays up to a positive
    factor. Returns the status."""
    ints, d = scaled(v)
    with pytest.MonkeyPatch.context() as mp:
        ray_off(mp)
        search_off(mp)
        _, (program,) = programs_logged(exposed_point, ints, *compiled)
    outcome, pivots = pivots_logged(lp.solve, program)
    reference, reference_pivots = pivots_logged(fraction_support_lp, rows, v)
    assert pivots == reference_pivots
    assert (outcome.status, outcome.point) == (reference.status, reference.point)
    assert outcome.value == (None if reference.value is None else d * reference.value)
    if outcome.status == "unbounded":
        k = next(k for k, r in enumerate(reference.ray) if r)
        t = outcome.ray[k] / reference.ray[k]
        assert t > 0
        assert outcome.ray == tuple(t * r for r in reference.ray)
    return outcome.status


def _routes_agree(dim: int, rows, seen: Counter) -> None:
    """remove_redundancy, the support LP at the rows, the axes and a
    random direction, and exposed_point's LP on every row, by the compiled
    int rows and by the Fraction rows: identical results and pivot
    sequences."""
    h, pivots = pivots_logged(remove_redundancy, dim, rows)
    assert (h, pivots) == pivots_logged(fraction_remove_redundancy, dim, rows)
    seen["dropped rows"] += len(set(rows)) > len(h.rows)
    seen["one row"] += len(h.rows) == 1
    axes = [
        tuple(s if j == d else 0 for j in range(dim))
        for d in range(dim)
        for s in (ONE, -ONE)
    ]
    for v in (*h.rows, *axes, vadd(h.rows[0], h.rows[-1])):
        seen[_same_support_lp(h.compiled, h.rows, v)] += 1
    ints, den = h.compiled
    for i, a in enumerate(h.rows):
        others = ints[:i] + ints[i + 1 :]
        _same_support_lp((others, den), h.rows[:i] + h.rows[i + 1 :], a)
        witness, pivots = pivots_logged(lp_exposed_point, h, i)
        assert (unscaled(witness), pivots) == pivots_logged(fraction_exposed_witness, h, i)


def _raw_rows(rng: random.Random, dim: int, count: int) -> list:
    """count nonzero rows: small entries with zeros among them, and now and
    then an entry with a huge denominator."""

    def entry():
        kind = rng.random()
        if kind < 0.25:
            return Fraction(0)
        if kind < 0.35:
            return Fraction(rng.randint(-(10**30), 10**30), rng.randint(1, 10**30))
        return Fraction(rng.randint(-6, 6), rng.randint(1, 4))

    rows = []
    while len(rows) < count:
        a = tuple(entry() for _ in range(dim))
        if not is_zero_vector(a):
            rows.append(a)
    return rows


def _image_and_zero_coefficient_sets(rng: random.Random, per_kind: int) -> list:
    """Seeded 1-5-D rows: the centred rows of unimodular images of boxes,
    simplices and splits (per_kind of each in each dimension), as
    make_body hands them to normalize, and as many sets whose rows have
    zero coefficients."""
    sets = []
    for dim in (1, 2, 3, 4, 5):
        for kind in ("box", "simplex", "split"):
            for _ in range(per_kind):
                rows, rhs, f = unimodular_body(rng, kind, dim, rng.randint(dim - 1, 2 * dim))
                sets.append([vscale(1 / (b - dot(a, f)), a) for a, b in zip(rows, rhs)])
        for _ in range(3 * per_kind):
            rows, count = [], rng.randint(2, dim + 5)
            while len(rows) < count:
                a = tuple(Fraction(rng.choice((0, 0, 1, -1, 2, -3, 5))) for _ in range(dim))
                if any(a):
                    rows.append(vscale(Fraction(rng.randint(1, 4), rng.randint(1, 9)), a))
            sets.append(rows)
    return sets


def test_compiled_support_lps_match_fraction_rows():
    rng = random.Random(4181)
    raw = [[tuple(map(Fraction, a)) for a in rows] for rows in DEGENERATE_SETS]
    for _ in range(10):
        raw.append(_raw_rows(rng, rng.randint(1, 5), 1))
    for _ in range(60):
        dim = rng.randint(1, 5)
        raw.append(_raw_rows(rng, dim, rng.randint(2, dim + 6)))
    raw += _image_and_zero_coefficient_sets(rng, 1)
    seen = Counter()
    bounded = 0
    for rows in raw:
        _routes_agree(len(rows[0]), rows, seen)
        bounded += cone_is_pointed(remove_redundancy(len(rows[0]), rows))
    kinds = ("optimal", "unbounded", "dropped rows", "one row")
    assert min(seen[kind] for kind in kinds) >= 10, seen
    assert 10 <= bounded <= len(raw) - 10, bounded


_huge = st.builds(Fraction, st.integers(-(10**40), 10**40), st.integers(1, 10**40))
_small = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


@st.composite
def _sets(draw):
    """1-5-D nonzero rows with zero, small and huge-denominator entries."""
    dim = draw(st.integers(1, 5))
    entries = st.one_of(st.just(Fraction(0)), _small, _small, _huge)
    row = st.tuples(*[entries] * dim).filter(lambda a: not is_zero_vector(a))
    return dim, draw(st.lists(row, min_size=1, max_size=7))


@example((1, [(Fraction(1, 10**40),)]))
@example((2, [(ONE, Fraction(0)), (Fraction(2), Fraction(0)), (Fraction(0), ONE)]))
@given(_sets())
@settings(max_examples=150, deadline=None)
def test_compiled_support_lps_match_fraction_rows_on_drawn_sets(drawn):
    dim, rows = drawn
    _routes_agree(dim, rows, Counter())


# ------------------------------------------------- the ray test before an LP


def _gram_cases(rng: random.Random, dim: int, rows: list) -> list:
    """rows with derived rows put at random places, so that the cases the
    Gram test meets all occur: a midpoint of two rows of equal norm (its
    Gram test is a tie, |r|^2 = m, and it is redundant), a row twice or
    half another (parallel: the shorter one is redundant, whether it comes
    first or not), and a row's negation (m <= 0 between the two)."""
    rows = list(rows)
    for _ in range(rng.randint(0, 3)):
        a = rng.choice(rows)
        kind = rng.choice(("midpoint", "twice", "half", "negation"))
        if kind == "midpoint":
            d = rng.randrange(dim)
            mirror = tuple(-c if j == d else c for j, c in enumerate(a))
            derived = [mirror, tuple(0 if j == d else c for j, c in enumerate(a))]
        else:
            derived = [vscale({"twice": 2, "half": Fraction(1, 2), "negation": -1}[kind], a)]
        for b in derived:
            if not is_zero_vector(b):
                rows.insert(rng.randint(0, len(rows)), b)
    return rows


GRAM_EXAMPLES = [
    # (1, 0) is the midpoint of (1, 1) and (1, -1), of equal norm: a tie
    (2, [(1, 0), (1, 1), (1, -1)]),
    (2, [(1, 1), (1, 0), (1, -1)]),
    # a row made redundant by a later one, in 1-D and in 2-D
    (1, [(1,), (2,)]),
    (2, [(1, 0), (0, 1), (2, 0)]),
    # every <a_j, a_i> <= 0: m <= 0 for every row
    (2, [(1, 0), (-1, 0), (0, 1), (0, -1)]),
    (1, [(Fraction(1, 10**40),), (-3,)]),
    # irredundant rows that no direction tried proves, left to the LP:
    # (1, 0) fails the Gram test against (2, 1), the normal (1, -2) of
    # (2, 1) ties (t = m = 1, on (0, -1/2)), and the normal (1, 0) of
    # (0, -1/2) meets (2, 1) first; (2, 2) ties with (1, 3) on both
    (2, [(1, 0), (2, 1), (0, Fraction(-1, 2))]),
    (2, [(1, 3), (2, 2), (2, -2)]),
]


def _gram_calls(run, *args) -> tuple:
    """run(*args) with every ray_certificate call it makes, as (r, others,
    den, result)."""
    calls = []
    certify = polyhedra.ray_certificate

    def recorded(r, others, den):
        result = certify(r, others, den)
        calls.append((r, list(others), den, result))
        return result

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(polyhedra, "ray_certificate", recorded)
        value = run(*args)
    return value, calls


def _check_certificate(r, others, den, x) -> str:
    """x, ray_certificate's answer on (r, others, den). When a point, it
    is r's exposed point, on r and strictly inside every other row, in
    exact ints: <s, x.ints> < den x.den = <r, x.ints>; along r it is the
    Gram form den r / |r|^2, and otherwise it is orthogonal to n - 1
    others. When None, the Gram test fails, |r|^2 <= m, and so does the
    Fraction reference's ray test. Returns the case met, the Gram cases
    told apart by whether some other row meets the ray (m > 0)."""
    a = tuple(Fraction(c, den) for c in r)
    rest = [tuple(Fraction(c, den) for c in s) for s in others]
    norm = sum(c * c for c in r)
    m = max((sum(c * e for c, e in zip(s, r)) for s in others), default=0)
    if x is None:
        assert norm <= m and not fraction_ray_proves(a, rest)
        return "tie" if norm == m else "failed"
    ints, d = x
    assert all(sum(map(mul, s, ints)) < den * d for s in others)
    assert sum(map(mul, r, ints)) == den * d
    assert fraction_ray_proves(a, rest)
    if norm > m:
        assert x == Scaled(tuple(den * c for c in r), norm)
        return "m > 0" if m > 0 else "m <= 0"
    assert sum(not sum(map(mul, s, ints)) for s in others) >= len(r) - 1
    return "normal"


def _gram_agrees(dim: int, rows, seen: Counter) -> None:
    """remove_redundancy with its ray test and basis search keeps the rows
    that an LP for every row keeps, in the same order, poses one LP for
    each row that neither a ray nor the search proves and none for the
    rest, and every certificate checks."""
    (h, programs), calls = _gram_calls(programs_logged, remove_redundancy, dim, rows)
    assert h.rows == fraction_remove_redundancy(dim, rows, ray_test=False).rows
    assert len(programs) == sum(
        x is None and not fraction_search_proves(r, others) for r, others, _, x in calls
    )
    for r, others, den, x in calls:
        seen[_check_certificate(r, others, den, x)] += 1
    seen["dropped rows"] += len(set(rows)) > len(h.rows)


def test_gram_test_keeps_the_rows_of_an_lp_for_every_row():
    # The ray test on the examples above, the degenerate sets, seeded
    # 1-4-D rows and 1-5-D unimodular images and zero-coefficient sets,
    # each with derived rows mixed in (_gram_agrees).
    rng = random.Random(6174)
    sets = [[tuple(map(Fraction, a)) for a in rows] for _, rows in GRAM_EXAMPLES]
    sets += [[tuple(map(Fraction, a)) for a in rows] for rows in DEGENERATE_SETS]
    for _ in range(80):
        dim = rng.randint(1, 4)
        sets.append(_gram_cases(rng, dim, _raw_rows(rng, dim, rng.randint(1, dim + 5))))
    for rows in _image_and_zero_coefficient_sets(rng, 4):
        sets.append(_gram_cases(rng, len(rows[0]), rows))
    seen = Counter()
    for rows in sets:
        _gram_agrees(len(rows[0]), rows, seen)
    cases = ("m > 0", "m <= 0", "normal", "tie", "failed", "dropped rows")
    assert min(seen[k] for k in cases) >= 10, seen


@st.composite
def _gram_sets(draw):
    """_sets() with _gram_cases' derived rows, drawn from a seed."""
    dim, rows = draw(_sets())
    return dim, _gram_cases(random.Random(draw(st.integers(0, 2**32))), dim, rows)


@example((2, [(ONE, Fraction(0)), (ONE, ONE), (ONE, -ONE)]))
@example((1, [(ONE,), (Fraction(2),)]))
@example((2, [(ONE, Fraction(0)), (-ONE, Fraction(0)), (Fraction(0), ONE)]))
@given(_gram_sets())
@settings(max_examples=200, deadline=None)
def test_gram_test_keeps_the_rows_of_an_lp_for_every_row_on_drawn_sets(drawn):
    dim, rows = drawn
    _gram_agrees(dim, rows, Counter())


def test_gram_certificate_cases():
    # The Gram point with another row meeting the ray and with none, a
    # lone row, a normal direction with another row meeting the ray and
    # with none, rows that no direction tried proves (one after a tie),
    # and a normal in 3-D. The point is den c / t, on r: <r, x> = den.
    x = ray_certificate((2, 0), [(1, 1), (0, 1)], 3)
    assert x == Scaled((6, 0), 4)  # den r / |r|^2 = 3 (2, 0) / 4
    assert ray_certificate((1, 0), [(-1, 0), (0, 1)], 5) == Scaled((5, 0), 1)
    assert ray_certificate((0, 3), [], 2) == Scaled((0, 6), 9)
    # (1, 0) against (1, 1): the normal c = (1, -1) has t = 1 > m = 0
    assert ray_certificate((1, 0), [(1, 1)], 1) == Scaled((1, -1), 1)
    # (2, 0) against (2, 2), (0, 2) and (1, 0): the normal c = (2, -2) of
    # (2, 2) has t = 4 > m = 2, on (1, 0)
    assert ray_certificate((2, 0), [(2, 2), (0, 2), (1, 0)], 1) == Scaled((2, -2), 4)
    # against (1, 1) and (1, -1) every direction meets another row first
    assert ray_certificate((1, 0), [(1, 1), (1, -1)], 1) is None
    # (2, 0) against (4, 2) and (0, -1): the normal (2, -4) of (4, 2)
    # ties (t = m = 4, on (0, -1)), and the normal (1, 0) of (0, -1) has
    # t = 2 below <(4, 2), c> = 4; the row, irredundant, is left to the LP
    assert ray_certificate((2, 0), [(4, 2), (0, -1)], 2) is None
    # in 3-D, (1, 0, 0) against (1, 1, 0), (1, 0, 1) and (-1, 0, 0): the
    # cross product of the first two, (1, -1, -1), has t = 1 > m = 0
    x = ray_certificate((1, 0, 0), [(1, 1, 0), (1, 0, 1), (-1, 0, 0)], 1)
    assert x == Scaled((1, -1, -1), 1)


def test_make_body_poses_no_lp_on_unimodular_images(lp_solves):
    # make_body on seeded unimodular images of 2-4-D boxes, simplices and
    # splits, built as the benchmark's cut-family bodies are, poses no LP:
    # a ray proves every row. A redundant row put first (a facet's row
    # pushed out by 1) is dropped with no LP too on boxes and simplices:
    # the basis search puts it in conv({0} union the rest). A split's two
    # rows hold no basis in 2-4-D, so there it poses exactly one LP, which
    # drops that row, as every padded body does with the search off.
    rng = random.Random(1995)
    for dim in (2, 3, 4):
        for kind in ("box", "simplex", "split"):
            for _ in range(10):
                rows, rhs, f = unimodular_body(rng, kind, dim, rng.randint(dim - 1, 2 * dim))
                body = make_body(rows, rhs, f)
                assert len(body.rows) == len(rows) and not lp_solves
                padded = make_body([rows[0]] + rows, [rhs[0] + 1] + rhs, f)
                searched = {"optimal": 1} if kind == "split" else {}
                assert padded == body and dict(lp_solves) == searched
                lp_solves.clear()
                with pytest.MonkeyPatch.context() as mp:
                    search_off(mp)
                    padded = make_body([rows[0]] + rows, [rhs[0] + 1] + rhs, f)
                assert padded == body and dict(lp_solves) == {"optimal": 1}
                lp_solves.clear()


def _normalize_inputs() -> list:
    """The (rows, rhs) of every normalize call that the README's examples
    and the golden CLI corpus make, in order, each once."""
    inputs = {}
    normalize_ = polyhedra.normalize

    def recorded(rows, rhs):
        inputs.setdefault(repr((rows, rhs)), (rows, rhs))
        return normalize_(rows, rhs)

    with pytest.MonkeyPatch.context() as mp:
        for module in (polarcut, polyhedra, jsonio, cuts):
            mp.setattr(module, "normalize", recorded)
        namespace = {}
        for block in python_blocks(README.read_text(encoding="utf-8")):
            exec(block, namespace)
        with tempfile.TemporaryDirectory() as directory:
            write_documents(directory)
            for call in CALLS:
                run_call(call, directory)
    return list(inputs.values())


def test_normalize_poses_one_lp_per_row_that_fails_the_gram_test(lp_solves):
    # On every set of the README and of the golden corpus, normalize's LPs
    # are those of the Fraction reference, whose ray test and basis search
    # are taken in Fractions: one per row that neither a ray nor the
    # search proves, in the same order, and none for the rest. Each LP's
    # objective is its row's int form, and its rows are the other live
    # rows, against which the Gram test, every other direction tried and
    # every basis tried do fail.
    inputs = _normalize_inputs()
    for rows, rhs in inputs:
        h, programs = programs_logged(normalize, rows, rhs)
        with pytest.MonkeyPatch.context() as mp:
            use_fraction_routes(mp)
            reference, reference_programs = programs_logged(normalize, rows, rhs)
        assert h == reference
        den = [p.rows[0][2] for p in programs]
        assert [tuple(Fraction(c, d) for c in p.objective) for p, d in zip(programs, den)] == [
            p.objective for p in reference_programs
        ]
        for p in programs:
            r, others = p.objective, [s for s, _, _ in p.rows]
            assert sum(c * c for c in r) <= max(sum(map(mul, s, r)) for s in others)
            assert ray_certificate(r, others, p.rows[0][2]) is None
            assert not fraction_search_proves(r, others)
    # The same counts on any machine: 18 sets keep 62 rows with 2 LPs,
    # where the rays alone take 11, the Gram test alone 18 and an LP for
    # every row 70.
    lp_solves.clear()
    kept = sum(len(normalize(rows, rhs).rows) for rows, rhs in inputs)
    assert (len(inputs), kept, dict(lp_solves)) == (18, 62, {"optimal": 2})
    lp_solves.clear()
    with pytest.MonkeyPatch.context() as mp:
        search_off(mp)
        assert sum(len(normalize(rows, rhs).rows) for rows, rhs in inputs) == kept
    assert dict(lp_solves) == {"optimal": 11}
    lp_solves.clear()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(polyhedra, "remove_redundancy", _lp_only_remove_redundancy)
        assert sum(len(normalize(rows, rhs).rows) for rows, rhs in inputs) == kept
    assert sum(lp_solves.values()) == 70


def _lp_only_remove_redundancy(dim, rows):
    return fraction_remove_redundancy(dim, rows, ray_test=False)


# ------------------------------------------------ the basis search before an LP


def _weights_hold(t, rows, found, capped: bool) -> None:
    """found = (basis, y, D), _basis_weights' answer on (t, rows), holds in
    ints: y >= 0, nonzero only on the basis, sum y <= D when capped, and
    sum_i y_i rows_i = D t, on a basis of len(t) independent rows."""
    basis, y, d = found
    dim = len(t)
    assert d > 0 and len(y) == len(rows) and min(y) >= 0
    assert len(basis) == dim and all(w == 0 for k, w in enumerate(y) if k not in basis)
    assert not capped or sum(y) <= d
    assert [sum(w * s[j] for w, s in zip(y, rows)) for j in range(dim)] == [d * c for c in t]
    assert polyhedra._rank([rows[k] for k in basis]) == dim


def _search_agrees(dim: int, rows, seen: Counter) -> None:
    """The basis search on the compiled rows against the LPs: each row
    asked among the other rows (capped, as exposed_point asks it), and
    the rows' boundedness (t = -(sum of the rows)). Weights found hold
    (_weights_hold) and imply what the LP says with the ray and the search
    off: None at the row (redundant), True for the set (bounded). The
    search proves a row redundant exactly when fraction_search_proves it,
    and the set bounded exactly when proved_bounded does."""
    ints, den = integer_rows(rows)
    for i in range(len(ints)):
        r, others = ints[i], ints[:i] + ints[i + 1 :]
        found = polyhedra._basis_weights(r, others, capped=True)
        rest = rows[:i] + rows[i + 1 :]
        assert (found is not None) == fraction_search_proves(rows[i], rest)
        if found is None:
            seen["row left to the LP"] += 1
            continue
        _weights_hold(r, others, found, capped=True)
        with pytest.MonkeyPatch.context() as mp:
            ray_off(mp)
            search_off(mp)
            assert exposed_point(r, others, den) is None
        seen["redundant by search"] += 1
    found = polyhedra._basis_weights(tuple(-sum(col) for col in zip(*ints)), ints)
    assert (found is not None) == polyhedra.proved_bounded((ints, den))
    if found is None:
        seen["set left to the LP"] += 1
        return
    _weights_hold(tuple(-sum(col) for col in zip(*ints)), ints, found, capped=False)
    with pytest.MonkeyPatch.context() as mp:
        search_off(mp)
        assert polyhedra.is_bounded((ints, den))
    seen["bounded by search"] += 1


def test_basis_search_matches_the_lps(monkeypatch):
    # Seeded 1-4-D rows with derived rows mixed in (_gram_cases: ties,
    # parallel and redundant rows) and duplicates, and seeded rows around
    # a box, whose bounded sets the search proves; then one 5-D box with
    # two drawn rows, 2 e_3 (parallel to e_3) and the midpoint of e_1 and
    # e_2, with the search let past _SEARCH_DIM, which reaches _normal's
    # Bareiss minors (_det). With the default budget the 5-D search tries
    # nothing.
    rng = random.Random(4181)
    seen = Counter()
    for _ in range(80):
        dim = rng.randint(1, 4)
        rows = _gram_cases(rng, dim, _raw_rows(rng, dim, rng.randint(1, dim + 5)))
        if rng.random() < 0.3:
            rows.insert(rng.randint(0, len(rows)), rng.choice(rows))
        _search_agrees(dim, rows, seen)
    for _ in range(30):
        dim = rng.randint(1, 4)
        box = [tuple(s * (j == d) for j in range(dim)) for d in range(dim) for s in (1, -1)]
        rows = _gram_cases(rng, dim, box + _raw_rows(rng, dim, rng.randint(0, 3)))
        _search_agrees(dim, [tuple(map(Fraction, a)) for a in rows], seen)
    kinds = ("row left to the LP", "redundant by search")
    kinds += ("set left to the LP", "bounded by search")
    assert min(seen[kind] for kind in kinds) >= 10, seen
    box = [tuple(Fraction(s * (j == d)) for j in range(5)) for d in range(5) for s in (1, -1)]
    five = box + _raw_rows(rng, 5, 2) + [vscale(Fraction(1, 2), vadd(box[0], box[2]))]
    five.insert(3, vscale(2, box[4]))
    assert polyhedra._basis_weights(tuple(-sum(col) for col in zip(*five)), five) is None
    monkeypatch.setattr(polyhedra, "_SEARCH_DIM", 5)
    calls = []
    minors = polyhedra._det

    def counted(m):
        calls.append(len(m))
        return minors(m)

    monkeypatch.setattr(polyhedra, "_det", counted)
    seen.clear()
    _search_agrees(5, five, seen)
    assert seen["redundant by search"] >= 1 and seen["bounded by search"] == 1, seen
    assert set(calls) == {4}, set(calls)


def test_exposed_point_refuses_forged_weights(monkeypatch, lp_solves):
    # Weights that do not prove r in conv({0} union others) never drop it:
    # exposed_point poses its support LP and returns the LP route's answer
    # (the search off). The search is patched to answer with the weights
    # over basis (0, 1) of the rows (2, 0) and (0, 2), and the ray is off.
    others = [(2, 0), (0, 2), (-1, 0), (0, -1)]
    cases = [
        # (1, 1) = (2 (2, 0) + 2 (0, 2)) / 4 is redundant, but one entry is off by one
        ((1, 1), (3, 2, 0, 0), 4, True),
        # (2, 2) = (2, 0) + (0, 2): in the cone, but the sum 2 is above D = 1
        ((2, 2), (1, 1, 0, 0), 1, False),
        # (1, -1) = ((2, 0) - (0, 2)) / 2: a negative entry
        ((1, -1), (1, -1, 0, 0), 2, False),
    ]
    ray_off(monkeypatch)
    for r, y, d, redundant in cases:
        with monkeypatch.context() as mp:
            search_off(mp)
            answer = exposed_point(r, others, 1)
        assert (answer is None) == redundant
        found = ((0, 1), y, d)
        monkeypatch.setattr(polyhedra, "_basis_weights", lambda t, rows, capped=False: found)
        lp_solves.clear()
        assert exposed_point(r, others, 1) == answer
        assert dict(lp_solves) == {"optimal": 1}, r


def test_is_bounded_refuses_forged_weights(monkeypatch, lp_solves):
    # Weights that do not prove boundedness never make a set bounded:
    # proved_bounded refuses them and is_bounded decides as it does with
    # no search. A point of the LP on a singular basis of (1, 0), (-1, 0),
    # (2, 0), a segment's cylinder; a negative weight for (0, -1) on (1, 0),
    # (0, 1), (-1, 0), a half-strip; one entry off by one on the square,
    # which is bounded, so its LP is posed.
    cases = [
        (((1, 0), (-1, 0), (2, 0)), ((0, 1), (0, 2, 0), 1), False, {}),
        (((1, 0), (0, 1), (-1, 0)), ((0, 1), (0, -1, 0), 1), False, {"infeasible": 1}),
        (((1, 0), (0, 1), (-1, 0), (0, -1)), ((0, 1), (1, 0, 0, 0), 1), True, {"optimal": 1}),
    ]
    for rows, found, bounded, solves in cases:
        monkeypatch.setattr(polyhedra, "_basis_weights", lambda t, rows, capped=False: found)
        lp_solves.clear()
        assert not polyhedra.proved_bounded((rows, 1))
        assert polyhedra.is_bounded((rows, 1)) == bounded
        assert dict(lp_solves) == solves, rows


def test_basis_search_rechecks_its_weights(monkeypatch):
    # Cramer's rule gives (2 (2, 0) + 2 (0, 2)) / 4 = (1, 1). With a fault
    # in the cofactors (_normal's first entry off by one) it would give
    # the weights (3, 1) over 4, and 3 (2, 0) + (0, 2) = (6, 2) is not
    # 4 (1, 1): the exact recheck refuses them, and no other basis is left.
    rows = [(2, 0), (0, 2)]
    assert polyhedra._basis_weights((1, 1), rows) == ((0, 1), (2, 2), 4)
    normal = polyhedra._normal
    monkeypatch.setattr(polyhedra, "_normal", lambda b: (normal(b)[0] + 1, *normal(b)[1:]))
    assert polyhedra._basis_weights((1, 1), rows) is None
