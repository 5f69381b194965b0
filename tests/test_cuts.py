import json
import math
import random
from dataclasses import replace
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    cone_is_pointed,
    first_interior_point,
    fraction_region_points,
    nearest_int,
    per_facet_uncertified,
    per_point_check_cut_validity,
    vadd,
    vscale,
    vsub,
)
from test_acceptance import _cut_corpus_2d
from polarcut import cuts, lp
from polarcut.cli import main
from polarcut.cuts import (
    AnchorNotInteriorError,
    CornerInstance,
    Cut,
    NotSFreeError,
    check_cut_validity,
    generate_cut,
    is_s_free,
    make_body,
    maximality_certificate,
    region_lattice_points,
)
from polarcut.lp import LinearProgram, solve
from polarcut.polyhedra import (
    OriginNotInteriorError,
    VPolytope,
    membership,
    random_polyhedron,
)
from polarcut.rationals import dot, vector
from polarcut.sublinear import (
    minimal_sublinear,
    random_unit_ball_rep,
    sample_points,
    sandwich_check,
)


def V(*entries):
    return vector(entries)


@pytest.fixture
def split_1d():
    """f = 1/2 between the points of Z, rays +1 and -1, B = [0, 1]."""
    inst = CornerInstance.make(1, [Fraction(1, 2)], [[1], [-1]])
    body = make_body([[1], [-1]], [1, 0], inst.f)
    return inst, body


def test_translate_strip_example():
    k = make_body([(1, 0), (-1, 0)], [1, 0], V(Fraction(1, 2), 0))
    assert set(k.rows) == {V(2, 0), V(-2, 0)}


def test_translate_rejects_boundary_anchor():
    with pytest.raises(AnchorNotInteriorError):
        make_body([(1, 0), (-1, 0)], [1, 0], V(0, 0))
    with pytest.raises(AnchorNotInteriorError):
        make_body([(1, 0), (-1, 0)], [1, 0], V(3, 0))


@pytest.mark.parametrize(
    "rhs", [pytest.param([1, 2, 1], id="zero"), pytest.param([1, 2, 0], id="negative")]
)
def test_make_body_refuses_nonpositive_margin(rhs):
    # f = (1/2, 1/2) pairs to 1 with the last row: a right-hand side of 1
    # leaves a zero margin, 0 a negative one. normalize decides it on the
    # shifted rows, and its error comes back as AnchorNotInteriorError.
    f = V(Fraction(1, 2), Fraction(1, 2))
    with pytest.raises(AnchorNotInteriorError, match="f not interior") as excinfo:
        make_body([(-1, 0), (0, -1), (1, 1)], rhs, f)
    assert isinstance(excinfo.value.__cause__, OriginNotInteriorError)
    assert make_body([(-1, 0), (0, -1), (1, 1)], [1, 2, 2], f).dim == 2


def test_instance_validation():
    with pytest.raises(ValueError):
        CornerInstance.make(1, [1], [[1]])  # integral anchor
    with pytest.raises(ValueError):
        CornerInstance.make(1, [Fraction(1, 2)], [])  # no rays
    with pytest.raises(ValueError):
        CornerInstance.make(2, [Fraction(1, 2), 0], [[1]])  # ray width


def test_split_cut_exact(split_1d):
    inst, body = split_1d
    cut = generate_cut(inst, body)
    assert cut.alpha == (Fraction(2), Fraction(2))
    assert "2" in cut.provenance and "1/2" in cut.provenance
    report = check_cut_validity(inst, cut, 5)
    assert report.valid_on_region and report.violation is None
    # tight at both neighbouring points: the reach LP hits exactly 1
    for z in (V(0), V(1)):
        target = vsub(z, inst.f)
        out = solve(
            LinearProgram.make(
                "min",
                cut.alpha,
                [(tuple(r[0] for r in inst.rays), "=", target[0])],
            )
        )
        assert out.status == "optimal" and out.value == 1


def test_zero_cut_violated(split_1d):
    inst, _ = split_1d
    zero = Cut(alpha=(Fraction(0), Fraction(0)), provenance="")
    report = check_cut_validity(inst, zero, 5)
    assert not report.valid_on_region
    violation = report.violation
    assert violation is not None and not violation.improving_ray
    # the witness is the lexicographically smallest reachable point ...
    assert violation.x == (Fraction(-5),)
    # ... and certifies itself: a feasible combination with value < 1
    assert dot(zero.alpha, violation.s) < 1
    assert all(s >= 0 for s in violation.s)
    reach = (Fraction(0),)
    for s, r in zip(violation.s, inst.rays):
        reach = vadd(reach, vscale(s, r))
    assert reach == vsub(violation.x, inst.f)
    # the illustrative violation at x=1 with s=(1/2, 0) is genuine too
    assert dot(zero.alpha, V(Fraction(1, 2), 0)) < 1


def test_unbounded_violation_reports_ray(split_1d):
    inst, _ = split_1d
    descending = Cut(alpha=(Fraction(-1), Fraction(0)), provenance="")
    report = check_cut_validity(inst, descending, 2)
    assert not report.valid_on_region
    assert report.violation.improving_ray
    ray = report.violation.s
    assert dot(descending.alpha, ray) < 0
    assert sum(s * r[0] for s, r in zip(ray, inst.rays)) == 0


def test_is_s_free_examples(split_1d):
    inst, body = split_1d
    assert is_s_free(body, inst, 5).free_on_region
    fat = make_body([[1], [-1]], [Fraction(3, 2), Fraction(1, 2)], inst.f)
    verdict = is_s_free(fat, inst, 5)
    assert not verdict.free_on_region
    assert verdict.witness == (Fraction(0),)
    # restricting to P = {x >= 1} moves the witness to 1
    gated = CornerInstance.make(
        1, [Fraction(1, 2)], [[1], [-1]], p_rows=[[-1]], p_rhs=[-1]
    )
    verdict = is_s_free(
        make_body([[1], [-1]], [Fraction(3, 2), Fraction(1, 2)], gated.f),
        gated,
        5,
    )
    assert not verdict.free_on_region
    assert verdict.witness == (Fraction(1),)


def test_generate_cut_refuses_with_witness(split_1d):
    inst, _ = split_1d
    fat = make_body([[1], [-1]], [Fraction(3, 2), Fraction(1, 2)], inst.f)
    with pytest.raises(NotSFreeError) as excinfo:
        generate_cut(inst, fat, 5)
    err = excinfo.value
    assert err.witness == (Fraction(0),)
    assert "lattice point" in str(err)
    # the witness really is feasible and strictly inside the body
    assert membership(fat, vsub(err.witness, inst.f)).position == "interior"


def test_region_scan_is_lexicographic():
    inst = CornerInstance.make(
        2, [Fraction(1, 2), Fraction(1, 2)], [[1, 0]]
    )
    pts = list(region_lattice_points(inst, 1))
    assert pts[0] == V(-1, -1)
    assert pts == sorted(pts)
    assert len(pts) == 9


def test_scan_centre_rounds_half_even():
    # Radius 0 scans round(f) alone; a tie goes to the even neighbour. The
    # reference scan of the lattice differential test, which rounds without
    # the built-in round, agrees on every case.
    cases = {
        Fraction(1, 2): 0,
        Fraction(-1, 2): 0,
        Fraction(3, 2): 2,
        Fraction(-3, 2): -2,
        Fraction(7, 4): 2,
        Fraction(-7, 4): -2,
    }
    for f, centre in cases.items():
        inst = CornerInstance.make(1, [f], [[1], [-1]])
        assert list(region_lattice_points(inst, 0)) == [V(centre)]
        assert list(fraction_region_points(inst, 0)) == [V(centre)]


def test_scan_size_limit(tmp_path, capsys, monkeypatch):
    # The box size is checked before the first point: 999,999 points in
    # 1-D start a scan, 1,000,001 do not, and neither does a 3-D box of
    # 101^3 points. The limit is on the radius box, not on the region: the
    # unit cube about f holds 8 lattice points, yet a radius-50 scan of it
    # is refused before any point, by is_s_free and by the CLI (exit 2).
    inst = CornerInstance.make(1, [Fraction(1, 2)], [[1]])
    assert cuts.MAX_SCAN_POINTS == 10**6
    assert next(region_lattice_points(inst, 499_999)) == V(-499_999)
    with pytest.raises(ValueError, match="over the limit"):
        next(region_lattice_points(inst, 500_000))
    box = CornerInstance.make(3, [Fraction(1, 2)] * 3, [[1, 0, 0]])
    with pytest.raises(ValueError, match="over the limit"):
        next(region_lattice_points(box, 50))
    assert next(region_lattice_points(box, 49)) == V(-49, -49, -49)
    e = [[int(i == d) for i in range(3)] for d in range(3)]
    rows = [r for a in e for r in (a, [-x for x in a])]
    cube = make_body(rows, [1, 0] * 3, box.f)
    assert len(list(region_lattice_points(box, 49, cube))) == 8
    assert is_s_free(cube, box, 49).free_on_region
    path = tmp_path / "cube.json"
    path.write_text(json.dumps({
        "instance": {"dim": 3, "f": ["1/2"] * 3, "rays": e, "P": None},
        "body": {"rows": rows, "rhs": [1, 0] * 3},
    }))

    def no_scan(*ranges):
        raise AssertionError("scan started")

    monkeypatch.setattr(cuts, "product", no_scan)
    with pytest.raises(ValueError, match="over the limit"):
        is_s_free(cube, box, 50)
    assert main(["sfree", str(path), "--radius", "50"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "input error" in err and "over the limit" in err


def test_validity_region_monotone(split_1d):
    inst, body = split_1d
    cut = generate_cut(inst, body)
    for radius in (1, 2, 3, 4, 5):
        assert check_cut_validity(inst, cut, radius).valid_on_region


def test_body_shrink_never_decreases_coefficients(split_1d):
    inst, body = split_1d
    smaller = make_body(
        [[1], [-1], [2]], [1, 0, Fraction(3, 2)], inst.f
    )
    for r in inst.rays:
        assert minimal_sublinear(smaller, r) >= minimal_sublinear(body, r)


def test_ray_scaling_scales_alpha(split_1d):
    inst, body = split_1d
    cut = generate_cut(inst, body)
    scaled_inst = CornerInstance.make(
        1,
        [Fraction(1, 2)],
        [vscale(Fraction(3, 2), r) for r in inst.rays],
    )
    scaled_cut = generate_cut(scaled_inst, body)
    assert scaled_cut.alpha == tuple(Fraction(3, 2) * a for a in cut.alpha)


def test_maximality_split_certified(split_1d):
    inst, body = split_1d
    report = maximality_certificate(body, inst, 5)
    assert report.certified and not report.heuristic
    assert report.uncertified_facets == ()


def test_maximality_square_uncertified():
    inst = CornerInstance.make(
        2, [Fraction(1, 2), Fraction(1, 2)], [[1, 0], [0, 1]]
    )
    body = make_body(
        [[1, 0], [0, 1], [-1, 0], [0, -1]], [1, 1, 0, 0], inst.f
    )
    report = maximality_certificate(body, inst, 5)
    assert not report.certified and not report.heuristic
    assert report.uncertified_facets == (0, 1, 2, 3)


def test_maximality_unbounded_strip_is_heuristic():
    inst = CornerInstance.make(2, [Fraction(1, 2), 0], [[1, 0], [0, 1]])
    body = make_body([[1, 0], [-1, 0]], [1, 0], inst.f)
    report = maximality_certificate(body, inst, 3)
    assert report.certified and report.heuristic


def test_sandwich_check_on_centered_body(split_1d):
    inst, body = split_1d
    rows_rep = VPolytope(1, body.rows)
    samples = sample_points(body, 71, 40)
    report = sandwich_check(body, rows_rep, samples)
    assert report.passed and report.samples_checked == 40
    padded = random_unit_ball_rep(body, 5, 4)
    assert sandwich_check(body, padded, samples).passed
    bad = VPolytope(1, (V(2),))
    with pytest.raises(ValueError):
        sandwich_check(body, bad, samples)


def test_cut_validity_requires_matching_width(split_1d):
    inst, _ = split_1d
    with pytest.raises(ValueError):
        check_cut_validity(inst, Cut(alpha=(Fraction(1),), provenance=""), 2)


def random_corner_case(rng, dim=None):
    """A 1-3-D instance (of the given dimension, if one is given) with unit
    rays, a body about f (half of its rows with integer right-hand sides,
    so lattice points land on facets), P on about half of the draws, and a
    radius in 0..3."""
    if dim is None:
        dim = rng.randint(1, 3)
    f = [Fraction(rng.randint(-6, 6), rng.choice((2, 3, 4))) for _ in range(dim)]
    if all(c.denominator == 1 for c in f):
        f[0] += Fraction(1, 2)
    rays = [tuple(int(i == d) for i in range(dim)) for d in range(dim)]

    def nonzero_row():
        while True:
            a = V(*(rng.randint(-2, 2) for _ in range(dim)))
            if any(a):
                return a

    rows = [nonzero_row() for _ in range(rng.randint(dim, dim + 3))]
    rhs = []
    for a in rows:
        level = dot(a, f)
        if rng.random() < 0.5:
            rhs.append(Fraction(math.floor(level) + 1))
        else:
            rhs.append(level + Fraction(rng.randint(1, 8), rng.randint(1, 4)))
    p_rows, p_rhs = [], []
    if rng.random() < 0.5:
        for _ in range(rng.randint(1, 3)):
            p_rows.append(nonzero_row())
            p_rhs.append(Fraction(rng.randint(-3, 9), rng.randint(1, 3)))
    inst = CornerInstance.make(dim, f, rays, p_rows, p_rhs)
    return inst, make_body(rows, rhs, inst.f), rng.randint(0, 3)


def test_lattice_pass_matches_fraction_reference(monkeypatch):
    # The integer P filter and the single-pass maximality scan against the
    # Fraction routes they replace; maximality_certificate must walk the
    # region exactly once.
    rng = random.Random(4242)
    real_scan = cuts.region_lattice_points
    passes = []

    def counted_scan(*args, **kwargs):
        passes.append(args)
        return real_scan(*args, **kwargs)

    monkeypatch.setattr(cuts, "region_lattice_points", counted_scan)
    seen = {"filtered": 0, "not_free": 0, "certified": 0, "partial": 0}
    for _ in range(200):
        inst, body, radius = random_corner_case(rng)
        points = list(real_scan(inst, radius))
        assert points == list(fraction_region_points(inst, radius))
        verdict = is_s_free(body, inst, radius)
        assert verdict.witness == first_interior_point(body, inst, radius)
        assert verdict.free_on_region == (verdict.witness is None)
        passes.clear()
        report = maximality_certificate(body, inst, radius)
        assert passes == [(inst, radius, body)]
        expected = per_facet_uncertified(body, inst, radius)
        assert report.uncertified_facets == expected
        assert report.certified == (not expected)
        seen["filtered"] += len(points) < (2 * radius + 1) ** inst.dim
        seen["not_free"] += not verdict.free_on_region
        seen["certified"] += report.certified
        seen["partial"] += 0 < len(expected) < len(body.rows)
    assert min(seen.values()) >= 10, seen


REGION_KINDS = (
    "1-D",
    "P absent",
    "unbounded split",
    "empty zero-last slice",
    "negative last",
    "P misses box",
)


def region_kinds(inst, body, radius):
    """The kinds of REGION_KINDS a case is of, decided from the Fraction
    data. Half-spaces are P's rows and B's in x-space, <a, z> <= 1 + <a, f>;
    a zero-last slice is empty at a box prefix whose head pairing exceeds
    the right-hand side."""
    half_spaces = list(zip(inst.p_rows, inst.p_rhs))
    half_spaces += [(a, 1 + dot(a, inst.f)) for a in body.rows]
    center = [nearest_int(c) for c in inst.f]
    prefixes = list(product(*(range(c - radius, c + radius + 1) for c in center[:-1])))
    kinds = set()
    if inst.dim == 1:
        kinds.add("1-D")
    if not inst.p_rows:
        kinds.add("P absent")
    if inst.dim > 1 and len(body.rows) == 2:
        a, b = body.rows
        if dot(a, b) < 0 and dot(a, b) ** 2 == dot(a, a) * dot(b, b):
            kinds.add("unbounded split")
    if any(
        a[-1] == 0 and any(dot(a[:-1], z) > b for z in prefixes)
        for a, b in half_spaces
    ):
        kinds.add("empty zero-last slice")
    if any(a[-1] < 0 for a, _ in half_spaces):
        kinds.add("negative last")
    if inst.p_rows and not any(fraction_region_points(inst, radius)):
        kinds.add("P misses box")
    return kinds


def targeted_region_case(rng, kind):
    """A random_corner_case made to be of the given kind of REGION_KINDS,
    with a radius in 1..3: drawn in 1-D, stripped of P, given a split body,
    or given one more P row (where normalize cannot drop it as redundant)."""
    if kind == "1-D":
        dim = 1
    elif kind in ("unbounded split", "empty zero-last slice"):
        dim = rng.randint(2, 3)
    else:
        dim = None
    inst, body, _ = random_corner_case(rng, dim)
    radius = rng.randint(1, 3)
    dim, f = inst.dim, inst.f
    if kind == "1-D":
        return inst, body, radius
    if kind == "P absent":
        return CornerInstance(dim, f, inst.rays), body, radius
    if kind == "unbounded split":
        d = next(d for d, c in enumerate(f) if c.denominator != 1)
        e = [int(i == d) for i in range(dim)]
        low = math.floor(f[d])
        return inst, make_body([e, [-x for x in e]], [low + 1, -low], f), radius
    head = [rng.randint(-2, 2) for _ in range(dim - 1)]
    if kind == "empty zero-last slice":
        # in a box of radius >= 1, <head, z - f> reaches ||head||_1 / 2,
        # at least 1/2, above the margin of at most 3/8
        head[rng.randrange(dim - 1)] = rng.choice((-1, 1))
        row = V(*head, 0)
        rhs = dot(row, f) + Fraction(rng.randint(1, 3), 8)
    elif kind == "negative last":
        row = V(*head, -rng.randint(1, 2))
        rhs = dot(row, f) + Fraction(rng.randint(0, 8), 2)
    else:  # "P misses box": rhs below the row's minimum over the box
        row = V(*head, rng.choice((-2, -1, 1, 2)))
        center = V(*(nearest_int(c) for c in f))
        low = dot(row, center) - radius * sum(abs(x) for x in row)
        rhs = low - Fraction(rng.randint(1, 4), rng.randint(1, 3))
    inst = CornerInstance(dim, f, inst.rays, inst.p_rows + (row,), inst.p_rhs + (rhs,))
    return inst, body, radius


def assert_region_scan_matches(inst, body, radius):
    for region_body in (body, None):
        assert list(region_lattice_points(inst, radius, region_body)) == list(
            fraction_region_points(inst, radius, region_body)
        ), (inst, region_body, radius)


def test_region_scan_matches_fraction_reference():
    # The exact last-coordinate slice against the whole box filtered by
    # Fraction pairings, with the body and without it: the same points in
    # the same order, on 200 random cases and 15 built for each kind.
    rng = random.Random(2718)
    cases = [random_corner_case(rng) for _ in range(200)]
    cases += [targeted_region_case(rng, kind) for kind in REGION_KINDS for _ in range(15)]
    seen = dict.fromkeys(REGION_KINDS, 0)
    for inst, body, radius in cases:
        assert_region_scan_matches(inst, body, radius)
        for kind in region_kinds(inst, body, radius):
            seen[kind] += 1
    print("region kinds:", seen)
    assert min(seen.values()) >= 10, seen


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=True), st.sampled_from((None,) + REGION_KINDS))
def test_region_scan_matches_fraction_reference_hypothesis(rng, kind):
    # A true random generator: random_corner_case redraws zero rows, so the
    # all-zeros draws hypothesis would start from never end.
    if kind is None:
        inst, body, radius = random_corner_case(rng)
    else:
        inst, body, radius = targeted_region_case(rng, kind)
    assert_region_scan_matches(inst, body, radius)


def in_box(z, box):
    return all(
        (lo is None or lo <= v) and (hi is None or v <= hi)
        for v, (lo, hi) in zip(z, box)
    )


def box_kinds(inst, radius, box):
    """How a box of violation_box's form sits against the radius box."""
    center = [nearest_int(c) for c in inst.f]
    kinds = set()
    if inst.dim == 1:
        kinds.add("1-D")
    if any(None in b for b in box):
        kinds.add("open side")
    if any(None not in b and b[0] > b[1] for b in box):
        kinds.add("empty")
    elif any(
        (hi is not None and hi < c - radius) or (lo is not None and lo > c + radius)
        for (lo, hi), c in zip(box, center)
    ):
        kinds.add("wholly outside")
    elif any(
        (lo is not None and lo < c - radius) or (hi is not None and hi > c + radius)
        for (lo, hi), c in zip(box, center)
    ):
        kinds.add("partly outside")
    return kinds


def test_region_scan_clips_to_box():
    # A box clips the scan: the same points, in the same order, as the
    # unboxed scan filtered to the box, with the body and without it. The
    # boxes are drawn about round(f), a side now and then open, so some are
    # empty, some stick out of the radius box and some miss it.
    rng = random.Random(1985)
    seen = dict.fromkeys(("1-D", "open side", "empty", "wholly outside", "partly outside"), 0)
    for _ in range(300):
        inst, body, radius = random_corner_case(rng)
        box = tuple(
            tuple(
                None if rng.random() < 0.15 else nearest_int(c) + rng.randint(-radius - 2, radius + 2)
                for _ in "lh"
            )
            for c in inst.f
        )
        for region_body in (body, None):
            whole = region_lattice_points(inst, radius, region_body)
            assert list(region_lattice_points(inst, radius, region_body, box)) == [
                z for z in whole if in_box(z, box)
            ], (inst, region_body, radius, box)
        for kind in box_kinds(inst, radius, box):
            seen[kind] += 1
    assert min(seen.values()) >= 10, seen
    # the size limit still reads the radius box, however small the box
    line = CornerInstance.make(1, [Fraction(1, 2)], [[1]])
    with pytest.raises(ValueError, match="over the limit"):
        next(region_lattice_points(line, 500_000, box=((0, 1),)))
    assert list(region_lattice_points(line, 2, box=((1, 7),))) == [V(1), V(2)]
    assert list(region_lattice_points(line, 2, box=((3, 7),))) == []
    assert list(region_lattice_points(line, 2, box=((1, 0),))) == []


def test_boundedness_matches_cone_reference():
    # maximality_certificate calls the body bounded when its support is
    # finite along every axis; the reference decides it by LPs over the
    # recession cone. heuristic must read: P present or the body unbounded.
    rng = random.Random(5150)
    cases = []
    for _ in range(120):
        dim = rng.randint(1, 4)
        k = random_polyhedron(dim, rng.randint(dim, dim + 4), rng)
        f = V(Fraction(1, 2), *([0] * (dim - 1)))
        rays = [tuple(int(i == d) for i in range(dim)) for d in range(dim)]
        body = make_body(k.rows, [1 + dot(a, f) for a in k.rows], f)
        assert body == k
        cases.append((CornerInstance.make(dim, f, rays), body))
        cases.append((CornerInstance.make(dim, f, rays, [[1] * dim], [dim]), body))
    for _ in range(60):
        inst, body, _ = random_corner_case(rng)
        cases.append((inst, body))
        cases.append((CornerInstance(inst.dim, inst.f, inst.rays), body))
    seen = {}
    for inst, body in cases:
        bounded = cone_is_pointed(body)
        report = maximality_certificate(body, inst, 0)
        assert report.heuristic == (bool(inst.p_rows) or not bounded)
        key = (bool(inst.p_rows), bounded)
        seen[key] = seen.get(key, 0) + 1
    assert len(seen) == 4 and min(seen.values()) >= 20, seen


def random_cut_case(rng):
    """A 1-3-D instance, a cut and a radius in 0..3 for the differential
    test of check_cut_validity. There are 1-4 rays, now and then a zero ray
    or the opposite of an earlier one, so they may fail to span the space
    (2 rays in 3-D) or cancel out. P comes on about a third of the draws.
    alpha is the split cut on a fractional coordinate of f (valid), that
    cut scaled down (often violated), or small entries with zeros and
    negatives (violated, or unbounded along a ray combination reaching
    nothing)."""
    dim = rng.randint(1, 3)
    f = [Fraction(rng.randint(-4, 4), rng.choice((2, 3, 4))) for _ in range(dim)]
    if all(c.denominator == 1 for c in f):
        f[0] += Fraction(1, 2)
    rays = []
    for _ in range(rng.randint(1, 4)):
        kind = rng.random()
        if rays and kind < 0.2:
            rays.append(vscale(-1, rng.choice(rays)))
        elif kind < 0.3:
            rays.append((0,) * dim)
        else:
            rays.append(
                tuple(Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(dim))
            )
    p_rows, p_rhs = [], []
    if rng.random() < 0.35:
        for _ in range(rng.randint(1, 2)):
            p_rows.append([rng.randint(-1, 1) for _ in range(dim)])
            p_rhs.append(Fraction(rng.randint(-2, 6), rng.randint(1, 2)))
    inst = CornerInstance.make(dim, f, rays, p_rows, p_rhs)
    kind = rng.random()
    if kind < 0.5:
        d = next(d for d, c in enumerate(inst.f) if c.denominator != 1)
        e = [int(i == d) for i in range(dim)]
        low = math.floor(inst.f[d])
        split = make_body([e, [-x for x in e]], [low + 1, -low], inst.f)
        alpha = [minimal_sublinear(split, r) for r in inst.rays]
        if kind < 0.2:
            alpha = [a * Fraction(rng.randint(1, 3), 4) for a in alpha]
    else:
        choices = (-1, -1, 0, 0, Fraction(1, 2), 1, 2, 3)
        alpha = [Fraction(rng.choice(choices)) for _ in rays]
    return inst, Cut(alpha=tuple(alpha), provenance=""), rng.randint(0, 3)


def _count_solves(monkeypatch):
    """Wrap lp.solve so that each call is counted; returns the counter."""
    calls = []
    real_solve = lp.solve

    def counted(program):
        calls.append(program)
        return real_solve(program)

    monkeypatch.setattr(lp, "solve", counted)
    return calls


def verdict(report):
    """A ValidityReport without its scope: what a scan of the radius box
    decides, whatever it can claim beyond it."""
    return report.valid_on_region, report.radius, report.violation


def coefficient_kind(cut):
    """"box" when every alpha_j > 0, "zero coefficient" when the least is
    0, "negative coefficient" when one is below 0 (no violation_box)."""
    low = min(cut.alpha)
    return "box" if low > 0 else "zero coefficient" if low == 0 else "negative coefficient"


def containing_radius(inst, box):
    """The least radius whose scan box strictly contains a bounded box on
    every axis."""
    center = [nearest_int(c) for c in inst.f]
    return 1 + max(max(c - lo, hi - c, 0) for (lo, hi), c in zip(box, center))


def test_check_cut_matches_per_point_reference(monkeypatch):
    # The scan of violation_box, reusing certificates, against one LP per
    # lattice point of the whole radius box: equal verdicts (the violation's
    # point, s and kind included), and never more LPs, on 600 seeded
    # instances covering every kind of ray list and cut. A global verdict
    # with a bounded box agrees with the reference at a radius whose box
    # strictly contains it: the same violation when the box lies inside
    # the radius box, and a valid cut stays valid. A box empty on some
    # axis gives a global valid verdict.
    rng = random.Random(1971)
    calls = _count_solves(monkeypatch)
    seen = dict.fromkeys(
        ("valid", "violated", "unbounded", "P", "radius 0", "zero ray",
         "opposite rays", "non-spanning", "saved LPs", "box",
         "zero coefficient", "negative coefficient", "global valid",
         "global violated", "region", "empty axis"),
        0,
    )
    for _ in range(600):
        inst, cut, radius = random_cut_case(rng)
        calls.clear()
        report = check_cut_validity(inst, cut, radius)
        fast = len(calls)
        calls.clear()
        assert verdict(report) == verdict(
            per_point_check_cut_validity(inst, cut, radius)
        ), (inst, cut)
        assert fast <= len(calls)
        box = cuts.violation_box(inst, cut.alpha)
        if report.scope == "global" and box is not None and all(None not in b for b in box):
            wide_radius = containing_radius(inst, box)
            wide = per_point_check_cut_validity(inst, cut, wide_radius)
            assert wide.valid_on_region == report.valid_on_region, (inst, cut)
            if wide_radius <= radius + 1:  # the box lies inside the radius box
                assert wide.violation == report.violation, (inst, cut)
            seen["global valid" if report.valid_on_region else "global violated"] += 1
        seen["region"] += report.scope == "region"
        if box is not None and any(None not in b and b[0] > b[1] for b in box):
            # no lattice point at all can violate the cut
            assert report.valid_on_region and report.scope == "global", (inst, cut)
            seen["empty axis"] += 1
        seen[coefficient_kind(cut)] += 1
        violation = report.violation
        seen["valid"] += report.valid_on_region
        seen["violated"] += violation is not None and not violation.improving_ray
        seen["unbounded"] += violation is not None and violation.improving_ray
        seen["P"] += bool(inst.p_rows)
        seen["radius 0"] += radius == 0
        seen["zero ray"] += any(not any(r) for r in inst.rays)
        seen["opposite rays"] += any(
            any(r) and vscale(-1, r) in inst.rays for r in inst.rays
        )
        seen["non-spanning"] += len(inst.rays) < inst.dim
        seen["saved LPs"] += fast < len(calls)
    assert min(seen.values()) >= 25, seen


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False))
def test_check_cut_matches_per_point_reference_hypothesis(rng):
    inst, cut, radius = random_cut_case(rng)
    assert verdict(check_cut_validity(inst, cut, radius)) == verdict(
        per_point_check_cut_validity(inst, cut, radius)
    )


@pytest.mark.parametrize("axis", range(3))
@pytest.mark.parametrize("side", ("low", "high"))
def test_narrowed_violation_box_is_caught(monkeypatch, axis, side):
    # A violation_box one point too narrow on either side of any axis
    # drops a violation that the seeded battery of the reference test finds.
    real_box = cuts.violation_box

    def narrowed(inst, alpha):
        box = real_box(inst, alpha)
        if box is None or axis >= len(box) or None in box[axis]:
            return box
        lo, hi = box[axis]
        return box[:axis] + (((lo + 1, hi) if side == "low" else (lo, hi - 1)),) + box[axis + 1:]

    monkeypatch.setattr(cuts, "violation_box", narrowed)
    rng = random.Random(1971)
    for _ in range(600):
        inst, cut, radius = random_cut_case(rng)
        if verdict(check_cut_validity(inst, cut, radius)) != verdict(
            per_point_check_cut_validity(inst, cut, radius)
        ):
            return
    pytest.fail(f"a box narrowed at the {side} end of axis {axis} went unnoticed")


def test_violation_box_examples(split_1d):
    # The split cut's box is the two lattice points about f = 1/2; a zero
    # coefficient leaves a side open along its ray; a negative one, no box.
    inst, body = split_1d
    assert cuts.violation_box(inst, generate_cut(inst, body).alpha) == ((0, 1),)
    # a zero coefficient on the ray +1 opens the high side, on -1 the low
    assert cuts.violation_box(inst, (Fraction(0), Fraction(2))) == ((0, None),)
    assert cuts.violation_box(inst, (Fraction(2), Fraction(0))) == ((None, 1),)
    assert cuts.violation_box(inst, (Fraction(1), Fraction(-1))) is None
    # rays e1 and e2 at f = (1/2, 1/2) with alpha 4: the box of
    # f + conv{0, e1/4, e2/4} holds no lattice point (ceil 1 > floor 0)
    plane = CornerInstance.make(2, [Fraction(1, 2)] * 2, [[1, 0], [0, 1]])
    assert cuts.violation_box(plane, (Fraction(4), Fraction(4))) == ((1, 0), (1, 0))
    report = check_cut_validity(plane, Cut((Fraction(4), Fraction(4)), ""), 0)
    assert report.valid_on_region and report.scope == "global"


def test_check_cut_scope(split_1d):
    # global when violation_box lies inside the radius box, is empty on
    # some axis, or on a violation; region when the box sticks out of the
    # radius box, is open on a side, or does not exist, and is not empty.
    inst, body = split_1d
    cut = generate_cut(inst, body)
    assert check_cut_validity(inst, cut, 1).scope == "global"
    assert check_cut_validity(inst, cut, 0).scope == "region"  # box [0, 1], scan {0}
    # alpha_2 = 0 reaches x = 0 at cost 0: a violation, so global
    report = check_cut_validity(inst, Cut((Fraction(2), Fraction(0)), ""), 3)
    assert not report.valid_on_region and report.scope == "global"
    plane = CornerInstance.make(2, [Fraction(1, 2)] * 2, [[1, 0], [0, 1]])
    # the split cut on x1: alpha_2 = 0 leaves axis 2 open upwards
    report = check_cut_validity(plane, Cut((Fraction(2), Fraction(0)), ""), 2)
    assert report.valid_on_region and report.scope == "region"
    # alpha_2 < 0: no box; valid at radius 2 (s_1 >= 1/2 and s_2 <= 3/2,
    # so the cost 4 s_1 - s_2 / 2 is at least 5/4),
    # violated further out, first at x = (1, 3) with cost 2 - 5/4
    negative = Cut((Fraction(4), Fraction(-1, 2)), "")
    report = check_cut_validity(plane, negative, 2)
    assert report.valid_on_region and report.scope == "region"
    report = check_cut_validity(plane, negative, 5)
    assert report.violation.x == V(1, 3) and report.scope == "global"
    # A box empty on axis 1 holds no lattice point, whatever axis 2 reads:
    # alpha_1 = 4 puts the tip e1 / 4 short of x1 = 1, so x1 = 1/2 + s_1
    # is an integer only at s_1 >= 1/2, where the cost is at least 2.
    # Beside an axis left open by two zero coefficients:
    open_plane = CornerInstance.make(
        2, [Fraction(1, 2)] * 2, [[1, 0], [0, 1], [0, -1]]
    )
    open_cut = Cut((Fraction(4), Fraction(0), Fraction(0)), "")
    assert cuts.violation_box(open_plane, open_cut.alpha) == ((1, 0), (None, None))
    report = check_cut_validity(open_plane, open_cut, 2)
    assert report.valid_on_region and report.scope == "global"
    # beside an axis whose range {1..10} sticks out of the radius-2 box:
    tall_cut = Cut((Fraction(4), Fraction(1, 10)), "")
    assert cuts.violation_box(plane, tall_cut.alpha) == ((1, 0), (1, 10))
    report = check_cut_validity(plane, tall_cut, 2)
    assert report.valid_on_region and report.scope == "global"
    # both still valid on a wider radius box
    for inst, cut in ((open_plane, open_cut), (plane, tall_cut)):
        assert per_point_check_cut_validity(inst, cut, 12).valid_on_region


def test_split_check_takes_two_lps(split_1d, monkeypatch):
    # 11 lattice points in the radius box, of which violation_box keeps
    # x = 0 and x = 1: two LPs. At x = 0 the minimum is 1, with dual
    # u = -2; at x = 1 it is 1, with dual u = 2.
    inst, body = split_1d
    cut = generate_cut(inst, body)
    calls = _count_solves(monkeypatch)
    assert len(list(region_lattice_points(inst, 5))) == 11
    box = cuts.violation_box(inst, cut.alpha)
    assert list(region_lattice_points(inst, 5, box=box)) == [V(0), V(1)]
    assert check_cut_validity(inst, cut, 5).valid_on_region
    assert len(calls) == 2


def test_check_cut_lp_count_on_acceptance_corpus(monkeypatch):
    # The C7 corpus of seeded 2-D lattice-free bodies at radius 4: never
    # more LPs than points, and in total a small fraction of them.
    calls = _count_solves(monkeypatch)
    fast_total = reference_total = points = 0
    for inst, body, _, _ in _cut_corpus_2d():
        cut = generate_cut(inst, body, 4)
        calls.clear()
        report = check_cut_validity(inst, cut, 4)
        fast = len(calls)
        calls.clear()
        assert verdict(report) == verdict(per_point_check_cut_validity(inst, cut, 4))
        assert report.valid_on_region
        assert fast <= len(calls)
        fast_total += fast
        reference_total += len(calls)
        points += len(list(region_lattice_points(inst, 4)))
    assert reference_total == points == 20 * 81
    assert fast_total * 10 < reference_total


@pytest.mark.parametrize(
    "status, forgery",
    [
        pytest.param("optimal", "dual", id="optimal"),
        pytest.param("infeasible", "farkas", id="infeasible"),
        pytest.param("optimal", "value", id="optimal-value"),
        pytest.param("optimal", "point", id="optimal-point"),
    ],
)
def test_check_cut_refuses_a_broken_certificate(monkeypatch, status, forgery):
    # A forged outcome stops the scan with RuntimeError at the point that
    # produced it; no later point is skipped, or even visited, on its
    # strength. The forged dual and Farkas row still prove their own point,
    # so only the check against the rays can catch them; the forged value
    # and point keep the dual, so only lp.verify_certificate's test of the
    # value and of the point can. The split cut on x1 with rays (1, 0) and
    # (-1, 4): its violation_box {0, 1} x {1, 2} holds the unreachable
    # points (0, 1) and (0, 2) before the reachable (1, 1) and (1, 2).
    inst = CornerInstance.make(
        2, [Fraction(1, 2), Fraction(1, 2)], [[1, 0], [-1, 4]]
    )
    cut = Cut(alpha=(Fraction(2), Fraction(2)), provenance="")
    real_solve = lp.solve
    calls = []

    def forging(program):
        outcome = real_solve(program)
        calls.append(outcome.status)
        if outcome.status != status:
            return outcome
        # the first infeasible outcome is at t = (-1/2, 1/2); the first
        # optimal one at t = (1/2, 1/2): point (5/8, 1/8), value 3/2
        if forgery == "dual":
            # u + 100 pairs to the value plus 100 at t, and exceeds alpha
            # on both rays
            return replace(outcome, dual=tuple(u + 100 for u in outcome.dual))
        if forgery == "value":
            return replace(outcome, value=outcome.value + 1)
        if forgery == "point":
            # same cost 3/2, but (3/4, 0) misses the '=' row
            # s_1 - s_2 = 1/2
            return replace(outcome, point=(Fraction(3, 4), Fraction(0)))
        # (1, 0) pairs to -1/2 at t, and is negative on the ray (-1, 4)
        return replace(outcome, dual=(Fraction(1), Fraction(0)))

    monkeypatch.setattr(lp, "solve", forging)
    with pytest.raises(RuntimeError):
        check_cut_validity(inst, cut, 2)
    assert calls[-1] == status and calls.count(status) == 1
