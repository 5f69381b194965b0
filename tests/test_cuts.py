import math
import random
from fractions import Fraction

import pytest

from conftest import (
    cone_is_pointed,
    first_interior_point,
    fraction_region_points,
    per_facet_uncertified,
    vadd,
    vscale,
    vsub,
)
from polarcut import cuts
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
from polarcut.polyhedra import VPolytope, membership, random_polyhedron
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


def test_scan_size_limit():
    # The box size is checked before the first point: 999,999 points in
    # 1-D start a scan, 1,000,001 do not, and neither does a 3-D box of
    # 101^3 points.
    inst = CornerInstance.make(1, [Fraction(1, 2)], [[1]])
    assert cuts.MAX_SCAN_POINTS == 10**6
    assert next(region_lattice_points(inst, 499_999)) == V(-499_999)
    with pytest.raises(ValueError, match="over the limit"):
        next(region_lattice_points(inst, 500_000))
    box = CornerInstance.make(3, [Fraction(1, 2)] * 3, [[1, 0, 0]])
    with pytest.raises(ValueError, match="over the limit"):
        next(region_lattice_points(box, 50))
    assert next(region_lattice_points(box, 49)) == V(-49, -49, -49)


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


def random_corner_case(rng):
    """A 1-3-D instance with unit rays, a body about f (half of its rows
    with integer right-hand sides, so lattice points land on facets), P on
    about half of the draws, and a radius in 0..3."""
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

    def counted_scan(inst, radius):
        passes.append(radius)
        return real_scan(inst, radius)

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
        assert passes == [radius]
        expected = per_facet_uncertified(body, inst, radius)
        assert report.uncertified_facets == expected
        assert report.certified == (not expected)
        seen["filtered"] += len(points) < (2 * radius + 1) ** inst.dim
        seen["not_free"] += not verdict.free_on_region
        seen["certified"] += report.certified
        seen["partial"] += 0 < len(expected) < len(body.rows)
    assert min(seen.values()) >= 10, seen


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
