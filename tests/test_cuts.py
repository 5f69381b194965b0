import json
import math
import random
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    cone_is_pointed,
    first_interior_point,
    fraction_half_spaces,
    fraction_make_body,
    fraction_check_cut_validity,
    fraction_region_points,
    fraction_violation_box,
    make_instance,
    make_program,
    nearest_int,
    rational_instance,
    per_facet_uncertified,
    per_point_check_cut_validity,
    per_point_is_s_free,
    per_point_maximality_certificate,
    plain_region_points,
    pivots_logged,
    programs_logged,
    vadd,
    vscale,
    vsub,
)
from test_acceptance import _cut_corpus_2d
from polarcut import cuts, jsonio, lp
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
    _rank,
    OriginNotInteriorError,
    VPolytope,
    membership,
    random_polyhedron,
)
from polarcut.rationals import Scaled, dot, json_scalar, scaled, unscaled, vector
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
    inst = make_instance(1, [Fraction(1, 2)], [[1], [-1]])
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


MARGINS = (Fraction(1, 2), 1, 2, Fraction(7, 3), Fraction(1, 10**20))


def _body_case(rng: random.Random) -> tuple:
    """(instance, B's rows, B's rhs) in 1-3-D, with zero rows, rows that
    coincide only after the shift by f and the scaling to right-hand side
    1, zero and negative margins now and then, and P rows about f."""
    dim = rng.randint(1, 3)

    def small():
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3))

    f = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(dim)]
    f[0] = math.floor(f[0]) + Fraction(1, rng.randint(2, 7))
    f = tuple(f)
    rows, rhs = [], []
    for _ in range(rng.randint(1, 6)):
        a = tuple(small() for _ in range(dim))
        kind = rng.randint(0, 11)
        margin = {0: 0, 1: Fraction(-1, 2)}.get(kind, rng.choice(MARGINS))
        rows.append(a)
        rhs.append(dot(a, f) + margin)
        if rng.random() < 0.5:  # t a <= t b: the same row once shifted and scaled
            t = rng.choice((2, Fraction(1, 3), 7))
            rows.append(vscale(t, a))
            rhs.append(t * rhs[-1])
    rhs = [int(b) if b.denominator == 1 else b for b in rhs]
    p_rows = tuple(tuple(small() for _ in range(dim)) for _ in range(rng.randint(0, 2)))
    p_rhs = tuple(dot(a, f) + small() for a in p_rows)
    inst = CornerInstance(dim, f, (tuple(Fraction(1) for _ in range(dim)),), p_rows, p_rhs)
    return inst, rows, rhs


def _primitive(half_space) -> tuple:
    head, last, rhs = half_space
    row = (*head, last, rhs)
    g = math.gcd(*row) or 1  # a P row 0 <= 0 stays as it is
    return tuple(c // g for c in row)


def _same_body_and_scan(inst, rows, rhs, radius) -> str:
    """make_body and the region's half-spaces in ints against the Fraction
    routes they replaced: the same body or the same error, the same
    half-spaces up to a positive factor (the body's in lowest terms), and
    the same point stream. Returns the case met."""
    try:
        expected = fraction_make_body(rows, rhs, inst.f)
    except ValueError as exc:
        with pytest.raises(type(exc)) as got:
            make_body(rows, rhs, inst.f)
        assert str(got.value) == str(exc)
        assert type(got.value.__cause__) is type(exc.__cause__)
        return type(exc).__name__
    body = make_body(rows, rhs, inst.f)
    assert body == expected
    half_spaces = cuts._half_spaces(inst, body)
    reference = fraction_half_spaces(inst, body)
    assert list(map(_primitive, half_spaces)) == list(map(_primitive, reference))
    assert all(_primitive(h) == (*h[0], h[1], h[2]) for h in half_spaces[len(inst.p_rows) :])
    stream = list(region_lattice_points(inst, radius, body))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cuts, "_half_spaces", fraction_half_spaces)
        assert list(region_lattice_points(inst, radius, body)) == stream
    nonzero = [(vector(a), Fraction(b)) for a, b in zip(rows, rhs) if any(a)]
    f = unscaled(inst.f)
    shifted = {tuple(c / (b - dot(a, f)) for c in a) for a, b in nonzero}
    return "merged rows" if len(shifted) < len(nonzero) else "body"


@given(st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_int_body_intake_matches_the_fraction_route_on_drawn_bodies(rng):
    _same_body_and_scan(*_body_case(rng), rng.randint(0, 3))


def test_int_body_intake_matches_the_fraction_route():
    # Each case by hand, then seeded draws with every case among them.
    f = V(Fraction(1, 2), 0)
    inst = CornerInstance(2, f, (V(1, 0),))
    cases = {
        # (2, 0) over margin 1/2 and (4, 0) over margin 1 are both (4, 0)
        "merged rows": ([(1, 0), (2, 0), (-1, 0), (0, 1)], [1, 2, 0, 1]),
        "body": ([(0, 0), (1, 0), (-1, 0), (0, 0), (1, 1), (1, 0)], [1, 1, 0, 3, 2, 3]),
        "AnchorNotInteriorError": ([(1, 0), (-1, 0)], [Fraction(1, 2), 0]),
        "ImproperSetError": ([(0, 0), (0, 0)], [1, 2]),
    }
    for case, (rows, rhs) in cases.items():
        assert _same_body_and_scan(inst, rows, rhs, 2) == case
    with pytest.raises(AnchorNotInteriorError):  # a negative margin
        make_body([(1, 0), (-1, 0)], [Fraction(1, 4), 0], f)
    rng = random.Random(1597)
    seen = Counter()
    for _ in range(150):
        seen[_same_body_and_scan(*_body_case(rng), rng.randint(0, 3))] += 1
    assert min(seen[k] for k in ("merged rows", "body", "AnchorNotInteriorError")) >= 10, seen


def test_instance_validation():
    with pytest.raises(ValueError):
        make_instance(1, [1], [[1]])  # integral anchor
    with pytest.raises(ValueError):
        make_instance(1, [Fraction(1, 2)], [])  # no rays
    with pytest.raises(ValueError):
        make_instance(2, [Fraction(1, 2), 0], [[1]])  # ray width


def test_split_cut_exact(split_1d):
    inst, body = split_1d
    cut = generate_cut(inst, body)
    assert cut.alpha == (Fraction(2), Fraction(2))
    assert "2" in cut.provenance and "1/2" in cut.provenance
    report = check_cut_validity(inst, cut, 5)
    assert report.valid_on_region and report.violation is None
    # tight at both neighbouring points: the reach LP hits exactly 1
    for z in (V(0), V(1)):
        target = vsub(z, unscaled(inst.f))
        out = solve(
            make_program(
                "min",
                cut.alpha,
                [(tuple(unscaled(r)[0] for r in inst.rays), "=", target[0])],
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
        reach = vadd(reach, vscale(s, unscaled(r)))
    assert reach == vsub(violation.x, unscaled(inst.f))
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
    assert sum(s * unscaled(r)[0] for s, r in zip(ray, inst.rays)) == 0


def test_is_s_free_examples(split_1d):
    inst, body = split_1d
    assert is_s_free(body, inst, 5).free_on_region
    fat = make_body([[1], [-1]], [Fraction(3, 2), Fraction(1, 2)], inst.f)
    verdict = is_s_free(fat, inst, 5)
    assert not verdict.free_on_region
    assert verdict.witness == (Fraction(0),)
    # restricting to P = {x >= 1} moves the witness to 1
    gated = make_instance(
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
    assert membership(fat, vsub(err.witness, unscaled(inst.f))).position == "interior"


def test_region_scan_is_lexicographic():
    inst = make_instance(
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
        inst = make_instance(1, [f], [[1], [-1]])
        assert list(region_lattice_points(inst, 0)) == [V(centre)]
        assert list(fraction_region_points(inst, 0)) == [V(centre)]


def _instance_forms(rng):
    """A drawn 1-3-D corner instance, its Fraction fields and a cut for
    it. The instance is built three ways: from Fractions, from its JSON
    document, and from Scaled points over a denominator some k > 1 times
    their least. f is often a half-integer tie, negative ones included;
    rays and P have large denominators now and then, and zero rays."""
    dim = rng.randint(1, 3)

    def q(big=False):
        return Fraction(rng.randint(-9, 9), rng.randint(1, 10**9 if big else 6))

    f = [
        Fraction(2 * rng.randint(-5, 4) + 1, 2) if rng.random() < 0.6 else q()
        for _ in range(dim)
    ]
    if all(c.denominator == 1 for c in f):
        f[0] += Fraction(1, 3)
    rays = [
        tuple(q(rng.random() < 0.2) if rng.random() < 0.8 else 0 for _ in range(dim))
        for _ in range(rng.randint(1, 4))
    ]
    p_rows = [
        tuple(q(rng.random() < 0.2) for _ in range(dim)) for _ in range(rng.randint(0, 2))
    ]
    p_rhs = [q() + 6 for _ in p_rows]
    from_fractions = make_instance(dim, f, rays, p_rows, p_rhs)
    doc = {
        "dim": dim,
        "f": list(map(json_scalar, f)),
        "rays": [[json_scalar(Fraction(c)) for c in r] for r in rays],
        "P": {
            "rows": [list(map(json_scalar, a)) for a in p_rows],
            "rhs": list(map(json_scalar, p_rhs)),
        },
    }

    def loose(v):
        k = rng.randint(2, 5)
        ints, den = scaled(vector(v))
        return Scaled(tuple(k * c for c in ints), k * den)

    from_scaled = CornerInstance(
        dim, loose(f), [loose(r) for r in rays], [loose(a) for a in p_rows], loose(p_rhs)
    )
    forms = (from_fractions, jsonio.corner_instance_from_json(doc), from_scaled)
    alpha = tuple(Fraction(rng.choice((-1, 0, 1, 2, 3)), rng.randint(1, 3)) for _ in rays)
    return forms, (f, rays, p_rows, p_rhs), Cut(alpha, "")


def test_instance_in_ints_matches_fraction_references():
    # An instance read from Fractions or from JSON is the same record, in
    # lowest terms, and one built from unreduced Scaled points keeps them
    # as they are; the fields of each give the rationals back. On every
    # form P's int rows are fraction_half_spaces' rows, the scan centre is
    # nearest_int of f (ties to even), violation_box is the Fraction box,
    # and check_cut_validity poses the same int LPs and reports what the
    # Fraction route reports. Posing LPs alone (a search budget of 0) it
    # poses one LP at each point the Fraction route does, the Fraction LP
    # scaled; with the certificate search, a subsequence of those LPs.
    rng = random.Random(1815)
    seen = Counter()
    for _ in range(300):
        forms, (f, rays, p_rows, p_rhs), cut = _instance_forms(rng)
        inst = forms[0]
        assert forms[1] == inst and inst.f == scaled(vector(f))
        radius = rng.randint(0, 2)
        for form in forms:
            assert unscaled(form.f) == tuple(f) and unscaled(form.p_rhs) == tuple(p_rhs)
            assert list(map(unscaled, form.rays)) == [vector(r) for r in rays]
            assert list(map(unscaled, form.p_rows)) == [vector(a) for a in p_rows]
            assert cuts._half_spaces(form, None) == fraction_half_spaces(form)
            assert cuts._scan_box(form, radius) == [
                (c - radius, c + radius) for c in map(nearest_int, f)
            ]
            assert cuts.violation_box(form, cut.alpha) == fraction_violation_box(
                form, cut.alpha
            )
        posed = [programs_logged(check_cut_validity, form, cut, radius) for form in forms]
        assert posed[1] == posed[0] and posed[2] == posed[0]
        report, programs = posed[0]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cuts, "_SEARCH_BUDGET", 0)
            unsearched, every_program = programs_logged(
                check_cut_validity, inst, cut, radius
            )
        reference, reference_programs = programs_logged(
            fraction_check_cut_validity, inst, cut, radius
        )
        assert report == unsearched == reference
        assert len(every_program) == len(reference_programs)
        searched_report, searched = _lps_by_point(inst, cut, radius)
        assert searched_report == report and [p for p, _ in searched] == list(programs)
        for program, twin in [*zip(every_program, reference_programs), *searched]:
            assert _common_scale(_entries(program), _entries(twin)) is not None
            assert _common_scale(program.objective, twin.objective) is not None
        seen["negative tie"] += any(c.denominator == 2 and c < 0 for c in f)
        seen["positive tie"] += any(c.denominator == 2 and c > 0 for c in f)
        seen["P"] += bool(p_rows)
        seen["zero ray"] += any(not any(r) for r in rays)
        seen["no box"] += min(cut.alpha) < 0
        seen["LPs"] += bool(programs)
        seen["LPs saved"] += len(programs) < len(reference_programs)
        seen["violated"] += not report.valid_on_region
    assert min(seen.values()) >= 25, seen


def test_scan_size_limit(tmp_path, capsys, monkeypatch):
    # The box size is checked before the first point: 999,999 points in
    # 1-D start a scan, 1,000,001 do not, and neither does a 3-D box of
    # 101^3 points. The limit is on the radius box, not on the region: the
    # unit cube about f holds 8 lattice points, yet a radius-50 scan of it
    # is refused before any point, by is_s_free and by the CLI (exit 2).
    inst = make_instance(1, [Fraction(1, 2)], [[1]])
    assert cuts.MAX_SCAN_POINTS == 10**6
    assert next(region_lattice_points(inst, 499_999)) == V(-499_999)
    with pytest.raises(ValueError, match="over the limit"):
        next(region_lattice_points(inst, 500_000))
    box = make_instance(3, [Fraction(1, 2)] * 3, [[1, 0, 0]])
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

    def no_scan(*args):
        raise AssertionError("scan started")

    monkeypatch.setattr(cuts, "_projections", no_scan)
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
    scaled_inst = make_instance(
        1,
        [Fraction(1, 2)],
        [vscale(Fraction(3, 2), unscaled(r)) for r in inst.rays],
    )
    scaled_cut = generate_cut(scaled_inst, body)
    assert scaled_cut.alpha == tuple(Fraction(3, 2) * a for a in cut.alpha)


def test_maximality_split_certified(split_1d):
    inst, body = split_1d
    report = maximality_certificate(body, inst, 5)
    assert report.certified and not report.heuristic
    assert report.uncertified_facets == ()


def test_maximality_square_uncertified():
    inst = make_instance(
        2, [Fraction(1, 2), Fraction(1, 2)], [[1, 0], [0, 1]]
    )
    body = make_body(
        [[1, 0], [0, 1], [-1, 0], [0, -1]], [1, 1, 0, 0], inst.f
    )
    report = maximality_certificate(body, inst, 5)
    assert not report.certified and not report.heuristic
    assert report.uncertified_facets == (0, 1, 2, 3)


def test_maximality_unbounded_strip_is_heuristic():
    inst = make_instance(2, [Fraction(1, 2), 0], [[1, 0], [0, 1]])
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
    inst = make_instance(dim, f, rays, p_rows, p_rhs)
    return inst, make_body(rows, rhs, inst.f), rng.randint(0, 3)


def test_lattice_pass_matches_fraction_reference(monkeypatch):
    # The integer P filter and the single-pass maximality scan against the
    # Fraction routes they replace; maximality_certificate must walk the
    # region's slices exactly once.
    rng = random.Random(4242)
    real_scan = cuts.region_lattice_points
    real_slices = cuts._slices
    passes = []

    def counted_slices(*args, **kwargs):
        passes.append(args)
        return real_slices(*args, **kwargs)

    monkeypatch.setattr(cuts, "_slices", counted_slices)
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
        assert passes == [
            (cuts._scan_box(inst, radius), cuts._half_spaces(inst, body))
        ]
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
    inst = rational_instance(inst)
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
    dim, f = inst.dim, unscaled(inst.f)
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
    inst = CornerInstance(
        dim, f, inst.rays, inst.p_rows + (row,), unscaled(inst.p_rhs) + (rhs,)
    )
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
    center = [nearest_int(c) for c in unscaled(inst.f)]
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
            for c in unscaled(inst.f)
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
    line = make_instance(1, [Fraction(1, 2)], [[1]])
    with pytest.raises(ValueError, match="over the limit"):
        next(region_lattice_points(line, 500_000, box=((0, 1),)))
    assert list(region_lattice_points(line, 2, box=((1, 7),))) == [V(1), V(2)]
    assert list(region_lattice_points(line, 2, box=((3, 7),))) == []
    assert list(region_lattice_points(line, 2, box=((1, 0),))) == []


def test_region_box_needs_one_pair_per_axis():
    # A 1-axis box on a 2-D instance would zip away the second axis and
    # yield 1-wide points; a 3-axis one would drop its last pair. Both are
    # refused before any point.
    inst = make_instance(2, [Fraction(1, 2), 0], [[1, 0], [0, 1]])
    for box in (((0, 1),), ((0, 1), (0, 1), (0, 1))):
        with pytest.raises(ValueError, match=f"a box needs 2 axes, got {len(box)}"):
            next(region_lattice_points(inst, 1, box=box))
    assert list(region_lattice_points(inst, 1, box=((0, 0), (1, 7)))) == [V(0, 1)]


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
        cases.append((make_instance(dim, f, rays), body))
        cases.append((make_instance(dim, f, rays, [[1] * dim], [dim]), body))
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


def slice_case(rng):
    """A random_corner_case of 1-4 axes at a radius in 0..6 (0..4 in 4-D,
    where the reference's per-point scan is slowest)."""
    dim = rng.randint(1, 4)
    inst, body, _ = random_corner_case(rng, dim)
    return inst, body, rng.randint(0, 4 if dim == 4 else 6)


def assert_slices_match(inst, body, radius):
    """The slice walk against the per-point routes it replaced: the same
    point streams with the body and without it, and the same verdicts,
    witnesses, uncertified facets and heuristic flags; no projection holds
    more rows than the region. Returns the projections."""
    for region_body in (body, None):
        assert list(region_lattice_points(inst, radius, region_body)) == list(
            plain_region_points(inst, radius, region_body)
        ), (inst, region_body, radius)
    assert is_s_free(body, inst, radius) == per_point_is_s_free(body, inst, radius)
    assert maximality_certificate(body, inst, radius) == per_point_maximality_certificate(
        body, inst, radius
    ), (inst, body, radius)
    half_spaces = cuts._half_spaces(inst, body)
    levels = cuts._projections(half_spaces, inst.dim)
    assert levels is None or max(map(len, levels)) <= len(half_spaces)
    return levels


def test_slice_verdicts_match_per_point_reference():
    # 150 seeded 1-4-D cases, each with its P and without it, at radius
    # 0-6: the slice walk and the whole-slice verdicts against the scan of
    # every prefix and one membership test per point.
    rng = random.Random(1985)
    seen = Counter()
    for _ in range(150):
        inst, body, radius = slice_case(rng)
        for case in (inst, CornerInstance(inst.dim, inst.f, inst.rays)):
            levels = assert_slices_match(case, body, radius)
            report = maximality_certificate(body, case, radius)
            seen[f"{case.dim}-D"] += 1
            seen["3-4-D, first axis narrowed"] += (
                case.dim >= 3 and levels is not None and bool(levels[0])
            )
            seen["P" if case.p_rows else "no P"] += 1
            seen["not free"] += not is_s_free(body, case, radius).free_on_region
            seen["certified"] += report.certified
            seen["partial"] += 0 < len(report.uncertified_facets) < len(body.rows)
            seen["heuristic"] += report.heuristic
            seen["definitive"] += not report.heuristic
            seen["radius 5-6"] += radius >= 5
    print("slice cases:", dict(seen))
    assert len(seen) == 13 and min(seen.values()) >= 10, seen


@settings(max_examples=40, deadline=None)
@given(st.randoms(use_true_random=True))
def test_slice_verdicts_match_per_point_reference_hypothesis(rng):
    # A true random generator, as for the region scan's twin above.
    assert_slices_match(*slice_case(rng))


def test_empty_projection_walks_nothing():
    # P's rows z1 + z2 + z3 <= 0 and z1 + z2 + z3 >= 1/2 each leave
    # points in the box, but no real point meets both: eliminating z3
    # gives 0 <= -1, and the walk yields nothing, with the body or not.
    f = V(Fraction(1, 2), 0, 0)
    rays = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    inst = make_instance(3, f, rays, [[1, 1, 1], [-1, -1, -1]], [0, Fraction(-1, 2)])
    body = make_body([[1, 0, 0], [-1, 0, 0]], [1, 0], f)
    for region_body in (body, None):
        assert cuts._projections(cuts._half_spaces(inst, region_body), 3) is None
    for row in range(2):
        alone = CornerInstance(
            3,
            f,
            inst.rays,
            inst.p_rows[row : row + 1],
            unscaled(inst.p_rhs)[row : row + 1],
        )
        assert list(region_lattice_points(alone, 2))
    for radius in range(4):
        assert_slices_match(inst, body, radius)
        assert list(region_lattice_points(inst, radius, body)) == []
    assert is_s_free(body, inst, 3).free_on_region
    assert maximality_certificate(body, inst, 3).uncertified_facets == (0, 1)


def test_growth_guard_keeps_the_region():
    # 40 of the 96 int vectors of squared length 6 in 4-D, each a row of a
    # bounded body about f: all 40 stay (equal lengths keep every row a
    # vertex of the polar). Eliminating z4 would give far more than 40 rows,
    # so no projection is kept below the region's own rows, and the walk
    # still gives the plain scan's points and the per-point verdicts.
    rng = random.Random(1985)
    vectors = sorted(
        {v for v in product(range(-2, 3), repeat=4) if sum(x * x for x in v) == 6}
    )
    assert len(vectors) == 96
    f = V(Fraction(1, 2), Fraction(1, 3), 0, Fraction(-1, 4))
    rays = [[int(i == d) for i in range(4)] for d in range(4)]
    rows = rng.sample(vectors, 40)
    body = make_body(rows, [dot(a, f) + 2 for a in rows], f)
    assert len(body.rows) == 40
    for p_rows, p_rhs in (((), ()), (([1, 1, 0, 0],), (1,))):
        inst = make_instance(4, f, rays, p_rows, p_rhs)
        half_spaces = cuts._half_spaces(inst, body)
        levels = cuts._projections(half_spaces, 4)
        assert levels[:3] == [[], [], []] and len(levels[3]) == len(half_spaces)
        for radius in range(4):
            assert_slices_match(inst, body, radius)


def random_cut_case(rng, dim=None, count=None):
    """A 1-3-D instance (of the given dimension, if one is given), a cut
    and a radius in 0..3 for the differential tests of
    check_cut_validity. There are 1-4 rays (count, if given), now and
    then a zero ray
    or the opposite of an earlier one, so they may fail to span the space
    (2 rays in 3-D) or cancel out. P comes on about a third of the draws.
    alpha is the split cut on a fractional coordinate of f (valid), that
    cut scaled down (often violated), or small entries with zeros and
    negatives (violated, or unbounded along a ray combination reaching
    nothing)."""
    if dim is None:
        dim = rng.randint(1, 3)
    f = [Fraction(rng.randint(-4, 4), rng.choice((2, 3, 4))) for _ in range(dim)]
    if all(c.denominator == 1 for c in f):
        f[0] += Fraction(1, 2)
    rays = []
    for _ in range(rng.randint(1, 4) if count is None else count):
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
    inst = make_instance(dim, f, rays, p_rows, p_rhs)
    kind = rng.random()
    if kind < 0.5:
        d = next(d for d, c in enumerate(f) if c.denominator != 1)
        e = [int(i == d) for i in range(dim)]
        low = math.floor(f[d])
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
    center = [nearest_int(c) for c in unscaled(inst.f)]
    return 1 + max(max(c - lo, hi - c, 0) for (lo, hi), c in zip(box, center))


def _entries(program):
    """Every coefficient and right-hand side of a program, row by row."""
    return [c for coeffs, _, b in program.rows for c in (*coeffs, b)]


def _common_scale(scaled, entries):
    """The one k > 0 with scaled[i] == k * entries[i] for every i (1 when
    both are all zero), or None when there is none."""
    k = next((Fraction(a) / b for a, b in zip(scaled, entries) if b), None)
    if k is None:
        return None if any(scaled) else 1
    if k > 0 and all(a == k * b for a, b in zip(scaled, entries)):
        return k
    return None


def _lps_by_point(inst, cut, radius):
    """check_cut_validity's report and each LP it poses as (program, the
    LP fraction_check_cut_validity poses at the same lattice point z):
    rows (ray coordinates, '=', z - f) and costs alpha, in Fractions. z
    is the point whose offset z - f was taken last."""
    last, posed = [], []
    real_offset, real_solve = cuts._offset, lp.solve

    def offset(z, f):
        last[:] = [z]
        return real_offset(z, f)

    def solve(program):
        posed.append((program, last[0]))
        return real_solve(program)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cuts, "_offset", offset)
        mp.setattr(lp, "solve", solve)
        report = check_cut_validity(inst, cut, radius)
    columns = tuple(zip(*map(unscaled, inst.rays)))
    bounds = ("nonneg",) * len(inst.rays)
    pairs = []
    for program, z in posed:
        t = [c - fc for c, fc in zip(z, unscaled(inst.f))]
        rows = tuple((col, "=", c) for col, c in zip(columns, t))
        pairs.append((program, LinearProgram("min", cut.alpha, rows, bounds)))
    return report, pairs


def test_check_cut_poses_in_ints_what_the_fraction_route_poses(monkeypatch):
    # check_cut_validity poses each LP in ints; the reference is the same
    # scan and certificate cache posing the rays, z - f and alpha as
    # Fractions. On seeded 2-4-D instances, with and without P, with
    # negative coefficients and with forged violating cuts: the same
    # report, one LP at each of the same lattice points (the int program
    # is the Fraction one with every row times one k > 0 and the costs
    # times one l > 0), the same pivots per LP, the same point and ray,
    # the value times l, the optimal duals times l / k and the same Farkas
    # rows. Posing LPs alone (a search budget of 0) the points are the
    # Fraction route's; with the certificate search, each LP still posed
    # is compared with the Fraction LP at its own point.
    rng = random.Random(1968)
    seen = Counter()
    for _ in range(600):
        inst, cut, radius = random_cut_case(rng, rng.randint(2, 4))
        report, searched = _lps_by_point(inst, cut, radius)
        with monkeypatch.context() as mp:
            mp.setattr(cuts, "_SEARCH_BUDGET", 0)
            unsearched, programs = programs_logged(check_cut_validity, inst, cut, radius)
        reference, reference_programs = programs_logged(
            fraction_check_cut_validity, inst, cut, radius
        )
        assert report == unsearched == reference, (inst, cut, radius)
        assert len(programs) == len(reference_programs)
        seen["LPs saved"] += len(searched) < len(programs)
        for program, posed in [*zip(programs, reference_programs), *searched]:
            assert {type(c) for c in (*_entries(program), *program.objective)} == {int}
            k = _common_scale(_entries(program), _entries(posed))
            scale = _common_scale(program.objective, posed.objective)
            assert k is not None and scale is not None, (program, posed)
            outcome, pivots = pivots_logged(lp.solve, program)
            expected, expected_pivots = pivots_logged(lp.solve, posed)
            assert pivots == expected_pivots
            assert (outcome.status, outcome.point, outcome.ray) == (
                expected.status,
                expected.point,
                expected.ray,
            )
            if outcome.status == "optimal":
                assert outcome.value == scale * expected.value
                assert outcome.dual == tuple(scale / k * u for u in expected.dual)
            else:
                assert outcome.dual == expected.dual
            seen[outcome.status] += 1
            seen["pivots"] += len(pivots)
            seen["scaled rows"] += k != 1
        seen[f"{inst.dim}-D"] += 1
        seen["P" if inst.p_rows else "no P"] += 1
        seen[coefficient_kind(cut)] += 1
        seen["valid" if report.valid_on_region else "violated"] += 1
    for kinds, least in (
        (("2-D", "3-D", "4-D", "P", "no P", "valid", "violated"), 40),
        (("box", "zero coefficient", "negative coefficient"), 20),
        (("optimal", "infeasible", "scaled rows", "LPs saved"), 40),
        (("unbounded",), 10),
    ):
        assert min(seen[kind] for kind in kinds) >= least, seen


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
        rays = list(map(unscaled, inst.rays))
        seen["zero ray"] += any(not any(r) for r in rays)
        seen["opposite rays"] += any(any(r) and vscale(-1, r) in rays for r in rays)
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
    plane = make_instance(2, [Fraction(1, 2)] * 2, [[1, 0], [0, 1]])
    assert cuts.violation_box(plane, (Fraction(4), Fraction(4))) == ((1, 0), (1, 0))
    report = check_cut_validity(plane, Cut((Fraction(4), Fraction(4)), ""), 0)
    assert report.valid_on_region and report.scope == "global"


def test_violation_box_matches_fraction_reference():
    # The int tips against Fraction tips and math.ceil / math.floor: the
    # same box on the 600 cut cases of the per-point test and on 300 cuts
    # with large denominators in alpha, the rays and f.
    rng = random.Random(1971)

    def big():
        return Fraction(rng.randint(-10**9, 10**9), rng.randint(1, 10**6))

    cases = [random_cut_case(rng)[:2] for _ in range(600)]
    for _ in range(300):
        dim = rng.randint(1, 4)
        f = [big() for _ in range(dim)]
        if all(c.denominator == 1 for c in f):
            f[0] += Fraction(1, 2)
        rays = [
            [big() if rng.random() < 0.8 else 0 for _ in range(dim)]
            for _ in range(rng.randint(1, 4))
        ]
        alpha = [abs(big()) if rng.random() < 0.8 else Fraction(0) for _ in rays]
        cases.append((make_instance(dim, f, rays), Cut(tuple(alpha), "")))
    seen = Counter()
    for inst, cut in cases:
        box = cuts.violation_box(inst, cut.alpha)
        assert box == fraction_violation_box(inst, cut.alpha), (inst, cut)
        seen[coefficient_kind(cut)] += 1
        seen["open side"] += box is not None and any(None in b for b in box)
        seen["empty axis"] += box is not None and any(
            None not in b and b[0] > b[1] for b in box
        )
    assert min(seen.values()) >= 25, seen


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
    plane = make_instance(2, [Fraction(1, 2)] * 2, [[1, 0], [0, 1]])
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
    open_plane = make_instance(
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
    # x = 0 and x = 1. Posing LPs alone (a search budget of 0): two LPs.
    # At x = 0 the minimum is 1, with dual u = -2; at x = 1 it is 1, with
    # dual u = 2. The search finds both as the dual vertices of the rays
    # -1 and +1 (the normal of no rays is (1,)), each over f's
    # denominator 2 in the LP's units, and no Farkas row, since the rays
    # span the line: no LP.
    inst, body = split_1d
    cut = generate_cut(inst, body)
    calls = _count_solves(monkeypatch)
    assert len(list(region_lattice_points(inst, 5))) == 11
    box = cuts.violation_box(inst, cut.alpha)
    assert list(region_lattice_points(inst, 5, box=box)) == [V(0), V(1)]
    with monkeypatch.context() as mp:
        mp.setattr(cuts, "_SEARCH_BUDGET", 0)
        assert check_cut_validity(inst, cut, 5).valid_on_region
    assert len(calls) == 2
    calls.clear()
    assert check_cut_validity(inst, cut, 5).valid_on_region
    assert calls == []
    columns = [(2,), (-2,)]
    assert cuts._cut_certificates(((1,), (-1,)), columns, (2, 2), 2) == (
        [],
        [((2,), 2), ((-2,), 2)],
    )


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
        pytest.param("optimal", "violation", id="optimal-violation"),
    ],
)
def test_check_cut_refuses_a_broken_certificate(monkeypatch, status, forgery):
    # A forged outcome stops the scan with RuntimeError at the point that
    # produced it; no later point is skipped, or even visited, on its
    # strength. The forged dual and Farkas row still prove their own point,
    # so only the check against the rays can catch them; the forged value
    # and point keep the dual, so only lp.verify_certificate's test of the
    # value and of the point can, and a forged violation, value 0 at the
    # point 0, which misses the rows, is refused before it is reported.
    # The split cut on x1 with rays (1, 0, 0)
    # and (-1, 4, 0): its violation_box {0, 1} x {1, 2} x {0} holds the
    # unreachable points (0, 1, 0) and (0, 2, 0) before the reachable
    # (1, 1, 0) and (1, 2, 0). Two rays in 3-D have no dual vertex, and
    # their cone facets +-(0, 0, 4) pair to 0 with every offset of the
    # box, so the certificate search settles no point and each takes an
    # LP.
    inst = make_instance(
        3, [Fraction(1, 2), Fraction(1, 2), 0], [[1, 0, 0], [-1, 4, 0]]
    )
    cut = Cut(alpha=(Fraction(2), Fraction(2)), provenance="")
    real_solve = lp.solve
    calls = []

    def forging(program):
        outcome = real_solve(program)
        calls.append(outcome.status)
        if outcome.status != status:
            return outcome
        # the first infeasible outcome is at t = (-1/2, 1/2, 0); the first
        # optimal one at t = (1/2, 1/2, 0): point (5/8, 1/8), value 3/2
        if forgery == "dual":
            # u + 100 pairs to the value plus 100 at t, and exceeds alpha
            # on both rays
            return outcome._replace(dual=tuple(u + 100 for u in outcome.dual))
        if forgery == "value":
            return outcome._replace(value=outcome.value + 1)
        if forgery == "violation":
            return outcome._replace(point=(Fraction(0), Fraction(0)), value=Fraction(0))
        if forgery == "point":
            # same cost 3/2, but (3/4, 0) misses the '=' row
            # s_1 - s_2 = 1/2
            return outcome._replace(point=(Fraction(3, 4), Fraction(0)))
        # (1, 0, 0) pairs to -1/2 at t, and is negative on the ray (-1, 4, 0)
        return outcome._replace(dual=(Fraction(1), Fraction(0), Fraction(0)))

    monkeypatch.setattr(lp, "solve", forging)
    with pytest.raises(RuntimeError):
        check_cut_validity(inst, cut, 2)
    assert calls[-1] == status and calls.count(status) == 1


def _fraction_dual_check(inst, cut, u, costs, is_max) -> bool:
    """Reference for the search's use of lp.dual_feasible, in Fractions:
    a Farkas candidate (is_max) pairs to 0 or more with every ray; a
    vertex u over den (the search's costs are den times alpha's ints A)
    is, as the dual w = u f_den r_den / (den a_den) of min alpha.s
    subject to sum_j r_j s_j = t, at most alpha_j on ray j."""
    rays = list(map(unscaled, inst.rays))
    if is_max:
        return all(dot(u, r) >= 0 for r in rays)
    ints, a_den = scaled(cut.alpha)
    den = next((c // a for c, a in zip(costs, ints) if a), 1)
    scale = Fraction(inst.f.den * cuts._ray_rows(inst)[1], den * a_den)
    w = tuple(scale * c for c in u)
    return all(dot(w, r) <= a for r, a in zip(rays, cut.alpha))


# (dim, rays, draws): the shapes the benchmark's cuts never take (2-4
# rays in 2-4-D, spanning the space).
_SEARCH_SHAPES = (
    (1, None, 30),
    (2, 1, 8),
    (3, 2, 12),
    (4, 2, 4),
    (4, 3, 6),
    (5, 5, 3),
    (5, 6, 3),
    (4, 12, 2),
)


def test_certificate_search_where_the_benchmark_never_goes(monkeypatch):
    # check-cut against one LP per point on 1-D cuts (the normal of no
    # rays), 5-D cuts (_normal's Bareiss minors), rays that span a proper
    # subspace, fewer rays than axes, negative coefficients and violated
    # cuts, and 4-D cuts with 12 rays, past the search budget, which pose
    # the LPs they pose with no search. Every candidate the search tries
    # is kept iff lp.dual_feasible accepts it, and a Fraction check
    # against the rays and alpha gives the same verdict.
    rng = random.Random(2017)
    seen = Counter()
    tested = []
    real_test = lp.dual_feasible

    def recording(u, columns, costs, bounds, is_max):
        ok = real_test(u, columns, costs, bounds, is_max)
        tested.append((u, costs, is_max, ok))
        return ok

    for dim, count, draws in _SEARCH_SHAPES:
        for _ in range(draws):
            inst, cut, radius = random_cut_case(rng, dim, count)
            radius = radius if dim < 4 else 1
            report, programs = programs_logged(check_cut_validity, inst, cut, radius)
            reference = per_point_check_cut_validity(inst, cut, radius)
            assert verdict(report) == verdict(reference), (inst, cut, radius)
            rays, _ = cuts._ray_rows(inst)
            columns = [tuple(inst.f.den * c for c in r) for r in rays]
            costs = scaled(cut.alpha).ints
            tested.clear()
            with monkeypatch.context() as mp:
                mp.setattr(lp, "dual_feasible", recording)
                farkas, duals = cuts._cut_certificates(rays, columns, costs, inst.f.den)
            assert farkas == [u for u, _, is_max, ok in tested if is_max and ok]
            assert [u for u, _ in duals] == [
                u for u, _, is_max, ok in tested if not is_max and ok
            ]
            for u, tried_costs, is_max, ok in tested:
                assert _fraction_dual_check(inst, cut, u, tried_costs, is_max) == ok
                seen["kept" if ok else "dropped"] += 1
            if math.comb(len(rays) + 1, dim) > cuts._SEARCH_BUDGET:
                assert not tested
                with monkeypatch.context() as mp:
                    mp.setattr(cuts, "_SEARCH_BUDGET", 0)
                    assert programs_logged(check_cut_validity, inst, cut, radius) == (
                        report,
                        programs,
                    )
                seen["past the budget"] += 1
            seen[f"{dim}-D"] += 1
            seen["proper subspace"] += _rank(rays) < dim
            seen["fewer rays than axes"] += len(rays) < dim
            seen["negative coefficient"] += min(cut.alpha) < 0
            seen["violated"] += not report.valid_on_region
            seen["LPs"] += bool(programs)
            seen["5-D vertex"] += dim == 5 and bool(duals)
    assert min(seen.values()) >= 2, seen
    print(f"certificate search shapes: {dict(seen)}")


def test_check_cut_refuses_a_forged_cone_certificate(monkeypatch):
    # The cut alpha = (1/2, 1) on the rays e1 and e2 about f = (1/2, 1/2)
    # is violated at (1, 1), the first point of its violation_box
    # {1, 2} x {1}: t = (1/2, 1/2) costs 3/4. A forged facet normal
    # (-1, 0) for every ray would prove both points unreachable
    # (<(-1, 0), t> < 0); lp.dual_feasible refuses it, since it is
    # negative on e1, and keeps its negation (1, 0), which settles
    # neither. So the violation is still found, by its LP.
    inst = make_instance(2, [Fraction(1, 2)] * 2, [[1, 0], [0, 1]])
    cut = Cut((Fraction(1, 2), Fraction(1)), "")
    tested = []
    real_test = lp.dual_feasible

    def recording(u, *args):
        tested.append((tuple(u), real_test(u, *args)))
        return tested[-1][1]

    monkeypatch.setattr(cuts, "_normal", lambda rows: (-1, 0))
    monkeypatch.setattr(lp, "dual_feasible", recording)
    report = check_cut_validity(inst, cut, 2)
    assert verdict(report) == verdict(per_point_check_cut_validity(inst, cut, 2))
    assert report.violation.x == V(1, 1)
    assert ((-1, 0), False) in tested and ((1, 0), True) in tested
