import random
from fractions import Fraction

import pytest

from conftest import cone_is_pointed, recheck_hull_verdict, vadd, vscale
from polarcut import lp
from polarcut.polyhedra import (
    HPolyhedron,
    ImproperSetError,
    OriginNotInteriorError,
    VPolytope,
    exposed_witness,
    hull_membership,
    in_recession,
    membership,
    normalize,
    polar,
    random_polyhedron,
    remove_redundancy,
    sup_over,
)
from polarcut.rationals import dot, vector, zero_vector
from polarcut.sublinear import sample_points


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


def test_membership_quadrant_values(quadrant_k):
    assert membership(quadrant_k, V(-5, 0)).position == "interior"
    verdict = membership(quadrant_k, V(1, 1))
    assert verdict.position == "boundary"
    assert verdict.tight_rows == (0, 1)
    assert membership(quadrant_k, V(2, 0)).position == "outside"
    verdict = membership(quadrant_k, V(1, 0))
    assert verdict.position == "boundary" and len(verdict.tight_rows) == 1


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
        for x in sample_points(h, 97, 20):
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


def test_hull_membership_inside_with_multipliers(quadrant_k):
    body = polar(quadrant_k)
    verdict = hull_membership(V(Fraction(1, 2), Fraction(1, 2)), body)
    assert verdict.inside
    assert verdict.multipliers == (Fraction(0), Fraction(1, 2), Fraction(1, 2))
    assert recheck_hull_verdict(V(Fraction(1, 2), Fraction(1, 2)), body, verdict)


def test_hull_membership_outside_with_separator(quadrant_k):
    body = polar(quadrant_k)
    verdict = hull_membership(V(1, 1), body)
    assert not verdict.inside
    c, gamma = verdict.separator
    assert dot(c, V(1, 1)) > gamma
    assert all(dot(c, q) <= gamma for q in body.points)
    assert recheck_hull_verdict(V(1, 1), body, verdict)


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


def test_exposed_witness_quadrant(quadrant_k):
    w = exposed_witness(quadrant_k, 0)
    assert dot(quadrant_k.rows[0], w) == 1
    assert dot(quadrant_k.rows[1], w) < 1


def test_exposed_witness_single_row_line():
    h = normalize([(1,)], [1])
    assert exposed_witness(h, 0) == (Fraction(1),)


def test_exposed_witness_sweep_strict():
    rng = random.Random(41)
    for _ in range(8):
        h = random_polyhedron(rng.randint(1, 3), rng.randint(3, 7), rng)
        for i, row in enumerate(h.rows):
            w = exposed_witness(h, i)
            assert dot(row, w) == 1
            assert all(
                dot(other, w) < 1
                for j, other in enumerate(h.rows)
                if j != i
            )


def test_recession_quadrant(quadrant_k):
    assert in_recession(quadrant_k, V(-1, -2))
    assert not in_recession(quadrant_k, V(1, 0))
    assert not in_recession(quadrant_k, V(Fraction(1, 10), -5))


def test_recession_scaling_invariance():
    rng = random.Random(53)
    h = random_polyhedron(2, 4, rng)
    for x in sample_points(h, 3, 30):
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


def test_sup_over_decides_polar_membership():
    # sigma_K(v) <= 1 exactly when v lies in the polar conv({0} union rows),
    # and every row is a tight polar point: sigma_K(a) = 1.
    rng = random.Random(8128)
    seen = {"bounded": 0, "unbounded": 0, "inside": 0, "outside": 0}
    for _ in range(80):
        dim = rng.randint(1, 4)
        h = random_polyhedron(dim, rng.randint(dim, dim + 4), rng)
        seen["bounded" if cone_is_pointed(h) else "unbounded"] += 1
        for a in h.rows:
            assert sup_over(h.rows, a) == 1
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
            top = sup_over(h.rows, v)
            inside = hull_membership(v, polar_h).inside
            assert (top is not None and top <= 1) == inside
            seen["inside" if inside else "outside"] += 1
    assert min(seen.values()) >= 20, seen


def test_sup_over_refuses_an_impossible_status(monkeypatch):
    # The origin is feasible, so an infeasible support LP is a fault.
    monkeypatch.setattr(lp, "solve", lambda program: lp.LPOutcome(status="infeasible"))
    with pytest.raises(RuntimeError, match="infeasible"):
        sup_over((V(1, 0),), V(0, 1))
