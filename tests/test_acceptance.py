"""Acceptance gate: eight criteria, one pass/fail line each (run with -s to
see them inline). Everything is exact rational arithmetic; the runtime
bounds quoted in the lines are asserted, not aspirational.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from conftest import brute_force_best, random_lp, vscale, vsub
from polarcut.cuts import (
    CornerInstance,
    NotSFreeError,
    check_cut_validity,
    generate_cut,
    is_s_free,
    make_body,
)
from polarcut.lp import LinearProgram, solve, verify_certificate
from polarcut.polyhedra import (
    exposed_witness,
    membership,
    normalize,
    polar,
    random_polyhedron,
)
from polarcut.rationals import dot, is_integral, vector
from polarcut.sublinear import (
    gauge,
    minimal_sublinear,
    off_recession_check,
    random_unit_ball_rep,
    reconstruct_check,
    sample_points,
    sandwich_check,
)


@contextmanager
def criterion(name: str, info: dict):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {name}: FAIL ({info.get('detail', 'exception')})")
        raise
    print(f"\nACCEPTANCE {name}: PASS ({info['detail']})")


_CORPUS = None


def corpus():
    """100 seeded random canonical sets, dimensions 1-4, 3-10 raw rows."""
    global _CORPUS
    if _CORPUS is None:
        rng = random.Random(20260819)
        _CORPUS = [
            random_polyhedron(rng.randint(1, 4), rng.randint(3, 10), rng)
            for _ in range(100)
        ]
    return _CORPUS


def test_c1_worked_example_exactness():
    info = {}
    with criterion("C1 worked-example-grid", info):
        start = time.perf_counter()
        h = normalize([(1, 0), (0, 1)], [1, 1])
        assert set(polar(h).points) == {
            vector([0, 0]), vector([1, 0]), vector([0, 1]),
        }
        assert set(h.rows) == {vector([1, 0]), vector([0, 1])}

        grid_axis = [Fraction(-8 + k, 4) for k in range(17)]  # -2 .. 2 step 1/4
        assert len(grid_axis) == 17
        checked = 0
        for x1 in grid_axis:
            for x2 in grid_axis:
                x = vector([x1, x2])
                expect_gauge = max(Fraction(0), x1, x2)
                expect_rho = max(x1, x2)
                assert gauge(h, x) == expect_gauge
                assert minimal_sublinear(h, x) == expect_rho
                verdict = membership(h, x)
                if max(x1, x2) > 1:
                    assert verdict.position == "outside"
                elif max(x1, x2) == 1:
                    assert verdict.position == "boundary"
                else:
                    assert verdict.position == "interior"
                checked += 1
        elapsed = time.perf_counter() - start
        assert checked == 289
        info["detail"] = f"289 grid points exact; {elapsed:.2f}s < 1s"
        assert elapsed < 1.0


def test_c2_sandwich_suite():
    info = {}
    with criterion("C2 sandwich-suite", info):
        # Built outside the timed region: the corpus is shared with C3-C5,
        # and the time must not depend on which test builds it first.
        sets = corpus()
        start = time.perf_counter()
        samples_checked = 0
        violations = 0
        for idx, h in enumerate(sets):
            samples = sample_points(h, 1_000 + idx, 200)
            for cand in range(10):
                sf = random_unit_ball_rep(h, 91 * idx + cand, 5)
                report = sandwich_check(h, sf, samples)
                samples_checked += report.samples_checked
                violations += len(report.violations)
        elapsed = time.perf_counter() - start
        assert samples_checked == 100 * 10 * 200
        assert violations == 0
        info["detail"] = (
            f"{samples_checked} exact sandwich evaluations, "
            f"{violations} violations; {elapsed:.1f}s < 60s"
        )
        assert elapsed < 60.0


def test_c3_reconstruction():
    info = {}
    with criterion("C3 reconstruction", info):
        scaled_exercised = 0
        for idx, h in enumerate(corpus()):
            samples = sample_points(h, 50_000 + idx, 500)
            scaled_exercised += sum(1 for x in samples if gauge(h, x) > 0)
            assert reconstruct_check(h, samples)
        assert scaled_exercised > 0
        info["detail"] = (
            f"100 instances x 500 samples; "
            f"{scaled_exercised} boundary rescalings hit value 1 exactly"
        )


def _non_recession_samples(h, seed, count):
    # gauge > 0 is exactly "outside the recession cone" for canonical sets
    rng = random.Random(seed)
    out = [x for x in sample_points(h, seed, 2 * count) if gauge(h, x) > 0]
    out = out[:count]
    while len(out) < count:
        x = tuple(
            Fraction(rng.randint(-12, 12), rng.randint(1, 6))
            for _ in range(h.dim)
        )
        if gauge(h, x) > 0:
            out.append(x)
    return out


def test_c4_off_recession_agreement():
    info = {}
    with criterion("C4 off-recession-agreement", info):
        checked = 0
        for idx, h in enumerate(corpus()):
            for x in _non_recession_samples(h, 77_000 + idx, 200):
                assert off_recession_check(h, x)
                checked += 1
        assert checked == 100 * 200
        info["detail"] = (
            f"{checked} samples: direct, clamped, and LP routes all equal"
        )


def test_c5_exposed_witness_sweep():
    info = {}
    with criterion("C5 exposed-witness-sweep", info):
        rows_checked = 0
        for h in corpus():
            for i, row in enumerate(h.rows):
                w = exposed_witness(h, i)
                assert dot(row, w) == 1
                assert all(
                    dot(other, w) < 1
                    for j, other in enumerate(h.rows)
                    if j != i
                )
                rows_checked += 1
        info["detail"] = (
            f"{rows_checked} rows across the corpus, all strictly exposed"
        )


def test_c6_lp_battery_against_enumeration():
    info = {}
    with criterion("C6 lp-battery", info):
        start = time.perf_counter()
        rng = random.Random(31_415)
        statuses = {"optimal": 0, "unbounded": 0, "infeasible": 0}
        for _ in range(500):
            lp = random_lp(rng)
            out = solve(lp)
            statuses[out.status] += 1
            assert verify_certificate(lp, out)
            any_feasible, best = brute_force_best(lp)
            if out.status == "optimal":
                assert any_feasible and best == out.value
            elif out.status == "infeasible":
                assert not any_feasible
            else:
                assert any_feasible
        elapsed = time.perf_counter() - start
        assert all(n > 0 for n in statuses.values()), statuses
        info["detail"] = (
            f"500 programs vs brute-force enumeration "
            f"({statuses['optimal']} optimal / {statuses['unbounded']} unbounded / "
            f"{statuses['infeasible']} infeasible), all certificates verified; "
            f"{elapsed:.1f}s < 30s"
        )
        assert elapsed < 30.0


def _floor(q) -> int:
    return q.numerator // q.denominator


def _random_corner_2d(rng: random.Random):
    """A 2-D corner instance with a body guaranteed lattice-free: a split
    strip, a standard lattice-free triangle, or a unit box, each around a
    fully fractional anchor. Returns (instance, K = B - f, B's rows, B's
    right-hand sides)."""
    f = tuple(
        Fraction(rng.randint(-2, 2)) + Fraction(rng.randint(1, 3), 4)
        for _ in range(2)
    )
    rays = []
    for _ in range(rng.randint(2, 4)):
        while True:
            r = tuple(
                Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                for _ in range(2)
            )
            if any(c != 0 for c in r):
                break
        rays.append(r)
    inst = CornerInstance(2, f, tuple(rays))

    kind = rng.choice(["split", "triangle", "box"])
    if kind == "split":
        while True:
            c = (rng.randint(-2, 2), rng.randint(-2, 2))
            if c == (0, 0):
                continue
            value = c[0] * f[0] + c[1] * f[1]
            if not is_integral(value):
                break
        k = _floor(value)
        rows = [vector(c), vector([-c[0], -c[1]])]
        rhs = [Fraction(k + 1), Fraction(-k)]
    elif kind == "triangle":
        a, b = _floor(f[0]), _floor(f[1])
        rows = [vector([-1, 0]), vector([0, -1]), vector([1, 1])]
        rhs = [Fraction(-a), Fraction(-b), Fraction(a + b + 2)]
    else:
        a, b = _floor(f[0]), _floor(f[1])
        rows = [vector([1, 0]), vector([-1, 0]), vector([0, 1]), vector([0, -1])]
        rhs = [Fraction(a + 1), Fraction(-a), Fraction(b + 1), Fraction(-b)]
    return inst, make_body(rows, rhs, f), rows, rhs


def _cut_corpus_2d():
    rng = random.Random(2_718_281)
    return [_random_corner_2d(rng) for _ in range(20)]


def test_c7_cut_generation_and_validity():
    info = {}
    with criterion("C7 cut-generation", info):
        # the one-variable split instance, exact end to end
        inst = CornerInstance.make(1, [Fraction(1, 2)], [[1], [-1]])
        body = make_body([[1], [-1]], [1, 0], inst.f)
        cut = generate_cut(inst, body, 5)
        assert cut.alpha == (Fraction(2), Fraction(2))
        assert check_cut_validity(inst, cut, 5).valid_on_region
        for z in (vector([0]), vector([1])):
            out = solve(
                LinearProgram.make(
                    "min",
                    cut.alpha,
                    [(tuple(r[0] for r in inst.rays), "=", vsub(z, inst.f)[0])],
                )
            )
            assert out.status == "optimal" and out.value == 1

        # twenty seeded 2-D instances with lattice-free bodies
        valid = 0
        for inst2, body2, _, _ in _cut_corpus_2d():
            assert is_s_free(body2, inst2, 4).free_on_region
            cut2 = generate_cut(inst2, body2, 4)
            report = check_cut_validity(inst2, cut2, 4)
            assert report.valid_on_region, (inst2, cut2, report)
            valid += 1

        # a deliberately non-lattice-free body is refused with a witness
        fat = make_body(
            [[1], [-1]], [Fraction(3, 2), Fraction(1, 2)], inst.f
        )
        with pytest.raises(NotSFreeError) as excinfo:
            generate_cut(inst, fat, 5)
        witness = excinfo.value.witness
        assert witness == (Fraction(0),)
        assert all(is_integral(c) for c in witness)
        assert membership(fat, vsub(witness, inst.f)).position == "interior"

        info["detail"] = (
            f"split cut (2, 2) tight at 0 and 1; {valid}/20 seeded bodies "
            f"valid at radius 4; non-free body refused with witness (0)"
        )


def test_c8_monotonicity_and_scaling():
    info = {}
    with criterion("C8 monotonicity-scaling", info):
        pairs = 0
        coeffs = 0
        for inst, body, rows, rhs in _cut_corpus_2d():
            box_rows = [
                vector([1, 0]), vector([-1, 0]),
                vector([0, 1]), vector([0, -1]),
            ]
            box_rhs = [
                inst.f[0] + 2, -inst.f[0] + 2,
                inst.f[1] + 2, -inst.f[1] + 2,
            ]
            shrunk = make_body(rows + box_rows, rhs + box_rhs, inst.f)
            for r in inst.rays:
                assert minimal_sublinear(shrunk, r) >= minimal_sublinear(body, r)
                coeffs += 1

            scale = Fraction(3, 2)
            scaled_inst = CornerInstance(
                inst.dim,
                inst.f,
                tuple(vscale(scale, r) for r in inst.rays),
            )
            base = generate_cut(inst, body, 4)
            scaled = generate_cut(scaled_inst, body, 4)
            assert scaled.alpha == tuple(scale * a for a in base.alpha)
            pairs += 1
        info["detail"] = (
            f"{coeffs} coefficients never decreased under body shrinking; "
            f"ray scaling by 3/2 scaled all {pairs} cuts exactly"
        )
