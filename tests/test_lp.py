import random
from dataclasses import replace
from fractions import Fraction

import pytest

from conftest import brute_force_best, dense_pivot, random_lp
from polarcut import lp as lp_module
from polarcut.lp import LinearProgram, LPOutcome, solve, verify_certificate
from polarcut.rationals import QScalar, dot


def test_box_maximum():
    lp = LinearProgram.make(
        "max", [1, 1], [([1, 0], "<=", 1), ([0, 1], "<=", 1)]
    )
    out = solve(lp)
    assert out.status == "optimal"
    assert out.value == 2
    assert out.point == (QScalar(1), QScalar(1))
    assert verify_certificate(lp, out)


def test_free_variable_unbounded():
    lp = LinearProgram.make("max", [1], [], bounds=("free",))
    out = solve(lp)
    assert out.status == "unbounded"
    assert out.ray == (QScalar(1),)
    assert verify_certificate(lp, out)


def test_infeasible_farkas():
    lp = LinearProgram.make("max", [1], [([1], "<=", -1)])
    out = solve(lp)
    assert out.status == "infeasible"
    assert out.dual is not None
    assert verify_certificate(lp, out)


def test_support_over_simplex():
    # sup of <(2,3), y> over conv{(0,0),(1,0),(0,1)} via convex multipliers
    lp = LinearProgram.make("max", [0, 2, 3], [([1, 1, 1], "=", 1)])
    out = solve(lp)
    assert out.status == "optimal" and out.value == 3
    assert verify_certificate(lp, out)


def test_min_direction_and_equalities():
    lp = LinearProgram.make(
        "min",
        [Fraction(1, 2), 2],
        [([1, 1], "=", 4), ([1, 0], "<=", 3)],
    )
    out = solve(lp)
    assert out.status == "optimal"
    assert out.value == Fraction(7, 2)  # x=(3,1)
    assert out.point == (QScalar(3), QScalar(1))
    assert verify_certificate(lp, out)


def test_min_unbounded_ray_improves_downward():
    lp = LinearProgram.make("min", [1, 0], [([0, 1], "<=", 5)], bounds=("free", "nonneg"))
    out = solve(lp)
    assert out.status == "unbounded"
    assert dot(lp.objective, out.ray) < 0
    assert verify_certificate(lp, out)


# The classic cycling example for the naive pivot rule.
BEALE = LinearProgram.make(
    "min",
    [Fraction(-3, 4), 150, Fraction(-1, 50), 6],
    [
        ([Fraction(1, 4), -60, Fraction(-1, 25), 9], "<=", 0),
        ([Fraction(1, 2), -90, Fraction(-1, 50), 3], "<=", 0),
        ([0, 0, 1, 0], "<=", 1),
    ],
)


def test_beale_cycling_instance_terminates():
    # Bland's rule must terminate on it with the exact optimum.
    lp = BEALE
    out = solve(lp)
    assert out.status == "optimal"
    assert verify_certificate(lp, out)
    any_feasible, best = brute_force_best(lp)
    assert any_feasible and out.value == best == Fraction(-1, 20)


def test_degenerate_redundant_rows():
    lp = LinearProgram.make(
        "max",
        [1, 1],
        [
            ([1, 1], "<=", 2),
            ([1, 1], "<=", 2),
            ([2, 2], "=", 4),
            ([1, 0], "<=", 1),
        ],
    )
    out = solve(lp)
    assert out.status == "optimal" and out.value == 2
    assert verify_certificate(lp, out)


def test_determinism():
    rng = random.Random(5)
    for _ in range(25):
        lp = random_lp(rng)
        assert solve(lp) == solve(lp)


def test_validation_errors():
    with pytest.raises(ValueError):
        LinearProgram.make("maximize", [1], [])
    with pytest.raises(ValueError):
        LinearProgram.make("max", [], [])
    with pytest.raises(ValueError):
        LinearProgram.make("max", [1], [([1, 2], "<=", 1)])
    with pytest.raises(ValueError):
        LinearProgram.make("max", [1], [([1], "<", 1)])
    with pytest.raises(ValueError):
        LinearProgram.make("max", [1], [], bounds=("positive",))


def test_verify_rejects_tampering():
    lp = LinearProgram.make(
        "max", [1, 1], [([1, 0], "<=", 1), ([0, 1], "<=", 1)]
    )
    out = solve(lp)
    assert verify_certificate(lp, out)
    telling_lies = [
        replace(out, value=QScalar(3)),
        replace(out, point=(QScalar(2), QScalar(0))),
        replace(out, dual=(QScalar(-1), QScalar(1))),
        replace(out, dual=(QScalar(1),)),
        replace(out, status="unbounded", ray=None),
        replace(out, status="unbounded", ray=(QScalar(0), QScalar(0))),
        replace(out, status="unbounded", ray=(QScalar(1), QScalar(0))),
        replace(out, status="infeasible"),
        LPOutcome(status="nonsense"),
    ]
    for fake in telling_lies:
        assert not verify_certificate(lp, fake)


def test_verify_rejects_wrong_farkas():
    lp = LinearProgram.make("max", [1], [([1], "<=", -1)])
    out = solve(lp)
    assert not verify_certificate(lp, replace(out, dual=(QScalar(-1),)))
    assert not verify_certificate(lp, replace(out, dual=None))


def test_random_battery_against_enumeration():
    rng = random.Random(271828)
    statuses = {"optimal": 0, "unbounded": 0, "infeasible": 0}
    for _ in range(120):
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
    # the generator must exercise every outcome kind
    assert all(count > 0 for count in statuses.values()), statuses


def _solve_logged(programs, pivot):
    """Solve each program with the given pivot step; return the outcomes and
    the (leave, enter) pivot sequence of each solve."""
    log = []

    def logged(tab, rhs, objrow, value, basis, leave, enter):
        log[-1].append((leave, enter))
        return pivot(tab, rhs, objrow, value, basis, leave, enter)

    outcomes = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lp_module, "_pivot", logged)
        for program in programs:
            log.append([])
            outcomes.append(solve(program))
    return outcomes, log


def test_pivot_matches_dense_reference():
    programs = [BEALE]
    for seed, count in ((271828, 120), (31_415, 500)):
        rng = random.Random(seed)
        programs += [random_lp(rng) for _ in range(count)]
    sparse = _solve_logged(programs, lp_module._pivot)
    dense = _solve_logged(programs, dense_pivot)
    assert sparse == dense
    assert sum(map(len, sparse[1])) > len(programs)
