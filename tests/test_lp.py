import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import brute_force_best, fraction_solve, random_lp
from polarcut import lp as lp_module
from polarcut.lp import LinearProgram, LPOutcome, solve, verify_certificate
from polarcut.rationals import dot


def test_box_maximum():
    lp = LinearProgram.make(
        "max", [1, 1], [([1, 0], "<=", 1), ([0, 1], "<=", 1)]
    )
    out = solve(lp)
    assert out.status == "optimal"
    assert out.value == 2
    assert out.point == (Fraction(1), Fraction(1))
    assert verify_certificate(lp, out)


def test_free_variable_unbounded():
    lp = LinearProgram.make("max", [1], [], bounds=("free",))
    out = solve(lp)
    assert out.status == "unbounded"
    assert out.ray == (Fraction(1),)
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
    assert out.point == (Fraction(3), Fraction(1))
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
        replace(out, value=Fraction(3)),
        replace(out, point=(Fraction(2), Fraction(0))),
        replace(out, dual=(Fraction(-1), Fraction(1))),
        replace(out, dual=(Fraction(1),)),
        replace(out, status="unbounded", ray=None),
        replace(out, status="unbounded", ray=(Fraction(0), Fraction(0))),
        replace(out, status="unbounded", ray=(Fraction(1), Fraction(0))),
        replace(out, status="infeasible"),
        LPOutcome(status="nonsense"),
    ]
    for fake in telling_lies:
        assert not verify_certificate(lp, fake)


def test_verify_rejects_wrong_farkas():
    lp = LinearProgram.make("max", [1], [([1], "<=", -1)])
    out = solve(lp)
    assert not verify_certificate(lp, replace(out, dual=(Fraction(-1),)))
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


def test_random_lp_draws_on_every_seed():
    # Six variables with five or more free ones need more rows than the
    # usual cap for six; such draws must get them, not raise.
    for seed in (1, 3):
        rng = random.Random(seed)
        for _ in range(2000):
            program = random_lp(rng)
            free = program.bounds.count("free")
            assert max(1, free) <= len(program.rows)
            assert len(program.rows) <= max(free, 9)


def _solve_logged(program):
    """lp.solve with its (leave, enter) pivot sequence, leftover-artificial
    pivots included, in the form fraction_solve returns."""
    pivots = []
    step = lp_module._pivot

    def logged(tab, dens, basis, leave, enter):
        pivots.append((leave, enter))
        step(tab, dens, basis, leave, enter)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lp_module, "_pivot", logged)
        outcome = solve(program)
    return outcome, pivots


def test_pivot_matches_dense_reference():
    # The integer tableau against the Fraction one it replaced: identical
    # outcomes and identical pivot sequences.
    programs = [BEALE]
    for seed, count in ((271828, 120), (31_415, 500)):
        rng = random.Random(seed)
        programs += [random_lp(rng) for _ in range(count)]
    total = 0
    for program in programs:
        outcome, pivots = _solve_logged(program)
        assert (outcome, pivots) == fraction_solve(program)
        total += len(pivots)
    assert total > len(programs)


_huge = st.builds(
    Fraction,
    st.integers(-(10**40), 10**40),
    st.integers(1, 10**40),
)
_small = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


@st.composite
def _programs(draw):
    """Programs with some huge-denominator coefficients, negative and zero
    right-hand sides, '=' rows and free variables, and a scaled (possibly
    negated) duplicate of an '=' row."""
    n = draw(st.integers(1, 4))
    entries = st.one_of(_small, _small, _huge)
    bounds = tuple(
        draw(st.sampled_from(("nonneg", "nonneg", "free"))) for _ in range(n)
    )
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        coeffs = [draw(entries) for _ in range(n)]
        rhs = draw(st.one_of(st.just(Fraction(0)), entries))
        rows.append((coeffs, draw(st.sampled_from(("<=", "<=", "="))), rhs))
    if draw(st.booleans()):
        coeffs = [draw(entries) for _ in range(n)]
        rhs = draw(st.one_of(st.just(Fraction(0)), entries))
        t = draw(entries.filter(lambda q: q != 0))
        rows.append((coeffs, "=", rhs))
        rows.insert(
            draw(st.integers(0, len(rows) - 1)),
            ([t * c for c in coeffs], "=", t * rhs),
        )
    objective = [draw(entries) for _ in range(n)]
    return LinearProgram.make(
        draw(st.sampled_from(("max", "min"))), objective, rows, bounds
    )


# In both, phase 1 ends with the two '=' rows' artificials basic at 0; the
# leftover pass then pivots on the first row's negative entry and leaves
# its scaled duplicate inert.
@example(
    LinearProgram.make(
        "max", [1, 1], [([-1, -1], "=", 0), ([-2, -2], "=", 0), ([1, 0], "<=", 1)]
    )
)
@example(
    LinearProgram.make(
        "min",
        [Fraction(1, 10**40), -1],
        [
            ([Fraction(-1, 10**40), -3], "=", 0),
            ([Fraction(-7, 10**80), Fraction(-21, 10**40)], "=", 0),
            ([1, 1], "<=", 5),
        ],
    )
)
@given(_programs())
@settings(max_examples=300, deadline=None)
def test_integer_tableau_matches_fraction_reference(program):
    outcome, pivots = _solve_logged(program)
    assert (outcome, pivots) == fraction_solve(program)
    assert verify_certificate(program, outcome)
