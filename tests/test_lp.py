import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    brute_force_best,
    fraction_solve,
    integer_rows_form,
    margin_exposed_witness,
    needs_artificial,
    pivots_logged,
    programs_logged,
    random_lp,
    reference_verify_certificate,
)
from polarcut import lp as lp_module
from polarcut.lp import LinearProgram, LPOutcome, solve, verify_certificate
from polarcut.polyhedra import (
    HPolyhedron,
    VPolytope,
    exposed_witness,
    hull_membership,
    normalize,
    polar,
    random_polyhedron,
    sup_over,
)
from polarcut.rationals import ONE, ZERO, dot, integer_rows
from polarcut.sublinear import (
    check_unit_ball,
    polar_support_lp,
    property_suite,
    random_unit_ball_rep,
    sample_points,
)


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


def _entry_mutations(vec, k):
    """Forgeries of one certificate vector: entry k shifted by +1, -1 and
    +1/3, the vector truncated, negated, and set to None."""
    if vec is None:
        return [None]
    shifted = [
        vec[:k] + (vec[k] + d,) + vec[k + 1:]
        for d in (ONE, -ONE, Fraction(1, 3))
    ]
    return shifted + [vec[:-1], tuple(-x for x in vec), None]


def _mutated_outcomes(out, rng):
    """out itself and its forged copies: each certificate field mutated,
    the value shifted by 1 or dropped, and every status relabel."""
    forged = [out]
    for field in ("point", "dual", "ray"):
        vec = getattr(out, field)
        k = rng.randrange(len(vec)) if vec else 0
        forged += [replace(out, **{field: v}) for v in _entry_mutations(vec, k)]
    if out.value is not None:
        forged.append(replace(out, value=out.value + 1))
    forged.append(replace(out, value=None))
    for status in ("optimal", "unbounded", "infeasible", "nonsense"):
        forged.append(replace(out, status=status))
    return forged


def test_verify_certificate_matches_reference():
    # The shared dual and feasibility tests give the verdict of the checker
    # they replaced on real outcomes and on forgeries of each field; both
    # verdicts must occur often under every status.
    rng = random.Random(16180)
    seen = {}
    for _ in range(600):
        program = random_lp(rng)
        for out in _mutated_outcomes(solve(program), rng):
            verdict = verify_certificate(program, out)
            assert verdict == reference_verify_certificate(program, out), out
            key = (out.status, verdict)
            seen[key] = seen.get(key, 0) + 1
    for status in ("optimal", "unbounded", "infeasible"):
        for verdict in (True, False):
            assert seen.get((status, verdict), 0) >= 25, seen
    assert ("nonsense", True) not in seen
    print(f"verify_certificate battery: {sum(seen.values())} outcomes, {seen}")


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
    return pivots_logged(solve, program)


def _battery():
    """Beale's program and the 620 seeded random programs: 621 in all."""
    programs = [BEALE]
    for seed, count in ((271828, 120), (31_415, 500)):
        rng = random.Random(seed)
        programs += [random_lp(rng) for _ in range(count)]
    return programs


def test_pivot_matches_dense_reference():
    # The integer tableau against the Fraction one it replaced: identical
    # outcomes and identical pivot sequences.
    programs = _battery()
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


def _agrees_with_all_artificial_start(program):
    """lp.solve against fraction_solve's all-artificial start, the route the
    slack-basis start replaced: the same status and value, and certificates
    that verify on both. When every row needs an artificial anyway, the two
    starts coincide, so the outcomes and pivot sequences must too. Returns
    (pivots, reference pivots, whether every row needed one)."""
    outcome, pivots = _solve_logged(program)
    reference, reference_pivots = fraction_solve(
        program, every_row_artificial=True
    )
    assert outcome.status == reference.status
    assert outcome.value == reference.value
    assert verify_certificate(program, outcome)
    assert verify_certificate(program, reference)
    every_row = all(needs_artificial(row) for row in program.rows)
    if every_row:
        assert (outcome, pivots) == (reference, reference_pivots)
    return len(pivots), len(reference_pivots), every_row


def _polyhedron_programs():
    """The programs that seeded random canonical sets pose: normalize's
    redundancy tests, exposed_witness per row (pure '<=' support LPs) and
    the margin LP it replaced (an '=' row beside '<=' rows and a cap row),
    check_unit_ball on a random generator set without its weights (one
    support LP per point that is neither a row nor the origin), sup_over
    at +-e_d, and at
    sample points the all-'=' programs of polar_support_lp and of
    hull_membership in the polar."""

    def pose():
        rng = random.Random(1729)
        for index in range(12):
            dim = rng.randint(1, 4)
            h = random_polyhedron(dim, rng.randint(dim + 1, dim + 4), rng)
            for i in range(len(h.rows)):
                exposed_witness(h, i)
                margin_exposed_witness(h, i)
            gens = random_unit_ball_rep(h, index, 3)  # stripped of its weights
            assert check_unit_ball(VPolytope(h.dim, gens.points), h)
            for d in range(dim):
                for sign in (ONE, -ONE):
                    axis = tuple(sign if j == d else ZERO for j in range(dim))
                    sup_over(h.compiled, axis)
            for x in sample_points(h, index, 12):
                polar_support_lp(h, x)
                hull_membership(x, polar(h))

    _, programs = programs_logged(pose)
    return programs


def test_int_rows_read_as_they_are_match_the_integer_rows_route():
    # lp.solve reads an all-int row (and objective) as its own ints over 1.
    # On the programs normalize and the property suite pose, that gives the
    # same pivots, outcomes and certificates as reading every row through
    # integer_rows.
    rng = random.Random(4181)
    raw_sets = []
    for _ in range(8):
        dim = rng.randint(1, 4)
        raw_sets.append(
            [
                tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(dim))
                for _ in range(rng.randint(dim + 1, dim + 5))
            ]
        )

    def pose():
        sets = [normalize(rows, [1] * len(rows)) for rows in raw_sets]
        property_suite(sets, 11, 24)

    _, programs = programs_logged(pose)
    statuses = Counter()
    int_rows = 0
    for program in programs:
        outcome, pivots = pivots_logged(solve, program)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lp_module, "_int_form", integer_rows_form)
            reference, reference_pivots = pivots_logged(solve, program)
        assert (outcome, pivots) == (reference, reference_pivots)
        assert verify_certificate(program, outcome)
        statuses[outcome.status] += 1
        int_rows += sum(
            {type(c) for c in coeffs} | {type(b)} == {int} for coeffs, _, b in program.rows
        )
    assert int_rows >= 300 and min(statuses[k] for k in ("optimal", "unbounded")) >= 20, (
        int_rows,
        statuses,
    )


def test_int_form_reads_bools_through_integer_rows():
    # Only exact ints are read as they are: a bool becomes its int.
    assert lp_module._int_form((3, -2, 0)) == ((3, -2, 0), 1)
    ints, den = lp_module._int_form((True, 2))
    assert (ints, den) == ((1, 2), 1) and {type(c) for c in ints} == {int}
    assert lp_module._int_form((Fraction(1, 2), 3)) == ((1, 6), 2)


def test_slack_start_agrees_with_all_artificial_start():
    totals = {True: [0, 0, 0], False: [0, 0, 0]}
    for program in _battery() + _polyhedron_programs():
        pivots, reference_pivots, every_row = _agrees_with_all_artificial_start(
            program
        )
        tally = totals[every_row]
        tally[0] += 1
        tally[1] += pivots
        tally[2] += reference_pivots
    # Both kinds of program are exercised, and the slack start saves pivots
    # on the programs where it applies.
    assert totals[True][0] > 100 and totals[False][0] > 100, totals
    assert totals[False][1] < totals[False][2], totals


@given(_programs())
@settings(max_examples=200, deadline=None)
def test_slack_start_agrees_with_all_artificial_start_on_drawn_programs(program):
    _agrees_with_all_artificial_start(program)


# Infeasible programs with rows that start on their slacks; max 0 unless
# given. A slack-started row's Farkas entry is its slack's reduced cost,
# with no -1 from an artificial's cost.
_MIXED_INFEASIBLE = {
    "x <= 1, x = 2": (
        LinearProgram.make("max", [0], [([1], "<=", 1), ([1], "=", 2)]),
        (1, -1),
    ),
    "max x + y; x <= 1, y <= 1, -x - y <= -3": (
        LinearProgram.make(
            "max",
            [1, 1],
            [([1, 0], "<=", 1), ([0, 1], "<=", 1), ([-1, -1], "<=", -3)],
        ),
        (1, 1, 1),
    ),
    "x <= 1, -x <= -2": (
        LinearProgram.make("max", [0], [([1], "<=", 1), ([-1], "<=", -2)]),
        (1, 1),
    ),
}


@pytest.mark.parametrize("name", sorted(_MIXED_INFEASIBLE))
def test_farkas_witness_on_slack_started_rows(name):
    program, dual = _MIXED_INFEASIBLE[name]
    outcome = solve(program)
    assert outcome.status == "infeasible"
    assert outcome.dual == tuple(Fraction(u) for u in dual)
    assert verify_certificate(program, outcome)


def test_sup_over_square_takes_two_pivots():
    # The square |x1|, |x2| <= 1 at (1, 1): the origin is feasible, so no
    # phase 1; one pivot per coordinate (eight with every row artificial).
    square = ((1, 0), (-1, 0), (0, 1), (0, -1))
    rows = tuple(tuple(Fraction(c) for c in a) for a in square)
    value, pivots = pivots_logged(sup_over, integer_rows(rows), (ONE, ONE))
    assert value == 2
    assert pivots == [(0, 0), (2, 2)]


def test_exposed_witness_square_takes_no_pivot():
    # Each row of the square |x1|, |x2| <= 1: the support LP of the other
    # three rows is a pure '<=' program, so no artificial column and no
    # phase 1, and it is unbounded along the row at the origin, so no
    # pivot at all. The margin LP it replaced took three on each row.
    square = ((1, 0), (-1, 0), (0, 1), (0, -1))
    h = HPolyhedron(2, tuple(tuple(Fraction(c) for c in a) for a in square))
    logged, programs = programs_logged(
        lambda: [pivots_logged(exposed_witness, h, i) for i in range(4)]
    )
    assert logged == [(row, []) for row in h.rows]
    assert len(programs) == 4
    assert not any(needs_artificial(row) for p in programs for row in p.rows)
    reference = [pivots_logged(margin_exposed_witness, h, i) for i in range(4)]
    assert [len(pivots) for _, pivots in reference] == [3] * 4


def test_slack_basis_is_optimal_for_a_zero_objective():
    # All '<=' rows with right-hand sides >= 0 and nothing to maximize: the
    # slack basis is feasible and already optimal, so no pivot at all.
    program = LinearProgram.make(
        "max",
        [0, 0],
        [([1, 2], "<=", 3), ([-1, 1], "<=", 0), ([1, -1], "<=", 0)],
        bounds=("nonneg", "free"),
    )
    outcome, pivots = _solve_logged(program)
    assert pivots == []
    assert outcome == LPOutcome(
        status="optimal", point=(ZERO, ZERO), value=ZERO, dual=(ZERO,) * 3
    )
    assert verify_certificate(program, outcome)


def test_phase_one_refuses_an_impossible_status(monkeypatch):
    # Phase 1 maximizes minus a sum of nonnegative artificials, so it is
    # bounded; any other status is a fault, also under python -O.
    monkeypatch.setattr(
        lp_module, "_run_simplex", lambda *args: ("unbounded", 0)
    )
    with pytest.raises(RuntimeError, match="phase 1 is unbounded"):
        solve(LinearProgram.make("max", [1], [([1], "=", 1)]))
