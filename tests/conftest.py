"""Shared oracles and generators.

The oracles recompute results by routes independent of the library code:
brute-force vertex enumeration for linear programs, the Fraction-tableau
simplex that the integer one replaced, bisection on membership for the
gauge, direct arithmetic re-verification of certificates (the checker
whose optimal and Farkas branches each had their own dual test),
Fraction-arithmetic sample mixes and lattice scans, the recession-cone
LPs that decided boundedness before polyhedra.sup_over, the margin LP
that found exposed witnesses before the support LP did, the property
suite fed rational samples, check-cut's one LP per lattice point, and
the support LPs over a set's Fraction rows with the generator sets summed
in Fractions and every generator checked by an LP, from before every such
LP read the set's compiled int rows and drawn generators carried their
weights, every program row read through integer_rows as lp.solve read
it before it took an all-int row as it is, the redundancy filter over
Fraction rows (with the Gram test taken in Fractions, or with an LP for
every row as before there was one), the cut body's margins and scan
half-spaces by Fraction dot products, from before make_body and the scan
read them in ints, and the CLI's JSON writer from before it had its own,
over json's pure-Python indent=2 encoder. They are deliberately slow and
simple.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, product

import pytest

from polarcut import lp as lp_module
from polarcut import polyhedra, sublinear
from polarcut.cuts import AnchorNotInteriorError, CutViolation, ValidityReport
from polarcut.lp import LinearProgram, LPOutcome, solve
from polarcut.polyhedra import (
    HPolyhedron,
    OriginNotInteriorError,
    VPolytope,
    membership,
    normalize,
)
from polarcut.rationals import (
    ONE,
    ZERO,
    Values,
    dot,
    integer_rows,
    is_zero_vector,
    json_scalar,
    parse_rational,
    unscaled,
    vector,
)


# ------------------------------------------------- rational vector arithmetic


def vadd(u, v):
    return tuple(a + b for a, b in zip(u, v, strict=True))


def vsub(u, v):
    return tuple(a - b for a, b in zip(u, v, strict=True))


def vscale(t, v):
    return tuple(t * x for x in v)


@pytest.fixture
def quadrant_k() -> HPolyhedron:
    """The running example: {x : x1 <= 1, x2 <= 1}."""
    return normalize([(1, 0), (0, 1)], [1, 1])


# ---------------------------------------------------------------- LP oracle


def solve_square(matrix, rhs):
    """Exact Gaussian elimination; None when the system is singular."""
    n = len(rhs)
    aug = [list(row) + [b] for row, b in zip(matrix, rhs)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        p = aug[col][col]
        aug[col] = [v / p for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return tuple(aug[r][n] for r in range(n))


def oracle_feasible(lp: LinearProgram, x) -> bool:
    for j, bound in enumerate(lp.bounds):
        if bound == "nonneg" and x[j] < 0:
            return False
    for coeffs, rel, b in lp.rows:
        lhs = sum(c * v for c, v in zip(coeffs, x))
        if rel == "<=" and lhs > b:
            return False
        if rel == "=" and lhs != b:
            return False
    return True


def brute_force_best(lp: LinearProgram):
    """Enumerate every basic point: n-subsets of {rows as equalities} union
    {x_j = 0 for nonneg j}, solved exactly. Returns (any_feasible, best).

    Sound for pointed feasible regions: a feasible pointed polyhedron has a
    vertex, and a finite optimum is attained at one.
    """
    n = len(lp.objective)
    cands = [(coeffs, b) for coeffs, _, b in lp.rows]
    for j, bound in enumerate(lp.bounds):
        if bound == "nonneg":
            unit = [Fraction(0)] * n
            unit[j] = Fraction(1)
            cands.append((tuple(unit), Fraction(0)))
    any_feasible = False
    best = None
    for subset in combinations(range(len(cands)), n):
        x = solve_square(
            [cands[i][0] for i in subset], [cands[i][1] for i in subset]
        )
        if x is None or not oracle_feasible(lp, x):
            continue
        any_feasible = True
        value = sum(c * v for c, v in zip(lp.objective, x))
        if (
            best is None
            or (lp.direction == "max" and value > best)
            or (lp.direction == "min" and value < best)
        ):
            best = value
    return any_feasible, best


def random_lp(rng: random.Random) -> LinearProgram:
    """Random program kept pointed (free variables get one box row each) and
    small enough that brute_force_best enumerates a few hundred subsets."""
    max_rows_for = {1: 9, 2: 9, 3: 8, 4: 6, 5: 5, 6: 4}
    n = rng.randint(1, 6)
    bounds = []
    for _ in range(n):
        bounds.append("free" if rng.random() < 0.25 else "nonneg")
    n_free = bounds.count("free")
    total_rows = rng.randint(max(1, n_free), max(n_free, max_rows_for[n]))
    rows = []
    for j, bound in enumerate(bounds):
        if bound == "free":
            box = [0] * n
            box[j] = rng.choice([1, -1])
            rows.append((tuple(box), "<=", Fraction(rng.randint(1, 6))))
    while len(rows) < total_rows:
        coeffs = tuple(
            Fraction(rng.randint(-4, 4), rng.randint(1, 2)) for _ in range(n)
        )
        if all(c == 0 for c in coeffs):
            continue
        rel = "=" if rng.random() < 0.15 else "<="
        rows.append((coeffs, rel, Fraction(rng.randint(-6, 6))))
    objective = tuple(Fraction(rng.randint(-5, 5)) for _ in range(n))
    direction = rng.choice(["max", "min"])
    return LinearProgram.make(direction, objective, rows, bounds)


def needs_artificial(row) -> bool:
    """lp.solve's start rule: a row starts on an artificial variable iff it
    is an '=' row or its right-hand side is negative."""
    _, rel, b = row
    return rel == "=" or b < 0


def fraction_solve(lp: LinearProgram, every_row_artificial: bool = False):
    """Reference for lp.solve: the same two-phase Bland simplex on a dense
    Fraction tableau. Returns (outcome, pivots), pivots being the (leave,
    enter) sequence of the whole solve, leftover-artificial pivots included.

    By default rows start as lp.solve starts them (needs_artificial), and
    phase 1 runs only when some row has an artificial. With
    every_row_artificial every row gets one and phase 1 always runs: the
    start lp.solve used before it began on the slack basis, kept as the
    slow reference for that change.

    Every coefficient, right-hand side and cost is taken as a Fraction on
    entry, so a program posed in ints is solved exactly too."""
    pivots = []

    def pivot(tab, rhs, objrow, value, basis, leave, enter):
        pivots.append((leave, enter))
        prow = tab[leave]
        p = prow[enter]
        prow[:] = [x / p for x in prow]
        newrhs = rhs[leave] / p
        rhs[leave] = newrhs
        basis[leave] = enter
        for i, row in enumerate(tab):
            f = row[enter]
            if i != leave and f != 0:
                row[:] = [a - f * b for a, b in zip(row, prow)]
                rhs[i] -= f * newrhs
        f = objrow[enter]
        if f != 0:
            objrow[:] = [a - f * b for a, b in zip(objrow, prow)]
            value -= f * newrhs
        return value

    def build_objrow(tab, rhs, basis, cost):
        objrow = [-c for c in cost]
        value = ZERO
        for i, bi in enumerate(basis):
            cb = cost[bi]
            objrow = [o + cb * a for o, a in zip(objrow, tab[i])]
            value += cb * rhs[i]
        return objrow, value

    def run_simplex(tab, rhs, objrow, value, basis, enter_cols):
        while True:
            enter = next((j for j in enter_cols if objrow[j] < 0), -1)
            if enter < 0:
                return "optimal", value, -1
            leave = -1
            best = None
            for i, row in enumerate(tab):
                a = row[enter]
                if a > 0:
                    ratio = rhs[i] / a
                    if (
                        best is None
                        or ratio < best
                        or (ratio == best and basis[i] < basis[leave])
                    ):
                        best = ratio
                        leave = i
            if leave < 0:
                return "unbounded", value, enter
            value = pivot(tab, rhs, objrow, value, basis, leave, enter)

    n = len(lp.objective)
    sense = 1 if lp.direction == "max" else -1
    ucols = []
    for j, b in enumerate(lp.bounds):
        ucols.append((j, 1))
        if b == "free":
            ucols.append((j, -1))
    nu = len(ucols)
    m = len(lp.rows)
    slack_of = {}
    col = nu
    for i, (_, rel, _) in enumerate(lp.rows):
        if rel == "<=":
            slack_of[i] = col
            col += 1
    art0 = col
    art_of = {}
    for i, row in enumerate(lp.rows):
        if every_row_artificial or needs_artificial(row):
            art_of[i] = col
            col += 1
    ncols = col

    tab, rhs, flip = [], [], []
    for i, (coeffs, rel, b) in enumerate(lp.rows):
        coeffs, b = tuple(map(Fraction, coeffs)), Fraction(b)
        row = [ZERO] * ncols
        for k, (j, sg) in enumerate(ucols):
            row[k] = sg * coeffs[j]
        if i in slack_of:
            row[slack_of[i]] = ONE
        s = 1
        if b < 0:
            s = -1
            row = [-x for x in row]
            b = -b
        if i in art_of:
            row[art_of[i]] = ONE
        tab.append(row)
        rhs.append(Fraction(b))
        flip.append(s)
    start = [art_of.get(i, slack_of.get(i)) for i in range(m)]
    basis = list(start)

    if art_of:
        cost1 = [ZERO] * art0 + [-ONE] * len(art_of)
        objrow, value = build_objrow(tab, rhs, basis, cost1)
        _, value, _ = run_simplex(tab, rhs, objrow, value, basis, range(ncols))
        if value < 0:
            # y = c_B B^-1 is objrow + cost on each row's starting column.
            dual = tuple(
                flip[i] * (objrow[c] + cost1[c]) for i, c in enumerate(start)
            )
            return LPOutcome(status="infeasible", dual=dual), pivots
        for i in range(m):
            if basis[i] >= art0:
                enter = next((j for j in range(art0) if tab[i][j] != 0), -1)
                if enter >= 0:
                    value = pivot(tab, rhs, objrow, value, basis, i, enter)

    cost2 = [ZERO] * ncols
    for k, (j, sg) in enumerate(ucols):
        cost2[k] = sg * sense * Fraction(lp.objective[j])
    objrow, value = build_objrow(tab, rhs, basis, cost2)
    status, value, enter = run_simplex(tab, rhs, objrow, value, basis, range(art0))

    uvals = {b: rhs[i] for i, b in enumerate(basis)}
    point = [ZERO] * n
    for k, (j, sg) in enumerate(ucols):
        if k in uvals:
            point[j] += sg * uvals[k]
    point = tuple(point)
    if status == "unbounded":
        dvals = {enter: ONE}
        for i, b in enumerate(basis):
            if tab[i][enter] != 0:
                dvals[b] = -tab[i][enter]
        ray = [ZERO] * n
        for k, (j, sg) in enumerate(ucols):
            if k in dvals:
                ray[j] += sg * dvals[k]
        return LPOutcome(status="unbounded", point=point, ray=tuple(ray)), pivots
    duals = tuple(sense * flip[i] * objrow[c] for i, c in enumerate(start))
    outcome = LPOutcome(
        status="optimal", point=point, value=sense * value, dual=duals
    )
    return outcome, pivots


def _reference_feasible(lp: LinearProgram, x) -> bool:
    if len(x) != len(lp.objective):
        return False
    for j, b in enumerate(lp.bounds):
        if b == "nonneg" and x[j] < 0:
            return False
    for coeffs, rel, b in lp.rows:
        lhs = dot(coeffs, x)
        if rel == "<=" and lhs > b:
            return False
        if rel == "=" and lhs != b:
            return False
    return True


def reference_verify_certificate(lp: LinearProgram, outcome: LPOutcome) -> bool:
    """lp.verify_certificate before its optimal and infeasible branches
    shared one dual test: each branch writes out its own row combination.
    Returns False on any mismatch; never raises on a well-formed program.
    """
    m = len(lp.rows)
    n = len(lp.objective)
    is_max = lp.direction == "max"

    if outcome.status == "optimal":
        if outcome.point is None or outcome.value is None or outcome.dual is None:
            return False
        if len(outcome.dual) != m or not _reference_feasible(lp, outcome.point):
            return False
        if dot(lp.objective, outcome.point) != outcome.value:
            return False
        # Dual feasibility: multipliers on <= rows carry the direction's
        # sign, and their combination dominates the objective on the
        # nonnegative orthant (matches it exactly on free coordinates).
        combo = [ZERO] * n
        rhs_total = ZERO
        for u, (coeffs, rel, b) in zip(outcome.dual, lp.rows):
            if rel == "<=" and ((is_max and u < 0) or (not is_max and u > 0)):
                return False
            for j in range(n):
                combo[j] += u * coeffs[j]
            rhs_total += u * b
        for j, bound in enumerate(lp.bounds):
            cj = lp.objective[j]
            if bound == "free":
                if combo[j] != cj:
                    return False
            elif is_max:
                if combo[j] < cj:
                    return False
            else:
                if combo[j] > cj:
                    return False
        return rhs_total == outcome.value

    if outcome.status == "unbounded":
        ray = outcome.ray
        if ray is None or len(ray) != n or all(x == 0 for x in ray):
            return False
        for j, bound in enumerate(lp.bounds):
            if bound == "nonneg" and ray[j] < 0:
                return False
        for coeffs, rel, _ in lp.rows:
            lhs = dot(coeffs, ray)
            if rel == "<=" and lhs > 0:
                return False
            if rel == "=" and lhs != 0:
                return False
        gain = dot(lp.objective, ray)
        if is_max and gain <= 0:
            return False
        if not is_max and gain >= 0:
            return False
        if outcome.point is not None and not _reference_feasible(lp, outcome.point):
            return False
        return True

    if outcome.status == "infeasible":
        u = outcome.dual
        if u is None or len(u) != m:
            return False
        combo = [ZERO] * n
        rhs_total = ZERO
        for ui, (coeffs, rel, b) in zip(u, lp.rows):
            if rel == "<=" and ui < 0:
                return False
            for j in range(n):
                combo[j] += ui * coeffs[j]
            rhs_total += ui * b
        for j, bound in enumerate(lp.bounds):
            if bound == "free":
                if combo[j] != 0:
                    return False
            elif combo[j] < 0:
                return False
        return rhs_total < 0

    return False


# -------------------------------------------------------------- gauge oracle


def gauge_bracket(h: HPolyhedron, x, steps: int = 60):
    """Bracket the gauge using only membership queries: gauge(x) <= t iff
    x/t stays in the set. Returns exact Fractions (lo, hi), hi - lo tiny."""
    def inside(t: Fraction) -> bool:
        scaled = tuple(Fraction(c) / t for c in x)
        return membership(h, scaled).position != "outside"

    hi = Fraction(1)
    grow = 0
    while not inside(hi):
        hi *= 2
        grow += 1
        assert grow < 64, "gauge bracket failed to find an upper bound"
    lo = Fraction(0)
    if inside(Fraction(1, 2**40)):
        # the whole ray is inside: gauge is somewhere in [0, 2^-40]
        return lo, Fraction(1, 2**40)
    for _ in range(steps):
        mid = (lo + hi) / 2
        if mid > 0 and inside(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


# ------------------------------------------------------ sample mix reference


def fraction_sample_points(h: HPolyhedron, seed: int, count: int) -> tuple:
    """Reference for sublinear.sample_points: the same rng draws, with each
    of the 2^dim sign patterns of a recession candidate built as a Fraction
    vector and tested with Fraction dot products."""
    rng = random.Random(seed)
    dim = h.dim
    out = []

    def rand_point():
        return tuple(
            Fraction(rng.randint(-12, 12), rng.randint(1, 6)) for _ in range(dim)
        )

    grid_quota = min(count // 4, 40)
    for ints in product(range(-2, 3), repeat=dim):
        if len(out) >= grid_quota:
            break
        out.append(tuple(Fraction(v) for v in ints))
    while len(out) < (count * 2) // 4:
        out.append(rand_point())
    boundary_quota = (count * 3) // 4
    for x in list(out):
        if len(out) >= boundary_quota:
            break
        g = max(dot(a, x) for a in h.rows)
        if g > 0:
            out.append(tuple(v / g for v in x))
    recession_quota = min(count // 8, boundary_quota + count - len(out))
    found = 0
    for _ in range(recession_quota * 4):
        if found >= recession_quota or len(out) >= count:
            break
        base = rand_point()
        for signs in product((1, -1), repeat=dim):
            candidate = tuple(s * v for s, v in zip(signs, base))
            if all(dot(a, candidate) <= 0 for a in h.rows):
                out.append(candidate)
                found += 1
                break
    while len(out) < count:
        out.append(rand_point())
    return tuple(out[:count])


# ------------------------------------------------- property suite reference


def rational_property_suite(instances, seed: int, samples: int):
    """Reference for sublinear.property_suite: the same checks in the same
    order, each fed the rational samples, so every evaluator call scales
    its point again. The checks are looked up on the module at call time,
    so a test's monkeypatches reach this route too."""
    tally = {
        "sandwich": {
            "pairs": 0,
            "samples_checked": 0,
            "violations": 0,
            "first_violation": None,
        },
        "reconstruct": {"instances_checked": 0, "failures": 0},
        "off_recession": {
            "samples_checked": 0,
            "violations": 0,
            "first_violation": None,
        },
        "exposed": {"rows_checked": 0, "failures": 0},
    }
    sandwich, recon = tally["sandwich"], tally["reconstruct"]
    off, exposed = tally["off_recession"], tally["exposed"]
    for index, h in enumerate(instances):
        pts = sublinear.sample_points(h, seed + 7919 * index, samples)
        for c in range(sublinear.SUITE_CANDIDATES):
            gens = sublinear.random_unit_ball_rep(h, seed + 104729 * index + c, 5)
            report = sublinear.sandwich_check(h, gens, pts)
            sandwich["pairs"] += 1
            sandwich["samples_checked"] += report.samples_checked
            sandwich["violations"] += len(report.violations)
            if report.violations and sandwich["first_violation"] is None:
                sandwich["first_violation"] = report.violations[0][0]
        recon["instances_checked"] += 1
        if not sublinear.reconstruct_check(h, pts):
            recon["failures"] += 1
        for x in pts:
            if sublinear.in_recession(h, x):
                continue
            off["samples_checked"] += 1
            if not sublinear.off_recession_check(h, x):
                off["violations"] += 1
                if off["first_violation"] is None:
                    off["first_violation"] = x
        for i in range(len(h.rows)):
            exposed["rows_checked"] += 1
            witness = sublinear.exposed_witness(h, i)
            if sublinear.membership(h, witness).tight_rows != (i,):
                exposed["failures"] += 1
    violations = (
        sandwich["violations"]
        + recon["failures"]
        + off["violations"]
        + exposed["failures"]
    )
    return tally, violations


# ------------------------------------------------------- hull re-verification


def recheck_hull_verdict(p, polytope, verdict) -> bool:
    """Direct arithmetic on the certificate, no library calls."""
    pts = polytope.points
    if verdict.inside:
        mults = verdict.multipliers
        if mults is None or len(mults) != len(pts):
            return False
        if any(m < 0 for m in mults) or sum(mults) != 1:
            return False
        for d in range(polytope.dim):
            if sum(m * q[d] for m, q in zip(mults, pts)) != p[d]:
                return False
        return True
    if verdict.separator is None:
        return False
    c, gamma = verdict.separator
    if dot(c, p) <= gamma:
        return False
    return all(dot(c, q) <= gamma for q in pts)


# ------------------------------------------------------ boundedness reference


def cone_is_pointed(k: HPolyhedron) -> bool:
    """Reference for maximality_certificate's boundedness test: True iff
    the recession cone {x : <a_i, x> <= 0} of k holds no direction beyond
    the origin, decided by 2 * dim LPs over the cone itself."""
    cone_rows = tuple((a, "<=", ZERO) for a in k.rows)
    for d in range(k.dim):
        for sign in (ONE, -ONE):
            objective = [ZERO] * k.dim
            objective[d] = sign
            outcome = solve(
                LinearProgram(
                    direction="max",
                    objective=tuple(objective),
                    rows=cone_rows,
                    bounds=("free",) * k.dim,
                )
            )
            if outcome.status == "unbounded":
                return False
    return True


# --------------------------------------------------- exposed witness reference


def margin_exposed_witness(h: HPolyhedron, row_index: int):
    """Reference for polyhedra.exposed_witness: the margin LP it replaced.
    Maximize s (capped at 1) over points tight on row i with <a_j, x> + s
    <= 1 on every other row j; a positive optimal s exposes the row. It
    calls lp_module.solve, so a recording of that function sees it."""
    a_i = h.rows[row_index]
    nvars = h.dim + 1  # the point plus the margin variable
    rows = [(tuple(a_i) + (ZERO,), "=", ONE)]
    for j, a_j in enumerate(h.rows):
        if j != row_index:
            rows.append((tuple(a_j) + (ONE,), "<=", ONE))
    rows.append(((ZERO,) * h.dim + (ONE,), "<=", ONE))
    outcome = lp_module.solve(
        LinearProgram(
            direction="max",
            objective=(ZERO,) * h.dim + (ONE,),
            rows=tuple(rows),
            bounds=("free",) * nvars,
        )
    )
    if outcome.status != "optimal" or outcome.value <= 0:
        raise RuntimeError(f"row {row_index} admits no strictly exposed point")
    return outcome.point[: h.dim]


# ------------------------------------------------- Fraction-row support LPs


def integer_rows_form(entries):
    """Reference for lp._int_form: integer_rows of the vector, an all-int
    one included, as lp.solve read every row and objective before."""
    (ints,), den = integer_rows((entries,))
    return ints, den


def pivots_logged(run, *args):
    """run(*args) with the (leave, enter) sequence of every lp.solve pivot
    it makes, leftover-artificial pivots included, in the form
    fraction_solve returns."""
    pivots = []
    step = lp_module._pivot

    def logged(tab, dens, basis, leave, enter):
        pivots.append((leave, enter))
        step(tab, dens, basis, leave, enter)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lp_module, "_pivot", logged)
        result = run(*args)
    return result, pivots


def programs_logged(run, *args):
    """run(*args) with every program that lp.solve is given, in order."""
    programs = []
    solve_ = lp_module.solve

    def recorded(program):
        programs.append(program)
        return solve_(program)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lp_module, "solve", recorded)
        result = run(*args)
    return result, programs


@pytest.fixture
def lp_solves(monkeypatch) -> Counter:
    """The lp.solve calls made while the test runs, counted by outcome
    status: counts that do not depend on the machine."""
    counts = Counter()
    solve_ = lp_module.solve

    def counted(program):
        outcome = solve_(program)
        counts[outcome.status] += 1
        return outcome

    monkeypatch.setattr(lp_module, "solve", counted)
    return counts


def fraction_support_lp(rows, v):
    """Reference for polyhedra._support_lp: max <v, x> over the rational
    rows themselves, each posed as (a, '<=', 1)."""
    return lp_module.solve(
        LinearProgram(
            direction="max",
            objective=v,
            rows=tuple((a, "<=", ONE) for a in rows),
            bounds=("free",) * len(v),
        )
    )


def fraction_sup_over(rows, v):
    """Reference for polyhedra.sup_over over the rational rows."""
    outcome = fraction_support_lp(rows, v)
    if outcome.status == "unbounded":
        return None
    assert outcome.status == "optimal", outcome.status
    return outcome.value


def fraction_remove_redundancy(dim: int, rows, gram_test: bool = True) -> HPolyhedron:
    """Reference for polyhedra.remove_redundancy, on rational rows or Scaled
    ones: each row that fails the Gram test, taken in Fractions, poses the
    remaining rational rows. With gram_test False every row poses its LP:
    the route from before the Gram test, which the kept rows must match."""
    kept = []
    for a in map(unscaled, rows):
        if a not in kept:
            kept.append(a)
    i = 0
    while i < len(kept):
        others = kept[:i] + kept[i + 1 :]
        a_i = kept[i]
        if not others or (
            gram_test and dot(a_i, a_i) > max(dot(a, a_i) for a in others)
        ):
            i += 1
            continue
        top = fraction_sup_over(others, a_i)
        if top is None or top > 1:
            i += 1
        else:
            kept.pop(i)
    return HPolyhedron(dim, tuple(kept))


def fraction_exposed_witness(h: HPolyhedron, row_index: int):
    """Reference for polyhedra.exposed_witness: the support LP of the other
    rational rows at a_i, its maximizer or ray scaled onto the row."""
    a_i = h.rows[row_index]
    outcome = fraction_support_lp(h.rows[:row_index] + h.rows[row_index + 1 :], a_i)
    if outcome.status == "unbounded":
        x, top = outcome.ray, dot(a_i, outcome.ray)
    elif outcome.status == "optimal" and outcome.value > 1:
        x, top = outcome.point, outcome.value
    else:
        raise RuntimeError(f"row {row_index} admits no strictly exposed point")
    return tuple(c / top for c in x)


def fraction_check_unit_ball(gens: VPolytope, h: HPolyhedron) -> bool:
    """Reference for sublinear.check_unit_ball: condition (b) by the support
    LP over the rational rows."""
    if gens.dim != h.dim:
        raise ValueError("generator dimension differs from the set's")
    for a in h.rows:
        if not sublinear.hull_membership(a, gens).inside:
            return False
    row_set = set(h.rows)
    for v in gens.points:
        if v in row_set or is_zero_vector(v):
            continue
        top = fraction_sup_over(h.rows, v)
        if top is None or top > 1:
            return False
    return True


def fraction_polar_support_lp(h: HPolyhedron, x):
    """Reference for sublinear.polar_support_lp: its simplex row posed in
    Fractions."""
    values, scale = sublinear.pairings(h.compiled, x)
    npts = len(values) + 1
    outcome = lp_module.solve(
        LinearProgram(
            direction="max",
            objective=(0, *values),
            rows=(((ONE,) * npts, "=", ONE),),
            bounds=("nonneg",) * npts,
        )
    )
    assert outcome.status == "optimal", outcome.status
    return outcome.value / scale


def fraction_random_unit_ball_rep(h: HPolyhedron, seed: int, count: int) -> VPolytope:
    """Reference for sublinear.random_unit_ball_rep: each point a Fraction
    sum over the polar's points, the origin first."""
    rng = random.Random(seed)
    anchors = polyhedra.polar(h).points
    gens = list(h.rows)
    seen = set(gens)
    for _ in range(count):
        weights = [rng.randint(0, 4) for _ in anchors]
        if sum(weights) == 0:
            weights[0] = 1
        total = sum(weights)
        point = tuple(
            Fraction(sum(w * anchor[d] for w, anchor in zip(weights, anchors)), total)
            for d in range(h.dim)
        )
        if point not in seen:
            seen.add(point)
            gens.append(point)
    return VPolytope(h.dim, tuple(gens))


def use_fraction_routes(mp: pytest.MonkeyPatch) -> None:
    """Put the references above in place of the routes they replaced, where
    normalize and property_suite look them up."""
    mp.setattr(polyhedra, "remove_redundancy", fraction_remove_redundancy)
    mp.setattr(sublinear, "check_unit_ball", fraction_check_unit_ball)
    mp.setattr(sublinear, "exposed_witness", fraction_exposed_witness)
    mp.setattr(sublinear, "polar_support_lp", fraction_polar_support_lp)
    mp.setattr(sublinear, "random_unit_ball_rep", fraction_random_unit_ball_rep)


# ------------------------------------------------------- lattice scan oracles


def nearest_int(q) -> int:
    """Reference rounding for the scan centre: the nearest integer to q,
    ties to the even neighbour, from floor division rather than round."""
    floor = q.numerator // q.denominator
    frac = q - floor
    half = Fraction(1, 2)
    if frac < half:
        return floor
    if frac > half:
        return floor + 1
    return floor if floor % 2 == 0 else floor + 1


def fraction_region_points(inst, radius, body=None):
    """Reference for cuts.region_lattice_points: the whole box in the same
    lexicographic order, filtered to P with Fraction dot products and, when
    a body is given, to the closed body: dot(a, z - f) <= 1 on every row."""
    center = [nearest_int(c) for c in inst.f]
    ranges = [range(c - radius, c + radius + 1) for c in center]
    rows = () if body is None else body.rows
    for ints in product(*ranges):
        z = tuple(Fraction(v) for v in ints)
        if all(dot(p, z) <= b for p, b in zip(inst.p_rows, inst.p_rhs)) and all(
            dot(a, vsub(z, inst.f)) <= 1 for a in rows
        ):
            yield z


def fraction_make_body(b_rows, b_rhs, f):
    """Reference for cuts.make_body: each margin b_i - <a_i, f> a Fraction
    dot product, and normalize given the rational rows and margins."""
    rows = [vector(a) for a in b_rows]
    rhs = [parse_rational(b) for b in b_rhs]
    if len(rows) != len(rhs):
        raise ValueError("body row/right-hand-side count mismatch")
    margins = [b - dot(a, f) for a, b in zip(rows, rhs)]
    try:
        return normalize(rows, margins)
    except OriginNotInteriorError as err:
        raise AnchorNotInteriorError("f not interior to the body") from err


def fraction_half_spaces(inst, body=None):
    """Reference for cuts._half_spaces: P's rows, then the body's rows as
    <a, z> <= 1 + <a, f> with a Fraction right-hand side, each compiled
    by integer_rows over its own denominator."""
    half_spaces = list(zip(inst.p_rows, inst.p_rhs))
    if body is not None:
        half_spaces += [(a, 1 + dot(a, inst.f)) for a in body.rows]
    compiled = []
    for a, b in half_spaces:
        (row,), _ = integer_rows((a + (b,),))
        compiled.append((row[:-2], row[-2], row[-1]))
    return compiled


def first_interior_point(body, inst, radius):
    """Reference for is_s_free's witness: the first region point strictly
    inside the body, by Fraction pairings; None when there is none."""
    for z in fraction_region_points(inst, radius):
        if all(dot(a, vsub(z, inst.f)) < 1 for a in body.rows):
            return z
    return None


def per_facet_uncertified(body, inst, radius):
    """Reference for maximality_certificate's facet verdicts: one region
    scan per facet, looking for a point tight on that facet and strictly
    slack on every other row, by Fraction pairings."""
    rows = body.rows
    uncertified = []
    for i in range(len(rows)):
        for z in fraction_region_points(inst, radius):
            values = [dot(a, vsub(z, inst.f)) for a in rows]
            if values[i] == 1 and all(
                v < 1 for j, v in enumerate(values) if j != i
            ):
                break
        else:
            uncertified.append(i)
    return tuple(uncertified)


def per_point_check_cut_validity(inst, cut, radius):
    """Reference for cuts.check_cut_validity: one exact min-LP at every
    region point of the Fraction scan, with no certificate reused. lp.solve
    is looked up on its module at call time, so a monkeypatch that counts
    solves sees these too. Its scope is "global" for a violation and
    "region" otherwise: a scan of the radius box proves nothing beyond it."""
    if len(cut.alpha) != len(inst.rays):
        raise ValueError("one coefficient per ray required")
    columns = tuple(zip(*inst.rays))
    bounds = ("nonneg",) * len(inst.rays)
    for z in fraction_region_points(inst, radius):
        target = vsub(z, inst.f)
        rows = tuple((col, "=", t) for col, t in zip(columns, target))
        outcome = lp_module.solve(
            LinearProgram(
                direction="min", objective=cut.alpha, rows=rows, bounds=bounds
            )
        )
        if outcome.status == "infeasible":
            continue
        if outcome.status == "unbounded":
            return ValidityReport(False, radius, "global", CutViolation(z, outcome.ray, True))
        if outcome.value < 1:
            return ValidityReport(False, radius, "global", CutViolation(z, outcome.point, False))
    return ValidityReport(True, radius, "region")


# ------------------------------------------------------------ report writer


def reference_plain(value):
    """cli._plain as it was before gauge and rho returned int columns: each
    Fraction in json_scalar's form and each tuple a list, with a Values
    column first turned into its Fractions."""
    if isinstance(value, dict):
        return {k: reference_plain(v) for k, v in value.items()}
    if isinstance(value, Values):
        return [json_scalar(Fraction(n, d)) for n, d in zip(*value)]
    if isinstance(value, (tuple, list)):
        return [reference_plain(v) for v in value]
    if isinstance(value, Fraction):
        return json_scalar(value)
    return value


def reference_render(report: dict) -> str:
    """Reference for cli._render(report, "json"): json.dumps(indent=2),
    json's pure-Python encoder, over reference_plain(report)."""
    return json.dumps(reference_plain(report), indent=2)
