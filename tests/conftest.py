"""Shared oracles and generators.

The oracles recompute results by routes independent of the library code:
brute-force vertex enumeration for linear programs, the Fraction-tableau
simplex that the integer one replaced, bisection on membership for the
gauge, direct arithmetic re-verification of certificates (the checker
whose optimal and Farkas branches each had their own dual test),
Fraction-arithmetic sample mixes and lattice scans, the recession-cone
test that the library no longer calls (in_recession), the recession-cone
LPs that decided boundedness before the support LPs at the axes did, the
margin LP that found exposed witnesses before the support LP did, the multiplier
LP over the polar's points that the off-recession check posed before it
read support(polar(h), x), the sandwich, reconstruction and off-recession
checks point by point, from before they ran as int column passes over one
sample block, and the property suite built on them and fed rational
samples, check-cut's one LP per lattice point,
check-cut's scan and the hull test with their LPs posed in Fractions,
from before every library LP was posed in ints, and the support LPs over
a set's Fraction rows with the generator sets summed in Fractions and
every generator checked by an LP, from before every such LP read the
set's compiled int rows and drawn generators carried their weights,
every program row read through integer_rows as lp.solve read
it before it took an all-int row as it is, the redundancy filter over
Fraction rows (with the ray test taken in Fractions, or with an LP for
every row as before there was one), the cut body's margins and scan
half-spaces by Fraction dot products, from before make_body and the scan
read them in ints, the scan over every prefix of the radius box with
is_s_free and maximality_certificate testing each of its points by
membership and boundedness decided by 2 * dim support LPs, from before
the scan narrowed its prefix ranges by projected rows and judged each
slice whole, violation_box's tips in Fractions, the CLI's JSON writer from before it had its own,
over json's pure-Python indent=2 encoder, and the readers of a set's and a
body's rows entry by entry, from before they were read to ints. They are deliberately slow and
simple. make_program and make_instance build a LinearProgram and a
CornerInstance from JSON-level scalars for the tests, and unimodular_body
the images of boxes, simplices and splits that the benchmark's bodies are.
"""

from __future__ import annotations

import json
import math
import random
from collections import Counter, namedtuple
from fractions import Fraction
from itertools import combinations, product
from operator import add, mul

import pytest

from polarcut import cuts, jsonio, polyhedra, sublinear
from polarcut import lp as lp_module
from polarcut.cuts import (
    AnchorNotInteriorError,
    CornerInstance,
    CutViolation,
    ValidityReport,
)
from polarcut.lp import LinearProgram, LPOutcome, solve
from polarcut.polyhedra import (
    HPolyhedron,
    HullVerdict,
    OriginNotInteriorError,
    VPolytope,
    membership,
    normalize,
)
from polarcut.rationals import (
    ONE,
    ZERO,
    Scaled,
    Values,
    dot,
    integer_rows,
    is_zero_vector,
    json_scalar,
    parse_rational,
    scaled,
    unscaled,
    vector,
    zero_vector,
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


# ----------------------------------------------------- coercing constructors


def make_program(direction, objective, rows, bounds=None) -> LinearProgram:
    """A LinearProgram from JSON-level scalars, each read by parse_rational;
    bounds default to nonneg on every variable."""
    obj = vector(objective)
    rows_t = tuple(
        (vector(coeffs), rel, parse_rational(rhs)) for coeffs, rel, rhs in rows
    )
    if bounds is None:
        bounds = ("nonneg",) * len(obj)
    return LinearProgram(direction, obj, rows_t, tuple(bounds))


def make_instance(dim, f, rays, p_rows=(), p_rhs=()) -> CornerInstance:
    """A CornerInstance from JSON-level scalars, each read by parse_rational."""
    return CornerInstance(
        dim,
        vector(f),
        tuple(vector(r) for r in rays),
        tuple(vector(r) for r in p_rows),
        tuple(parse_rational(b) for b in p_rhs),
    )


# The fields of a CornerInstance as rational tuples: f and each ray a
# Fraction vector, P's rows Fraction vectors and P's right-hand sides one.
# The Fraction references below read an instance in this form.
RationalInstance = namedtuple("RationalInstance", "dim f rays p_rows p_rhs")


def rational_instance(inst) -> RationalInstance:
    """inst's int fields read back to rationals (unscaled); a
    RationalInstance comes back the same."""
    return RationalInstance(
        inst.dim,
        unscaled(inst.f),
        tuple(map(unscaled, inst.rays)),
        tuple(map(unscaled, inst.p_rows)),
        unscaled(inst.p_rhs),
    )


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
    return make_program(direction, objective, rows, bounds)


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


def in_recession(h: HPolyhedron, x) -> bool:
    """Is x in the recession cone {x : <a_i, x> <= 0} of h? Every pairing
    with the rows at most 0, by polyhedra.pairings; x in either form. It
    was polyhedra.in_recession until the library stopped calling it."""
    values, _ = polyhedra.pairings(h.compiled, x)
    return all(v <= 0 for v in values)


def rational_samples(h: HPolyhedron, seed: int, count: int) -> tuple:
    """sublinear.sample_points as rational tuples, once every point is seen
    to be a Scaled of width h.dim."""
    points = sublinear.sample_points(h, seed, count)
    assert all(type(x) is Scaled and len(x.ints) == h.dim for x in points)
    return tuple(map(unscaled, points))


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


def per_point_sandwich_check(h: HPolyhedron, gens: VPolytope, samples):
    """Reference for sublinear.sandwich_check: both pairings and the
    comparison point by point, from before the checks ran as column
    passes over one sample block."""
    if not sublinear.check_unit_ball(gens, h):
        raise ValueError(
            "candidate generators are not a unit-ball representation of the set"
        )
    violations = []
    count = 0
    for x in samples:
        count += 1
        # low / s_low <= mid / s_mid <= max(low, 0) / s_low, cross-multiplied
        # by the positive scales.
        rho, s_low = polyhedra.pairings(h.compiled, x)
        sigma, s_mid = polyhedra.pairings(gens.compiled, x)
        low = max(rho)
        mid = max(sigma)
        if not low * s_mid <= mid * s_low <= max(low, 0) * s_mid:
            violations.append(
                (
                    unscaled(x),
                    sublinear.minimal_sublinear(h, x),
                    sublinear.support(gens, x),
                    sublinear.gauge(h, x),
                )
            )
    return sublinear.SandwichReport(count, tuple(violations), not violations)


def per_point_reconstruct_check(h: HPolyhedron, samples) -> bool:
    """Reference for sublinear.reconstruct_check: the evaluators point by
    point, each boundary rescaling built at the reduced gauge."""
    for x in samples:
        rho = sublinear.minimal_sublinear(h, x)
        inside = membership(h, x).position != "outside"
        if inside != (rho <= 1):
            return False
        g = sublinear.gauge(h, x)
        if g > 0:
            ints, den = scaled(x)
            on_boundary = Scaled(
                tuple(v * g.denominator for v in ints), den * g.numerator
            )
            if sublinear.minimal_sublinear(h, on_boundary) != 1:
                return False
    return True


def per_point_off_recession_check(h: HPolyhedron, x) -> bool:
    """Reference for sublinear.off_recession_check: minimal_sublinear, the
    gauge and support(polar(h), x) at the one point, polar(h) built for it."""
    if in_recession(h, x):
        raise ValueError("sample lies in the recession cone")
    rho = sublinear.minimal_sublinear(h, x)
    return rho == sublinear.gauge(h, x) and rho == sublinear.support(
        sublinear.polar(h), x
    )


def _one_scale_up(column: polyhedra.ColumnMax) -> polyhedra.ColumnMax:
    """Every value of a ColumnMax plus 1: each top raised by its scale."""
    return polyhedra.ColumnMax(list(map(add, column.tops, column.scales)), column.scales)


def raise_rho(mp: pytest.MonkeyPatch) -> None:
    """The fault rho + 1 on the column route: h's column maxima, as the
    reconstruction and off-recession checks read them, one higher. The
    sandwich compares the same maxima in ints of its own and is spared,
    as it was when the fault was minimal_sublinear + 1."""
    reconstruct = sublinear._reconstruct_holds
    misses = sublinear._off_recession_misses
    mp.setattr(
        sublinear,
        "_reconstruct_holds",
        lambda h, points, block, rho: reconstruct(h, points, block, _one_scale_up(rho)),
    )
    mp.setattr(
        sublinear,
        "_off_recession_misses",
        lambda rho, polar_max, ks: misses(_one_scale_up(rho), polar_max, ks),
    )


def zero_witness(mp: pytest.MonkeyPatch, routes=("ray", "lp")) -> None:
    """The fault of a zero exposed point on the given routes of
    exposed_point: each row that a ray proves ("ray") or only the LP
    proves ("lp") gets the origin, tight on no row, as its witness; a row
    on another route keeps its own, and a redundant row keeps None. Only
    sublinear's binding of exposed_point is patched, so normalize keeps
    its rows, and check_unit_ball, which reads only whether the answer is
    None, keeps its verdicts."""
    prove = sublinear.exposed_point

    def zero(r, others, den):
        route = "lp" if polyhedra.ray_certificate(r, others, den) is None else "ray"
        x = prove(r, others, den)
        return x if x is None or route not in routes else Scaled((0,) * len(r), 1)

    mp.setattr(sublinear, "exposed_point", zero)


def raise_polar_support(mp: pytest.MonkeyPatch) -> None:
    """The fault support(polar(h), x) + 1 on the column route: the polar's
    column maxima, as the off-recession check reads them, one higher."""
    misses = sublinear._off_recession_misses
    mp.setattr(
        sublinear,
        "_off_recession_misses",
        lambda rho, polar_max, ks: misses(rho, _one_scale_up(polar_max), ks),
    )


def rational_property_suite(instances, seed: int, samples: int):
    """Reference for sublinear.property_suite: the same checks in the same
    order, each the per-point route above fed the rational samples, so
    every evaluator call scales its point again, and every row's witness
    the LP route on its Fraction rows (fraction_exposed_witness), a None
    counting as a failure. The evaluators and that witness are looked up
    on their modules at call time, so a test's monkeypatches reach this
    route too."""
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
        pts = rational_samples(h, seed + 7919 * index, samples)
        for c in range(sublinear.SUITE_CANDIDATES):
            gens = sublinear.random_unit_ball_rep(h, seed + 104729 * index + c, 5)
            report = per_point_sandwich_check(h, gens, pts)
            sandwich["pairs"] += 1
            sandwich["samples_checked"] += report.samples_checked
            sandwich["violations"] += len(report.violations)
            if report.violations and sandwich["first_violation"] is None:
                sandwich["first_violation"] = report.violations[0][0]
        recon["instances_checked"] += 1
        if not per_point_reconstruct_check(h, pts):
            recon["failures"] += 1
        for x in pts:
            if in_recession(h, x):
                continue
            off["samples_checked"] += 1
            if not per_point_off_recession_check(h, x):
                off["violations"] += 1
                if off["first_violation"] is None:
                    off["first_violation"] = x
        for i in range(len(h.rows)):
            exposed["rows_checked"] += 1
            witness = fraction_exposed_witness(h, i)
            if witness is None or membership(h, witness).tight_rows != (i,):
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
    """Reference for polyhedra.exposed_point's LP witness (lp_exposed_point):
    the margin LP that its support LP replaced.
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
    """Reference for the rows and the objective that lp.solve reads through
    rationals.scaled: integer_rows of the vector, an all-int one included,
    as lp.solve read each of them before it took a tuple of ints as it
    is."""
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
    """Reference for the support LP that polyhedra.exposed_point poses:
    max <v, x> over the rational rows themselves, each posed as (a, '<=',
    1)."""
    return lp_module.solve(
        LinearProgram(
            direction="max",
            objective=v,
            rows=tuple((a, "<=", ONE) for a in rows),
            bounds=("free",) * len(v),
        )
    )


def fraction_sup_over(rows, v):
    """The support function of {x : <a, x> <= 1 for a in rows} at v, by
    fraction_support_lp: its value, None when unbounded. v lies in the
    polar exactly when it is at most 1, and a row v is redundant among
    the rows exactly then."""
    outcome = fraction_support_lp(rows, v)
    if outcome.status == "unbounded":
        return None
    assert outcome.status == "optimal", outcome.status
    return outcome.value


def fraction_ray_proves(a_i, others) -> bool:
    """Reference for polyhedra.ray_certificate's verdict, in Fractions:
    whether some direction c tried has t = <a_i, c> > 0 above <a, c> for
    every other row a (the ray along c leaves {x : <a, x> <= 1} through
    a_i alone). The directions are a_i (the Gram test), then, signed so
    that t > 0, the normals of the first three sets of n - 1 rows drawn
    from the n other rows with the largest <a, a_i> (a stable sort: ties
    in input order), each solved for by Gaussian elimination: the first
    of the systems [rows; e_j] c = e_n that is not singular."""
    dim = len(a_i)

    def leaves(c):
        t = dot(a_i, c)
        if t < 0:
            c, t = vscale(-1, c), -t
        return t > 0 and all(dot(a, c) < t for a in others)

    if leaves(a_i):
        return True
    top = sorted(range(len(others)), key=lambda k: -dot(others[k], a_i))[:dim]
    for basis in list(combinations(top, dim - 1))[:3] if dim > 1 else ():
        rows = [others[k] for k in basis]
        rhs = (ZERO,) * (dim - 1) + (ONE,)
        for j in range(dim):
            c = solve_square(rows + [tuple(ONE if i == j else ZERO for i in range(dim))], rhs)
            if c is not None:
                if leaves(c):
                    return True
                break
    return False


def fraction_search_proves(a_i, others) -> bool:
    """Reference for polyhedra's basis search on a row a_i among the other
    rows, in Fractions: whether some n-subset B of the n + 2 other rows
    with the largest <a, a_i> (a stable sort: ties in input order) solves
    sum_j lambda_j b_j = a_i, by Gaussian elimination on B's columns,
    with lambda >= 0 and sum lambda <= 1. Then a_i lies in conv({0} union
    others), so it is redundant. The rows may be ints: the verdict does
    not change when every row is scaled by one positive factor. Above
    polyhedra._SEARCH_DIM, where the library tries no basis, it is
    False."""
    dim = len(a_i)
    if dim > polyhedra._SEARCH_DIM:
        return False
    top = sorted(range(len(others)), key=lambda k: -dot(others[k], a_i))[: dim + 2]
    for basis in combinations(top, dim):
        columns = zip(*(others[k] for k in basis))
        lam = solve_square([tuple(map(Fraction, c)) for c in columns], a_i)
        if lam is not None and min(lam) >= 0 and sum(lam) <= 1:
            return True
    return False


def fraction_remove_redundancy(dim: int, rows, ray_test: bool = True) -> HPolyhedron:
    """Reference for polyhedra.remove_redundancy, on rational rows or Scaled
    ones: a row that a ray proves irredundant (fraction_ray_proves, taken
    in Fractions) is kept and one that the basis search proves redundant
    (fraction_search_proves) is dropped, with no LP; every other row poses the
    remaining rational rows. With ray_test False every row poses its LP:
    the route from before the ray test and the search, whose kept rows
    must match."""
    kept = []
    for a in map(unscaled, rows):
        if a not in kept:
            kept.append(a)
    i = 0
    while i < len(kept):
        others = kept[:i] + kept[i + 1 :]
        if not others or (ray_test and fraction_ray_proves(kept[i], others)):
            i += 1
            continue
        if ray_test and fraction_search_proves(kept[i], others):
            kept.pop(i)
            continue
        top = fraction_sup_over(others, kept[i])
        if top is None or top > 1:
            i += 1
        else:
            kept.pop(i)
    return HPolyhedron(dim, tuple(kept))


def fraction_witness(a, others):
    """Reference for polyhedra.exposed_point's LP route on rational rows:
    the support LP of others at a (fraction_support_lp), its maximizer x
    of value above 1 or its improving ray x scaled onto a, x / <a, x>;
    None when the value is at most 1, a redundant a."""
    outcome = fraction_support_lp(others, a)
    if outcome.status == "unbounded":
        x, top = outcome.ray, dot(a, outcome.ray)
    elif outcome.status == "optimal" and outcome.value > 1:
        x, top = outcome.point, outcome.value
    else:
        assert outcome.status == "optimal", outcome.status
        return None
    return tuple(c / top for c in x)


def fraction_exposed_witness(h: HPolyhedron, row_index: int):
    """fraction_witness of row i of h among its other rows: the support LP
    at every row, as the library poses it only at a row no ray proves."""
    return fraction_witness(h.rows[row_index], h.rows[:row_index] + h.rows[row_index + 1 :])


def fraction_exposed_point(r, others, den: int):
    """Reference for polyhedra.exposed_point on int rows over den:
    ray_certificate's point where a ray proves r, as the library takes it,
    and on the rational rows r / den and s / den otherwise, None where
    fraction_search_proves r redundant, else fraction_witness."""
    x = polyhedra.ray_certificate(r, others, den)
    if x is not None:
        return x
    rows = [tuple(Fraction(c, den) for c in s) for s in (r, *others)]
    if fraction_search_proves(rows[0], rows[1:]):
        return None
    return fraction_witness(rows[0], rows[1:])


def ray_off(mp: pytest.MonkeyPatch) -> None:
    """polyhedra.exposed_point with no ray tried: every call that the basis
    search does not settle (search_off) poses its support LP, as the
    library does only where no ray proves the row."""
    mp.setattr(polyhedra, "ray_certificate", lambda r, others, den: None)


def search_off(mp: pytest.MonkeyPatch) -> None:
    """polyhedra's basis search with no basis tried: exposed_point and
    is_bounded pose their LP wherever the search would settle the
    question, as the library does only where it cannot."""
    mp.setattr(polyhedra, "_basis_weights", lambda t, rows, capped=False: None)


def polar_question(h: HPolyhedron, v) -> tuple:
    """(r, others, den): the exposed_point question that check_unit_ball
    asks of a generator v of h, v's ints over its least denominator d
    times h's den, and each of h's compiled rows times d, all over den *
    d. v lies in the polar of h exactly when its answer is None."""
    ints, d = scaled(v)
    rows, den = h.compiled
    return tuple(den * c for c in ints), [tuple(d * c for c in r) for r in rows], den * d


def lp_exposed_point(h: HPolyhedron, row_index: int):
    """polyhedra.exposed_point at row i of h among its other rows, with the
    ray and the basis search off: the support LP, posed in ints, at every
    row. It calls lp_module.solve, so a recording of that function sees
    it."""
    rows, den = h.compiled
    with pytest.MonkeyPatch.context() as mp:
        ray_off(mp)
        search_off(mp)
        return polyhedra.exposed_point(
            rows[row_index], rows[:row_index] + rows[row_index + 1 :], den
        )


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


def polar_support_lp(h: HPolyhedron, x):
    """sup of <x, .> over the polar, computed as an LP over exact convex
    multipliers of {0} union rows: the LP route that sublinear's
    off-recession check took before it read support(polar(h), x). The
    objective is polyhedra.pairings of x with the rows, shared with the
    direct evaluators; only the maximum, taken by the LP, is an
    independent step. The pairings' one positive scale divides the
    optimum. The program is posed in ints, its one row the simplex's."""
    values, scale = polyhedra.pairings(h.compiled, x)
    npts = len(values) + 1
    outcome = lp_module.solve(
        LinearProgram(
            direction="max",
            objective=(0, *values),
            rows=(((1,) * npts, "=", 1),),
            bounds=("nonneg",) * npts,
        )
    )
    if outcome.status != "optimal":
        raise RuntimeError(
            f"polar support LP is {outcome.status} over a nonempty simplex"
        )
    return outcome.value / scale


def fraction_random_unit_ball_rep(h: HPolyhedron, seed: int, count: int) -> VPolytope:
    """Reference for sublinear.random_unit_ball_rep: each point a Fraction
    sum over the polar's points, the origin first, told apart from the
    rows and the earlier points by hashing the Fraction tuples, and kept
    with its weights."""
    rng = random.Random(seed)
    anchors = polyhedra.polar(h).points
    gens = list(h.rows)
    claims = [None] * len(gens)
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
            claims.append(tuple(weights))
    return VPolytope(h.dim, tuple(gens), tuple(claims))


def use_fraction_routes(mp: pytest.MonkeyPatch) -> None:
    """Put the references above in place of the routes they replaced, where
    normalize and property_suite look them up."""
    mp.setattr(polyhedra, "remove_redundancy", fraction_remove_redundancy)
    mp.setattr(sublinear, "check_unit_ball", fraction_check_unit_ball)
    mp.setattr(sublinear, "exposed_point", fraction_exposed_point)
    mp.setattr(sublinear, "random_unit_ball_rep", fraction_random_unit_ball_rep)


# ------------------------------------------------------- unimodular bodies


def unimodular(rng: random.Random, dim: int, ops: int) -> tuple:
    """A seeded unimodular int matrix U and its inverse V: the identity
    after ops column operations, each adding k times one column to another
    (0 < |k| <= 3), with V taking the inverse row operation each time."""
    u = [[int(i == j) for j in range(dim)] for i in range(dim)]
    v = [row[:] for row in u]
    for _ in range(ops if dim > 1 else 0):
        i, j = rng.sample(range(dim), 2)
        k = rng.choice((-3, -2, -1, 1, 2, 3))
        for row in u:  # U (I + k e_i e_j^T)
            row[j] += k * row[i]
        v[i] = [a - k * b for a, b in zip(v[i], v[j])]  # (I - k e_i e_j^T) V
    return u, v


def unimodular_body(rng: random.Random, kind: str, dim: int, ops: int) -> tuple:
    """(rows, rhs, f) of a body {x : <a_i, x> <= b_i}, the image under
    y = U x (U from unimodular) of the box {0 <= y <= 1}, the simplex
    {y >= 0, sum y <= dim} or the split {0 <= y_1 <= 1}, as the
    benchmark's bodies are built, about f = U^-1 y_f for a seeded y_f
    with every coordinate in (0, 1), in the body's interior. The rows come
    in a seeded order."""
    u, v = unimodular(rng, dim, ops)
    units = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
    negated = [tuple(-c for c in e) for e in units]
    if kind == "box":
        y_rows = [(e, 1) for e in units] + [(e, 0) for e in negated]
    elif kind == "simplex":
        y_rows = [(e, 0) for e in negated] + [((1,) * dim, dim)]
    else:
        y_rows = [(units[0], 1), (negated[0], 0)]
    rng.shuffle(y_rows)
    y_f = [Fraction(rng.randint(1, 3), 4) for _ in range(dim)]
    rows = [tuple(sum(g[i] * u[i][j] for i in range(dim)) for j in range(dim)) for g, _ in y_rows]
    f = tuple(sum(v[j][i] * y_f[i] for i in range(dim)) for j in range(dim))
    return rows, [h for _, h in y_rows], f


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
    inst = rational_instance(inst)
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
    f = unscaled(f)
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
    inst = rational_instance(inst)
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
    f = unscaled(inst.f)
    for z in fraction_region_points(inst, radius):
        if all(dot(a, vsub(z, f)) < 1 for a in body.rows):
            return z
    return None


def per_facet_uncertified(body, inst, radius):
    """Reference for maximality_certificate's facet verdicts: one region
    scan per facet, looking for a point tight on that facet and strictly
    slack on every other row, by Fraction pairings."""
    rows, f = body.rows, unscaled(inst.f)
    uncertified = []
    for i in range(len(rows)):
        for z in fraction_region_points(inst, radius):
            values = [dot(a, vsub(z, f)) for a in rows]
            if values[i] == 1 and all(
                v < 1 for j, v in enumerate(values) if j != i
            ):
                break
        else:
            uncertified.append(i)
    return tuple(uncertified)


def plain_region_points(inst, radius, body=None, box=None):
    """Reference for cuts.region_lattice_points from before it narrowed
    its prefix ranges: every prefix of the clipped radius box in the first
    dim - 1 coordinates, and at each one every half-space of
    fraction_half_spaces bounding the last coordinate."""
    half_spaces = fraction_half_spaces(inst, body)
    f = unscaled(inst.f)
    ranges = [range(c - radius, c + radius + 1) for c in map(nearest_int, f)]
    if box is not None:
        ranges = [
            range(
                r.start if lo is None else max(r.start, lo),
                r.stop if hi is None else min(r.stop, hi + 1),
            )
            for r, (lo, hi) in zip(ranges, box)
        ]
    *ranges, last = ranges
    for prefix in product(*ranges):
        lo, hi = last.start, last.stop - 1
        for head, c, b in half_spaces:
            rest = b - sum(map(mul, head, prefix))
            if c > 0:
                hi = min(hi, rest // c)
            elif c < 0:
                lo = max(lo, -(rest // -c))
            elif rest < 0:
                hi = lo - 1
        for v in range(lo, hi + 1):
            yield prefix + (v,)


def per_point_is_s_free(body, inst, radius):
    """Reference for cuts.is_s_free from before it judged slices whole:
    membership at every point of the plain scan of the region, the first
    interior one the witness."""
    f = scaled(inst.f)
    for z in plain_region_points(inst, radius, body):
        if membership(body, cuts._offset(z, f)).position == "interior":
            return cuts.SFreeVerdict(False, radius, vector(z))
    return cuts.SFreeVerdict(True, radius, None)


def axis_sup_bounded(h: HPolyhedron) -> bool:
    """Reference for polyhedra.is_bounded: the support function finite at
    +e_d and -e_d for every axis d, 2 * dim LPs, as maximality_certificate
    decided boundedness before one LP did."""
    return all(
        fraction_sup_over(h.rows, tuple(s if j == d else 0 for j in range(h.dim)))
        is not None
        for d in range(h.dim)
        for s in (1, -1)
    )


def per_point_maximality_certificate(body, inst, radius):
    """Reference for cuts.maximality_certificate from before it judged
    slices whole and decided boundedness by one LP: membership's tight
    rows at every point of the plain scan, and axis_sup_bounded."""
    heuristic = bool(inst.p_rows) or not axis_sup_bounded(body)
    uncertified = set(range(len(body.rows)))
    f = scaled(inst.f)
    for z in plain_region_points(inst, radius, body):
        tight = membership(body, cuts._offset(z, f)).tight_rows
        if len(tight) == 1:
            uncertified.discard(tight[0])
    return cuts.MaximalityReport(
        certified=not uncertified,
        radius=radius,
        uncertified_facets=tuple(sorted(uncertified)),
        heuristic=heuristic,
    )


def fraction_violation_box(inst, alpha):
    """Reference for cuts.violation_box from before it compared the tips
    in ints: each tip r_j / alpha_j a Fraction vector, and math.ceil and
    math.floor of f_d plus the least and greatest coordinate."""
    if any(a < 0 for a in alpha):
        return None
    inst = rational_instance(inst)
    tips = [[Fraction(c, a) for c in r] for a, r in zip(alpha, inst.rays) if a > 0]
    free = [r for a, r in zip(alpha, inst.rays) if a == 0]
    box = []
    for d, f_d in enumerate(inst.f):
        coords = [ZERO] + [tip[d] for tip in tips]
        lo = None if any(r[d] < 0 for r in free) else math.ceil(f_d + min(coords))
        hi = None if any(r[d] > 0 for r in free) else math.floor(f_d + max(coords))
        box.append((lo, hi))
    return tuple(box)


def per_point_check_cut_validity(inst, cut, radius):
    """Reference for cuts.check_cut_validity: one exact min-LP at every
    region point of the Fraction scan, with no certificate reused. lp.solve
    is looked up on its module at call time, so a monkeypatch that counts
    solves sees these too. Its scope is "global" for a violation and
    "region" otherwise: a scan of the radius box proves nothing beyond it."""
    if len(cut.alpha) != len(inst.rays):
        raise ValueError("one coefficient per ray required")
    inst = rational_instance(inst)
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


def fraction_check_cut_validity(inst, cut, radius):
    """Reference for cuts.check_cut_validity: the same scan of violation_box
    with the same certificate cache, each LP posed in Fractions (the rays,
    the offset z - f and alpha as they are), as before every library LP
    was posed in ints. lp.solve is looked up on its module at call time,
    so programs_logged sees these LPs too."""
    if len(cut.alpha) != len(inst.rays):
        raise ValueError("one coefficient per ray required")
    columns = tuple(zip(*map(unscaled, inst.rays)))  # coordinate d of every ray
    bounds = ("nonneg",) * len(inst.rays)
    box = cuts.violation_box(inst, cut.alpha)
    box_scanned = box is not None and (
        any(lo is not None and hi is not None and lo > hi for lo, hi in box)
        or all(
            lo is not None and hi is not None and c - radius <= lo and hi <= c + radius
            for (lo, hi), c in zip(box, map(round, unscaled(inst.f)))
        )
    )
    f = scaled(inst.f)
    farkas = []  # y: z is unreachable if <y, z - f> < 0
    duals = []  # (u, den): value >= 1 at z if <u, z - f> >= den, in ints
    for z in cuts.region_lattice_points(inst, radius, box=box):
        offset = cuts._offset(z, f)
        t = offset.ints
        if any(sum(map(mul, y, t)) < 0 for y in farkas) or any(
            sum(map(mul, u, t)) >= den for u, den in duals
        ):
            continue
        rows = tuple((col, "=", c) for col, c in zip(columns, unscaled(offset)))
        program = LinearProgram(
            direction="min", objective=cut.alpha, rows=rows, bounds=bounds
        )
        outcome = lp_module.solve(program)
        if outcome.status == "unbounded":
            return ValidityReport(
                False, radius, "global", CutViolation(vector(z), outcome.ray, True)
            )
        if outcome.status == "optimal" and outcome.value < 1:
            return ValidityReport(
                False, radius, "global", CutViolation(vector(z), outcome.point, False)
            )
        if not lp_module.verify_certificate(program, outcome):
            raise RuntimeError(
                f"the {outcome.status} certificate at z = {z} fails "
                "lp.verify_certificate"
            )
        (row,), den = integer_rows((outcome.dual,))
        if outcome.status == "infeasible":
            farkas.append(row)
        else:
            duals.append((row, den * f.den))
    return ValidityReport(True, radius, "global" if box_scanned else "region")


def fraction_hull_membership(p, v: VPolytope) -> HullVerdict:
    """Reference for polyhedra.hull_membership: its LP posed in Fractions,
    the polytope's points and p as they are."""
    if len(p) != v.dim:
        raise ValueError("point width differs from polytope dimension")
    for k, q in enumerate(v.points):
        if q == p:
            mults = [ZERO] * len(v.points)
            mults[k] = ONE
            return HullVerdict(inside=True, multipliers=tuple(mults))
    npts = len(v.points)
    rows = []
    for d in range(v.dim):
        rows.append((tuple(q[d] for q in v.points), "=", p[d]))
    rows.append(((ONE,) * npts, "=", ONE))
    outcome = lp_module.solve(
        LinearProgram(
            direction="max",
            objective=zero_vector(npts),
            rows=tuple(rows),
            bounds=("nonneg",) * npts,
        )
    )
    if outcome.status == "optimal":
        return HullVerdict(inside=True, multipliers=outcome.point)
    if outcome.status != "infeasible":
        raise RuntimeError(
            f"hull LP is {outcome.status} although its objective is 0"
        )
    u = outcome.dual
    c = tuple(-u[d] for d in range(v.dim))
    gamma = u[v.dim]
    return HullVerdict(inside=False, separator=(c, gamma))


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


# ---------------------------------------------------------- JSON row readers


def _reference_table(value, path: str, width: int) -> list:
    """value, a list of rows, each read entry by entry by vector_from_json."""
    if not isinstance(value, list):
        jsonio._fail(path, "expected a list")
    return [jsonio.vector_from_json(row, f"{path}[{i}]", width) for i, row in enumerate(value)]


def _reference_rows(obj, dim: int, path: str = "") -> tuple:
    """The "rows", then the "rhs", of the object at path, read entry by
    entry by vector_from_json."""
    rows = _reference_table(*jsonio._field(obj, "rows", path), dim)
    return rows, jsonio.vector_from_json(*jsonio._field(obj, "rhs", path), len(rows))


def reference_polyhedron_from_json(obj):
    """Reference for jsonio.polyhedron_from_json: rows and right-hand
    sides read entry by entry by vector_from_json, then normalized, as
    before they were read to ints."""
    return normalize(*_reference_rows(obj, jsonio._dim_from_json(obj)))


def reference_body_from_json(obj, f):
    """Reference for jsonio.body_from_json, read as
    reference_polyhedron_from_json reads a set, then make_body; f as a
    Scaled or a rational tuple."""
    return cuts.make_body(*_reference_rows(obj, len(unscaled(f)), "body"), f)


def reference_points_from_json(obj, dim: int):
    """Reference for jsonio.points_from_json: every point read entry by
    entry by vector_from_json, then laid out as one block of int columns,
    each point over its least denominator."""
    points = list(map(scaled, _reference_table(*jsonio._field(obj, "points"), dim)))
    return tuple([x.ints[j] for x in points] for j in range(dim)), [x.den for x in points]


def reference_corner_instance_from_json(obj):
    """Reference for jsonio.corner_instance_from_json: f, then each ray,
    then P's rows and right-hand sides, read entry by entry by
    vector_from_json."""
    dim = jsonio._dim_from_json(obj, "instance")
    f = jsonio.vector_from_json(*jsonio._field(obj, "f", "instance"), dim)
    rays = _reference_table(*jsonio._field(obj, "rays", "instance"), dim)
    p_rows, p_rhs = (), ()
    if obj.get("P") is not None:
        p_rows, p_rhs = _reference_rows(obj["P"], dim, "instance.P")
    return CornerInstance(dim, f, rays, p_rows, p_rhs)
