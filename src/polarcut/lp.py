"""Exact linear programming with self-verifying certificates.

A two-phase primal simplex over exact rationals with Bland's anti-cycling
rule, so termination is guaranteed and results are deterministic: the same
program always produces the identical outcome. Every outcome carries a
certificate that verify_certificate re-checks by direct arithmetic. The
program (LinearProgram, checked when built) and its outcome (LPOutcome)
are immutable named tuples:

* optimal   - a feasible point, its objective value, and dual multipliers
              whose combination proves the value (strong duality holds with
              exact equality, no tolerance);
* unbounded - a feasible recession direction with strict objective
              improvement (plus a feasible point witnessing nonemptiness);
* infeasible- a Farkas witness: row multipliers whose combination is a
              nonnegative functional on the feasible cone with a negative
              right-hand side.

verify_certificate is the library's one test of whether an outcome proves
its claim, and it runs in ints, as the simplex does: the program's rows
and objective over one denominator, each certificate vector over its
own. One dual test, dual_feasible, serves the optimal and the infeasible
outcome, and cuts.check_cut_validity, which calls verify_certificate on
each LP certificate before it caches one, runs dual_feasible itself on
the certificates it builds with no LP. A Farkas row is that test for
objective 0 under max: a dual feasible y bounds 0 = <0, x> <= <y, rhs>
for every feasible x, so a negative bound leaves no feasible x. One
primal test, primal_feasible, serves both the point and the ray, a ray
taking every right-hand side as 0, and polyhedra.proved_bounded runs it
itself on the weights its basis search finds.

Internal shape (invisible to callers): the program is converted to
``maximize`` over equality standard form. Free variables are split into
differences of nonnegative ones, inequality rows receive slacks, and rows
with negative right-hand sides are flipped. A row gets an artificial
variable only if it is an '=' row or a flipped one; every other row starts
basic on its slack, whose column is +1 just as an artificial's would be.
Phase 1 drives the artificials to zero and is skipped when there are none,
as for a program of '<=' rows with right-hand sides >= 0, which the origin
satisfies. The tableau is fraction-free: row i is a list of Python ints,
its right-hand side last, over one positive int denominator dens[i]. The
objective row has the same form with the objective value last, and is kept
as the tableau's last row. A pivot scales each row by the pivot entry,
subtracts, and divides out the gcd of the row and its denominator (Edmonds
1967, Bareiss 1968), so Bland's entering test reads the sign of an int and
the ratio test cross-multiplies right-hand sides and column entries, the
row denominators cancelling. A rational is built only for the outcome's
point, value, ray and duals.

Intake: rationals.scaled reads each row (*coeffs, b) and the objective
as ints over one positive denominator; a tuple of ints, as every library
caller poses it, is read as it is. One positive scale k on every row and
l on the objective keep Bland's choices, the point and the ray; the value
scales by l, the optimal duals by l / k, and a Farkas row not at all.

Row i's multiplier is read off the column it starts basic on, in the
final objective row, and mapped back through its flip and the direction:

* optimal: the reduced cost there, since slacks and artificials both cost
  0 in phase 2;
* infeasible: the phase-1 reduced cost plus the column's cost, which is
  -1 on an artificial and 0 on a slack.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import gcd, lcm
from numbers import Rational
from operator import mul

from .rationals import ZERO, Vec, over_lcm, scaled

MAX_PIVOTS = 200_000  # Bland's rule cannot cycle; this trips only on a bug.

_DIRECTIONS = ("max", "min")
_RELATIONS = ("<=", "=")
_BOUNDS = ("nonneg", "free")


class LinearProgram(namedtuple("LinearProgram", "direction objective rows bounds")):
    """direction in {max,min}; rows are (coeffs, '<=' or '=', rhs);
    bounds give each variable's domain, 'nonneg' or 'free'."""

    __slots__ = ()

    def __new__(cls, direction: str, objective: Vec, rows: tuple, bounds: tuple):
        if direction not in _DIRECTIONS:
            raise ValueError(f"direction must be one of {_DIRECTIONS}")
        n = len(objective)
        if n < 1:
            raise ValueError("a program needs at least one variable")
        if len(bounds) != n:
            raise ValueError("one bound per variable required")
        for b in bounds:
            if b not in _BOUNDS:
                raise ValueError(f"bound must be one of {_BOUNDS}")
        for coeffs, rel, _ in rows:
            if len(coeffs) != n:
                raise ValueError("row width differs from variable count")
            if rel not in _RELATIONS:
                raise ValueError(f"relation must be one of {_RELATIONS}")
        return super().__new__(cls, direction, objective, rows, bounds)


class LPOutcome(
    namedtuple("LPOutcome", "status point value ray dual", defaults=(None,) * 4)
):
    """status in {optimal, unbounded, infeasible}.

    point/value/dual are set when optimal; ray (and a feasible point) when
    unbounded; dual alone holds the Farkas witness when infeasible.
    """

    __slots__ = ()


def _pivot(tab, dens, basis, leave, enter):
    """Fraction-free Gauss-Jordan step on (leave, enter), in place.

    The pivot row becomes (row, its entry in the entering column) after a
    sign flip, which only a leftover-artificial pivot needs, and a gcd
    reduction. Every other row with a nonzero f in that column becomes
    row * p - f * pivot row over dens[i] * p, reduced by its gcd.
    """
    prow = tab[leave]
    p = prow[enter]
    if p < 0:
        prow = [-x for x in prow]
        p = -p
    g = gcd(*prow)
    if g > 1:
        prow = [x // g for x in prow]
        p //= g
    tab[leave] = prow
    dens[leave] = p
    basis[leave] = enter
    for i, row in enumerate(tab):
        f = row[enter]
        if f and i != leave:
            row = [a * p - f * b for a, b in zip(row, prow)]
            den = dens[i] * p
            g = gcd(den, *row)
            if g > 1:
                row = [x // g for x in row]
                den //= g
            tab[i] = row
            dens[i] = den


def _objective_row(tab, dens, basis, cost, cost_den):
    """(row, den) of the reduced costs -c + sum_i c[basis_i] * row_i with the
    objective value last, for the costs c = cost / cost_den: cost holds
    ints, one per column plus a 0 in the value's place."""
    used = [(cost[b], i) for i, b in enumerate(basis) if cost[b]]
    scale = lcm(*(dens[i] for _, i in used))
    objrow = [-c * scale for c in cost]
    for cb, i in used:
        k = cb * (scale // dens[i])
        objrow = [o + k * a for o, a in zip(objrow, tab[i])]
    den = cost_den * scale
    g = gcd(den, *objrow)
    if g > 1:
        objrow = [x // g for x in objrow]
        den //= g
    return objrow, den


def _run_simplex(tab, dens, basis, enter_cols):
    """Bland's rule on the objective row tab[-1]: entering = smallest
    eligible column index; leaving = minimum ratio rhs / entry, ties broken
    by smallest basis variable index."""
    m = len(basis)
    objrow = tab[-1]
    for _ in range(MAX_PIVOTS):
        enter = -1
        for j in enter_cols:
            if objrow[j] < 0:
                enter = j
                break
        if enter < 0:
            return "optimal", -1
        leave = -1
        for i in range(m):
            row = tab[i]
            a = row[enter]
            if a > 0:
                b = row[-1]
                if leave < 0:
                    leave, best_b, best_a = i, b, a
                    continue
                lhs = b * best_a
                rhs = best_b * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave, best_b, best_a = i, b, a
        if leave < 0:
            return "unbounded", enter
        _pivot(tab, dens, basis, leave, enter)
        objrow = tab[-1]
    raise RuntimeError("pivot limit exceeded; simplex invariant broken")


def solve(lp: LinearProgram) -> LPOutcome:
    """Deterministic exact solve; see module docstring for the certificates."""
    n = len(lp.objective)
    sense = 1 if lp.direction == "max" else -1

    # Column layout: split columns for the original variables, then slacks,
    # then one artificial for each '=' row and each row with a negative
    # right-hand side, in row order; the right-hand side is each row's last
    # entry. Every other row starts basic on its slack.
    ucols = []  # (original variable, sign)
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
    for i, (_, rel, b) in enumerate(lp.rows):
        if rel == "=" or b < 0:
            art_of[i] = col
            col += 1
    ncols = col

    tab = []
    dens = []
    flip = []
    pad = [0] * (ncols - nu)
    for i, (coeffs, rel, b) in enumerate(lp.rows):
        ints, den = scaled((*coeffs, b))
        s = -1 if ints[-1] < 0 else 1
        row = [s * sg * ints[j] for j, sg in ucols]
        row += pad
        row.append(s * ints[-1])
        if i in slack_of:
            row[slack_of[i]] = s * den
        if i in art_of:
            row[art_of[i]] = den
        tab.append(row)
        dens.append(den)
        flip.append(s)
    # Each row's multiplier is read off the column it starts basic on.
    start = [art_of.get(i, slack_of.get(i)) for i in range(m)]
    basis = list(start)

    # Phase 1: drive the artificials to zero.
    if art_of:
        cost1 = [0] * art0 + [-1] * len(art_of) + [0]
        objrow, den = _objective_row(tab, dens, basis, cost1, 1)
        tab.append(objrow)
        dens.append(den)
        status, _ = _run_simplex(tab, dens, basis, range(ncols))
        if status != "optimal":
            raise RuntimeError(
                f"phase 1 is {status} although its objective is bounded by 0"
            )
        objrow = tab.pop()
        den = dens.pop()
        if objrow[-1] < 0:
            # Farkas witness y = c_B B^-1, read off each row's starting
            # column: objrow = y - cost there, the cost being -1 on an
            # artificial and 0 on a slack.
            dual = tuple(
                Fraction(flip[i] * (objrow[c] + cost1[c] * den), den)
                for i, c in enumerate(start)
            )
            return LPOutcome(status="infeasible", dual=dual)
        # Pivot leftover artificials out of the basis (always degenerate,
        # rhs 0). A row with no nonzero structural entry is linearly
        # dependent on the others and stays inert with its artificial
        # parked at zero.
        for i in range(m):
            if basis[i] >= art0:
                enter = next(
                    (j for j in range(art0) if tab[i][j] != 0), -1
                )
                if enter >= 0:
                    _pivot(tab, dens, basis, i, enter)

    # Phase 2: the real objective over the structural columns.
    obj_ints, obj_den = scaled(lp.objective)
    cost2 = [0] * (ncols + 1)
    for k, (j, sg) in enumerate(ucols):
        cost2[k] = sg * sense * obj_ints[j]
    objrow, den = _objective_row(tab, dens, basis, cost2, obj_den)
    tab.append(objrow)
    dens.append(den)
    status, enter = _run_simplex(tab, dens, basis, range(art0))

    # A free variable's two columns are opposite, so at most one is basic.
    point = [ZERO] * n
    for i, b in enumerate(basis):
        if b < nu:
            j, sg = ucols[b]
            point[j] = Fraction(sg * tab[i][-1], dens[i])
    point = tuple(point)

    if status == "unbounded":
        ray = [ZERO] * n
        if enter < nu:
            j, sg = ucols[enter]
            ray[j] += sg
        for i, b in enumerate(basis):
            t = tab[i][enter]
            if t and b < nu:
                j, sg = ucols[b]
                ray[j] -= Fraction(sg * t, dens[i])
        return LPOutcome(status="unbounded", point=point, ray=tuple(ray))

    objrow, den = tab[-1], dens[-1]
    duals = tuple(
        Fraction(sense * flip[i] * objrow[c], den) for i, c in enumerate(start)
    )
    return LPOutcome(
        status="optimal",
        point=point,
        value=Fraction(sense * objrow[-1], den),
        dual=duals,
    )


def primal_feasible(rows, relations, bounds, x, homogeneous: bool = False) -> bool:
    """The one primal test, in ints, the twin of dual_feasible: whether x
    = X / x_den, a Scaled or an (X, x_den) pair, meets the bounds and
    every int row (coeffs..., rhs) under its relation: <coeffs, X> against
    x_den rhs (map stops at X's end, before rhs). homogeneous takes each
    right-hand side as 0, which makes it the test of a recession ray."""
    ints, den = x
    if any(b == "nonneg" and v < 0 for b, v in zip(bounds, ints)):
        return False
    for row, rel in zip(rows, relations):
        lhs = sum(map(mul, row, ints))
        rhs = 0 if homogeneous else row[-1] * den
        if lhs > rhs or (rel == "=" and lhs != rhs):
            return False
    return True


def dual_feasible(u, columns, costs, bounds, is_max: bool, signed=()) -> bool:
    """The one dual test, in ints: whether the multipliers u are dual
    feasible for a program whose variable j has the int column columns[j]
    (its coefficient in each row), the int cost costs[j] and the bound
    bounds[j], all at one scale. <u, columns[j]> must dominate costs[j]
    (>= under max, <= under min) on a nonneg variable and equal it on a
    free one, and u_i must have the direction's sign (>= 0 under max,
    <= 0 under min) at each index i in signed, the '<=' rows. By weak
    duality <u, rhs> then caps (max) or floors (min) the objective, at
    the same scale, over every feasible point."""
    if any(u[i] < 0 if is_max else u[i] > 0 for i in signed):
        return False
    for col, c, kind in zip(columns, costs, bounds):
        combo = sum(map(mul, u, col))
        if combo != c and (kind == "free" or (combo < c) == is_max):
            return False
    return True


def _read(vec, n: int):
    """vec as a Scaled of n ints over their least common denominator, or
    None when it is not n exact rationals."""
    try:
        x = scaled(tuple(vec))
    except (TypeError, ValueError):
        return None
    return x if len(x.ints) == n else None


def verify_certificate(lp: LinearProgram, outcome: LPOutcome) -> bool:
    """Re-check an outcome by direct exact arithmetic, in ints: the rows
    (coeffs..., rhs) and the objective are read by scaled() and put over
    one denominator den, and each certificate vector over its own.

    optimal: the point is feasible, its objective value is the value, and
    the dual passes dual_feasible with a bound equal to the value.
    unbounded: the ray is a feasible direction that strictly improves the
    objective, and the point, if any, is feasible. infeasible: the Farkas
    row passes dual_feasible for objective 0 under max with a bound below
    0 (a feasible x would give 0 <= <y, rhs> < 0). Returns False on any
    mismatch, and on an outcome whose vectors are not exact rationals of
    the right length; never raises on a well-formed program.
    """
    is_max = lp.direction == "max"
    n, m = len(lp.objective), len(lp.rows)
    keys = [scaled((*coeffs, b)) for coeffs, _, b in lp.rows]
    keys.append(scaled(lp.objective))
    (*rows, objective), den = over_lcm(keys)
    relations = [rel for _, rel, _ in lp.rows]
    if outcome.status == "unbounded":
        ray = _read(outcome.ray, n)
        if ray is None or not primal_feasible(rows, relations, lp.bounds, ray, True):
            return False
        gain = sum(map(mul, objective, ray.ints))  # a strict gain needs a nonzero ray
        if not (gain > 0 if is_max else gain < 0):
            return False
        if outcome.point is None:
            return True
        point = _read(outcome.point, n)
        return point is not None and primal_feasible(rows, relations, lp.bounds, point)
    if outcome.status not in ("optimal", "infeasible"):
        return False
    u = _read(outcome.dual, m)
    if u is None:
        return False
    columns = list(zip(*rows))[:n] if rows else [()] * n
    signed = [i for i, rel in enumerate(relations) if rel == "<="]
    bound = sum(c * row[-1] for c, row in zip(u.ints, rows))
    if outcome.status == "infeasible":
        zero = (0,) * n
        return dual_feasible(u.ints, columns, zero, lp.bounds, True, signed) and bound < 0
    point, value = _read(outcome.point, n), outcome.value
    if point is None or not isinstance(value, Rational):
        return False
    # value = <objective, X> / (den x_den) = bound / (den u_den)
    return (
        primal_feasible(rows, relations, lp.bounds, point)
        and sum(map(mul, objective, point.ints)) * value.denominator
        == value.numerator * den * point.den
        and dual_feasible(
            u.ints, columns, [u.den * c for c in objective], lp.bounds, is_max, signed
        )
        and bound * value.denominator == value.numerator * den * u.den
    )
