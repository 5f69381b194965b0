"""Exact linear programming with self-verifying certificates.

A two-phase primal simplex over exact rationals with Bland's anti-cycling
rule, so termination is guaranteed and results are deterministic: the same
program always produces the identical outcome. Every outcome carries a
certificate that verify_certificate re-checks by direct arithmetic:

* optimal   - a feasible point, its objective value, and dual multipliers
              whose combination proves the value (strong duality holds with
              exact equality, no tolerance);
* unbounded - a feasible recession direction with strict objective
              improvement (plus a feasible point witnessing nonemptiness);
* infeasible- a Farkas witness: row multipliers whose combination is a
              nonnegative functional on the feasible cone with a negative
              right-hand side.

verify_certificate is the library's one test of whether an outcome proves
its claim; cuts.check_cut_validity calls it on each certificate before it
caches one. One dual test serves both the optimal and the infeasible
outcome. A Farkas row is that test for objective 0 under max: a dual
feasible y bounds 0 = <0, x> <= <y, rhs> for every feasible x, so a
negative bound leaves no feasible x. One feasibility test serves both the
point and the ray, a ray taking every right-hand side as 0.

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

Row i's multiplier is read off the column it starts basic on, in the
final objective row, and mapped back through its flip and the direction:

* optimal: the reduced cost there, since slacks and artificials both cost
  0 in phase 2;
* infeasible: the phase-1 reduced cost plus the column's cost, which is
  -1 on an artificial and 0 on a slack.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .rationals import ZERO, Vec, dot, integer_rows, parse_rational, vector

MAX_PIVOTS = 200_000  # Bland's rule cannot cycle; this trips only on a bug.

_DIRECTIONS = ("max", "min")
_RELATIONS = ("<=", "=")
_BOUNDS = ("nonneg", "free")


@dataclass(frozen=True)
class LinearProgram:
    """direction in {max,min}; rows are (coeffs, '<=' or '=', rhs);
    bounds give each variable's domain, 'nonneg' or 'free'."""

    direction: str
    objective: Vec
    rows: tuple
    bounds: tuple

    def __post_init__(self):
        if self.direction not in _DIRECTIONS:
            raise ValueError(f"direction must be one of {_DIRECTIONS}")
        n = len(self.objective)
        if n < 1:
            raise ValueError("a program needs at least one variable")
        if len(self.bounds) != n:
            raise ValueError("one bound per variable required")
        for b in self.bounds:
            if b not in _BOUNDS:
                raise ValueError(f"bound must be one of {_BOUNDS}")
        for coeffs, rel, _ in self.rows:
            if len(coeffs) != n:
                raise ValueError("row width differs from variable count")
            if rel not in _RELATIONS:
                raise ValueError(f"relation must be one of {_RELATIONS}")

    @classmethod
    def make(cls, direction, objective, rows, bounds=None):
        """Coercing constructor: each scalar goes through parse_rational."""
        obj = vector(objective)
        rows_t = tuple(
            (vector(coeffs), rel, parse_rational(rhs)) for coeffs, rel, rhs in rows
        )
        if bounds is None:
            bounds = ("nonneg",) * len(obj)
        return cls(direction, obj, rows_t, tuple(bounds))


@dataclass(frozen=True)
class LPOutcome:
    """status in {optimal, unbounded, infeasible}.

    point/value/dual are set when optimal; ray (and a feasible point) when
    unbounded; dual alone holds the Farkas witness when infeasible.
    """

    status: str
    point: Vec | None = None
    value: object | None = None
    ray: Vec | None = None
    dual: Vec | None = None


def _int_form(entries) -> tuple[tuple, int]:
    """integer_rows of one rational vector, as (ints, den). A vector of
    ints (bools excluded) is its own ints over 1 and is read as it is: the
    support LPs' rows and the polar simplex row arrive that way."""
    if set(map(type, entries)) == {int}:
        return entries, 1
    (ints,), den = integer_rows((entries,))
    return ints, den


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
        ints, den = _int_form((*coeffs, b))
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
    obj_ints, obj_den = _int_form(lp.objective)
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


def _feasible(lp: LinearProgram, x, homogeneous: bool = False) -> bool:
    """x meets the bounds and every row; homogeneous takes each right-hand
    side as 0, which makes it the test of a recession ray."""
    if x is None or len(x) != len(lp.objective):
        return False
    if any(b == "nonneg" and xj < 0 for b, xj in zip(lp.bounds, x)):
        return False
    for coeffs, rel, b in lp.rows:
        lhs = dot(coeffs, x)
        rhs = ZERO if homogeneous else b
        if lhs > rhs or (rel == "=" and lhs != rhs):
            return False
    return True


def _dual_bound(lp: LinearProgram, u, objective, is_max: bool):
    """<u, rhs> if u is dual feasible for the objective over lp's rows and
    bounds, else None: each '<=' row's multiplier has the direction's sign
    (>= 0 for max, <= 0 for min), and sum_i u_i a_i dominates the objective
    (>= for max, <= for min) on nonneg variables and equals it on free
    ones. By weak duality the bound then caps (max) or floors (min) the
    objective over every feasible point."""
    if u is None or len(u) != len(lp.rows):
        return None
    combo = [ZERO] * len(objective)
    bound = ZERO
    for ui, (coeffs, rel, b) in zip(u, lp.rows):
        if not ui:
            continue
        if rel == "<=" and (ui < 0 if is_max else ui > 0):
            return None
        for j, a in enumerate(coeffs):
            if a:
                combo[j] += ui * a
        bound += ui * b
    for cj, oj, kind in zip(combo, objective, lp.bounds):
        if cj != oj and (kind == "free" or (cj < oj if is_max else cj > oj)):
            return None
    return bound


def verify_certificate(lp: LinearProgram, outcome: LPOutcome) -> bool:
    """Re-check an outcome by direct exact arithmetic.

    optimal: the point is feasible, its objective value is the value, and
    the dual's bound equals it. unbounded: the ray is a feasible direction
    that strictly improves the objective, and the point, if any, is
    feasible. infeasible: the Farkas row is the dual test for objective 0
    under max with a bound below 0 (a feasible x would give
    0 <= <y, rhs> < 0). Returns False on any mismatch; never raises on a
    well-formed program.
    """
    is_max = lp.direction == "max"
    if outcome.status == "optimal":
        return (
            _feasible(lp, outcome.point)
            and dot(lp.objective, outcome.point) == outcome.value
            and _dual_bound(lp, outcome.dual, lp.objective, is_max) == outcome.value
        )
    if outcome.status == "unbounded":
        if not _feasible(lp, outcome.ray, homogeneous=True):
            return False
        gain = dot(lp.objective, outcome.ray)  # a strict gain needs a nonzero ray
        if not (gain > 0 if is_max else gain < 0):
            return False
        return outcome.point is None or _feasible(lp, outcome.point)
    if outcome.status == "infeasible":
        zero = (ZERO,) * len(lp.objective)
        bound = _dual_bound(lp, outcome.dual, zero, True)
        return bound is not None and bound < 0
    return False
