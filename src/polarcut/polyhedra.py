"""Polyhedral sets containing the origin in their interior, and their polars.

The central representation is the canonical H-form ``{x : <a_i, x> <= 1}``:
every right-hand side is scaled to 1, so a set is just its tuple of rows,
HPolyhedron(dim, rows); a generator set is VPolytope(dim, points). Both
are named tuples that cache their compiled form (below) outside the tuple,
where a VPolytope also keeps its polar_weights; remove_redundancy and
polar hand each set they build that form. normalize() is the only
sanctioned way to build a set from raw data - it validates that the
origin is strictly interior (all raw right-hand sides positive), scales
each row in ints, deduplicates, and strips redundant rows
(remove_redundancy). A row is kept with no LP when a ray from the origin
leaves the set through that row alone (ray_certificate: the row itself,
the Gram test, then the int normals of a few bases of other rows, all in
exact int arithmetic), and dropped with no LP when int weights over a
basis of other rows put it in conv({0} union others) (_basis_weights,
the basis search); only a row that neither test settles gets an exact
LP, which keeps it or drops it just as it would with no test before it.

For such a set K the polar K* is conv({0} union rows), and the rows
themselves are exactly the points of the polar at which the pairing
<x, y> = 1 is attained by some x in K (each row is an exposed face
direction). The attaining point, on the row and strictly inside every
other, is the row's exposed witness. Everything here is exact; all
verdicts are decided by rational arithmetic, never tolerance.

exposed_point is the one support LP, behind the ray test: it tells
whether a row is irredundant, where it is exposed, and condition (b) of
sublinear.check_unit_ball for a generator without valid convex weights
(VPolytope.polar_weights). It poses the rows in their compiled form (int
rows over a common denominator den, <s, x> <= den) with an int
objective, so the LP reads ints and each caller compiles its rows once.
Its outcome, as those of hull_membership and is_bounded, must pass
lp.verify_certificate before a verdict rests on it. Boundedness, for
cuts.maximality_certificate, takes no support LP: is_bounded asks
whether the rows positively span the space. The basis search comes
first (proved_bounded): int multipliers over a basis of rows, checked
by lp.primal_feasible as a point of is_bounded's own LP, prove a
bounded set with no LP, which also spares sublinear.sample_points its
recession sign search; only then come an int rank test and at most one
feasibility LP over the rows' multipliers.

The basis search (_basis_weights) is one helper behind both questions:
for an int target t it tries the n-subsets of the n + 2 rows most
aligned with t and solves each by Cramer's rule through _normal's
cofactors, in ints, in 1-4-D. Every weight it finds is checked by lp's
own tests before a verdict rests on it, and the LP stays behind it as
the complete fallback, so it changes no verdict, only how many LPs are
posed.

The evaluators run fraction-free: each set (and each generator set) is
compiled once into integer rows over one common denominator, and a pairing
<a_i, x> is an integer dot product with the query point's scaled form
(rationals.Scaled: int numerators over one positive denominator) over a
positive scale. pairings, and every evaluator built on it (membership,
sublinear.gauge, minimal_sublinear, support), takes a point
in either form: a Scaled is used as it is - the scans and the property
suite scale a point once and query it many times - and a rational tuple is
scaled once at that call. Rationals are only built for the values a caller
asks for. Many points at once skip this per-point form: column_max
pairs compiled vectors with a block of points in int columns, one pass
per vector, and keeps only the largest pairing at each point (ColumnMax),
which is all a support function needs. It serves sublinear.block_values
(the CLI's query points, which jsonio reads as int columns) and the
property suite's checks. pairings stays the per-point kernel: it keeps
every value, so membership can name the tight rows.
"""

from __future__ import annotations

import random
from collections import namedtuple
from fractions import Fraction
from functools import cached_property
from itertools import combinations, islice, repeat
from math import gcd
from operator import add, mul

from . import lp
from .rationals import (
    ONE,
    Scaled,
    Vec,
    ZERO,
    integer_rows,
    is_zero_vector,
    lowest,
    over_lcm,
    scaled,
    scaled_vector,
    zero_vector,
)


# Normal directions ray_certificate tries after the Gram test: enough for
# 2-4-D boxes, simplices and splits and their unimodular images, and few
# enough that a redundant row, which no ray proves, pays little before
# its LP.
_BASES = 3

# Rows beyond n that _basis_weights draws its bases from: C(n + 2, 2)
# bases of the n + 2 rows with the largest <s, t>.
_SPARE = 2
# The largest n where _basis_weights searches. In 1-4-D _normal has
# closed forms, and a search that tries every basis and fails costs 12-66
# us, against 36-87 us for one LP and its check; in 5-D its Bareiss
# minors make such a search cost 1 ms, 15 LPs (CPython 3.11, 2-vCPU VM).
# Past it the LP decides alone.
_SEARCH_DIM = 4


class OriginNotInteriorError(ValueError):
    """Raised when a raw description does not hold the origin strictly inside."""


class ImproperSetError(ValueError):
    """Raised when every row is vacuous, i.e. the set is the whole space."""


class HPolyhedron(namedtuple("HPolyhedron", "dim rows")):
    """Canonical row form {x : <a_i, x> <= 1}; rows nonzero, deduplicated,
    irredundant. Build through normalize(); compiled as for VPolytope.
    A set handed its compiled form has its rows' width, zero rows and
    duplicates checked on those int rows (over one den, so two rows are
    equal exactly when their ints are, and no Fraction is hashed); a set
    without it has them checked on its rows."""

    def __new__(cls, dim: int, rows: tuple, compiled=None):
        if dim < 1:
            raise ValueError("dimension must be positive")
        if not rows:
            raise ImproperSetError("a canonical set needs at least one row")
        checked = rows if compiled is None else compiled[0]
        for a in checked:
            if len(a) != dim:
                raise ValueError("row width differs from dimension")
            if is_zero_vector(a):
                raise ValueError("zero rows are not canonical")
        if len(set(checked)) != len(checked):
            raise ValueError("duplicate rows are not canonical")
        self = super().__new__(cls, dim, rows)
        if compiled is not None:
            self.compiled = compiled
        return self

    @cached_property
    def compiled(self) -> tuple:
        """The rows as (integer rows, common denominator); see pairings()."""
        return integer_rows(self.rows)


class VPolytope(namedtuple("VPolytope", "dim points")):
    """Convex hull of finitely many points. Operations never depend on
    redundant (non-vertex) points being present or absent.

    polar_weights, when set, holds one entry per point: None, or int
    weights w over polar(h).points of a set h (the origin first, then
    h.rows) that claim the point is sum_i w_i p_i / sum w, so that it lies
    in the polar of h. Only sublinear.random_unit_ball_rep fills it, and
    sublinear.check_unit_ball checks each claim exactly before it spares
    that point's support LP. It is a proof, not part of the hull: it is an
    attribute outside the tuple, so equality and hashing ignore it.

    compiled, when given, must be integer_rows(points): a caller that
    already holds the points' ints (random_unit_ball_rep, polar) hands them
    over instead of having them derived again."""

    polar_weights = None  # _make and _replace drop the weights

    def __new__(cls, dim: int, points: tuple, polar_weights=None, compiled=None):
        if dim < 1:
            raise ValueError("dimension must be positive")
        if not points:
            raise ValueError("a polytope needs at least one point")
        for p in points:
            if len(p) != dim:
                raise ValueError("point width differs from dimension")
        if polar_weights is not None and len(polar_weights) != len(points):
            raise ValueError("polar_weights needs one entry per point")
        self = super().__new__(cls, dim, points)
        self.polar_weights = polar_weights
        if compiled is not None:
            self.compiled = compiled
        return self

    @cached_property
    def compiled(self) -> tuple:
        """The points as (integer rows, common denominator); see pairings()."""
        return integer_rows(self.points)


class MembershipVerdict(namedtuple("MembershipVerdict", "position tight_rows")):
    """position is "interior", "boundary" or "outside"."""

    __slots__ = ()


class HullVerdict(
    namedtuple("HullVerdict", "inside multipliers separator", defaults=(None, None))
):
    """inside => multipliers are exact convex coefficients reproducing the
    query point; outside => separator (c, gamma) with <c, p> > gamma while
    <c, q> <= gamma for every stored point q."""

    __slots__ = ()


def _rank(rows) -> int:
    """The rank of int rows, by fraction-free elimination: each pivot row
    clears its first nonzero column from the rows left, which are divided
    by their gcd."""
    rows = [r for r in rows if any(r)]
    rank = 0
    while rows:
        pivot = rows.pop()
        j = next(j for j, c in enumerate(pivot) if c)
        left = []
        for r in rows:
            if r[j]:
                r = [pivot[j] * x - r[j] * y for x, y in zip(r, pivot)]
                g = gcd(*r)
                if not g:
                    continue
                r = [c // g for c in r]
            left.append(r)
        rows = left
        rank += 1
    return rank


def _det(m) -> int:
    """The determinant of a square int matrix (k >= 0; the 0 x 0 one is 1),
    by fraction-free (Bareiss) elimination: every quotient below is exact."""
    if not m:
        return 1
    m = [list(row) for row in m]
    sign, prev = 1, 1
    for k in range(len(m) - 1):
        if not m[k][k]:
            swap = next((i for i in range(k + 1, len(m)) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        pivot, head = m[k][k], m[k]
        for row in m[k + 1 :]:
            lead = row[k]
            for j in range(k + 1, len(m)):
                row[j] = (row[j] * pivot - lead * head[j]) // prev
        prev = pivot
    return sign * m[-1][-1]


def _normal(rows) -> tuple:
    """The int normal c of n - 1 int rows of width n: c_j is (-1)^j times
    the minor of column j, so <s, c> is the determinant of s over the rows,
    0 for each row, and c = 0 exactly when the rows are dependent; in 1-D
    the normal of no rows is (1,). Closed forms in 2-4-D (there from the
    2 x 2 minors p of the last two rows), Bareiss minors (_det) in 1-D and
    above 4-D. ray_certificate, the basis search (_basis_weights) and the
    certificate search of cuts.check_cut_validity call it; the closed
    forms save 2-13 us a call over the minors in 2-4-D."""
    if len(rows) == 1:
        ((a, b),) = rows
        return (b, -a)
    if len(rows) == 2:
        (a1, a2, a3), (b1, b2, b3) = rows
        return (a2 * b3 - a3 * b2, a3 * b1 - a1 * b3, a1 * b2 - a2 * b1)
    if len(rows) == 3:
        (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3) = rows
        p01, p02, p03 = b0 * c1 - b1 * c0, b0 * c2 - b2 * c0, b0 * c3 - b3 * c0
        p12, p13, p23 = b1 * c2 - b2 * c1, b1 * c3 - b3 * c1, b2 * c3 - b3 * c2
        return (
            a1 * p23 - a2 * p13 + a3 * p12,
            a2 * p03 - a0 * p23 - a3 * p02,
            a0 * p13 - a1 * p03 + a3 * p01,
            a1 * p02 - a0 * p12 - a2 * p01,
        )
    return tuple(
        (-1) ** j * _det([s[:j] + s[j + 1 :] for s in rows])
        for j in range(len(rows) + 1)
    )


def ray_certificate(r, others, den: int):
    """The exposed point of the int row r among the int rows others, all
    over den > 0, with no LP: a point x with <r, x> = den and <s, x> < den
    for every s in others, which proves r irredundant (without r the set
    would hold the points just past x along the ray); None when no
    direction tried proves it. The ray
    from the origin along a direction c leaves the set {x : <s, x> <= den
    for s = r and for every s in others} through r alone when t = <r, c>
    > 0 exceeds m, the largest <s, c> over s in others (0 when there is
    none). Then x = den c / t, returned as Scaled(den c, t), lies on r and
    strictly inside every other row: <s, x> = den <s, c> / t < den.

    The directions tried (Clarkson's ray shooting, in ints): c = r first,
    the Gram test, t = |r|^2; then the int normal (_normal) of n - 1 other
    rows, signed so that t > 0, for the first _BASES sets of n - 1 drawn
    in order from the n other rows with the largest <s, r> (ties in input
    order). On 2-4-D boxes, simplices and splits and their unimodular
    images these directions prove every row."""
    aligned = [sum(map(mul, s, r)) for s in others]
    norm = sum(map(mul, r, r))
    if norm > max(aligned, default=0):
        return tuple.__new__(Scaled, (tuple([den * v for v in r]), norm))
    if len(r) < 2:  # in 1-D, r is the one direction with t > 0
        return None
    # a stable sort, in C: over a few rows it is twice as fast as nlargest
    top = sorted(range(len(others)), key=aligned.__getitem__, reverse=True)[: len(r)]
    for basis in islice(combinations(top, len(r) - 1), _BASES):
        c = _normal([others[k] for k in basis])
        t = sum(map(mul, r, c))
        if t < 0:
            c, t = tuple(-v for v in c), -t
        if t and max(sum(map(mul, s, c)) for s in others) < t:
            return tuple.__new__(Scaled, (tuple([den * v for v in c]), t))
    return None


def _basis_weights(t, rows, capped: bool = False):
    """Int weights that put the int target t in the cone of the int rows,
    with no LP: (basis, y, D), y one int per row >= 0, nonzero only on the
    rows of basis, with sum_i y_i rows_i = D t; when capped, also sum y <=
    D, so that t lies in conv({0} union rows). None when no basis tried
    gives such weights.

    The bases tried are the n-subsets B (n = len(t)), in order, of the n +
    _SPARE rows with the largest <s, t> (a stable sort: ties in input
    order). Each is solved by Cramer's rule through _normal's cofactors:
    for b_j in B and c_j the normal of B without b_j, <b_i, c_j> = 0 for i
    != j and <b_j, c_j> = +-det B, so the weight of b_j is n_j = +-<t, c_j>
    over D = |det B|, signed as <b_j, c_j>. A singular B (D = 0) and a
    negative n_j end that basis. The first weights left are returned after
    an exact recheck of sum_j n_j b_j = D t in ints. Above _SEARCH_DIM it
    tries no basis."""
    dim = len(t)
    if dim > _SEARCH_DIM:
        return None
    aligned = [sum(map(mul, s, t)) for s in rows]
    top = sorted(range(len(rows)), key=aligned.__getitem__, reverse=True)
    for basis in combinations(top[: dim + _SPARE], dim):
        b = [rows[k] for k in basis]
        weights = []
        for j in range(dim):
            c = _normal(b[:j] + b[j + 1 :])
            det = sum(map(mul, b[j], c))
            n_j = sum(map(mul, t, c))
            if det < 0:
                n_j = -n_j
            if not det or n_j < 0:
                break
            weights.append(n_j)
        else:
            d = abs(det)
            if capped and sum(weights) > d:
                continue
            if all(
                sum(map(mul, weights, col)) == d * c for col, c in zip(zip(*b), t)
            ):
                y = [0] * len(rows)
                for k, n_j in zip(basis, weights):
                    y[k] = n_j
                return basis, tuple(y), d
    return None


def _bounded_program(rows) -> lp.LinearProgram:
    """is_bounded's LP over the int rows: mu >= 0 with sum_i mu_i r_i =
    -sum_i r_i, objective 0, feasible iff the rows positively span the
    space when they have full rank."""
    return lp.LinearProgram(
        direction="max",
        objective=(0,) * len(rows),
        rows=tuple((col, "=", -sum(col)) for col in zip(*rows)),
        bounds=("nonneg",) * len(rows),
    )


def proved_bounded(compiled: tuple) -> bool:
    """Whether the basis search proves the set {x : <r, x> <= den for r in
    rows} bounded, for compiled = (int rows, den > 0), with no LP: True
    only with weights from _basis_weights on t = -(sum of the rows) that
    pass lp.primal_feasible as a point of is_bounded's own LP, on a basis
    of full rank (_rank). That LP's objective is 0, so a feasible point is
    optimal with value 0 and dual 0, and this is the test
    lp.verify_certificate makes of that outcome, on rows that are ints
    already. Then lambda = mu + 1 > 0 has sum_i lambda_i r_i = 0 and n of
    the rows are independent, so the rows positively span the space.
    False says nothing: is_bounded decides."""
    rows, _ = compiled
    dim = len(rows[0])
    if len(rows) <= dim:
        return False
    found = _basis_weights(tuple(-sum(col) for col in zip(*rows)), rows)
    if found is None:
        return False
    basis, y, d = found
    program = _bounded_program(rows)
    return (
        lp.primal_feasible(
            [(*coeffs, b) for coeffs, _, b in program.rows],
            [rel for _, rel, _ in program.rows],
            program.bounds,
            Scaled(y, d),
        )
        and _rank([rows[k] for k in basis]) == dim
    )


def is_bounded(compiled: tuple) -> bool:
    """Whether the set {x : <r, x> <= den for r in rows} is bounded, for
    compiled = (int rows, den > 0): exactly when the rows positively span
    the space, that is, when they have full rank and some lambda > 0 has
    sum_i lambda_i r_i = 0. That needs more rows than axes. The basis
    search (proved_bounded) settles a bounded set first, with no LP.
    Otherwise the rank is taken in ints (_rank); with full rank one LP
    decides the rest, mu >= 0 with sum_i mu_i r_i = -sum_i r_i (then
    lambda = mu + 1), posed in ints and feasible iff the set is bounded.
    Its outcome must pass lp.verify_certificate; one that does not is an
    internal fault."""
    rows, _ = compiled
    if proved_bounded(compiled):
        return True
    if len(rows) <= len(rows[0]) or _rank(rows) < len(rows[0]):
        return False
    program = _bounded_program(rows)
    outcome = lp.solve(program)
    if not lp.verify_certificate(program, outcome):
        raise RuntimeError(
            f"the {outcome.status} outcome of the boundedness LP fails "
            "lp.verify_certificate"
        )
    return outcome.status == "optimal"


def exposed_point(r, others, den: int):
    """The exposed point of the int row r among the int rows others, all
    over den > 0, as a Scaled: a point x with <r, x> = den and <s, x> <
    den for every s in others; None when there is none, that is, when r is
    redundant beside others. That one question is three: whether a row is
    irredundant (remove_redundancy), where it is exposed (the property
    suite's witness), and whether a generator r lies outside the polar of
    {x : <s, x> <= den for s in others}, which holds r exactly when r is
    redundant there (sublinear.check_unit_ball).

    It is ray_certificate's point when a ray proves r, with no LP. Else
    the basis search may prove r redundant, with no LP: capped weights
    (basis, y, D) from _basis_weights put r in conv({0} union others).
    y / D is a dual of the support LP below (y >= 0, sum_s y_s s = D r,
    and bound den sum y / D <= den), and None rests on it only once
    lp.dual_feasible accepts it and sum y <= D. Otherwise the support LP
    decides: max <r, x> over {x : <s, x> <= den for s in others}, free
    variables, where the origin is feasible, so the simplex starts there,
    on the slack basis, no phase 1. An optimal
    maximizer P of value above den gives den P / <r, P>, an unbounded
    sup its improving ray D as den D / <r, D>, which no positive scale
    of D changes, and a value at most den gives None. The outcome must
    pass lp.verify_certificate; one that does not is an internal fault."""
    x = ray_certificate(r, others, den)
    if x is not None:
        return x
    found = _basis_weights(r, others, capped=True)
    if found is not None:
        _, y, d = found
        columns, costs = list(zip(*others)), [d * c for c in r]
        if sum(y) <= d and lp.dual_feasible(
            y, columns, costs, ("free",) * len(r), True, range(len(y))
        ):
            return None
    program = lp.LinearProgram(
        direction="max",
        objective=r,
        rows=tuple((s, "<=", den) for s in others),
        bounds=("free",) * len(r),
    )
    outcome = lp.solve(program)
    if not lp.verify_certificate(program, outcome):
        raise RuntimeError(
            f"the {outcome.status} outcome of the support LP fails "
            "lp.verify_certificate"
        )
    if outcome.status == "unbounded":
        ints = scaled(outcome.ray).ints
    elif outcome.value > den:
        ints = scaled(outcome.point).ints
    else:
        return None
    return Scaled(tuple(den * c for c in ints), sum(map(mul, r, ints)))


def remove_redundancy(dim: int, rows) -> HPolyhedron:
    """The canonical set {x : <a, x> <= 1 for a in rows}, for nonzero rows,
    each a rational tuple or a Scaled (taken as it is: its den a positive
    int, as normalize builds it): keep a row iff dropping it would enlarge
    the set.

    Each row is reduced to ints over its least positive denominator, that
    rational row's one spelling, and duplicates are merged on it in input
    order. The distinct rows, over their least common denominator den, are
    filtered sequentially, each against every other row still live (the
    kept rows before it and all rows after it), so the survivors are
    mutually irredundant and a subset of the input, in input order. A row
    is dropped exactly when exposed_point(its int row r, the other live
    rows, den) is None: a row with a ray_certificate is kept with no LP,
    one that the basis search puts in conv({0} union the other live rows)
    is dropped with no LP, and only a row with neither poses the support
    LP. Each certificate proves what the LP would find, so the kept rows
    are those of an LP for every row.
    Fractions are built only for the kept rows; their keys over their own
    lcm are handed to the set as its compiled form, which is the distinct
    rows over den, as filtered, when no row is dropped."""
    keys = list(
        dict.fromkeys(lowest(*(a if type(a) is Scaled else scaled(a))) for a in rows)
    )
    compiled = over_lcm(keys)
    live, den = compiled
    live = list(live)
    i = 0
    while i < len(live):
        if exposed_point(live[i], live[:i] + live[i + 1 :], den) is None:
            live.pop(i)
            keys.pop(i)
            continue
        i += 1
    if len(keys) < len(compiled[0]):  # a row was dropped: the den may fall
        compiled = over_lcm(keys)
    rows = tuple(tuple(Fraction(c, d) for c in ints) for ints, d in keys)
    return HPolyhedron(dim, rows, compiled)


def normalize(raw_rows, raw_rhs) -> HPolyhedron:
    """Canonicalize {x : <a_i, x> <= b_i}.

    Requires every b_i > 0 (the origin strictly inside); scales rows to
    right-hand side 1, drops vacuous zero rows, and hands the rest to
    remove_redundancy, which merges duplicates and strips redundant rows.
    Each row, and the right-hand sides as one vector, is read by
    scaled_vector (a Scaled as it is, so make_body's int rows and margins
    are not read again), and each row a_i / b_i goes as a Scaled, ints
    over a positive int denominator: no Fraction is built for a row that
    is not kept.
    """
    rows = list(map(scaled_vector, raw_rows))
    b_ints, b_den = scaled_vector(raw_rhs)
    if len(rows) != len(b_ints):
        raise ValueError("row/right-hand-side count mismatch")
    if not rows:
        raise ImproperSetError("empty description denotes the whole space")
    dim = len(rows[0].ints)
    if dim < 1:
        raise ValueError("dimension must be positive")
    shifted = []
    for (ints, den), b in zip(rows, b_ints):
        if len(ints) != dim:
            raise ValueError("rows of differing dimension")
        if b <= 0:
            raise OriginNotInteriorError(
                f"right-hand side {Fraction(b, b_den)} is not positive: "
                "origin not interior"
            )
        if any(ints):  # a / b = (ints * b_den) / (den * b)
            if b_den != 1:
                ints = tuple(c * b_den for c in ints)
            shifted.append(Scaled(ints, den * b))
    if not shifted:
        raise ImproperSetError("all rows vacuous: the set is the whole space")
    return remove_redundancy(dim, shifted)


def pairings(compiled: tuple, x) -> tuple[list, int]:
    """Exact pairings of compiled vectors with x, fraction-free.

    compiled is a set's or a polytope's .compiled form; x is a Scaled point
    or a rational tuple. Returns (values, scale): integers and one positive
    integer with <v_i, x> equal to values[i] / scale for every vector v_i.
    """
    rows, den = compiled
    ix, d = scaled(x)
    if len(ix) != len(rows[0]):
        raise ValueError(f"dimension mismatch: {len(rows[0])} vs {len(ix)}")
    return [sum(map(mul, a, ix)) for a in rows], den * d


class ColumnMax(namedtuple("ColumnMax", "tops scales")):
    """The largest pairing of a compiled vector list (rows, den) with each
    point k of a block (cols, dens): tops[k] / scales[k], with scales[k] =
    den * dens[k] > 0. Over a set's rows it is minimal_sublinear at every
    point, over a generator set its support, over polar(h) the gauge."""

    __slots__ = ()


def column_max(compiled: tuple, block) -> ColumnMax:
    """max_i <v_i, x_k> at every point x_k of a block at once, in int
    columns: compiled is a .compiled form (vectors v_i, den), and block is
    (cols, dens) in rationals.scaled_columns' form.

    Each vector's pass is a lazy chain of int maps over the columns,
    sum_j v_j * cols[j][k], that skips v_j = 0; a zero vector (polar(h)'s
    origin) pairs to 0 everywhere. The passes are read point by point and
    only the max is kept, so no list is built per vector."""
    vectors, den = compiled
    cols, dens = block
    passes = []
    for v in vectors:
        total = None
        for c, col in zip(v, cols):
            if c:
                term = map(mul, repeat(c), col)
                total = term if total is None else map(add, total, term)
        passes.append(repeat(0, len(dens)) if total is None else total)
    tops = list(map(max, *passes) if len(passes) > 1 else passes[0])
    return ColumnMax(tops, list(map(mul, repeat(den), dens)))


def membership(h: HPolyhedron, x) -> MembershipVerdict:
    values, scale = pairings(h.compiled, x)
    top = max(values)
    if top > scale:
        return MembershipVerdict("outside", ())
    if top < scale:
        return MembershipVerdict("interior", ())
    tight = tuple(i for i, v in enumerate(values) if v == scale)
    return MembershipVerdict("boundary", tight)


def polar(h: HPolyhedron) -> VPolytope:
    """The polar body conv({0} u rows), compiled as h with a zero row first."""
    rows, den = h.compiled
    points = (zero_vector(h.dim),) + tuple(h.rows)
    return VPolytope(h.dim, points, compiled=(((0,) * h.dim,) + rows, den))


def hull_membership(p: Vec, v: VPolytope) -> HullVerdict:
    """Exact convex-hull membership with a certificate either way. The LP
    poses the rational rows times den * d in ints, for v.compiled = (Q,
    den) and scaled(p) = (P, d), which keeps its multipliers and Farkas row.
    Its outcome must pass lp.verify_certificate; one that does not is an
    internal fault."""
    if len(p) != v.dim:
        raise ValueError("point width differs from polytope dimension")
    for k, q in enumerate(v.points):
        if q == p:
            mults = [ZERO] * len(v.points)
            mults[k] = ONE
            return HullVerdict(inside=True, multipliers=tuple(mults))
    npts = len(v.points)
    points, den = v.compiled
    p_ints, d = scaled(p)
    rows = [
        (tuple(d * c for c in col), "=", den * c_p)
        for col, c_p in zip(zip(*points), p_ints)
    ]
    rows.append(((den * d,) * npts, "=", den * d))
    program = lp.LinearProgram(
        direction="max",
        objective=(0,) * npts,
        rows=tuple(rows),
        bounds=("nonneg",) * npts,
    )
    outcome = lp.solve(program)
    if not lp.verify_certificate(program, outcome):
        raise RuntimeError(
            f"the {outcome.status} outcome of the hull LP fails "
            "lp.verify_certificate"
        )
    if outcome.status == "optimal":
        return HullVerdict(inside=True, multipliers=outcome.point)
    u = outcome.dual
    c = tuple(-u[d] for d in range(v.dim))
    gamma = u[v.dim]
    return HullVerdict(inside=False, separator=(c, gamma))


def random_polyhedron(dim: int, n_rows: int, rng: random.Random) -> HPolyhedron:
    """Seeded random canonical set: n_rows raw rows with small rational
    entries, right-hand sides 1, then normalized (so the result may have
    fewer rows). Mixes bounded and unbounded sets."""
    raw = []
    for _ in range(n_rows):
        while True:
            a = tuple(
                Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                for _ in range(dim)
            )
            if not is_zero_vector(a):
                break
        raw.append(a)
    return normalize(raw, [ONE] * len(raw))
