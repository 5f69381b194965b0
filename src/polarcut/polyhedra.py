"""Polyhedral sets containing the origin in their interior, and their polars.

The central representation is the canonical H-form ``{x : <a_i, x> <= 1}``:
every right-hand side is scaled to 1, so a set is just its tuple of rows.
normalize() is the only sanctioned way to build one from raw data - it
validates that the origin is strictly interior (all raw right-hand sides
positive), scales each row in ints, deduplicates, and strips redundant
rows (remove_redundancy). A row is kept with no LP when the Gram test
finds a point that proves it irredundant (gram_certificate, checked by
exact int arithmetic); only a row without one gets an exact LP, which
keeps it or drops it just as it would with no test before it.

For such a set K the polar K* is conv({0} union rows), and the rows
themselves are exactly the points of the polar at which the pairing
<x, y> = 1 is attained by some x in K (each row is an exposed face
direction; exposed_witness produces the attaining point). Everything here
is exact; all verdicts are decided by rational arithmetic, never tolerance.

sup_over is the one LP for the support function of K itself,
sigma_K(v) = sup of <v, x> over K, which is at most 1 exactly when v lies
in the polar. It decides the redundancy of a row that fails the Gram
test here, condition (b) of sublinear.check_unit_ball for a generator
that carries no valid convex weights (VPolytope.polar_weights), and
boundedness in cuts.maximality_certificate (sigma_K is finite along
every axis, both ways, iff K is bounded). Its program over the rows
other than a_i, at a_i, also yields exposed_witness. It poses the set in
its compiled form (int rows r over a common denominator den, the
program's rows <r, x> <= den), so the LP reads ints and no caller
converts a row twice: each caller compiles its rows once.

The evaluators run fraction-free: each set (and each generator set) is
compiled once into integer rows over one common denominator, and a pairing
<a_i, x> is an integer dot product with the query point's scaled form
(rationals.Scaled: int numerators over one positive denominator) over a
positive scale. pairings, and every evaluator built on it (membership,
in_recession, sublinear.gauge, minimal_sublinear, support), takes a point
in either form: a Scaled is used as it is - the scans and the property
suite scale a point once and query it many times - and a rational tuple is
scaled once at that call. Rationals are only built for the values a caller
asks for. (The CLI's query points skip this per-point form: jsonio reads
them as int columns for sublinear.block_values.)
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import mul

from . import lp
from .rationals import (
    ONE,
    Scaled,
    Vec,
    ZERO,
    dot,
    integer_rows,
    is_zero_vector,
    scaled,
    scaled_vector,
    zero_vector,
)


class OriginNotInteriorError(ValueError):
    """Raised when a raw description does not hold the origin strictly inside."""


class ImproperSetError(ValueError):
    """Raised when every row is vacuous, i.e. the set is the whole space."""


@dataclass(frozen=True)
class HPolyhedron:
    """Canonical row form {x : <a_i, x> <= 1}; rows nonzero, deduplicated,
    irredundant. Build through normalize()."""

    dim: int
    rows: tuple

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dimension must be positive")
        if not self.rows:
            raise ImproperSetError("a canonical set needs at least one row")
        for a in self.rows:
            if len(a) != self.dim:
                raise ValueError("row width differs from dimension")
            if is_zero_vector(a):
                raise ValueError("zero rows are not canonical")
        if len(set(self.rows)) != len(self.rows):
            raise ValueError("duplicate rows are not canonical")

    @cached_property
    def compiled(self) -> tuple:
        """The rows as (integer rows, common denominator); see pairings()."""
        return integer_rows(self.rows)


@dataclass(frozen=True)
class VPolytope:
    """Convex hull of finitely many points. Operations never depend on
    redundant (non-vertex) points being present or absent.

    polar_weights, when set, holds one entry per point: None, or int
    weights w over polar(h).points of a set h (the origin first, then
    h.rows) that claim the point is sum_i w_i p_i / sum w, so that it lies
    in the polar of h. Only sublinear.random_unit_ball_rep fills it, and
    sublinear.check_unit_ball checks each claim exactly before it spares
    that point's support LP. It is a proof, not part of the hull: equality
    and hashing ignore it."""

    dim: int
    points: tuple
    polar_weights: tuple | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dimension must be positive")
        if not self.points:
            raise ValueError("a polytope needs at least one point")
        for p in self.points:
            if len(p) != self.dim:
                raise ValueError("point width differs from dimension")
        if self.polar_weights is not None and len(self.polar_weights) != len(
            self.points
        ):
            raise ValueError("polar_weights needs one entry per point")

    @cached_property
    def compiled(self) -> tuple:
        """The points as (integer rows, common denominator); see pairings()."""
        return integer_rows(self.points)


@dataclass(frozen=True)
class MembershipVerdict:
    position: str  # "interior" | "boundary" | "outside"
    tight_rows: tuple


@dataclass(frozen=True)
class HullVerdict:
    """inside => multipliers are exact convex coefficients reproducing the
    query point; outside => separator (c, gamma) with <c, p> > gamma while
    <c, q> <= gamma for every stored point q."""

    inside: bool
    multipliers: tuple | None = None
    separator: tuple | None = None


def _support_lp(compiled: tuple, v: Vec) -> lp.LPOutcome:
    """max <v, x> over {x : <r, x> <= den for r in rows}, for compiled =
    (rows, den). The origin is feasible, so the simplex starts there, on
    the slack basis, no phase 1."""
    rows, den = compiled
    return lp.solve(
        lp.LinearProgram(
            direction="max",
            objective=v,
            rows=tuple((r, "<=", den) for r in rows),
            bounds=("free",) * len(v),
        )
    )


def sup_over(compiled: tuple, v: Vec):
    """sup of <v, x> over the set {x : <r, x> <= den for r in rows},
    exactly, for compiled = (int rows, den > 0), a set's .compiled form or
    integer_rows of some rows a (then the set is {x : <a, x> <= 1}); None
    when the sup is unbounded. Any other LP status is an internal fault.

    Each row is the rational row scaled by den > 0, so the set, the
    simplex's pivots, its point and its value are those of the rational
    rows. Its duals come out divided by den, and a ray along an entering
    slack too; no caller reads either."""
    outcome = _support_lp(compiled, v)
    if outcome.status == "unbounded":
        return None
    if outcome.status != "optimal":
        raise RuntimeError(
            f"support LP is {outcome.status} although the origin is feasible"
        )
    return outcome.value


def gram_certificate(r, others, den: int):
    """The Gram test: a point x proving the int row r irredundant among the
    int rows others, all over den > 0, with no LP; None when the test
    fails. With m the largest <s, r> over s in others (0 when there is
    none), x exists iff |r|^2 > m: it is den r / m when m > 0, so that
    <s, x> = den <s, r> / m <= den and <r, x> = den |r|^2 / m > den, and
    2 den r / |r|^2 when m <= 0, so that <s, x> <= 0 and <r, x> = 2 den.
    Either way x lies in {x : <s, x> <= den for s in others} and past r,
    so dropping r would enlarge the set. Returned as a Scaled point."""
    norm = sum(map(mul, r, r))
    m = max((sum(map(mul, s, r)) for s in others), default=0)
    if norm <= m:
        return None
    if m > 0:
        return Scaled(tuple(den * c for c in r), m)
    return Scaled(tuple(2 * den * c for c in r), norm)


def remove_redundancy(dim: int, rows) -> HPolyhedron:
    """The canonical set {x : <a, x> <= 1 for a in rows}, for nonzero rows,
    each a rational tuple or a Scaled: keep a row iff dropping it would
    enlarge the set.

    Each row is reduced to ints over its least positive denominator, that
    rational row's one spelling, and duplicates are merged on it in input
    order. The distinct rows, over their least common denominator den, are
    filtered sequentially, each against every other row still live (the
    kept rows before it and all rows after it), so the survivors are
    mutually irredundant and a subset of the input, in input order. A row
    with a gram_certificate is kept with no LP; only a row without one is
    decided by sup_over(the other live rows, its int row r), redundant
    exactly when that stays <= den. The certificate proves what the LP
    would find, so the kept rows are those of an LP for every row.
    Fractions are built only for the kept rows."""
    distinct = {}
    for a in rows:
        ints, den = scaled(a)
        g = gcd(den, *ints)
        distinct[tuple(c // g for c in ints), den // g] = None
    den = lcm(*(d for _, d in distinct))
    live = [tuple(c * (den // d) for c in ints) for ints, d in distinct]
    i = 0
    while i < len(live):
        r = live[i]
        others = live[:i] + live[i + 1 :]
        if gram_certificate(r, others, den) is None:
            top = sup_over((others, den), r)
            if top is not None and top <= den:
                live.pop(i)
                continue
        i += 1
    return HPolyhedron(
        dim, tuple(tuple(Fraction(c, den) for c in r) for r in live)
    )


def normalize(raw_rows, raw_rhs) -> HPolyhedron:
    """Canonicalize {x : <a_i, x> <= b_i}.

    Requires every b_i > 0 (the origin strictly inside); scales rows to
    right-hand side 1, drops vacuous zero rows, and hands the rest to
    remove_redundancy, which merges duplicates and strips redundant rows.
    Each row a_i / b_i goes as a Scaled, ints over a positive int
    denominator, so no Fraction is built for a row that is not kept.
    """
    rows = [scaled_vector(a) for a in raw_rows]
    rhs = [scaled_vector((b,)) for b in raw_rhs]
    if len(rows) != len(rhs):
        raise ValueError("row/right-hand-side count mismatch")
    if not rows:
        raise ImproperSetError("empty description denotes the whole space")
    dim = len(rows[0].ints)
    if dim < 1:
        raise ValueError("dimension must be positive")
    shifted = []
    for (ints, den), ((b_num,), b_den) in zip(rows, rhs):
        if len(ints) != dim:
            raise ValueError("rows of differing dimension")
        if b_num <= 0:
            raise OriginNotInteriorError(
                f"right-hand side {Fraction(b_num, b_den)} is not positive: "
                "origin not interior"
            )
        if any(ints):  # a / b = (ints * b_den) / (den * b_num)
            shifted.append(Scaled(tuple(c * b_den for c in ints), den * b_num))
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
    """The polar body: conv of the origin together with the rows."""
    return VPolytope(h.dim, (zero_vector(h.dim),) + tuple(h.rows))


def in_recession(h: HPolyhedron, x) -> bool:
    values, _ = pairings(h.compiled, x)
    return all(v <= 0 for v in values)


def hull_membership(p: Vec, v: VPolytope) -> HullVerdict:
    """Exact convex-hull membership with a certificate either way."""
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
    outcome = lp.solve(
        lp.LinearProgram(
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


def exposed_witness(h: HPolyhedron, row_index: int) -> Vec:
    """A point of the set tight on the given row and strictly slack on all
    others: the support LP of the other rows at a_i, its maximizer scaled
    onto the row. The row is irredundant exactly when that LP exceeds 1: an
    optimal x of value above 1 gives x / <a_i, x>, an unbounded sup its
    improving ray d as d / <a_i, d>, which no positive scale of d changes.
    Anything else is an internal fault."""
    a_i = h.rows[row_index]
    rows, den = h.compiled
    outcome = _support_lp((rows[:row_index] + rows[row_index + 1 :], den), a_i)
    if outcome.status == "unbounded":
        x, top = outcome.ray, dot(a_i, outcome.ray)
    elif outcome.status == "optimal" and outcome.value > 1:
        x, top = outcome.point, outcome.value
    else:
        raise RuntimeError(
            f"row {row_index} admits no strictly exposed point; "
            "the row set is not canonical"
        )
    return tuple(c / top for c in x)


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
