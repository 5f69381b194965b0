"""Intersection cuts for corner relaxations, with executable validity.

The model: a fractional anchor point f, a finite ray list r^1..r^m, and the
feasible completions x = f + sum_j r^j s_j with s >= 0 required to land in
S = P intersect Z^n (P a rational H-description; P absent means the whole
space). A body B containing f strictly inside but no point of S strictly
inside ("S-free") yields the valid inequality

    sum_j coeff(r^j) s_j >= 1,

where coeff is minimal_sublinear of the centered body K = B - f in
canonical row form: coeff(r) = max_i <a_i, r>. K is the body that
is_s_free, generate_cut and maximality_certificate take; make_body builds
it from B's rows and right-hand sides in x-space and f. The instance (a
CornerInstance, checked when built), the Cut and each verdict and report
are immutable named tuples. Validity is
inherited from sublinearity - any s reaching a point of S satisfies the
inequality because the body is S-free - and is additionally *checked* here
on a lattice region, by exact LPs, rather than trusted. check_cut_validity
keeps the exact certificate of each LP it solves, once lp.verify_certificate
has passed it, and skips a later point that one of them already proves is
no violation: a Farkas row of an unreachable point (nonnegative on every
ray: the dual test for objective 0) proves unreachable every offset it
pairs to a negative value, and the dual of an optimal value >= 1 (at most
alpha_j on ray j) proves value >= 1, by weak duality, at every offset it
pairs to 1 or more. Only points without such a proof get an LP.

Only some lattice points can violate the cut. Let v(t) = min{alpha.s :
Rs = t, s >= 0}, the value check_cut_validity computes at t = z - f. When
every alpha_j >= 0, v(t) < 1 puts t in conv({0} u {r_j / alpha_j :
alpha_j > 0}) + cone{r_j : alpha_j = 0}: the weights alpha_j s_j of the
points r_j / alpha_j sum to less than 1, and 0 takes the rest. For a cut
from generate_cut, f + r_j / alpha_j is where ray j leaves the body,
Balas's (1971) intersection point. violation_box is the integer box of f
plus that set, with no LP: on axis d it runs from ceil(f_d + min(0, min of
r_jd / alpha_j)) to floor(f_d + max(0, max of r_jd / alpha_j)), over the
rays with alpha_j > 0, and has no low (high) end when a ray with
alpha_j = 0 has r_jd < 0 (> 0). With some alpha_j < 0 there is no box.
check_cut_validity scans only the part of the radius box inside
violation_box, and its verdict is global (scope "global") when that box is
bounded on every axis and lies inside the radius box, when it is empty on
some axis, or when it reports a violation; otherwise it holds on the
radius box (scope "region").

region_lattice_points is the one enumerator of a region: the lattice points
of the closed region B intersect P (P alone when no body is given) inside
the integer box of a given radius (never negative) around round(f), each
coordinate rounded half to even, clipped to an optional integer box, in
lexicographic order. It walks the clipped box in its first dim - 1
coordinates only; for each such prefix, every half-space, compiled once to
ints (B's from body.compiled and scaled(f), with no Fraction), bounds the
last coordinate exactly, so no point outside the region is visited
(Fincke & Pohst 1985, without their LP-tightened prefix ranges). The
limit applies to the radius box, not to the region: a radius box of more
than MAX_SCAN_POINTS points is refused before the scan starts.
is_s_free and maximality_certificate pass their body, since the interior
and facet points they look for lie in closed B; check_cut_validity passes
none and scans P, inside violation_box. Each makes one pass and
classifies a point once, so reported witnesses are deterministic: the
lexicographically smallest in the box. Each pass scales f once
(rationals.Scaled), so the offset z - f of a lattice point is int
arithmetic, and builds a rational only for a reported point.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from itertools import product
from operator import mul

from . import lp
from .polyhedra import (
    HPolyhedron,
    OriginNotInteriorError,
    membership,
    normalize,
    sup_over,
)
from .rationals import (
    ZERO,
    Scaled,
    Vec,
    integer_rows,
    is_integral,
    rational_text,
    scaled,
    scaled_vector,
    vector,
)
from .sublinear import minimal_sublinear

DEFAULT_RADIUS = 5
MAX_SCAN_POINTS = 10**6  # largest scan box, (2 * radius + 1) ** dim points


class AnchorNotInteriorError(ValueError):
    """Raised when f is on the boundary of, or outside, the body."""


class NotSFreeError(ValueError):
    """Raised when cut generation is attempted from a body that strictly
    contains a feasible lattice point; carries that witness."""

    def __init__(self, witness: Vec, radius: int):
        self.witness = witness
        self.radius = radius
        coords = ", ".join(str(c) for c in witness)
        super().__init__(
            f"body strictly contains the feasible lattice point ({coords}) "
            f"(radius-{radius} scan); no valid cut exists"
        )


class CornerInstance(namedtuple("CornerInstance", "dim f rays p_rows p_rhs")):
    """Anchor f (at least one non-integer coordinate), nonempty rays, and an
    optional H-description of P (general right-hand sides)."""

    __slots__ = ()

    def __new__(
        cls, dim: int, f: Vec, rays: tuple, p_rows: tuple = (), p_rhs: tuple = ()
    ):
        if dim < 1:
            raise ValueError("dimension must be positive")
        if len(f) != dim:
            raise ValueError("anchor width differs from dimension")
        if all(is_integral(c) for c in f):
            raise ValueError("anchor must have a non-integer coordinate")
        if not rays:
            raise ValueError("at least one ray required")
        for r in rays:
            if len(r) != dim:
                raise ValueError("ray width differs from dimension")
        if len(p_rows) != len(p_rhs):
            raise ValueError("P row/right-hand-side count mismatch")
        for row in p_rows:
            if len(row) != dim:
                raise ValueError("P row width differs from dimension")
        return super().__new__(cls, dim, f, rays, p_rows, p_rhs)


class Cut(namedtuple("Cut", "alpha provenance")):
    __slots__ = ()


class SFreeVerdict(
    namedtuple("SFreeVerdict", "free_on_region radius witness", defaults=(None,))
):
    __slots__ = ()


class CutViolation(namedtuple("CutViolation", "x s improving_ray")):
    """x is the offending lattice point; s either attains value < 1
    (improving_ray False) or is a feasible direction along which the value
    drops without bound (improving_ray True)."""

    __slots__ = ()


class ValidityReport(
    namedtuple(
        "ValidityReport", "valid_on_region radius scope violation", defaults=(None,)
    )
):
    """scope is "global" when the verdict holds on all of Z^n: a violation,
    a violation_box inside the radius box, or one empty on some axis;
    "region" when it holds on the radius box only."""

    __slots__ = ()


class MaximalityReport(
    namedtuple("MaximalityReport", "certified radius uncertified_facets heuristic")
):
    """certified iff every facet of the centered body is touched by a
    feasible lattice point tight on exactly that facet. heuristic flags
    verdicts outside the certified scope - P present, or the support of the
    centered body infinite along some axis (the body is unbounded): there
    the scan radius may simply have missed the touching points."""

    __slots__ = ()


def make_body(b_rows, b_rhs, f: Vec) -> HPolyhedron:
    """The body of a cut, K = B - f in canonical row form, from B's rows and
    right-hand sides in x-space: {r : <a_i, r> <= b_i - <a_i, f>},
    normalized. Each margin is computed in ints from scaled(f): with a_i
    as ints over den, b_i = p / q and f as ints F over f_den, the shifted
    row a_i / (b_i - <a_i, f>) is the int row q f_den a_i over
    p den f_den - q <a_i, F>, which normalize reads with no Fraction.
    Demands f strictly interior (every margin positive): normalize's
    OriginNotInteriorError on the shifted rows is raised as
    AnchorNotInteriorError."""
    rows = [scaled_vector(a) for a in b_rows]
    rhs = [scaled_vector((b,)) for b in b_rhs]
    if len(rows) != len(rhs):
        raise ValueError("body row/right-hand-side count mismatch")
    f_ints, f_den = scaled(f)
    shifted, margins = [], []
    for (ints, den), ((p,), q) in zip(rows, rhs):
        if len(ints) != len(f_ints):
            raise ValueError(f"dimension mismatch: {len(ints)} vs {len(f_ints)}")
        scale = q * f_den
        shifted.append(tuple(scale * c for c in ints))
        margins.append(p * den * f_den - q * sum(map(mul, ints, f_ints)))
    try:
        return normalize(shifted, margins)
    except OriginNotInteriorError as err:
        raise AnchorNotInteriorError("f not interior to the body") from err


def _half_spaces(inst: CornerInstance, body: HPolyhedron | None) -> list:
    """The region's half-spaces as int rows (head, last, rhs), for
    <head, prefix> + last * v <= rhs: P's rows each over its own
    denominator, then, with a body, B's rows <a_i, z> <= 1 + <a_i, f>.
    Those are read from body.compiled (rows r over den) and scaled(f)
    (F over f_den) as <f_den r, z> <= den f_den + <r, F>, divided by
    their gcd."""
    rows = [scaled(a + (b,)).ints for a, b in zip(inst.p_rows, inst.p_rhs)]
    if body is not None:
        ints, den = body.compiled
        f_ints, f_den = scaled(inst.f)
        for r in ints:
            row = [f_den * c for c in r]
            row.append(den * f_den + sum(map(mul, r, f_ints)))
            g = math.gcd(*row)
            rows.append(tuple(c // g for c in row))
    return [(row[:-2], row[-2], row[-1]) for row in rows]


def region_lattice_points(
    inst: CornerInstance, radius: int, body: HPolyhedron | None = None, box=None
):
    """Lattice points of the closed region B intersect P inside the scan box
    around round(f), as tuples of ints, in lexicographic order. B is the
    x-space body of the centered body K (<a_i, z> <= 1 + <a_i, f>); with no
    body the region is P alone. A box, one (low, high) pair of ints per
    axis with None for a side without a bound (violation_box's form),
    clips the scan box. Every half-space is compiled once into an
    int row and right-hand side (_half_spaces). The
    first dim - 1 coordinates run over the clipped box; for each such prefix
    every row bounds the last coordinate exactly (a floor for a positive
    last coefficient, a ceiling for a negative one; a zero one with a
    negative remainder empties the slice), and the slice is yielded whole.
    A radius below 0, a box without one pair per axis, or a radius box of
    more than MAX_SCAN_POINTS points, is an input error raised before any
    point is visited, however few points the region or the clipped box
    holds."""
    if radius < 0:
        raise ValueError(f"scan radius must be >= 0, got {radius}")
    if box is not None and len(box) != inst.dim:
        raise ValueError(f"a box needs {inst.dim} axes, got {len(box)}")
    side = 2 * radius + 1
    if side > MAX_SCAN_POINTS or side**inst.dim > MAX_SCAN_POINTS:
        raise ValueError(
            f"a radius-{radius} scan in dimension {inst.dim} visits "
            f"{side}^{inst.dim} points, over the limit of {MAX_SCAN_POINTS}"
        )
    compiled = _half_spaces(inst, body)
    ranges = [range(c - radius, c + radius + 1) for c in map(round, inst.f)]
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
        for head, c, b in compiled:
            rest = b - sum(map(mul, head, prefix))
            if c > 0:
                hi = min(hi, rest // c)
            elif c < 0:
                lo = max(lo, -(rest // -c))
            elif rest < 0:
                hi = lo - 1
                break
        for v in range(lo, hi + 1):
            yield prefix + (v,)


def _offset(z, f: Scaled) -> Scaled:
    """z - f for a lattice point z, in scaled form over f's denominator."""
    return Scaled(tuple(v * f.den - n for v, n in zip(z, f.ints)), f.den)


def is_s_free(body: HPolyhedron, inst: CornerInstance, radius: int = DEFAULT_RADIUS) -> SFreeVerdict:
    """Scan the region for a feasible lattice point strictly inside the
    body; the first (lexicographically smallest) one found is the witness."""
    f = scaled(inst.f)
    for z in region_lattice_points(inst, radius, body):
        if membership(body, _offset(z, f)).position == "interior":
            return SFreeVerdict(False, radius, vector(z))
    return SFreeVerdict(True, radius, None)


def generate_cut(inst: CornerInstance, body: HPolyhedron, radius: int = DEFAULT_RADIUS) -> Cut:
    """Refuses (NotSFreeError, with witness) unless the body scans S-free on
    the region; otherwise one coefficient per ray. A scalar of the
    provenance text too long to print raises rationals.TooLongToPrint."""
    verdict = is_s_free(body, inst, radius)
    if not verdict.free_on_region:
        raise NotSFreeError(verdict.witness, radius)
    alpha = tuple(minimal_sublinear(body, r) for r in inst.rays)
    rows_text = ", ".join(
        "(" + ", ".join(map(rational_text, row)) + ")"
        for row in body.rows
    )
    f_text = ", ".join(map(rational_text, inst.f))
    return Cut(
        alpha=alpha,
        provenance=f"centered body rows [{rows_text}] about f=({f_text})",
    )


def violation_box(inst: CornerInstance, alpha) -> tuple | None:
    """The integer box of every lattice point z at which the cut
    sum_j alpha_j s_j >= 1 can fail (module docstring), one (low, high)
    pair per axis with None for a side without a bound; None when some
    alpha_j < 0."""
    if any(a < 0 for a in alpha):
        return None
    tips = [[Fraction(c, a) for c in r] for a, r in zip(alpha, inst.rays) if a > 0]
    free = [r for a, r in zip(alpha, inst.rays) if a == 0]
    box = []
    for d, f_d in enumerate(inst.f):
        coords = [ZERO] + [tip[d] for tip in tips]
        lo = None if any(r[d] < 0 for r in free) else math.ceil(f_d + min(coords))
        hi = None if any(r[d] > 0 for r in free) else math.floor(f_d + max(coords))
        box.append((lo, hi))
    return tuple(box)


def check_cut_validity(inst: CornerInstance, cut: Cut, radius: int = DEFAULT_RADIUS) -> ValidityReport:
    """For each feasible lattice point z in the region, minimize the cut's
    left-hand side over the exact ray combinations reaching t = z - f. The
    cut is valid on the region iff every such point is unreachable or has
    minimum >= 1. A minimum below 1 (or an unbounded descent direction) is
    returned as the lexicographically first violation.

    The region is the radius box clipped to violation_box, which holds
    every point with minimum below 1 when every alpha_j >= 0 (module
    docstring); with some alpha_j < 0 it is the whole radius box. Every
    violation lies in the clipped box, so the first one is the same point,
    solved by the same LP, as in a scan of the radius box. The verdict is
    global when the box is bounded on every axis and inside the radius
    box, when it is empty on some axis (it holds no lattice point, however
    the other axes read), or when it is a violation.

    Each LP is posed in ints: rays R_j / r_den, t = T / f_den and alpha =
    A / a_den give row d as sum_j f_den R_jd s_j = r_den T_d and costs A,
    so its value is a_den times the minimum. Each outcome is checked by
    lp.verify_certificate, then its certificate is kept as an int row to
    settle later points without an LP. The check covers both:

    * a Farkas row y of an unreachable point is the dual test for
      objective 0: <y, R_j> >= 0 for every ray and <y, T> < 0, so every
      offset with <y, T> < 0 is unreachable too;
    * the dual u of an optimal value >= a_den has f_den <u, R_j> <= A_j
      for every ray and r_den <u, T> equal to the value, so every offset
      with r_den <u, T> >= a_den has minimum >= 1 by weak duality.

    A skipped point is therefore never a violation: the first point left
    without a proof is the first violation of the plain per-point scan,
    solved by the same LP, so the report is the same. An outcome that
    fails its check raises RuntimeError before anything is skipped."""
    if len(cut.alpha) != len(inst.rays):
        raise ValueError("one coefficient per ray required")
    rays, r_den = integer_rows(inst.rays)
    f = scaled(inst.f)
    columns = tuple(tuple(f.den * c for c in col) for col in zip(*rays))
    costs, a_den = scaled(cut.alpha)
    bounds = ("nonneg",) * len(inst.rays)
    box = violation_box(inst, cut.alpha)
    box_scanned = box is not None and (
        any(lo is not None and hi is not None and lo > hi for lo, hi in box)
        or all(
            lo is not None and hi is not None and c - radius <= lo and hi <= c + radius
            for (lo, hi), c in zip(box, map(round, inst.f))
        )
    )
    farkas = []  # y: z is unreachable if <y, t> < 0
    duals = []  # (u, den): value >= 1 at z if <u, t> >= den, in ints
    for z in region_lattice_points(inst, radius, box=box):
        t = _offset(z, f).ints
        if any(sum(map(mul, y, t)) < 0 for y in farkas) or any(
            sum(map(mul, u, t)) >= den for u, den in duals
        ):
            continue
        rows = tuple((col, "=", r_den * c) for col, c in zip(columns, t))
        program = lp.LinearProgram(
            direction="min", objective=costs, rows=rows, bounds=bounds
        )
        outcome = lp.solve(program)
        if outcome.status == "unbounded":
            return ValidityReport(
                False, radius, "global", CutViolation(vector(z), outcome.ray, True)
            )
        if outcome.status == "optimal" and outcome.value < a_den:
            return ValidityReport(
                False, radius, "global", CutViolation(vector(z), outcome.point, False)
            )
        if not lp.verify_certificate(program, outcome):
            raise RuntimeError(
                f"the {outcome.status} certificate at z = {z} fails "
                "lp.verify_certificate"
            )
        row, den = scaled(outcome.dual)
        if outcome.status == "infeasible":
            farkas.append(row)
        else:
            duals.append((tuple(r_den * c for c in row), den * a_den))
    return ValidityReport(True, radius, "global" if box_scanned else "region")


def maximality_certificate(
    body: HPolyhedron, inst: CornerInstance, radius: int = DEFAULT_RADIUS
) -> MaximalityReport:
    """A facet counts as certified when some feasible lattice point in the
    region is tight on it and strictly slack on every other row - i.e. sits
    in the facet's relative interior, blocking any strict enlargement of the
    body there. Bounded bodies with P absent get a definitive verdict;
    anything else is labelled heuristic. The body is bounded iff sup_over
    is finite at +e_d and -e_d for every axis d."""
    heuristic = bool(inst.p_rows) or any(
        sup_over(body.compiled, tuple(s if j == d else 0 for j in range(body.dim)))
        is None
        for d in range(body.dim)
        for s in (1, -1)
    )
    uncertified = set(range(len(body.rows)))
    f = scaled(inst.f)
    for z in region_lattice_points(inst, radius, body):
        tight = membership(body, _offset(z, f)).tight_rows
        if len(tight) == 1:
            uncertified.discard(tight[0])
            if not uncertified:
                break
    return MaximalityReport(
        certified=not uncertified,
        radius=radius,
        uncertified_facets=tuple(sorted(uncertified)),
        heuristic=heuristic,
    )

