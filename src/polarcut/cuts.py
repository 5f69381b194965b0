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
are immutable named tuples. The instance is held in ints: f, each ray
and each row of P a rationals.Scaled, P's right-hand sides one Scaled,
and every scan, box and LP below reads those ints; a Fraction is built
only for f's text in a cut's provenance. Validity is
inherited from sublinearity - any s reaching a point of S satisfies the
inequality because the body is S-free - and is additionally *checked* here
on a lattice region, by exact certificates, rather than trusted.
check_cut_validity skips a point that a certificate it holds proves is no
violation: a Farkas row (nonnegative on every ray: the dual test for
objective 0) proves unreachable every offset it pairs to a negative
value, and a dual (at most alpha_j on ray j) proves value >= 1, by weak
duality, at every offset it pairs to 1 or more. Neither depends on the
point, so at the first point it finds them from the rays alone: the int
normal of every d - 1 rays is tried as a Farkas row (a facet of the ray
cone) and every basis of d rays gives a dual vertex, each kept once
lp.dual_feasible, the dual test of lp.verify_certificate, accepts it.
Only points without such a proof get an LP, whose outcome must pass
lp.verify_certificate before a violation is reported on it or its
certificate is kept.

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
The tips are compared, and the ends rounded, in ints.
check_cut_validity scans only the part of the radius box inside
violation_box, and its verdict is global (scope "global") when that box is
bounded on every axis and lies inside the radius box, when it is empty on
some axis, or when it reports a violation; otherwise it holds on the
radius box (scope "region").

region_lattice_points is the one enumerator of a region: the lattice points
of the closed region B intersect P (P alone when no body is given) inside
the integer box of a given radius (never negative) around round(f), each
coordinate rounded half to even, clipped to an optional integer box, in
lexicographic order. Its half-spaces are compiled once to int rows (P's
from the instance, B's from body.compiled and f, with no Fraction), and
the centre round(f) is taken in ints too. They are projected once
per scan onto the first k coordinates for every k, by exact
Fourier-Motzkin elimination in ints. Coordinate k then runs only over the
integer range that the projected rows leave given the coordinates before
it, clipped to the box, so every prefix walked is in the shadow of the
region, and at the last coordinate every row bounds a slice of points,
exactly. A projection that would hold more rows than the region is not
made, nor any below it: those coordinates keep the box range. A
projection row 0 <= b < 0 means the region is empty, and nothing is
walked. This is the coordinate-by-coordinate enumeration of Fincke &
Pohst (1985), with each range cut by the region's projection. The limit
applies to the radius box, not to the region: a radius box of more than
MAX_SCAN_POINTS points is refused before the scan starts.

is_s_free and maximality_certificate walk the slices of their body's
region, since the interior and facet points they look for lie in closed
B, and judge each slice whole with no membership call: is_s_free narrows
it by B's rows taken strictly, and the first slice left nonempty holds
the witness at its low end; maximality_certificate finds on each B row
the one point of the slice where that row is tight, if any.
check_cut_validity takes the points of P inside violation_box from
region_lattice_points. Each makes one pass, so reported witnesses are
deterministic: the lexicographically smallest in the box.
check_cut_validity reads f over its least denominator, so the offset
z - f of a lattice point is int arithmetic, and builds a rational only for a
reported point.
"""

from __future__ import annotations

import math
from collections import namedtuple
from itertools import combinations
from operator import mul

from . import lp
from .polyhedra import (
    HPolyhedron,
    OriginNotInteriorError,
    _normal,
    is_bounded,
    normalize,
)
from .rationals import (
    Scaled,
    Vec,
    lowest,
    over_lcm,
    rational_text,
    scaled,
    scaled_vector,
    unscaled,
    vector,
)
from .sublinear import minimal_sublinear

DEFAULT_RADIUS = 5
MAX_SCAN_POINTS = 10**6  # largest scan box, (2 * radius + 1) ** dim points
# check_cut_validity's certificate search (_cut_certificates) runs only on
# cuts with at most this many (d - 1)- and d-subsets of rays, comb(k + 1, d)
# for k rays in d-D. A subset costs 4-7 us in 2-4-D and 25 us in 5-D, where
# _normal takes Bareiss minors, against 45-245 us for one LP and its check
# (CPython 3.11, 2-vCPU VM): at this budget a search costs at most about
# two LPs in 2-4-D and three in 5-D, and it admits every cut of up to 6
# rays in 3-5-D and 8 in 2-D. Past it the call runs on LPs alone.
_SEARCH_BUDGET = 36


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
    optional H-description of P (general right-hand sides), held in ints:
    f, each ray and each row of P a Scaled, and P's right-hand sides one
    Scaled. Each is read by scaled(), so ints and Fractions are taken, a
    Scaled as it is (jsonio reads them in lowest terms), and anything
    else is a ValueError. What the scans, boxes and LPs read from them
    does not depend on how a Scaled is spelled."""

    __slots__ = ()

    def __new__(
        cls, dim: int, f, rays: tuple, p_rows: tuple = (), p_rhs: tuple = ()
    ):
        if dim < 1:
            raise ValueError("dimension must be positive")
        f = scaled(f)
        if len(f.ints) != dim:
            raise ValueError("anchor width differs from dimension")
        if all(c % f.den == 0 for c in f.ints):
            raise ValueError("anchor must have a non-integer coordinate")
        if not rays:
            raise ValueError("at least one ray required")
        rays = tuple(map(scaled, rays))
        for r in rays:
            if len(r.ints) != dim:
                raise ValueError("ray width differs from dimension")
        p_rows, p_rhs = tuple(map(scaled, p_rows)), scaled(p_rhs)
        if len(p_rows) != len(p_rhs.ints):
            raise ValueError("P row/right-hand-side count mismatch")
        for row in p_rows:
            if len(row.ints) != dim:
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
    as ints over den, the right-hand sides as ints p over one q, and f as
    ints F over f_den, the shifted row a_i / (b_i - <a_i, f>) is the int
    row q f_den a_i over p den f_den - q <a_i, F>. The rows and the
    right-hand sides are read by scaled_vector (a Scaled as it is, as
    jsonio reads them), and normalize takes the int rows and margins as
    Scaled, with no Fraction built and nothing read twice. Demands f
    strictly interior (every margin positive): normalize's
    OriginNotInteriorError on the shifted rows is raised as
    AnchorNotInteriorError."""
    rows = list(map(scaled_vector, b_rows))
    b_ints, q = scaled_vector(b_rhs)
    if len(rows) != len(b_ints):
        raise ValueError("body row/right-hand-side count mismatch")
    f_ints, f_den = scaled(f)
    scale = q * f_den
    shifted, margins = [], []
    for (ints, den), p in zip(rows, b_ints):
        if len(ints) != len(f_ints):
            raise ValueError(f"dimension mismatch: {len(ints)} vs {len(f_ints)}")
        shifted.append(Scaled(tuple(scale * c for c in ints), 1))
        margins.append(p * den * f_den - q * sum(map(mul, ints, f_ints)))
    try:
        return normalize(shifted, Scaled(tuple(margins), 1))
    except OriginNotInteriorError as err:
        raise AnchorNotInteriorError("f not interior to the body") from err


def _half_spaces(inst: CornerInstance, body: HPolyhedron | None) -> list:
    """The region's half-spaces as int rows (head, last, rhs), for
    <head, prefix> + last * v <= rhs: P's rows each over its own least
    denominator (row a = A / a_den and b = B / q give (q A, a_den B) over
    q a_den, in lowest terms), then, with a body, B's rows
    <a_i, z> <= 1 + <a_i, f>. Those are read from body.compiled (rows r
    over den) and f (F over f_den) as <f_den r, z> <= den f_den + <r, F>,
    divided by their gcd, in body.rows' order."""
    b_ints, q = inst.p_rhs
    rows = [
        lowest(tuple(q * c for c in a) + (a_den * b,), a_den * q)[0]
        for (a, a_den), b in zip(inst.p_rows, b_ints)
    ]
    if body is not None:
        ints, den = body.compiled
        f_ints, f_den = inst.f
        for r in ints:
            row = [f_den * c for c in r]
            row.append(den * f_den + sum(map(mul, r, f_ints)))
            g = math.gcd(*row)
            rows.append(tuple(c // g for c in row))
    return [(row[:-2], row[-2], row[-1]) for row in rows]


def _projections(half_spaces: list, dim: int) -> list | None:
    """The rows that bound each coordinate given the ones before it: entry
    k holds (head, c, rhs) for <head, z[:k]> + c z_k <= rhs, and None
    stands for an empty region.

    Entry dim - 1 is the region's own rows. Each earlier entry is the
    projection of the next onto one coordinate fewer, by exact
    Fourier-Motzkin elimination in ints: a row without the coordinate
    passes down, and each pair of a positive and a negative row is
    combined to cancel it; every new row is divided by its gcd, and of
    the rows with the same coefficients only the least right-hand side is
    kept. A new row 0 <= b < 0 means the region is empty. A row that
    passes down is tested there, and only there. The projection stops at
    the first one that would hold more rows than the region: that entry
    and all before it get no rows, which only relaxes their ranges, and
    the entry after it keeps all its rows. A projection holds every point
    of the region's shadow, so narrowing by it never drops a point of the
    region."""
    limit = len(half_spaces)
    levels = [[] for _ in range(dim)]
    rows = [(head + (c,), b) for head, c, b in half_spaces]
    for k in range(dim - 1, 0, -1):
        lower = {}
        pos = [(a, b) for a, b in rows if a[k] > 0]
        neg = [(a, b) for a, b in rows if a[k] < 0]
        pairs = [(a[:k], b) for a, b in rows if not a[k]]
        for p, bp in pos:
            for n, bn in neg:
                s, t = -n[k], p[k]
                pairs.append(
                    (tuple(s * x + t * y for x, y in zip(p[:k], n[:k])), s * bp + t * bn)
                )
        for a, b in pairs:
            if not any(a):
                if b < 0:
                    return None
                continue
            g = math.gcd(*a, b)
            a, b = tuple(c // g for c in a), b // g
            if a not in lower or b < lower[a]:
                lower[a] = b
        if len(lower) > limit:
            levels[k] = [(a[:-1], a[-1], b) for a, b in rows]
            return levels
        levels[k] = [(a[:-1], a[-1], b) for a, b in rows if a[k]]
        rows = list(lower.items())
    levels[0] = [((), a[0], b) for a, b in rows]
    return levels


def _narrow(rows, prefix: tuple, lo: int, hi: int) -> tuple:
    """The integer range [lo, hi] of the next coordinate cut down by rows
    (head, c, rhs) at a prefix: a floor for c > 0, a ceiling for c < 0,
    and an empty range when a row with c = 0 has a negative remainder."""
    for head, c, b in rows:
        rest = b - sum(map(mul, head, prefix))
        if c > 0:
            hi = min(hi, rest // c)
        elif c < 0:
            lo = max(lo, -(rest // -c))
        elif rest < 0:
            return lo, lo - 1
    return lo, hi


def _scan_box(inst: CornerInstance, radius: int, box=None) -> list:
    """The radius box around round(f), clipped to box, as one (low, high)
    pair per axis; raises the scan's input errors (module docstring)."""
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
    f_ints, f_den = inst.f
    ranges = []
    for n in f_ints:  # round(n / f_den), ties to even: q + 1 past the half
        q, r = divmod(n, f_den)
        c = q + (2 * r + (q & 1) > f_den)
        ranges.append((c - radius, c + radius))
    if box is not None:
        ranges = [
            (low if lo is None else max(low, lo), high if hi is None else min(high, hi))
            for (low, high), (lo, hi) in zip(ranges, box)
        ]
    return ranges


def _slices(ranges: list, half_spaces: list):
    """The nonempty last-coordinate slices of the region's lattice points
    in the box ranges, as (prefix, lo, hi) in lexicographic order: the
    points are prefix + (v,) for lo <= v <= hi. One depth-first walk from
    the empty prefix runs each coordinate over its box range narrowed by
    its projected rows (_projections), so only prefixes in the region's
    shadow are visited; a coordinate with no projected row runs over its
    whole box range."""
    levels = _projections(half_spaces, len(ranges))
    if levels is None:
        return
    last = len(ranges) - 1
    stack = [()]
    while stack:
        prefix = stack.pop()
        k = len(prefix)
        lo, hi = _narrow(levels[k], prefix, *ranges[k])
        if k == last:
            if lo <= hi:
                yield prefix, lo, hi
        else:
            stack.extend(prefix + (v,) for v in range(hi, lo - 1, -1))


def region_lattice_points(
    inst: CornerInstance, radius: int, body: HPolyhedron | None = None, box=None
):
    """Lattice points of the closed region B intersect P inside the scan box
    around round(f), as tuples of ints, in lexicographic order. B is the
    x-space body of the centered body K (<a_i, z> <= 1 + <a_i, f>); with no
    body the region is P alone. A box, one (low, high) pair of ints per
    axis with None for a side without a bound (violation_box's form),
    clips the scan box. The points are those of the slices of _slices,
    each yielded whole. A radius below 0, a box without one pair per
    axis, or a radius box of more than MAX_SCAN_POINTS points, is an
    input error raised before any point is visited, however few points
    the region or the clipped box holds."""
    ranges = _scan_box(inst, radius, box)
    for prefix, lo, hi in _slices(ranges, _half_spaces(inst, body)):
        for v in range(lo, hi + 1):
            yield prefix + (v,)


def _offset(z, f: Scaled) -> Scaled:
    """z - f for a lattice point z, in scaled form over f's denominator."""
    return Scaled(tuple(v * f.den - n for v, n in zip(z, f.ints)), f.den)


def is_s_free(body: HPolyhedron, inst: CornerInstance, radius: int = DEFAULT_RADIUS) -> SFreeVerdict:
    """Scan the region for a feasible lattice point strictly inside the
    body; the first (lexicographically smallest) one found is the witness.
    Each slice of the region is narrowed by B's rows taken strictly,
    <a, z> <= rhs - 1 in ints, and the first that stays nonempty holds the
    witness at its low end."""
    ranges = _scan_box(inst, radius)
    half_spaces = _half_spaces(inst, body)
    strict = [(head, c, b - 1) for head, c, b in half_spaces[len(inst.p_rows) :]]
    for prefix, lo, hi in _slices(ranges, half_spaces):
        lo, hi = _narrow(strict, prefix, lo, hi)
        if lo <= hi:
            return SFreeVerdict(False, radius, vector(prefix + (lo,)))
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
    f_text = ", ".join(map(rational_text, unscaled(inst.f)))
    return Cut(
        alpha=alpha,
        provenance=f"centered body rows [{rows_text}] about f=({f_text})",
    )


def _ray_rows(inst: CornerInstance) -> tuple:
    """The rays as integer_rows gives them: int rows over their least
    common denominator, however each ray's Scaled is spelled."""
    return over_lcm([lowest(*r) for r in inst.rays])


def violation_box(inst: CornerInstance, alpha) -> tuple | None:
    """The integer box of every lattice point z at which the cut
    sum_j alpha_j s_j >= 1 can fail (module docstring), one (low, high)
    pair per axis with None for a side without a bound; None when some
    alpha_j < 0. alpha is read by scaled(), so a Scaled is taken as it
    is. With ray j read as its own Scaled R_j over r_j, alpha A over
    a_den and f F over f_den, the tip r_j / alpha_j is R_j over
    c_j = r_j A_j / a_den, so tips compare by cross-multiplying R_jd c_k
    with R_kd c_j, a_den cancelling (f itself reads as the tip 0 / 1), and
    f_d plus the least or greatest is (F_d r_j A_j + R_jd a_den f_den) /
    (f_den r_j A_j), whose ceiling or floor is taken by int floor
    division."""
    costs, a_den = scaled(alpha)
    if any(a < 0 for a in costs):
        return None
    f_ints, f_den = inst.f
    tips = [(r, den * a) for a, (r, den) in zip(costs, inst.rays) if a > 0]
    free = [r for a, (r, _) in zip(costs, inst.rays) if a == 0]
    box = []
    for d, f_d in enumerate(f_ints):
        low = high = (0, 1)
        for r, a in tips:
            if r[d] * low[1] < low[0] * a:
                low = (r[d], a)
            if r[d] * high[1] > high[0] * a:
                high = (r[d], a)
        (lo_num, lo_den), (hi_num, hi_den) = [
            (f_d * a + n * a_den * f_den, f_den * a) for n, a in (low, high)
        ]
        lo = None if any(r[d] < 0 for r in free) else -(-lo_num // lo_den)
        hi = None if any(r[d] > 0 for r in free) else hi_num // hi_den
        box.append((lo, hi))
    return tuple(box)


def _cut_certificates(rays, columns, costs, f_den: int) -> tuple:
    """The certificates of the cut's LP that hold at every point, found
    from the rays alone: (farkas, duals), Farkas rows y and duals (u, den)
    with u / den the LP's dual; two empty lists when the rays' (d - 1)-
    and d-subsets number more than _SEARCH_BUDGET. rays are the int rows
    R_j, columns the LP's columns f_den R_j and costs its int costs A.

    The int normal n (polyhedra._normal) of every d - 1 rays, and -n, is
    tried as a Farkas row: it is one when <n, R_j> >= 0 on every ray (the
    d - 1 rays span a facet of the ray cone). Every basis B of d rays has
    the dual vertex v with <v, R_j> = A_j on B: v = sum_j A_j n_j /
    <n_j, R_j> over j in B, n_j the normal of B without j, which is 0 on
    the other rays of B. Each <n_j, R_j> is +-det B, so v = V / D with
    D = |det B| and V = sum_j +-A_j n_j, no determinant taken; in the
    LP's units the dual is V / (D f_den). A candidate is kept only when
    lp.dual_feasible accepts it for the LP: a Farkas row for objective 0
    under max, a vertex for the costs under min."""
    k, dim = len(rays), len(rays[0])
    if math.comb(k + 1, dim) > _SEARCH_BUDGET:
        return [], []
    bounds = ("nonneg",) * k
    zero = (0,) * k
    normals, farkas, duals = {}, [], []
    for subset in combinations(range(k), dim - 1):
        n = _normal([rays[j] for j in subset])
        if any(n):
            normals[subset] = n
            for y in (n, tuple(-c for c in n)):
                if lp.dual_feasible(y, columns, zero, bounds, True):
                    farkas.append(y)
    for basis in combinations(range(k), dim):
        v = (0,) * dim
        for i, j in enumerate(basis):
            n = normals.get(basis[:i] + basis[i + 1 :])
            det = n and sum(map(mul, n, rays[j]))
            if not det:  # no normal, or <n, R_j> = 0: B is dependent
                break
            a = costs[j] if det > 0 else -costs[j]
            v = tuple(x + a * c for x, c in zip(v, n))
        else:
            den = abs(det) * f_den
            if lp.dual_feasible(v, columns, [den * c for c in costs], bounds, False):
                duals.append((v, den))
    return farkas, duals


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
    box (_scan_box leaves it unchanged), when it is empty on some axis (it
    holds no lattice point, however the other axes read), or when it is a
    violation.

    Each LP is posed in ints: rays R_j / r_den, t = T / f_den and alpha =
    A / a_den give row d as sum_j f_den R_jd s_j = r_den T_d and costs A,
    so its value is a_den times the minimum. Its dual feasible set, and so
    every certificate below but the bound, is the same at every point.
    Before the first point's LP, _cut_certificates builds the cut's
    Farkas rows and dual vertices from the rays alone, each accepted by
    lp.dual_feasible; each LP outcome is checked by lp.verify_certificate.
    Every certificate is kept as an int row to settle later points
    without an LP:

    * a Farkas row y is the dual test for objective 0: <y, R_j> >= 0 for
      every ray, so every offset with <y, T> < 0 is unreachable;
    * a dual u over den, with f_den <u, R_j> <= den A_j for every ray,
      proves value r_den <u, T> / den or more, so every offset with
      r_den <u, T> >= den a_den has minimum >= 1 by weak duality.

    A skipped point is therefore never a violation: the first point left
    without a proof is the first violation of the plain per-point scan,
    solved by the same LP, so the report is the same. An outcome that
    fails its check raises RuntimeError before anything is skipped."""
    if len(cut.alpha) != len(inst.rays):
        raise ValueError("one coefficient per ray required")
    rays, r_den = _ray_rows(inst)
    f = Scaled(*lowest(*inst.f))
    columns = [tuple(f.den * c for c in r) for r in rays]
    alpha = scaled(cut.alpha)
    costs, a_den = alpha
    bounds = ("nonneg",) * len(inst.rays)
    box = violation_box(inst, alpha)
    box_scanned = box is not None and (
        any(lo is not None and hi is not None and lo > hi for lo, hi in box)
        or list(box) == _scan_box(inst, radius, box)
    )
    # Built at the first point, so a region with none pays no search.
    farkas = None  # y: z is unreachable if <y, t> < 0
    duals = None  # (u, den): value >= 1 at z if <u, t> >= den, in ints
    for z in region_lattice_points(inst, radius, box=box):
        if farkas is None:
            farkas, duals = _cut_certificates(rays, columns, costs, f.den)
            duals = [(tuple(r_den * c for c in u), den * a_den) for u, den in duals]
        t = _offset(z, f).ints
        if any(sum(map(mul, y, t)) < 0 for y in farkas) or any(
            sum(map(mul, u, t)) >= den for u, den in duals
        ):
            continue
        rows = tuple((row, "=", r_den * c) for row, c in zip(zip(*columns), t))
        program = lp.LinearProgram(
            direction="min", objective=costs, rows=rows, bounds=bounds
        )
        outcome = lp.solve(program)
        if not lp.verify_certificate(program, outcome):
            raise RuntimeError(
                f"the {outcome.status} certificate at z = {z} fails "
                "lp.verify_certificate"
            )
        if outcome.status == "unbounded":
            return ValidityReport(
                False, radius, "global", CutViolation(vector(z), outcome.ray, True)
            )
        if outcome.status == "optimal" and outcome.value < a_den:
            return ValidityReport(
                False, radius, "global", CutViolation(vector(z), outcome.point, False)
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
    anything else is labelled heuristic. polyhedra.is_bounded decides
    boundedness.

    Each slice of the region is judged whole. A B row with last
    coefficient c != 0 is tight at one v of the slice at most, where c v
    equals its remainder, when c divides it; a row with c = 0 is tight on
    the whole slice when its remainder is 0, and nowhere else. A row is
    certified when some v of the slice is tight on it alone."""
    heuristic = bool(inst.p_rows) or not is_bounded(body.compiled)
    ranges = _scan_box(inst, radius)
    half_spaces = _half_spaces(inst, body)
    facets = half_spaces[len(inst.p_rows) :]
    uncertified = set(range(len(facets)))
    for prefix, lo, hi in _slices(ranges, half_spaces):
        whole, tight_at = [], {}
        for i, (head, c, b) in enumerate(facets):
            rest = b - sum(map(mul, head, prefix))
            if not c:
                if not rest:
                    whole.append(i)
            elif rest % c == 0 and lo <= rest // c <= hi:
                tight_at.setdefault(rest // c, []).append(i)
        if not whole:
            for rows in tight_at.values():
                if len(rows) == 1:
                    uncertified.discard(rows[0])
        elif len(whole) == 1 and len(tight_at) <= hi - lo:
            uncertified.discard(whole[0])
        if not uncertified:
            break
    return MaximalityReport(
        certified=not uncertified,
        radius=radius,
        uncertified_facets=tuple(sorted(uncertified)),
        heuristic=heuristic,
    )
