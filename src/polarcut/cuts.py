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
it from B's rows and right-hand sides in x-space and f. Validity is
inherited from sublinearity - any s reaching a point of S satisfies the
inequality because the body is S-free - and is additionally *checked* here
point by point on a lattice region, by exact LPs, rather than trusted.

region_lattice_points is the one enumerator of a region: the integer box of
a given radius (never negative) around round(f), each coordinate rounded
half to even, in lexicographic order, filtered to P with integer dot
products. A box of more than MAX_SCAN_POINTS points is refused before the
scan starts. is_s_free, check_cut_validity and maximality_certificate each
make one pass over it and classify a point once, so reported witnesses are
deterministic: the lexicographically smallest in the box. Each pass scales
f once (rationals.Scaled), so the offset z - f of a lattice point is int
arithmetic, and builds a rational only for a reported point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from operator import mul

from . import lp
from .polyhedra import HPolyhedron, membership, normalize, sup_over
from .rationals import (
    ONE,
    ZERO,
    Scaled,
    Vec,
    dot,
    integer_rows,
    is_integral,
    scaled,
    unscaled,
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


@dataclass(frozen=True)
class CornerInstance:
    """Anchor f (at least one non-integer coordinate), nonempty rays, and an
    optional H-description of P (general right-hand sides)."""

    dim: int
    f: Vec
    rays: tuple
    p_rows: tuple = ()
    p_rhs: tuple = ()

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dimension must be positive")
        if len(self.f) != self.dim:
            raise ValueError("anchor width differs from dimension")
        if all(is_integral(c) for c in self.f):
            raise ValueError("anchor must have a non-integer coordinate")
        if not self.rays:
            raise ValueError("at least one ray required")
        for r in self.rays:
            if len(r) != self.dim:
                raise ValueError("ray width differs from dimension")
        if len(self.p_rows) != len(self.p_rhs):
            raise ValueError("P row/right-hand-side count mismatch")
        for row in self.p_rows:
            if len(row) != self.dim:
                raise ValueError("P row width differs from dimension")

    @classmethod
    def make(cls, dim, f, rays, p_rows=(), p_rhs=()):
        return cls(
            dim,
            vector(f),
            tuple(vector(r) for r in rays),
            tuple(vector(r) for r in p_rows),
            tuple(Fraction(b) for b in p_rhs),
        )


@dataclass(frozen=True)
class Cut:
    alpha: tuple
    provenance: str


@dataclass(frozen=True)
class SFreeVerdict:
    free_on_region: bool
    radius: int
    witness: Vec | None = None


@dataclass(frozen=True)
class CutViolation:
    """x is the offending lattice point; s either attains value < 1
    (improving_ray False) or is a feasible direction along which the value
    drops without bound (improving_ray True)."""

    x: Vec
    s: Vec
    improving_ray: bool


@dataclass(frozen=True)
class ValidityReport:
    valid_on_region: bool
    radius: int
    violation: CutViolation | None = None


@dataclass(frozen=True)
class MaximalityReport:
    """certified iff every facet of the centered body is touched by a
    feasible lattice point tight on exactly that facet. heuristic flags
    verdicts outside the certified scope - P present, or the support of the
    centered body infinite along some axis (the body is unbounded): there
    the scan radius may simply have missed the touching points."""

    certified: bool
    radius: int
    uncertified_facets: tuple
    heuristic: bool


def make_body(b_rows, b_rhs, f: Vec) -> HPolyhedron:
    """The body of a cut, K = B - f in canonical row form, from B's rows and
    right-hand sides in x-space: {r : <a_i, r> <= b_i - <a_i, f>},
    normalized. Demands f strictly interior (every shifted rhs positive)."""
    rows = [vector(a) for a in b_rows]
    rhs = [Fraction(b) for b in b_rhs]
    if len(rows) != len(rhs):
        raise ValueError("body row/right-hand-side count mismatch")
    shifted = []
    for a, b in zip(rows, rhs):
        margin = b - dot(a, f)
        if margin <= 0:
            raise AnchorNotInteriorError("f not interior to the body")
        shifted.append(margin)
    return normalize(rows, shifted)


def region_lattice_points(inst: CornerInstance, radius: int):
    """Lattice points of the scan box around round(f), as tuples of ints,
    lexicographic order, filtered to P. P's rows [p_i | b_i] are compiled
    to integers once, so the filter is pure int arithmetic. A radius below
    0, or a box of more than MAX_SCAN_POINTS points, is an input error
    raised before any point is visited."""
    if radius < 0:
        raise ValueError(f"scan radius must be >= 0, got {radius}")
    side = 2 * radius + 1
    if side > MAX_SCAN_POINTS or side**inst.dim > MAX_SCAN_POINTS:
        raise ValueError(
            f"a radius-{radius} scan in dimension {inst.dim} visits "
            f"{side}^{inst.dim} points, over the limit of {MAX_SCAN_POINTS}"
        )
    center = [round(c) for c in inst.f]
    ranges = [range(c - radius, c + radius + 1) for c in center]
    rows, _ = integer_rows([p + (b,) for p, b in zip(inst.p_rows, inst.p_rhs)])
    p_int = [(row[:-1], row[-1]) for row in rows]
    for ints in product(*ranges):
        if all(sum(map(mul, p, ints)) <= b for p, b in p_int):
            yield ints


def _offset(z, f: Scaled) -> Scaled:
    """z - f for a lattice point z, in scaled form over f's denominator."""
    return Scaled(tuple(v * f.den - n for v, n in zip(z, f.ints)), f.den)


def is_s_free(body: HPolyhedron, inst: CornerInstance, radius: int = DEFAULT_RADIUS) -> SFreeVerdict:
    """Scan the region for a feasible lattice point strictly inside the
    body; the first (lexicographically smallest) one found is the witness."""
    f = scaled(inst.f)
    for z in region_lattice_points(inst, radius):
        if membership(body, _offset(z, f)).position == "interior":
            return SFreeVerdict(False, radius, vector(z))
    return SFreeVerdict(True, radius, None)


def generate_cut(inst: CornerInstance, body: HPolyhedron, radius: int = DEFAULT_RADIUS) -> Cut:
    """Refuses (NotSFreeError, with witness) unless the body scans S-free on
    the region; otherwise one coefficient per ray."""
    verdict = is_s_free(body, inst, radius)
    if not verdict.free_on_region:
        raise NotSFreeError(verdict.witness, radius)
    alpha = tuple(minimal_sublinear(body, r) for r in inst.rays)
    rows_text = ", ".join(
        "(" + ", ".join(str(c) for c in row) + ")"
        for row in body.rows
    )
    f_text = ", ".join(str(c) for c in inst.f)
    return Cut(
        alpha=alpha,
        provenance=f"centered body rows [{rows_text}] about f=({f_text})",
    )


def check_cut_validity(inst: CornerInstance, cut: Cut, radius: int = DEFAULT_RADIUS) -> ValidityReport:
    """For each feasible lattice point z in the region, minimize the cut's
    left-hand side over the exact ray combinations reaching z. The cut is
    valid on the region iff every such point is unreachable or has minimum
    >= 1. A minimum below 1 (or an unbounded descent direction) is returned
    as the lexicographically first violation."""
    if len(cut.alpha) != len(inst.rays):
        raise ValueError("one coefficient per ray required")
    columns = tuple(zip(*inst.rays))  # coordinate d of every ray
    bounds = ("nonneg",) * len(inst.rays)
    f = scaled(inst.f)
    for z in region_lattice_points(inst, radius):
        target = unscaled(_offset(z, f))
        rows = tuple((col, "=", t) for col, t in zip(columns, target))
        outcome = lp.solve(
            lp.LinearProgram(
                direction="min", objective=cut.alpha, rows=rows, bounds=bounds
            )
        )
        if outcome.status == "infeasible":
            continue
        if outcome.status == "unbounded":
            return ValidityReport(
                False, radius, CutViolation(vector(z), outcome.ray, True)
            )
        if outcome.value < 1:
            return ValidityReport(
                False, radius, CutViolation(vector(z), outcome.point, False)
            )
    return ValidityReport(True, radius, None)


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
        sup_over(body.rows, tuple(s if j == d else ZERO for j in range(body.dim)))
        is None
        for d in range(body.dim)
        for s in (ONE, -ONE)
    )
    uncertified = set(range(len(body.rows)))
    f = scaled(inst.f)
    for z in region_lattice_points(inst, radius):
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

