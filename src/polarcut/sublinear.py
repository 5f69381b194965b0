"""Sublinear functions attached to a canonical polyhedral set.

For a canonical set K = {x : <a_i, x> <= 1} three evaluators matter:

* gauge(K, x)             = max(0, max_i <a_i, x>), the Minkowski gauge -
                            equivalently the support function of the polar;
* minimal_sublinear(K, x) = max_i <a_i, x>, the pointwise-least sublinear
                            function whose unit ball is K (it drops the
                            clamp at zero, so it goes negative on the
                            interior of the recession cone);
* support(C, x)           = max over a finite generator set C (a
                            VPolytope), covering every candidate in
                            between.

The checks below make the minimality statement executable: any support
function whose generators squeeze between the tight polar points and the
polar itself agrees with the sandwich
minimal_sublinear <= support <= gauge pointwise, the unit ball is
recoverable from either evaluator, and off the recession cone all three
routes agree exactly. property_suite runs all of these checks over a list
of sets and tallies the outcome.

check_unit_ball proves a generator's membership in the polar in one of
two ways: by its own convex weights over polar(h).points, which
random_unit_ball_rep keeps on the generator set (VPolytope.polar_weights)
and which are checked in ints with no LP, or, for a generator without
valid weights, by the support LP sup_over over the set's rows.

The evaluators and checks take a point in either form, a rational tuple or
its rationals.Scaled form; property_suite scales each sample once per set,
so every check on it pairs int vectors, and a rational is built only for a
value that is returned or a violation that is reported. block_values
evaluates gauge or minimal_sublinear on a whole block of points in
rationals.scaled_columns' int-column form, one row of the set at a time,
and returns the values as int columns too (rationals.Values): no Fraction
is built on that path.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, product, repeat
from math import gcd
from operator import add, floordiv, mul

from . import lp
from .polyhedra import (
    HPolyhedron,
    VPolytope,
    exposed_witness,
    hull_membership,
    in_recession,
    membership,
    pairings,
    sup_over,
)
from .rationals import (
    ZERO,
    Scaled,
    Values,
    Vec,
    is_zero_vector,
    scaled,
    unscaled,
)

SUITE_CANDIDATES = 3  # unit-ball representations tried per set


@dataclass(frozen=True)
class SandwichReport:
    """violations holds one tuple per failed sample (the sample followed by
    the compared values, lower to upper); passed iff there are none."""

    samples_checked: int
    violations: tuple
    passed: bool


def gauge(h: HPolyhedron, x):
    values, scale = pairings(h.compiled, x)
    top = max(values)
    return Fraction(top, scale) if top > 0 else ZERO


def minimal_sublinear(h: HPolyhedron, x):
    values, scale = pairings(h.compiled, x)
    return Fraction(max(values), scale)


def block_values(h: HPolyhedron, block, clamp: bool) -> Values:
    """gauge(h, x) (clamp) or minimal_sublinear(h, x) at every point x of
    a block (cols, dens) in rationals.scaled_columns' form, in order, as
    int columns Values(nums, dens) in lowest terms.

    The pairings are int column passes: for each row a, the sum over j of
    a_j * cols[j], skipping a_j = 0; then the maximum over the rows (and
    0 when clamped) point by point, over the scale den * dens[k]; then one
    gcd pass and two floordiv passes reduce each value. No Fraction is
    built. A hand-built block is checked as scaled() checks a Scaled:
    every denominator must be a positive int."""
    cols, dens = block
    rows, den = h.compiled
    if len(cols) != h.dim:
        raise ValueError(f"dimension mismatch: {h.dim} vs {len(cols)}")
    if not set(map(type, dens)) <= {int} or (dens and min(dens) <= 0):
        bad = next(d for d in dens if type(d) is not int or d <= 0)
        raise ValueError(f"a block denominator must be a positive int: {bad!r}")
    if not set(map(len, cols)) <= {len(dens)}:
        raise ValueError(f"every column must hold {len(dens)} points")
    pairs = []
    for a in rows:
        total = None
        for c, col in zip(a, cols):
            if c:
                term = map(mul, repeat(c), col)
                total = term if total is None else map(add, total, term)
        pairs.append(list(total))
    scales = list(map(mul, repeat(den), dens))
    if clamp:
        tops = list(map(max, repeat(0), *pairs))
    else:
        tops = list(map(max, *pairs)) if len(pairs) > 1 else pairs[0]
    common = list(map(gcd, tops, scales))  # scales > 0, so gcd(0, s) = s
    nums = list(map(floordiv, tops, common))
    return Values(nums, list(map(floordiv, scales, common)))


def support(gens: VPolytope, x):
    values, scale = pairings(gens.compiled, x)
    return Fraction(max(values), scale)


def _weights_prove(v, weights, compiled: tuple) -> bool:
    """Do the weights w over polar(h).points (the origin first, then the
    rows) prove that the generator v lies in the polar of h, for compiled =
    h.compiled = (int rows r, den)? With v = ints / d in scaled form, they
    do when there is one weight per point, every w_i is an int >= 0,
    W = sum w > 0, and ints * den * W == d * sum_{i>=1} w_i r_i in every
    coordinate. Then v = sum_{i>=1} (w_i / W) a_i, and for every x in K,
    <v, x> <= sum_{i>=1} w_i / W <= 1 (weak duality, with multipliers
    w_i / W on the rows), so sup_over(compiled, v) <= 1 with no LP."""
    rows, den = compiled
    if len(weights) != len(rows) + 1 or not all(
        type(w) is int and w >= 0 for w in weights
    ):
        return False
    total = sum(weights)
    if total <= 0:
        return False
    ints, d = scaled(v)
    scale = den * total
    on_rows = weights[1:]
    return all(
        c * scale == d * sum(map(mul, on_rows, col))
        for c, col in zip(ints, zip(*rows))
    )


def check_unit_ball(gens: VPolytope, h: HPolyhedron) -> bool:
    """Is the sandwich guaranteed for this generator set?

    Two exact conditions: (a) every row of h lies in the hull of the
    generators, so the support dominates the minimal evaluator; (b) every
    generator v lies in the polar, so the gauge dominates the support.
    Generators that are literal rows of h satisfy (b) by definition of K
    and are skipped, as is the zero vector. A generator whose
    gens.polar_weights entry proves it a convex combination of
    polar(h).points (_weights_prove, exact int arithmetic on h.compiled)
    satisfies (b) with no LP; any other generator, one with no weights or
    with weights that fail the test, needs sup_over(h.compiled, v) finite
    and at most 1. Both routes give the same verdict.
    """
    if gens.dim != h.dim:
        raise ValueError("generator dimension differs from the set's")
    for a in h.rows:
        if not hull_membership(a, gens).inside:
            return False
    row_set = set(h.rows)
    claims = gens.polar_weights or repeat(None)
    for v, weights in zip(gens.points, claims):
        if v in row_set or is_zero_vector(v):
            continue
        if weights is not None and _weights_prove(v, weights, h.compiled):
            continue
        top = sup_over(h.compiled, v)
        if top is None or top > 1:
            return False
    return True


def random_unit_ball_rep(h: HPolyhedron, seed: int, count: int) -> VPolytope:
    """Seeded valid generator set: the rows of h plus `count` random exact
    convex combinations of the origin and the rows (duplicates merged).
    Always passes check_unit_ball by construction, and carries its proof:
    each added point keeps its int weights over polar(h).points (weight 0
    is the origin's) in polar_weights, and the rows have None there. Each
    coordinate is one int sum over h.compiled's columns."""
    rng = random.Random(seed)
    rows, den = h.compiled
    cols = tuple(zip(*rows))
    gens = list(h.rows)
    claims = [None] * len(gens)
    seen = set(gens)
    for _ in range(count):
        weights = [rng.randint(0, 4) for _ in range(len(rows) + 1)]
        if sum(weights) == 0:
            weights[0] = 1
        scale = sum(weights) * den
        point = tuple(Fraction(sum(map(mul, weights[1:], col)), scale) for col in cols)
        if point not in seen:
            seen.add(point)
            gens.append(point)
            claims.append(tuple(weights))
    return VPolytope(h.dim, tuple(gens), tuple(claims))


def sandwich_check(h: HPolyhedron, gens: VPolytope, samples) -> SandwichReport:
    """Exact minimal_sublinear <= support <= gauge at every sample.

    Refuses candidates that are not unit-ball representations of h - the
    sandwich is only a theorem under that precondition."""
    if not check_unit_ball(gens, h):
        raise ValueError(
            "candidate generators are not a unit-ball representation of the set"
        )
    violations = []
    count = 0
    for x in samples:
        count += 1
        # low / s_low <= mid / s_mid <= max(low, 0) / s_low, cross-multiplied
        # by the positive scales.
        rho, s_low = pairings(h.compiled, x)
        sigma, s_mid = pairings(gens.compiled, x)
        low = max(rho)
        mid = max(sigma)
        if not low * s_mid <= mid * s_low <= max(low, 0) * s_mid:
            violations.append(
                (unscaled(x), minimal_sublinear(h, x), support(gens, x), gauge(h, x))
            )
    return SandwichReport(count, tuple(violations), not violations)


def reconstruct_check(h: HPolyhedron, samples) -> bool:
    """The set is recoverable from the minimal evaluator: a sample belongs
    iff its value is <= 1, and rescaling any sample with positive gauge onto
    the boundary lands exactly on value 1."""
    for x in samples:
        rho = minimal_sublinear(h, x)
        inside = membership(h, x).position != "outside"
        if inside != (rho <= 1):
            return False
        g = gauge(h, x)
        if g > 0:
            ints, den = scaled(x)
            on_boundary = Scaled(
                tuple(v * g.denominator for v in ints), den * g.numerator
            )
            if minimal_sublinear(h, on_boundary) != 1:
                return False
    return True


def polar_support_lp(h: HPolyhedron, x):
    """sup of <x, .> over the polar, computed as an LP over exact convex
    multipliers of {0} union rows. The objective is polyhedra.pairings of
    x with the rows, shared with the direct evaluators; only the maximum,
    taken by the LP, is an independent step. The pairings' one positive
    scale divides the optimum. The program is posed in ints, its one row
    the simplex's."""
    values, scale = pairings(h.compiled, x)
    npts = len(values) + 1
    outcome = lp.solve(
        lp.LinearProgram(
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


def off_recession_check(h: HPolyhedron, x) -> bool:
    """Off the recession cone the three routes agree exactly:
    minimal_sublinear = gauge = the polar-support LP value.

    Points inside the recession cone are rejected - the agreement is not a
    theorem there."""
    if in_recession(h, x):
        raise ValueError("sample lies in the recession cone")
    rho = minimal_sublinear(h, x)
    return rho == gauge(h, x) and rho == polar_support_lp(h, x)


def _first_recession_signs(products):
    """The first sign pattern s, in the order of product((1, -1),
    repeat=dim), with sum(s_k * t_k) <= 0 for every t in products (int
    tuples of width dim); None when there is none.

    A depth-first search over the signs in that order. A prefix is dropped
    once some row's partial sum, plus the most negative amount the
    remaining coordinates can add (minus the sum of their |t_k|), is still
    > 0: no completion of it can pass that row, so the first pattern found
    is the enumeration's first."""
    dim = len(products[0])
    # rest[r][k] = sum of |t_k'| over k' >= k for row r, with rest[r][dim] = 0
    rest = [list(accumulate(map(abs, reversed(t)), initial=0))[::-1] for t in products]
    signs: list = []
    partial = [[0] * len(products)]  # partial[k]: row sums over the first k signs
    while True:
        k = len(signs)
        if all(p <= tail[k] for p, tail in zip(partial[k], rest)):
            if k == dim:
                return tuple(signs)
            signs.append(1)
            partial.append([p + t[k] for p, t in zip(partial[k], products)])
            continue
        while signs and signs[-1] == -1:
            signs.pop()
            partial.pop()
        if not signs:
            return None
        signs[-1] = -1
        partial.pop()
        k = len(signs) - 1
        partial.append([p - t[k] for p, t in zip(partial[k], products)])


def sample_points(h: HPolyhedron, seed: int, count: int) -> tuple:
    """Deterministic seeded sample mix: a small integer grid slab, random
    rational points, boundary rescalings of positive-gauge samples, and
    recession-cone members found by sign search. Exactly `count` points."""
    rng = random.Random(seed)
    dim = h.dim
    out = []

    def rand_point() -> Vec:
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
    source = list(out)
    for x in source:
        if len(out) >= boundary_quota:
            break
        g = gauge(h, x)
        if g > 0:
            out.append(tuple(v / g for v in x))

    # A sign pattern s puts s * base in the recession cone iff every row's
    # sum of s_k * a_k * base_k is <= 0; the products are ints computed once
    # per base.
    recession_quota = min(count // 8, boundary_quota + count - len(out))
    found = 0
    rows, _ = h.compiled
    for _ in range(recession_quota * 4):
        if found >= recession_quota or len(out) >= count:
            break
        base = rand_point()
        ibase, _ = scaled(base)
        signs = _first_recession_signs([tuple(map(mul, a, ibase)) for a in rows])
        if signs is not None:
            out.append(tuple(s * v for s, v in zip(signs, base)))
            found += 1

    while len(out) < count:
        out.append(rand_point())
    return tuple(out[:count])


def property_suite(instances, seed: int, samples: int) -> tuple[dict, int]:
    """Every check above on each set, in a fixed order: SUITE_CANDIDATES
    seeded sandwich checks, reconstruction, off-recession agreement on the
    samples outside the recession cone, and the exposed witness of every
    row. Set `index` draws its samples from seed + 7919 * index.

    Returns (tally, violations): per-check counts, with the first sandwich
    and off-recession violations as rational vectors (None when there is
    none), and the total count of violations and failures."""
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
        pts = sample_points(h, seed + 7919 * index, samples)
        spts = tuple(map(scaled, pts))

        for c in range(SUITE_CANDIDATES):
            gens = random_unit_ball_rep(h, seed + 104729 * index + c, 5)
            report = sandwich_check(h, gens, spts)
            sandwich["pairs"] += 1
            sandwich["samples_checked"] += report.samples_checked
            sandwich["violations"] += len(report.violations)
            if report.violations and sandwich["first_violation"] is None:
                sandwich["first_violation"] = report.violations[0][0]

        recon["instances_checked"] += 1
        if not reconstruct_check(h, spts):
            recon["failures"] += 1

        for x, sx in zip(pts, spts):
            if in_recession(h, sx):
                continue
            off["samples_checked"] += 1
            if not off_recession_check(h, sx):
                off["violations"] += 1
                if off["first_violation"] is None:
                    off["first_violation"] = x

        for i in range(len(h.rows)):
            exposed["rows_checked"] += 1
            if membership(h, exposed_witness(h, i)).tight_rows != (i,):
                exposed["failures"] += 1

    violations = (
        sandwich["violations"]
        + recon["failures"]
        + off["violations"]
        + exposed["failures"]
    )
    return tally, violations
