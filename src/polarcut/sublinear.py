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
routes agree exactly: minimal_sublinear, gauge and the support of the polar
itself, support(polar(h), x), the max over the origin and the rows; no
LP is posed for a sample. property_suite runs all of these checks over a list
of sets and tallies the outcome.

check_unit_ball proves a generator's membership in the polar in one of
two ways: by its own convex weights over polar(h).points, which
random_unit_ball_rep keeps on the generator set (VPolytope.polar_weights)
and which are checked in ints with no LP, or, for a generator without
valid weights, by polyhedra.exposed_point among the set's rows, which
finds no point for a generator in the polar (there it would be a
redundant row). Both
functions tell points apart on ints: no Fraction is hashed, and the drawn
set comes with its compiled form, made from the ints it was drawn in
rather than by integer_rows of its Fraction points. The exposed
check takes each row's witness from exposed_point too; a row with none,
a redundant row of a hand-built set, fails it. sample_points draws its
samples as Scaled points, and runs no recession sign search on a set
that polyhedra.proved_bounded proves bounded (where only the zero base
passes). Both draw rng.randint's numbers without its calls (_randints).

The evaluators and checks take a point in either form, a rational tuple or
its rationals.Scaled form. The checks run on one int column kernel,
polyhedra.column_max: a list of samples is scaled once and laid out as a
block (cols, dens) in rationals.scaled_columns' form (_sample_block, which
also builds sample_points' block), and each vector list (the set's rows,
a candidate's generators, polar(h)'s points, the boundary rescalings'
block) is paired with the whole block in one int pass per vector, of
which only the maximum at each point is kept (ColumnMax). property_suite
builds each set's block once, takes one pass over its rows for all the
checks, and builds polar(h) once per set: seven column passes per set,
sample_points' boundary pass among them. The only per-point pairing left
is reconstruction's membership cross-check. A rational is built only for
a value that is returned or a violation that is reported. block_values
is ColumnMax over the rows (minimal_sublinear) or over polar(h)'s points
(the gauge), returned as int columns (rationals.Values), no Fraction.
"""

from __future__ import annotations

import random
from collections import namedtuple
from fractions import Fraction
from itertools import accumulate, compress, product, repeat
from math import gcd, lcm
from operator import floordiv, mul

from .polyhedra import (
    ColumnMax,
    HPolyhedron,
    VPolytope,
    column_max,
    exposed_point,
    hull_membership,
    membership,
    pairings,
    polar,
    proved_bounded,
)
from .rationals import (
    ZERO,
    Scaled,
    Values,
    lowest,
    over_lcm,
    scaled,
    unscaled,
)

SUITE_CANDIDATES = 3  # unit-ball representations tried per set


class SandwichReport(namedtuple("SandwichReport", "samples_checked violations passed")):
    """violations holds one tuple per failed sample (the sample followed by
    the compared values, lower to upper); passed iff there are none."""

    __slots__ = ()


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

    The values are column_max over h's rows, or over polar(h)'s points
    when clamped: the gauge is the support of the polar, whose origin adds
    the 0. Then one gcd pass and two floordiv passes reduce each value. No
    Fraction is built. A hand-built block is checked as scaled() checks a
    Scaled: every denominator must be a positive int."""
    cols, dens = block
    if len(cols) != h.dim:
        raise ValueError(f"dimension mismatch: {h.dim} vs {len(cols)}")
    if not set(map(type, dens)) <= {int} or (dens and min(dens) <= 0):
        bad = next(d for d in dens if type(d) is not int or d <= 0)
        raise ValueError(f"a block denominator must be a positive int: {bad!r}")
    if not set(map(len, cols)) <= {len(dens)}:
        raise ValueError(f"every column must hold {len(dens)} points")
    tops, scales = column_max(polar(h).compiled if clamp else h.compiled, block)
    common = list(map(gcd, tops, scales))  # scales > 0, so gcd(0, s) = s
    nums = list(map(floordiv, tops, common))
    return Values(nums, list(map(floordiv, scales, common)))


def support(gens: VPolytope, x):
    values, scale = pairings(gens.compiled, x)
    return Fraction(max(values), scale)


def _weights_prove(ints, d: int, weights, compiled: tuple) -> bool:
    """Do the weights w over polar(h).points (the origin first, then the
    rows) prove that the generator v = ints / d lies in the polar of h,
    for compiled = h.compiled = (int rows r, den)? They do when there is
    one weight per point, every w_i is an int >= 0, W = sum w > 0, and
    ints * den * W == d * sum_{i>=1} w_i r_i in every coordinate. Then
    v = sum_{i>=1} (w_i / W) a_i, and for every x in K,
    <v, x> <= sum_{i>=1} w_i / W <= 1 (weak duality, with multipliers
    w_i / W on the rows), so sup of <v, x> over the set is <= 1 with no
    LP."""
    rows, den = compiled
    if len(weights) != len(rows) + 1 or not all(
        type(w) is int and w >= 0 for w in weights
    ):
        return False
    total = sum(weights)
    if total <= 0:
        return False
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
    and are skipped, as is the zero vector; a row that is a literal
    generator satisfies (a) with no LP. Rows and generators are compared
    on their compiled ints, each side times the other's den. A generator
    whose gens.polar_weights entry proves it a convex combination of
    polar(h).points (_weights_prove, exact int arithmetic on h.compiled)
    satisfies (b) with no LP; any other generator, one with no weights or
    with weights that fail the test, lies in the polar exactly when
    exposed_point(its key, the row keys, den * d) is None: a ray may prove
    it outside with no LP, the basis search may prove it inside (in
    conv({0} union rows)) with no LP, and otherwise one support LP
    decides. All routes give the same verdict.
    """
    if gens.dim != h.dim:
        raise ValueError("generator dimension differs from the set's")
    rows, den = h.compiled
    points, d = gens.compiled
    row_keys = [tuple(c * d for c in r) for r in rows]
    gen_keys = [tuple(c * den for c in p) for p in points]
    literal = set(gen_keys)
    for a, key in zip(h.rows, row_keys):
        if key not in literal and not hull_membership(a, gens).inside:
            return False
    row_set = set(row_keys)
    claims = gens.polar_weights or repeat(None)
    for p, key, weights in zip(points, gen_keys, claims):
        if key in row_set or not any(p):
            continue
        if weights is not None and _weights_prove(p, d, weights, h.compiled):
            continue
        if exposed_point(key, row_keys, den * d) is not None:
            return False
    return True


def _randints(bits, spans) -> list:
    """[rng.randint(lo, hi) for lo, hi in spans], the same numbers in the
    same order, for bits = rng.getrandbits, without randint's calls:
    CPython's randint draws k = width.bit_length() bits and draws again
    while they reach the width hi - lo + 1 (Random._randbelow). That loop
    is a CPython implementation detail, which a test pins."""
    out = []
    for lo, hi in spans:
        width = hi - lo + 1
        k = width.bit_length()
        r = bits(k)
        while r >= width:
            r = bits(k)
        out.append(lo + r)
    return out


def random_unit_ball_rep(h: HPolyhedron, seed: int, count: int) -> VPolytope:
    """Seeded valid generator set: the rows of h plus `count` random exact
    convex combinations of the origin and the rows (duplicates merged).
    Always passes check_unit_ball by construction, and carries its proof:
    each added point keeps its int weights over polar(h).points (weight 0
    is the origin's; drawn as rng.randint(0, 4) would draw them, by
    _randints) in polar_weights, and the rows have None there. Each
    coordinate is one int sum over h.compiled's columns; points are told
    apart by their ints over their least denominator, and a Fraction is
    built only for a point that is kept. The set is handed its compiled
    form from those ints: every kept point over the lcm of h's den and
    their least denominators, which is integer_rows of the points."""
    bits = random.Random(seed).getrandbits
    rows, den = h.compiled
    cols = tuple(zip(*rows))
    gens = list(h.rows)
    claims = [None] * len(gens)
    seen = set(map(lowest, rows, repeat(den)))
    kept = [(r, den) for r in rows]
    spans = ((0, 4),) * (len(rows) + 1)
    for _ in range(count):
        weights = _randints(bits, spans)
        if sum(weights) == 0:
            weights[0] = 1
        nums = [sum(map(mul, weights[1:], col)) for col in cols]
        key = lowest(nums, sum(weights) * den)
        if key not in seen:
            seen.add(key)
            ints, scale = key
            gens.append(tuple(Fraction(n, scale) for n in ints))
            claims.append(tuple(weights))
            kept.append(key)
    return VPolytope(h.dim, tuple(gens), tuple(claims), over_lcm(kept))


def _sample_block(samples, dim: int) -> tuple:
    """(points, block): the samples scaled once, as Scaled points, and as
    one block (cols, dens) of int columns for column_max. A violation
    reports unscaled(points[k]), the sample's own rational values."""
    points = tuple(map(scaled, samples))
    widths = {len(p.ints) for p in points} - {dim}
    if widths:
        raise ValueError(f"dimension mismatch: {dim} vs {min(widths)}")
    return points, (list(zip(*(p.ints for p in points))), [p.den for p in points])


def _sandwich_report(h, gens, points, block, rho: ColumnMax) -> SandwichReport:
    """sandwich_check on the samples, scaled (points) and as a block, given
    h's column maxima rho over them: one column pass over the
    generators."""
    if not check_unit_ball(gens, h):
        raise ValueError(
            "candidate generators are not a unit-ball representation of the set"
        )
    sigma = column_max(gens.compiled, block)
    den_h, den_c = h.compiled[1], gens.compiled[1]
    # low / (den_h d) <= mid / (den_c d) <= max(low, 0) / (den_h d): the
    # sample's own d cancels, so cross-multiply by den_c and den_h alone.
    violations = tuple(
        (
            unscaled(x),
            Fraction(low, s_low),
            Fraction(mid, s_mid),
            Fraction(low, s_low) if low > 0 else ZERO,
        )
        for x, low, mid, s_low, s_mid in zip(
            points, rho.tops, sigma.tops, rho.scales, sigma.scales
        )
        if not low * den_c <= mid * den_h <= max(low, 0) * den_c
    )
    return SandwichReport(len(points), violations, not violations)


def _reconstruct_holds(h: HPolyhedron, points, block, rho: ColumnMax) -> bool:
    """reconstruct_check on the samples, scaled (points) and as a block,
    given h's column maxima rho over them. Each maximum is checked against
    membership at its point. The rescalings x / rho(x) of the samples with
    rho(x) > 0, the columns times den over the tops, form a second block,
    where every value must equal its scale."""
    for p, top, scale in zip(points, rho.tops, rho.scales):
        if (membership(h, p).position != "outside") != (top <= scale):
            return False
    den = h.compiled[1]
    positive = [top > 0 for top in rho.tops]
    boundary = column_max(
        h.compiled,
        (
            [list(map(mul, repeat(den), compress(col, positive))) for col in block[0]],
            list(compress(rho.tops, positive)),
        ),
    )
    return boundary.tops == boundary.scales


def _off_recession_misses(rho: ColumnMax, polar_max: ColumnMax, ks) -> list:
    """The samples k of ks, all off the recession cone, where rho, h's
    column maxima, differs from polar_max, the support of polar(h), over
    the same block. Off the cone rho > 0, so rho is the gauge there too."""
    tops, scales = rho
    polar_tops, polar_scales = polar_max
    return [k for k in ks if tops[k] * polar_scales[k] != polar_tops[k] * scales[k]]


def _off_recession_samples(h: HPolyhedron, block, rho: ColumnMax) -> tuple:
    """(ks, misses): the samples of the block off the recession cone, those
    with a positive pairing (rho > 0), and the ones among them that
    _off_recession_misses finds apart from the polar's support, with
    polar(h) built once for the block."""
    ks = [k for k, top in enumerate(rho.tops) if top > 0]
    return ks, _off_recession_misses(rho, column_max(polar(h).compiled, block), ks)


def sandwich_check(h: HPolyhedron, gens: VPolytope, samples) -> SandwichReport:
    """Exact minimal_sublinear <= support <= gauge at every sample.

    Refuses candidates that are not unit-ball representations of h - the
    sandwich is only a theorem under that precondition. The samples are
    evaluated as one block: one column pass over h's rows and one over
    the generators."""
    points, block = _sample_block(samples, h.dim)
    return _sandwich_report(h, gens, points, block, column_max(h.compiled, block))


def reconstruct_check(h: HPolyhedron, samples) -> bool:
    """The set is recoverable from the minimal evaluator: a sample belongs
    iff its value is <= 1, and rescaling any sample with positive gauge onto
    the boundary lands exactly on value 1."""
    points, block = _sample_block(samples, h.dim)
    return _reconstruct_holds(h, points, block, column_max(h.compiled, block))


def off_recession_check(h: HPolyhedron, x) -> bool:
    """Off the recession cone the three routes agree exactly:
    minimal_sublinear = gauge = support(polar(h), x), the max over the
    polar's generators, the origin among them.

    Points inside the recession cone are rejected - the agreement is not a
    theorem there."""
    _, block = _sample_block((x,), h.dim)
    ks, misses = _off_recession_samples(h, block, column_max(h.compiled, block))
    if not ks:
        raise ValueError("sample lies in the recession cone")
    return not misses


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
    recession-cone members found by sign search. Exactly `count` points,
    each a Scaled; no Fraction is built and no evaluator is called.

    A random point draws a (numerator, denominator) pair per coordinate
    (_randints: rng.randint's numbers) and is put over their lcm. For
    h.compiled = (rows r, den), the
    samples' largest row pairings top = max_i <r_i, x.ints> come from one
    column pass, and a sample with top > 0 (a positive gauge) is rescaled
    onto the boundary as Scaled(den * x.ints, top), which is x / gauge(h,
    x). On a set that polyhedra.proved_bounded proves bounded, with no LP,
    the recession cone is {0}: a base passes only when it is zero, and
    then with every sign +1, the sign search's first pattern, so no search
    is run, and every draw, and so every sample, stays as it was."""
    bits = random.Random(seed).getrandbits
    dim = h.dim
    rows, den = h.compiled
    out = []
    spans = ((-12, 12), (1, 6)) * dim

    def rand_point() -> Scaled:
        draws = _randints(bits, spans)
        qs = draws[1::2]
        d = lcm(*qs)
        return Scaled(tuple(p * (d // q) for p, q in zip(draws[::2], qs)), d)

    grid_quota = min(count // 4, 40)
    for ints in product(range(-2, 3), repeat=dim):
        if len(out) >= grid_quota:
            break
        out.append(Scaled(ints, 1))

    while len(out) < (count * 2) // 4:
        out.append(rand_point())

    boundary_quota = (count * 3) // 4
    source = list(out)
    tops = column_max(h.compiled, _sample_block(source, dim)[1]).tops
    for x, top in zip(source, tops):
        if len(out) >= boundary_quota:
            break
        if top > 0:
            out.append(Scaled(tuple(den * c for c in x.ints), top))

    # A sign pattern s puts s * base in the recession cone iff every row's
    # sum of s_k * a_k * base_k is <= 0; the products are ints computed once
    # per base.
    recession_quota = min(count // 8, boundary_quota + count - len(out))
    bounded = recession_quota > 0 and proved_bounded(h.compiled)
    found = 0
    for _ in range(recession_quota * 4):
        if found >= recession_quota or len(out) >= count:
            break
        ints, d = rand_point()
        if bounded:  # the cone is {0}: only a zero base passes, all signs +1
            signs = None if any(ints) else (1,) * dim
        else:
            signs = _first_recession_signs([tuple(map(mul, a, ints)) for a in rows])
        if signs is not None:
            out.append(Scaled(tuple(map(mul, signs, ints)), d))
            found += 1

    while len(out) < count:
        out.append(rand_point())
    return tuple(out[:count])


def property_suite(instances, seed: int, samples: int) -> tuple[dict, int]:
    """Every check above on each set, in a fixed order: SUITE_CANDIDATES
    seeded sandwich checks, reconstruction, off-recession agreement on the
    samples outside the recession cone, and the exposed witness of every
    row, which must be tight on that row alone. Set `index` draws its
    samples from seed + 7919 * index, as Scaled points. A row's witness
    is exposed_point's, and on a set whose every row has a ray
    certificate the suite poses no LP. A row with no witness, a redundant
    row of a hand-built set, is an exposed failure.

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
        points, block = _sample_block(
            sample_points(h, seed + 7919 * index, samples), h.dim
        )
        rho = column_max(h.compiled, block)

        for c in range(SUITE_CANDIDATES):
            gens = random_unit_ball_rep(h, seed + 104729 * index + c, 5)
            report = _sandwich_report(h, gens, points, block, rho)
            sandwich["pairs"] += 1
            sandwich["samples_checked"] += report.samples_checked
            sandwich["violations"] += len(report.violations)
            if report.violations and sandwich["first_violation"] is None:
                sandwich["first_violation"] = report.violations[0][0]

        recon["instances_checked"] += 1
        if not _reconstruct_holds(h, points, block, rho):
            recon["failures"] += 1

        ks, misses = _off_recession_samples(h, block, rho)
        off["samples_checked"] += len(ks)
        off["violations"] += len(misses)
        if misses and off["first_violation"] is None:
            off["first_violation"] = unscaled(points[misses[0]])

        rows, den = h.compiled
        for i in range(len(rows)):
            exposed["rows_checked"] += 1
            witness = exposed_point(rows[i], rows[:i] + rows[i + 1 :], den)
            if witness is None or membership(h, witness).tight_rows != (i,):
                exposed["failures"] += 1

    violations = (
        sandwich["violations"]
        + recon["failures"]
        + off["violations"]
        + exposed["failures"]
    )
    return tally, violations
