"""Exact constructions and brute-force references for the benchmark.

Everything here is the benchmark's own code: stdlib Fractions and ints, no
polarcut import. The generators build inputs whose answers are known by
construction (which rows are irredundant, which bodies are lattice-free),
and the brute-force scans recompute the answers the lattice commands give.
"""

from __future__ import annotations

from fractions import Fraction as Q
from itertools import product
from math import gcd, isqrt, lcm

# Squared norm of the integer "sphere" vectors used as canonical rows. Points
# on a sphere are extreme in the hull of any set of them, so every chosen
# vector is an irredundant row of {x : <c, x> <= 1} (see sphere_set).
SPHERE_NORM = {1: 1, 2: 25, 3: 9, 4: 9}


def js(q) -> int | str:
    """JSON form of a rational: int when integral, "p/q" otherwise."""
    if not isinstance(q, Q):
        q = Q(q)
    return q.numerator if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def ratio_text(p: int, q: int) -> int | str:
    """JSON form of p/q (q > 0) in lowest terms."""
    g = gcd(p, q)
    return p // g if g == q else f"{p // g}/{q // g}"


def js_vec(v) -> list:
    return [js(c) for c in v]


def parse_q(value) -> Q:
    """Strict parse of a report scalar: an int or a "p/q" string."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValueError(f"not a rational: {value!r}")
    return Q(value)


def dotq(u, v):
    return sum(a * b for a, b in zip(u, v))


def sphere_vectors(dim: int) -> list:
    n = SPHERE_NORM[dim]
    k = isqrt(n)
    return [v for v in product(range(-k, k + 1), repeat=dim) if sum(c * c for c in v) == n]


def rank(rows) -> int:
    m = [[Q(c) for c in r] for r in rows]
    r = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                t = m[i][c] / m[r][c]
                m[i] = [a - t * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


def inverse(u) -> list:
    """Gauss-Jordan inverse of a square matrix over the rationals."""
    n = len(u)
    m = [[Q(c) for c in row] + [Q(int(i == j)) for j in range(n)] for i, row in enumerate(u)]
    for c in range(n):
        piv = next(i for i in range(c, n) if m[i][c] != 0)
        m[c], m[piv] = m[piv], m[c]
        p = m[c][c]
        m[c] = [a / p for a in m[c]]
        for i in range(n):
            if i != c and m[i][c] != 0:
                t = m[i][c]
                m[i] = [a - t * b for a, b in zip(m[i], m[c])]
    return [row[n:] for row in m]


def unimodular(rng, dim: int, ops: int) -> list:
    """Random integer matrix of determinant +-1: a signed permutation
    followed by `ops` elementary row additions with multiplier +-1."""
    perm = list(range(dim))
    rng.shuffle(perm)
    u = [[rng.choice((1, -1)) if j == perm[i] else 0 for j in range(dim)] for i in range(dim)]
    if dim > 1:
        for _ in range(ops):
            i, j = rng.sample(range(dim), 2)
            k = rng.choice((1, -1))
            u[i] = [a + k * b for a, b in zip(u[i], u[j])]
    return u


def matvec(m, v):
    return tuple(dotq(row, v) for row in m)


# ---------------------------------------------------------------------------
# Canonical sets with known irredundant rows (verify, query)


def sphere_set(rng, dim: int, bounded: bool, irredundant: int, redundant: int, scale: int):
    """A raw description {x : <a_i, x> <= b_i} and its known canonical form.

    The canonical rows are `irredundant` distinct sphere vectors divided by
    `scale`. A bounded set holds +-b for `dim` independent sphere vectors,
    so its rows span positively; an unbounded one has every row at a
    positive angle to one sphere vector u, so -u recedes. The redundant raw
    rows scale to points strictly inside the polar (c/2, 2c/3, a midpoint of
    two rows) or duplicate a row at another right-hand side. Each raw row is
    the canonical row times a random positive right-hand side.

    Returns (raw_rows, raw_rhs, canonical_rows, recession_direction or None).
    """
    sphere = sphere_vectors(dim)
    if bounded:
        while True:
            basis = rng.sample(sphere, dim)
            if rank(basis) == dim:
                break
        chosen = []
        for b in basis:
            for v in (b, tuple(-c for c in b)):
                if v not in chosen:
                    chosen.append(v)
        pool = [v for v in sphere if v not in chosen]
        chosen += rng.sample(pool, max(0, irredundant - len(chosen)))
        direction = None
    else:
        u = rng.choice(sphere)
        pool = [v for v in sphere if dotq(v, u) > 0]
        chosen = rng.sample(pool, min(irredundant, len(pool)))
        direction = tuple(-c for c in u)
    canon = [tuple(Q(c, scale) for c in v) for v in chosen]
    inner = []
    for _ in range(redundant):
        kind = rng.randrange(3)
        c = rng.choice(canon)
        if kind == 0:
            t = rng.choice((Q(1, 2), Q(2, 3)))
            inner.append(tuple(x * t for x in c))
        elif kind == 1 and len(canon) > 1:
            d = rng.choice([w for w in canon if w != c])
            mid = tuple((x + y) / 2 for x, y in zip(c, d))
            inner.append(mid if any(mid) else c)
        else:
            inner.append(c)
    rows, rhs = [], []
    for c in canon + inner:
        b = Q(rng.randint(1, 5), rng.randint(1, 3))
        rows.append(tuple(x * b for x in c))
        rhs.append(b)
    order = list(range(len(rows)))
    rng.shuffle(order)
    return [rows[i] for i in order], [rhs[i] for i in order], canon, direction


def set_doc(rows, rhs) -> dict:
    return {"dim": len(rows[0]), "rows": [js_vec(r) for r in rows], "rhs": [js(b) for b in rhs]}


def integer_form(vectors):
    """(int rows, den) with vectors[i] == rows[i] / den."""
    vectors = [[c if isinstance(c, Q) else Q(c) for c in v] for v in vectors]
    den = lcm(*(c.denominator for v in vectors for c in v))
    return [tuple(c.numerator * (den // c.denominator) for c in v) for v in vectors], den


# ---------------------------------------------------------------------------
# Corner instances and bodies (cutcheck, scan)


class Body:
    """A body {x : <a_i, x> <= b_i} whose every row is a facet, built in the
    coordinates y = U (x - t) of a unimodular U, so lattice-freeness in y
    carries over to x. `kind` is one of:

      simplex  {y >= 0, sum y <= s}; lattice-free for s = dim (the body
               called n-Delta), not lattice-free for s = dim + 1;
      box      {0 <= y <= w}; lattice-free for w = 1, not for w = 2;
      split    {0 <= y_1 <= w}; lattice-free for w = 1, not for w = 2.
    """

    def __init__(self, rng, kind: str, dim: int, size: int, ops: int, shift: int):
        self.kind, self.dim, self.size = kind, dim, size
        u = unimodular(rng, dim, ops)
        v = inverse(u)
        t = tuple(rng.randint(-shift, shift) for _ in range(dim))
        # y-space rows (g, h) meaning <g, y> <= h.
        yrows = []
        if kind == "simplex":
            for i in range(dim):
                yrows.append((tuple(-int(i == j) for j in range(dim)), 0))
            yrows.append(((1,) * dim, size))
            yf = self._interior_point(rng, lambda y: all(c > 0 for c in y) and sum(y) < size)
            self.vertices = [tuple(Q(0) for _ in range(dim))] + [
                tuple(Q(size * int(i == j)) for j in range(dim)) for i in range(dim)
            ]
        elif kind == "box":
            for i in range(dim):
                e = tuple(int(i == j) for j in range(dim))
                yrows.append((e, size))
                yrows.append((tuple(-c for c in e), 0))
            yf = self._interior_point(rng, lambda y: all(0 < c < size for c in y))
            self.vertices = [tuple(Q(c) for c in corner) for corner in product((0, size), repeat=dim)]
        else:
            e = tuple(int(j == 0) for j in range(dim))
            yrows = [(e, size), (tuple(-c for c in e), 0)]
            yf = self._interior_point(rng, lambda y: 0 < y[0] < size)
            self.vertices = None
        # <g, U (x - t)> <= h  <=>  <g U, x> <= h + <g U, t>
        self.rows, self.rhs = [], []
        for g, h in yrows:
            a = tuple(sum(g[i] * u[i][j] for i in range(dim)) for j in range(dim))
            self.rows.append(a)
            self.rhs.append(Q(h) + dotq(a, t))
        self.f = tuple(Q(ti) + c for ti, c in zip(t, matvec(v, yf)))
        if self.vertices is not None:
            self.vertices = [tuple(Q(ti) + c for ti, c in zip(t, matvec(v, y))) for y in self.vertices]

    def _interior_point(self, rng, inside) -> tuple:
        while True:
            y = tuple(Q(rng.randint(1, 4 * self.size - 1), rng.choice((2, 3, 4))) for _ in range(self.dim))
            if inside(y) and any(c.denominator != 1 for c in y):
                return y

    @property
    def lattice_free(self) -> bool:
        return self.size == (self.dim if self.kind == "simplex" else 1)

    @property
    def bounded(self) -> bool:
        return self.kind != "split" or self.dim == 1


def cut_alpha(rows, rhs, f, rays) -> list:
    """max_i <a_i, r> / (b_i - <a_i, f>) for each ray: Balas's coefficients."""
    m = [b - dotq(a, f) for a, b in zip(rows, rhs)]  # rhs of the body centred at f
    return [max(dotq(a, r) / mi for a, mi in zip(rows, m)) for r in rays]


def region_points(f, radius: int, p_rows, p_rhs):
    """Integer points of the scan box around round-half-even(f), in
    lexicographic order, filtered to P. A negative radius gives none."""
    center = [round(Q(c)) for c in f]
    ranges = [range(c - radius, c + radius + 1) for c in center]
    p_int = [(integer_form([a + (b,)])[0][0]) for a, b in zip(p_rows, p_rhs)]
    for z in product(*ranges):
        if all(sum(x * y for x, y in zip(row, z)) <= row[-1] for row in p_int):
            yield z


def first_interior_point(rows, rhs, f, radius: int, p_rows=(), p_rhs=()):
    """Lexicographically first feasible lattice point of the region strictly
    inside the body, or None."""
    ints = [integer_form([a + (b,)])[0][0] for a, b in zip(rows, rhs)]
    for z in region_points(f, radius, p_rows, p_rhs):
        if all(sum(x * y for x, y in zip(row, z)) < row[-1] for row in ints):
            return z
    return None


def touched_facets(rows, rhs, f, radius: int, p_rows=(), p_rhs=()) -> list:
    """Per facet: is some feasible lattice point of the region on it and
    strictly inside every other facet? One pass over the region."""
    ints = [integer_form([a + (b,)])[0][0] for a, b in zip(rows, rhs)]
    touched = [False] * len(rows)
    for z in region_points(f, radius, p_rows, p_rhs):
        tight = -1
        for i, row in enumerate(ints):
            s = sum(x * y for x, y in zip(row, z))
            if s > row[-1]:
                break
            if s == row[-1]:
                if tight >= 0:
                    break
                tight = i
        else:
            if tight >= 0:
                touched[tight] = True
    return touched
