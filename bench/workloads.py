"""The benchmark's four workloads: seeded task lists and their checks.

A task is one input document plus the subcommands run on it; its time is
the sum of those `polarcut.cli.main` calls. Every report is checked here,
by the benchmark's own exact arithmetic (geometry.py) or against a property
the method must have. A run is a whole number of rounds, and each round
holds the same task classes in the same order, with sizes (radius, row
counts) that cycle with the round number, so a run's make-up does not
depend on the seed or on how fast the machine is; the seed draws the
numbers: coefficients, anchors, rays, unimodular maps and points.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction as Q
from operator import mul

from geometry import (
    Body,
    cut_alpha,
    first_interior_point,
    integer_form,
    js,
    js_vec,
    parse_q,
    ratio_text,
    set_doc,
    sphere_set,
    touched_facets,
)


class CheckError(Exception):
    """A report disagrees with the benchmark's own answer."""


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckError(what)


class Task:
    """One document and its subcommands. `fault` marks an operation kept
    because it shows a known fault of the program: it is counted as
    attempted, and as failed while the fault lasts, but never timed."""

    fault = False

    def __init__(self, label: str, doc: dict):
        self.label = label
        self.doc = doc
        self.path = None

    def write(self, workdir: str, index: int) -> None:
        self.path = os.path.join(workdir, f"t{index}.json")
        with open(self.path, "w", encoding="utf-8") as fh:
            json.dump(self.doc, fh)
        self.doc = None  # the file is the input from here on

    def execute(self, call) -> list:
        """Run the subcommands through `call`; returns [(code, report)]."""
        return [call(argv) for argv in self.commands()]

    def commands(self) -> list:
        raise NotImplementedError

    def check(self, results) -> None:
        raise NotImplementedError


def cycle(lo: int, hi: int, j: int) -> int:
    """Size parameter of round j: sizes cycle through lo..hi, so every run
    with the same number of rounds holds the same sizes whatever the seed."""
    return lo + j % (hi - lo + 1)


def report_of(code, report, want_code, command):
    expect(code == want_code, f"{command}: exit {code}, expected {want_code}")
    expect(report is not None and report.get("command") == command, f"{command}: no report")
    return report


# ---------------------------------------------------------------------------
# verify: the property suite on seeded canonical sets


class VerifyTask(Task):
    def __init__(self, label, doc, samples: int, irredundant: int):
        super().__init__(label, doc)
        self.samples = samples
        self.irredundant = irredundant

    def commands(self):
        return [["verify", self.path, "--samples", str(self.samples)]]

    def check(self, results):
        (code, report), = results
        r = report_of(code, report, 0, "verify")
        checks = r["checks"]
        expect(r["passed"] is True and r["violations"] == 0, "verify: not passed")
        expect(checks["sandwich"]["pairs"] == 3, "verify: pairs != 3")
        expect(
            checks["sandwich"]["samples_checked"] == 3 * self.samples,
            f"verify: {checks['sandwich']['samples_checked']} sandwich samples, expected {3 * self.samples}",
        )
        expect(
            checks["exposed"]["rows_checked"] == self.irredundant,
            f"verify: {checks['exposed']['rows_checked']} exposed rows, expected {self.irredundant}",
        )
        expect(checks["reconstruct"]["instances_checked"] == 1, "verify: reconstruct not run")


class VacuousVerifyTask(VerifyTask):
    """`verify --samples -5`: a pass that checked no sample is unfounded."""

    fault = True

    def check(self, results):
        (code, report), = results
        if code == 2:
            return  # the bad parameter was rejected as input
        expect(report is not None, "verify: no report")
        sandwich = report["checks"]["sandwich"]
        expect(
            not report["passed"] or sandwich["samples_checked"] >= max(1, sandwich["pairs"]),
            "verify: passed after checking no sample",
        )


VACUOUS_SET = {"dim": 2, "rows": [[1, 0], [0, 1], [-1, 0], [0, -1]], "rhs": [1, 1, 1, 1]}

# Round make-up, shared by the three timed workloads: 40% of a round is
# cheap classes, 20% one fixed-size class (its middle is the median task),
# 20% classes dearer than that and 20% one fixed-size dearest class (its
# middle is the 90th percentile). The two percentiles then sit inside a
# class of like tasks, not on the edge between two, where machine noise and
# the seed would move them by the width of the gap.
#
# verify: (count, dim, bounded, samples, irredundant rows, raw rows).
VERIFY_ROUND = [
    (1, 1, True, 40, (2, 2), (3, 10)), (1, 1, False, 40, (1, 1), (3, 10)),
    (2, 2, False, 32, (1, 4), (3, 10)), (1, 3, False, 24, (1, 4), (3, 10)),
    (1, 4, False, 16, (1, 4), (4, 10)),
    (3, 2, True, 24, (5, 5), (7, 7)),
    (3, 3, True, 24, (6, 6), (8, 8)),
    (3, 4, True, 16, (10, 10), (10, 10)),
]


def verify_tasks(rng, rounds: int):
    for j in range(rounds):
        for count, dim, bounded, samples, (ilo, ihi), (rlo, rhi) in VERIFY_ROUND:
            for k in range(count):
                irr = cycle(ilo, ihi, j)
                n_raw = cycle(max(rlo, irr), rhi, j // 2)
                scale = cycle(1, 3, j + k)
                rows, rhs, canon, _ = sphere_set(rng, dim, bounded, irr, n_raw - irr, scale)
                label = f"verify d{dim} {'bounded' if bounded else 'unbounded'}"
                yield VerifyTask(label, set_doc(rows, rhs), samples, len(canon))
        yield VacuousVerifyTask("verify --samples -5", VACUOUS_SET, -5, 2)


# ---------------------------------------------------------------------------
# cutcheck and scan: corner instances and bodies


def corner_doc(body: Body, rays, p_rows=(), p_rhs=()) -> dict:
    inst = {
        "dim": body.dim,
        "f": js_vec(body.f),
        "rays": [js_vec(r) for r in rays],
        "P": {"rows": [js_vec(a) for a in p_rows], "rhs": [js(b) for b in p_rhs]} if p_rows else None,
    }
    return {"instance": inst, "body": {"rows": [js_vec(a) for a in body.rows], "rhs": [js(b) for b in body.rhs]}}


def random_rays(rng, dim: int, count: int) -> list:
    rays = []
    while len(rays) < count:
        r = tuple(Q(rng.randint(-3, 3), rng.choice((1, 1, 2))) for _ in range(dim))
        if any(r) and r not in rays:
            rays.append(r)
    return rays


def box_p(rng, body: Body, half: int):
    """P = a box of half-width `half` about round(f), shifted by up to one,
    given as 2 * dim rows."""
    rows, rhs = [], []
    for i, c in enumerate(body.f):
        e = tuple(int(i == j) for j in range(body.dim))
        mid = round(c) + rng.randint(-1, 1)
        rows += [e, tuple(-x for x in e)]
        rhs += [Q(mid + half), Q(half - mid)]
    return rows, rhs


class CutTask(Task):
    """`cut`, then `check-cut` on the emitted cut, at one radius."""

    def __init__(self, label, doc, radius: int, alpha):
        super().__init__(label, doc)
        self.radius = radius
        self.alpha = alpha
        self.instance = doc["instance"]

    def execute(self, call):
        r = str(self.radius)
        code, report = call(["cut", self.path, "--radius", r])
        results = [(code, report)]
        if code != 0 or report is None or "alpha" not in report:
            return results
        check_path = self.path[:-5] + "c.json"
        with open(check_path, "w", encoding="utf-8") as fh:
            json.dump({"instance": self.instance, "cut": {"alpha": report["alpha"], "provenance": report["provenance"]}}, fh)
        results.append(call(["check-cut", check_path, "--radius", r]))
        return results

    def check(self, results):
        code, report = results[0]
        r = report_of(code, report, 0, "cut")
        expect([parse_q(a) for a in r["alpha"]] == self.alpha, "cut: alpha differs from max_i <a_i,r>/(b_i-<a_i,f>)")
        expect(len(results) == 2, "check-cut: not run")
        code, report = results[1]
        r = report_of(code, report, 0, "check-cut")
        expect(r["valid_on_region"] is True and r["violation"] is None, "check-cut: cut reported invalid")
        expect(r["radius"] == self.radius, "check-cut: radius")


# cutcheck: (count, dim, body kind, radius range, rays, with P).
CUTCHECK_ROUND = [
    (2, 2, "split", (3, 6), 2, False), (2, 2, "simplex", (3, 6), 3, False),
    (1, 2, "box", (3, 6), 3, False), (1, 2, "split", (4, 6), 4, True),
    (1, 2, "simplex", (4, 6), 2, True), (1, 2, "box", (4, 6), 3, True),
    (4, 3, "box", (4, 4), 4, True),
    (2, 3, "split", (3, 3), 3, False), (1, 3, "simplex", (3, 3), 4, False),
    (1, 3, "simplex", (4, 4), 3, True),
    (4, 4, "box", (3, 3), 4, True),
]


def cutcheck_tasks(rng, rounds: int):
    for j in range(rounds):
        for count, dim, kind, (rlo, rhi), nrays, with_p in CUTCHECK_ROUND:
            for _ in range(count):
                size = dim if kind == "simplex" else 1
                body = Body(rng, kind, dim, size, ops=dim - 1, shift=4)
                rays = random_rays(rng, dim, nrays)
                radius = cycle(rlo, rhi, j)
                p_rows, p_rhs = box_p(rng, body, max(1, radius - 2)) if with_p else ((), ())
                doc = corner_doc(body, rays, p_rows, p_rhs)
                alpha = cut_alpha(body.rows, body.rhs, body.f, rays)
                label = f"cutcheck d{dim} {kind}{' P' if with_p else ''} r{rlo}-{rhi}"
                yield CutTask(label, doc, radius, alpha)


class ScanTask(Task):
    """`sfree`, `cut` and `maximal` at one radius, each against a
    brute-force scan of the same region."""

    def __init__(self, label, doc, radius: int, body: Body, rays, p_rows, p_rhs):
        super().__init__(label, doc)
        self.radius = radius
        args = (body.rows, body.rhs, body.f, radius, p_rows, p_rhs)
        self.witness = first_interior_point(*args)
        self.touched = touched_facets(*args)
        self.alpha = cut_alpha(body.rows, body.rhs, body.f, rays)
        self.heuristic = bool(p_rows) or not body.bounded
        # Theory: n-Delta is certified once its vertices lie in the region
        # (P absent); a unit box in dimension >= 2 never is.
        self.theory = None
        if body.kind == "simplex" and body.lattice_free and not p_rows:
            center = [round(c) for c in body.f]
            if all(abs(v[i] - center[i]) <= radius for v in body.vertices for i in range(body.dim)):
                self.theory = True
        elif body.kind == "box" and body.lattice_free and body.dim >= 2:
            self.theory = False

    def commands(self):
        r = str(self.radius)
        return [[cmd, self.path, "--radius", r] for cmd in ("sfree", "cut", "maximal")]

    def check(self, results):
        (c1, sfree), (c2, cut), (c3, maximal) = results
        z = None if self.witness is None else list(self.witness)
        if z is None:
            r = report_of(c1, sfree, 0, "sfree")
            expect(r["free_on_region"] is True and r["z"] is None, "sfree: reported a witness in a free body")
            r = report_of(c2, cut, 0, "cut")
            expect([parse_q(a) for a in r["alpha"]] == self.alpha, "cut: alpha differs from max_i <a_i,r>/(b_i-<a_i,f>)")
        else:
            r = report_of(c1, sfree, 1, "sfree")
            expect(r["free_on_region"] is False, "sfree: missed an interior lattice point")
            expect([parse_q(c) for c in r["z"]] == z, f"sfree: witness {r['z']}, expected {z}")
            r = report_of(c2, cut, 1, "cut")
            expect(r.get("refused") is True, "cut: not refused")
            expect([parse_q(c) for c in r["z"]] == z, f"cut: witness {r['z']}, expected {z}")
        certified = all(self.touched)
        r = report_of(c3, maximal, 0 if certified else 1, "maximal")
        expect(r["certified"] is certified, "maximal: certified differs from the brute force")
        expect(r["uncertified_facets"] == [i for i, t in enumerate(self.touched) if not t], "maximal: facet list")
        expect(r["heuristic"] is self.heuristic, "maximal: heuristic flag")
        if self.theory is not None:
            expect(r["certified"] is self.theory, "maximal: contradicts the theory of n-Delta / unit boxes")


class NegativeRadiusCutTask(Task):
    """`cut --radius -1` on a body that strictly contains the lattice point 0:
    success here is a cut with nothing behind it."""

    fault = True

    def commands(self):
        return [["cut", self.path, "--radius", "-1"]]

    def check(self, results):
        (code, _), = results
        expect(code != 0, "cut: exit 0 on a body with an interior feasible lattice point")


FAT_INTERVAL = {
    "instance": {"dim": 1, "f": ["1/2"], "rays": [[1], [-1]], "P": None},
    "body": {"rows": [[1], [-1]], "rhs": ["3/2", "1/2"]},
}

# scan: (count, dim, body kind, size, radius range, rays, with P); size 1
# (dim for simplices) is lattice-free, larger is not.
SCAN_ROUND = [
    (2, 3, "split", 2, (3, 5), 4, False), (2, 2, "split", 2, (8, 12), 3, True),
    (1, 2, "split", 1, (10, 14), 2, False), (2, 2, "simplex", 3, (8, 12), 3, False),
    (1, 2, "simplex", 2, (8, 12), 3, False),
    (4, 2, "box", 2, (12, 12), 3, True),
    (1, 3, "simplex", 4, (4, 4), 4, False), (1, 3, "split", 1, (5, 5), 3, True),
    (1, 2, "box", 1, (10, 10), 2, False), (1, 3, "simplex", 3, (4, 4), 3, False),
    (4, 3, "box", 1, (3, 3), 3, False),
]


def scan_tasks(rng, rounds: int):
    for j in range(rounds):
        for count, dim, kind, size, (rlo, rhi), nrays, with_p in SCAN_ROUND:
            for _ in range(count):
                body = Body(rng, kind, dim, size, ops=dim - 1, shift=6)
                rays = random_rays(rng, dim, nrays)
                radius = cycle(rlo, rhi, j)
                p_rows, p_rhs = box_p(rng, body, radius // 2) if with_p else ((), ())
                doc = corner_doc(body, rays, p_rows, p_rhs)
                label = f"scan d{dim} {kind}{size}{' P' if with_p else ''} r{rlo}-{rhi}"
                yield ScanTask(label, doc, radius, body, rays, p_rows, p_rhs)
        yield NegativeRadiusCutTask("cut --radius -1", FAT_INTERVAL)


# ---------------------------------------------------------------------------
# query: polar, gauge and rho on small sets with many points


class QueryTask(Task):
    def __init__(self, label, doc, raw_rows, raw_rhs, canon, points):
        super().__init__(label, doc)
        self.dim = len(canon[0])
        self.canon = set(canon)
        # Each point is (int numerators, denominator). The gauge comes from
        # the raw rows, rho from the construction's irredundant rows, both
        # as int pairings over a positive scale.
        raw, raw_den = integer_form([tuple(x / b for x in a) for a, b in zip(raw_rows, raw_rhs)])
        irr, irr_den = integer_form(canon)
        self.expected = [
            (max(0, max(sum(map(mul, a, ix)) for a in raw)), raw_den * e,
             max(sum(map(mul, a, ix)) for a in irr), irr_den * e)
            for ix, e in points
        ]

    def commands(self):
        return [[cmd, self.path] for cmd in ("polar", "gauge", "rho")]

    def check(self, results):
        (c1, polar), (c2, gauge), (c3, rho) = results
        r = report_of(c1, polar, 0, "polar")
        pts = [tuple(parse_q(c) for c in p) for p in r["points"]]
        zero = (Q(0),) * self.dim
        expect(r["dim"] == self.dim and len(pts) == len(self.canon) + 1, "polar: wrong point count")
        expect(set(pts) == self.canon | {zero}, "polar: points differ from {0} and the irredundant rows")
        gv = report_of(c2, gauge, 0, "gauge")["values"]
        rv = report_of(c3, rho, 0, "rho")["values"]
        expect(len(gv) == len(rv) == len(self.expected), "gauge/rho: wrong value count")
        for g, rh, (gn, gd, rn, rd) in zip(gv, rv, self.expected):
            g, rh = parse_q(g), parse_q(rh)
            expect(g.numerator * gd == gn * g.denominator, f"gauge: {g} differs from max(0, max_i <a_i,x>/b_i)")
            expect(rh.numerator * rd == rn * rh.denominator, f"rho: {rh} differs from max_i <a_i,x> over the rows")
            expect(rh <= g and (g == 0 or rh == g), "rho: breaks rho <= gauge, equal where gauge > 0")


# query: (count, dim, bounded, points). Its classes overlap in time, so the
# make-up above is not needed.
QUERY_ROUND = [
    (1, 2, True, 2000), (1, 2, False, 2000), (1, 3, True, 1500),
    (1, 3, False, 1500), (1, 4, True, 1000), (1, 4, False, 1000),
]


def query_points(rng, dim: int, count: int, canon, direction) -> list:
    """(numerators, denominator) per point: 70% random rationals, 10%
    integer points, 10% on the recession ray (unbounded sets), the rest on
    the boundary, where rho = gauge = t exactly (x = t c / |c|^2 for a row c
    of the sphere construction)."""
    pts = []
    while len(pts) < count:
        kind = rng.randrange(10)
        if kind < 7:
            x = tuple(rng.randint(-30, 30) for _ in range(dim)), rng.randint(1, 12)
        elif kind < 8:
            x = tuple(rng.randint(-4, 4) for _ in range(dim)), 1
        elif kind < 9 and direction is not None:
            a, b = rng.randint(1, 9), rng.randint(1, 4)
            x = tuple(c * a for c in direction), b
        else:
            c = rng.choice(canon)
            t = Q(rng.randint(1, 9), rng.randint(1, 4)) / sum(v * v for v in c)
            (nums,), den = integer_form([[v * t for v in c]])
            x = nums, den
        pts.append(x)
    return pts


def query_tasks(rng, rounds: int):
    for j in range(rounds):
        for count, dim, bounded, points in QUERY_ROUND:
            for k in range(count):
                irr = cycle(2 * dim, 8, j) if bounded else cycle(2, 5, j)
                redundant = cycle(0, 8 - irr, j // 2) if bounded else cycle(1, 3, j // 2)
                scale = cycle(1, 3, j + k)
                rows, rhs, canon, direction = sphere_set(rng, dim, bounded, irr, redundant, scale)
                pts = query_points(rng, dim, points, canon, direction)
                doc = dict(set_doc(rows, rhs), points=[[ratio_text(p, e) for p in ix] for ix, e in pts])
                label = f"query d{dim} {'bounded' if bounded else 'unbounded'}"
                yield QueryTask(label, doc, rows, rhs, canon, pts)


WORKLOADS = {
    "verify": (verify_tasks, VERIFY_ROUND),
    "cutcheck": (cutcheck_tasks, CUTCHECK_ROUND),
    "scan": (scan_tasks, SCAN_ROUND),
    "query": (query_tasks, QUERY_ROUND),
}


def make_tasks(workload: str, seed: int, rounds: int):
    """The run's tasks, built one at a time as the run reaches them."""
    build, _ = WORKLOADS[workload]
    return build(random.Random(f"{workload}:{seed}"), rounds)
