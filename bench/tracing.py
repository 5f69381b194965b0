"""Per-layer tracing by wrapping polarcut's public functions from outside.

Every public function defined in a polarcut module is replaced, in every
module namespace that holds it by name, with a wrapper; `uninstall` puts the
originals back. Timed wrappers keep a span (name, parent, start, end) in
memory, plus running totals of calls, inclusive time and self time (the
span's duration minus its direct child spans). The hot scalar helpers of
`rationals` and `jsonio.scalar_from_json` are only counted: a span per
scalar would cost more than the work. `cuts.region_lattice_points` is a
generator; its passes and the points it yields are counted, and the time
spent producing them stays in the caller's self time.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import time
from array import array
from collections import Counter
from functools import update_wrapper

MODULES = ("rationals", "lp", "polyhedra", "sublinear", "cuts", "jsonio", "cli")
COUNT_ONLY = {"jsonio.scalar_from_json"}  # and everything in rationals
# lp.solve time is split by the nearest enclosing span among these.
LP_PARENTS = {
    "polyhedra.normalize": "normalize",
    "sublinear.check_unit_ball": "check_unit_ball",
    "sublinear.polar_support_lp": "polar_support_lp",
    "polyhedra.exposed_witness": "exposed_witness",
    "polyhedra.hull_membership": "hull_membership",
    "cuts.check_cut_validity": "check_cut_validity",
    "cuts.maximality_certificate": "maximality_certificate",
}
LP_STATUSES = ("optimal", "infeasible", "unbounded")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.total: list[float] = []
        self.self_time: list[float] = []
        self.counts: Counter = Counter()
        self.stack: list = []  # frames [name id, span index, child seconds]
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.lp_parent_s: Counter = Counter()
        self.lp_status_n: Counter = Counter()
        self.lp_status_s: Counter = Counter()
        self._patches: list = []

    # -- installing ---------------------------------------------------------

    def install(self) -> None:
        modules = [importlib.import_module(f"polarcut.{m}") for m in MODULES]
        namespaces = modules + [importlib.import_module("polarcut")]
        for mod in modules:
            short = mod.__name__.split(".")[-1]
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                wrapper = self._wrap(name, fn)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is fn:
                            self._patches.append((ns, key, fn))
                            setattr(ns, key, wrapper)

    def uninstall(self) -> None:
        for ns, key, fn in reversed(self._patches):
            setattr(ns, key, fn)
        self._patches.clear()

    def _id(self, name: str) -> int:
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total.append(0.0)
            self.self_time.append(0.0)
        return self.ids[name]

    def _wrap(self, name: str, fn):
        if name.startswith("rationals.") or name in COUNT_ONLY:
            wrapper = self._counted(name, fn)
        elif inspect.isgeneratorfunction(fn):
            wrapper = self._generator(name, fn)
        else:
            wrapper = self._timed(name, fn, self._lp_hook if name == "lp.solve" else None)
        return update_wrapper(wrapper, fn)

    def _counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _generator(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name + ".passes"] += 1
            for item in fn(*args, **kwargs):
                counts[name + ".items"] += 1
                yield item

        return wrapper

    def _timed(self, name, fn, hook):
        nid = self._id(name)
        stack, calls, total, self_time = self.stack, self.calls, self.total, self.self_time
        s_name, s_parent, s_start, s_end = self.span_name, self.span_parent, self.span_start, self.span_end
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(s_start)
            s_name.append(nid)
            s_parent.append(stack[-1][1] if stack else -1)
            s_start.append(0.0)
            s_end.append(0.0)
            frame = [nid, idx, 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                d = t1 - t0
                s_start[idx] = t0
                s_end[idx] = t1
                calls[nid] += 1
                total[nid] += d
                self_time[nid] += d - frame[2]
                if stack:
                    stack[-1][2] += d
            if hook is not None:
                hook(args, result, d)
            return result

        return wrapper

    def _lp_hook(self, args, outcome, seconds) -> None:
        program = args[0]
        self.counts["lp.cells"] += len(program.rows) * len(program.objective)
        self.lp_status_n[outcome.status] += 1
        self.lp_status_s[outcome.status] += seconds
        for frame in reversed(self.stack):
            parent = LP_PARENTS.get(self.names[frame[0]])
            if parent is not None:
                self.lp_parent_s[parent] += seconds
                return
        self.lp_parent_s["other"] += seconds

    # -- reading ------------------------------------------------------------

    def n(self, name: str) -> int:
        return self.calls[self.ids[name]] if name in self.ids else 0

    def incl(self, name: str) -> float:
        return self.total[self.ids[name]] if name in self.ids else 0.0

    def own(self, *names: str) -> float:
        return sum(self.self_time[self.ids[n]] for n in names if n in self.ids)

    def metrics(self, scale: float, overhead_s: float) -> dict:
        """Per-layer metrics; every time is multiplied by `scale` (the run's
        reference-speed factor)."""
        c = self.counts
        scan_s = sum(self.incl(n) for n in ("cuts.is_s_free", "cuts.check_cut_validity", "cuts.maximality_certificate"))
        points = c["cuts.region_lattice_points.items"]
        out = {
            "lp.solves": (self.n("lp.solve"), "count"),
            "lp.solve_s": (self.incl("lp.solve") * scale, "s"),
        }
        for status in LP_STATUSES:
            out[f"lp.solves.{status}"] = (self.lp_status_n[status], "count")
            out[f"lp.solve_s.{status}"] = (self.lp_status_s[status] * scale, "s")
        out["lp.cells"] = (c["lp.cells"], "count")
        for parent in LP_PARENTS.values():
            out[f"lp.solve_s.{parent}"] = (self.lp_parent_s[parent] * scale, "s")
        jsonio_parsers = [n for n in self.names if n.startswith("jsonio.") and n.endswith("_from_json")]
        out.update({
            "polyhedra.normalize_calls": (self.n("polyhedra.normalize"), "count"),
            "polyhedra.normalize_self_s": (self.own("polyhedra.normalize", "polyhedra.remove_redundancy") * scale, "s"),
            "polyhedra.pairings_calls": (self.n("polyhedra.pairings"), "count"),
            "polyhedra.pairings_s": (self.incl("polyhedra.pairings") * scale, "s"),
            "polyhedra.membership_calls": (self.n("polyhedra.membership"), "count"),
            "polyhedra.in_recession_calls": (self.n("polyhedra.in_recession"), "count"),
            "sublinear.sample_points_s": (self.incl("sublinear.sample_points") * scale, "s"),
            "sublinear.sandwich_check_self_s": (self.own("sublinear.sandwich_check") * scale, "s"),
            "sublinear.check_unit_ball_self_s": (self.own("sublinear.check_unit_ball") * scale, "s"),
            "sublinear.off_recession_check_self_s": (self.own("sublinear.off_recession_check") * scale, "s"),
            "sublinear.reconstruct_check_s": (self.incl("sublinear.reconstruct_check") * scale, "s"),
            "sublinear.evaluator_calls": (
                sum(self.n(f"sublinear.{e}") for e in ("gauge", "minimal_sublinear", "support")), "count"),
            "cuts.lattice_points": (points, "count"),
            "cuts.scan_passes": (c["cuts.region_lattice_points.passes"], "count"),
            "cuts.lattice_points_per_s": (points / (scan_s * scale) if scan_s else 0.0, "1/s"),
            "cuts.is_s_free_self_s": (self.own("cuts.is_s_free") * scale, "s"),
            "cuts.maximality_self_s": (self.own("cuts.maximality_certificate") * scale, "s"),
            "cuts.check_cut_self_s": (self.own("cuts.check_cut_validity") * scale, "s"),
            "cuts.generate_cut_self_s": (self.own("cuts.generate_cut", "cuts.cut_coeff") * scale, "s"),
            "cuts.make_body_self_s": (self.own("cuts.make_body", "cuts.translate_to_origin") * scale, "s"),
            "rationals.dot_calls": (c["rationals.dot"], "count"),
            "jsonio.parse_self_s": (self.own(*jsonio_parsers) * scale, "s"),
            "jsonio.scalars_parsed": (c["jsonio.scalar_from_json"], "count"),
            "cli.self_s": (self.own("cli.main", "cli.build_parser") * scale, "s"),
            "cli.report_bytes": (c["cli.report_bytes"], "count"),
            "trace.overhead_s": (overhead_s, "s"),
        })
        return out

    def counts_snapshot(self) -> dict:
        """Every count the trace makes, for comparing two traced runs."""
        snap = dict(self.counts)
        snap.update({f"{n}.calls": k for n, k in zip(self.names, self.calls)})
        snap.update({f"lp.solves.{s}": k for s, k in self.lp_status_n.items()})
        return dict(sorted(snap.items()))

    def write_spans(self, path: str) -> int:
        """Spans as gzipped TSV: index, name, parent index, start, end."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("span\tname\tparent\tstart\tend\n")
            names = self.names
            for i, (nid, parent, t0, t1) in enumerate(
                zip(self.span_name, self.span_parent, self.span_start, self.span_end)
            ):
                fh.write(f"{i}\t{names[nid]}\t{parent}\t{t0:.9f}\t{t1:.9f}\n")
        return len(self.span_start)
