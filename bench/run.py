"""polarcut benchmark: four CLI workloads on seeded, fixed task lists.

    python3 bench/run.py --workload {verify,cutcheck,scan,query} --seed N
                         --seconds S --trace {0,1}

Run from the root of a source checkout: the program is imported from
`src/`. Each task calls `polarcut.cli.main(argv)` in this process with
stdout captured, one task at a time (one client, one thread, closed loop),
and every report is checked (workloads.py). The task list is whole rounds
of the workload's task classes; --seconds sets how many rounds, never when
the run stops, so every run of a seed does the same work.

Times are seconds at reference speed: raw seconds * R0 / R, where R is the
stdlib-only reference loop below, timed between every two tasks, and R0 is
its time on the machine the README's figures come from. Each task is scaled
by the median of the reference timings around it, which removes the drift
of the machine's speed during a run. Raw figures are printed too.

--trace 0 prints the end-to-end metrics and writes every task time to
bench/out/run-<workload>-<seed>.json; --trace 1 runs the list once
untraced and once with every public polarcut function wrapped (tracing.py),
prints the per-layer metrics and writes spans and counts to bench/out/.
`--workload all --trace 1` does that for each workload in turn. The last
line of stdout is always one JSON object: correct, attempted, failed,
metrics.
"""

from __future__ import annotations

import argparse
import gc
import inspect
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
sys.path.insert(0, BENCH)

from workloads import WORKLOADS, CheckError, make_tasks  # noqa: E402

# Reference loop time on the README's machine; see README.md.
R0 = 0.00480
MIN_TIMED_TASKS = 100
# Rounds per second of --seconds, so that a 20 s run is ~20 s of work here.
ROUNDS_PER_SECOND = {"verify": 0.6, "cutcheck": 0.3, "scan": 0.25, "query": 0.85}
SETUP_MIN, SETUP_MAX, SETUP_EVERY = 15, 25, 8


def reference_loop() -> float:
    """Seconds for a fixed loop of Fraction and int arithmetic (stdlib only)."""
    t = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 500):
        acc += Fraction(i % 13 - 6, i % 7 + 1) * Fraction(3, i % 5 + 2)
        acc = Fraction(acc.numerator % 100003, acc.denominator % 997 + 1)
    return time.perf_counter() - t


# Run in a fresh interpreter: the reference loop (the source of the function
# above) timed three times around `import polarcut.cli`, which is timed once.
IMPORT_PROBE = f"""
import sys, time
from fractions import Fraction
{inspect.getsource(reference_loop)}
sys.path.insert(0, sys.argv[1])
refs = [reference_loop(), reference_loop()]
t = time.perf_counter()
import polarcut.cli
t = time.perf_counter() - t
refs.append(reference_loop())
assert polarcut.cli.__file__.startswith(sys.argv[1]), polarcut.cli.__file__
print(t, *refs)
"""


def quartile_spread(values) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


class SetupProbe:
    """`import polarcut.cli` in a fresh interpreter with warm bytecode,
    launched one at a time. The run launches it after every SETUP_EVERY-th
    task, so the launches see the same machine as the tasks; `result` then
    adds launches until there are SETUP_MIN and the quartile spread of the
    scaled times is under 8%, or there are SETUP_MAX. Each import time is
    scaled by R0 over the median of the reference loops timed in the same
    interpreter."""

    def __init__(self):
        self.argv = [sys.executable, "-I", "-c", IMPORT_PROBE, SRC]
        subprocess.run(self.argv, check=True, capture_output=True)  # writes bytecode
        self.raw: list[float] = []
        self.scaled: list[float] = []

    def launch(self) -> None:
        done = subprocess.run(self.argv, check=True, capture_output=True, text=True)
        seconds, *refs = map(float, done.stdout.split())
        self.raw.append(seconds)
        self.scaled.append(seconds * R0 / statistics.median(refs))

    def result(self) -> tuple[float, float, int]:
        """(referenced seconds, raw seconds, launches), medians."""
        while len(self.raw) < SETUP_MAX and (
            len(self.raw) < SETUP_MIN or quartile_spread(self.scaled) >= 0.08
        ):
            self.launch()
        return statistics.median(self.scaled), statistics.median(self.raw), len(self.raw)


class Runner:
    """Runs a task list. The reference loop is timed before every
    subcommand call and once at the end, so each call sits between two
    reference timings; a call's time is scaled by the median of the four
    nearest (two before, two after). The machine's speed moves within a
    second, so a narrow window corrects better than a wide one."""

    def __init__(self, cli, tracer=None):
        self.cli = cli
        self.tracer = tracer
        self.refs: list[float] = []
        self.calls: list = []  # (reference index before the call, raw seconds)

    def call(self, argv):
        self.refs.append(reference_loop())
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                code = self.cli.main(argv)
            except SystemExit as exc:  # argparse rejects arguments this way
                code = exc.code
            t1 = time.perf_counter()
        self.calls.append((len(self.refs) - 1, t1 - t0))
        text = out.getvalue()
        if self.tracer is not None:
            self.tracer.counts["cli.report_bytes"] += len(text.encode())
        report = json.loads(text) if text.strip() else None
        return code, report

    def run(self, tasks, workdir, between=None):
        """Runs and checks every task; `between(index)` runs after each."""
        timed, failures = [], []  # timed: (label, [(ref index, raw seconds)])
        attempted = failed = 0
        bad = False
        for index, task in enumerate(tasks):
            task.write(workdir, index)
            gc.collect()
            attempted += 1
            self.calls = []
            try:
                results = task.execute(self.call)
                task.check(results)
            except Exception as exc:  # a failed operation; the run goes on
                failed += 1
                if not task.fault:
                    bad = True
                    failures.append(f"{task.label}: {exc!r}")
                    if not isinstance(exc, CheckError):
                        failures.append(traceback.format_exc())
            else:
                if not task.fault:
                    timed.append((task.label, self.calls))
            if between is not None:
                between(index)
        refs = self.refs + [reference_loop()]
        raw = [sum(t for _, t in calls) for _, calls in timed]
        scaled = [
            sum(t * R0 / statistics.median(refs[max(0, k - 1): k + 3]) for k, t in calls)
            for _, calls in timed
        ]
        labels = [label for label, _ in timed]
        return {
            "attempted": attempted,
            "failed": failed,
            "correct": not bad,
            "failures": failures,
            "raw": raw,
            "scaled": scaled,
            "labels": labels,
            "refs": refs,
            "ref_index": [[k for k, _ in calls] for _, calls in timed],
            "ref_median": statistics.median(refs),
            "classes": {
                label: statistics.median(t for t, l in zip(scaled, labels) if l == label)
                for label in dict.fromkeys(labels)
            },
        }


def rounds_for(workload: str, seconds: int) -> int:
    _, round_spec = WORKLOADS[workload]
    least = math.ceil(MIN_TIMED_TASKS / sum(spec[0] for spec in round_spec))
    return max(least, round(seconds * ROUNDS_PER_SECOND[workload]))


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def summary(times) -> dict:
    return {
        "task_p50_s": statistics.median(times),
        "task_p90_s": percentile(times, 90),
        "tasks_per_s": len(times) / sum(times),
    }


def load_program():
    if not os.path.isfile(os.path.join(SRC, "polarcut", "cli.py")):
        sys.exit(f"error: no polarcut sources under {SRC}; run from a source checkout")
    sys.path.insert(0, SRC)
    import polarcut.cli as cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: imported polarcut from {cli.__file__}, not from {SRC}")
    return cli


def workdir_for(workload: str, seed: int) -> str:
    path = os.path.join(OUT, f"work-{workload}-{seed}-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    return path


def untraced(cli, workload: str, seed: int, seconds: int) -> dict:
    rounds = rounds_for(workload, seconds)
    workdir = workdir_for(workload, seed)
    try:
        Runner(cli).run([next(make_tasks(workload, 0, 1))], workdir)  # warm-up, not counted
        probe = SetupProbe()
        t = time.perf_counter()
        res = Runner(cli).run(
            make_tasks(workload, seed, rounds), workdir,
            between=lambda i: probe.launch() if i % SETUP_EVERY == 0 else None,
        )
        wall = time.perf_counter() - t
        setup_s, setup_raw, launches = probe.result()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = dict(summary(res["scaled"]), setup_s=setup_s, peak_rss_mb=rss_mb)
    detail = {
        "workload": workload, "seed": seed, "rounds": rounds,
        "timed_tasks": len(res["scaled"]), "wall_s": wall,
        "raw": dict(summary(res["raw"]), setup_s=setup_raw),
        "setup_launches": launches, "reference_median_s": res["ref_median"], "R0": R0,
        "class_p50_s": res["classes"],
    }
    with open(os.path.join(OUT, f"run-{workload}-{seed}.json"), "w", encoding="utf-8") as fh:
        json.dump(dict(detail, metrics=metrics, tasks=list(zip(res["labels"], res["raw"], res["scaled"])),
                       refs=res["refs"], ref_index=res["ref_index"]), fh)
    return res, metrics, detail


UNITS = {"task_p50_s": "s", "task_p90_s": "s", "tasks_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


def traced(cli, workload: str, seed: int, seconds: int):
    from tracing import Tracer

    rounds = rounds_for(workload, seconds)
    workdir = workdir_for(workload, seed)
    tracer = Tracer()
    try:
        Runner(cli).run([next(make_tasks(workload, 0, 1))], workdir)
        plain = Runner(cli).run(make_tasks(workload, seed, rounds), workdir)
        tracer.install()
        try:
            res = Runner(cli, tracer).run(make_tasks(workload, seed, rounds), workdir)
        finally:
            tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    scale = R0 / res["ref_median"]
    overhead = sum(res["scaled"]) - sum(plain["scaled"])
    metrics = tracer.metrics(scale, overhead)
    base = os.path.join(OUT, f"trace-{workload}-{seed}")
    spans = tracer.write_spans(base + ".spans.tsv.gz")
    with open(base + ".counts.json", "w", encoding="utf-8") as fh:
        json.dump(tracer.counts_snapshot(), fh, indent=1)
    res["correct"] = res["correct"] and plain["correct"]
    res["failures"] += plain["failures"]
    detail = {"workload": workload, "seed": seed, "rounds": rounds, "spans": spans,
              "spans_file": os.path.relpath(base + ".spans.tsv.gz", ROOT),
              "untraced_s": sum(plain["scaled"]), "traced_s": sum(res["scaled"])}
    return res, {k: v for k, (v, _) in metrics.items()}, {k: u for k, (_, u) in metrics.items()}, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all" and not args.trace:
        parser.error("--workload all needs --trace 1")
    cli = load_program()
    os.makedirs(OUT, exist_ok=True)
    workloads = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    for workload in workloads:
        if args.trace:
            res, metrics, units, detail = traced(cli, workload, args.seed, args.seconds)
        else:
            res, metrics, detail = untraced(cli, workload, args.seed, args.seconds)
            units = UNITS
        for line in res["failures"]:
            print(line, file=sys.stderr)
        print(json.dumps(detail))
        print(json.dumps({
            "correct": res["correct"],
            "attempted": res["attempted"],
            "failed": res["failed"],
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
