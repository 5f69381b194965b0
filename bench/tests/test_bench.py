"""Tests of the benchmark itself: seeded generators and report checkers.

    python3 -m pytest bench/tests -q

The checkers are run on real reports of the program (imported from src/),
which must pass, and on copies corrupted in one place, which must not.
"""

from __future__ import annotations

import copy
import itertools
import os
import sys
from fractions import Fraction

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import run  # noqa: E402
from geometry import Body, first_interior_point, sphere_set, touched_facets  # noqa: E402
from workloads import WORKLOADS, CheckError, make_tasks  # noqa: E402


def snapshot(task):
    state = dict(vars(task))
    state.pop("path")
    return repr(sorted(state.items()))


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_generators_are_deterministic(workload):
    first = [snapshot(t) for t in make_tasks(workload, 7, 1)]
    again = [snapshot(t) for t in make_tasks(workload, 7, 1)]
    other = [snapshot(t) for t in make_tasks(workload, 8, 1)]
    assert first == again
    assert first != other


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_rounds_have_the_same_classes(workload):
    labels = [t.label for t in make_tasks(workload, 3, 2)]
    half = len(labels) // 2
    assert labels[:half] == labels[half:]
    assert labels[:half] == [t.label for t in make_tasks(workload, 4, 1)]


def test_sphere_sets_have_the_constructed_rows():
    from polarcut.polyhedra import normalize

    import random

    rng = random.Random(5)
    for _ in range(60):
        dim = rng.randint(1, 4)
        bounded = rng.random() < 0.5
        irr = (2 * dim if dim > 1 else 2) if bounded else rng.randint(1, 4)
        rows, rhs, canon, _ = sphere_set(rng, dim, bounded, irr, rng.randint(0, 4), rng.randint(1, 3))
        assert set(normalize(rows, rhs).rows) == set(canon)


def test_lattice_free_bodies_have_no_interior_point():
    import random

    rng = random.Random(11)
    for kind in ("simplex", "box", "split"):
        for dim in (2, 3):
            free = Body(rng, kind, dim, dim if kind == "simplex" else 1, ops=2, shift=3)
            assert free.lattice_free
            assert first_interior_point(free.rows, free.rhs, free.f, 4) is None
            fat = Body(rng, kind, dim, dim + 1 if kind == "simplex" else 2, ops=2, shift=3)
            assert not fat.lattice_free
            assert first_interior_point(fat.rows, fat.rhs, fat.f, 6) is not None


def test_touched_facets_of_unit_square_and_two_simplex():
    half = Fraction(1, 2)
    square = ([(1, 0), (0, 1), (-1, 0), (0, -1)], [1, 1, 0, 0])
    assert touched_facets(*square, (half, half), 3) == [False] * 4
    simplex = ([(-1, 0), (0, -1), (1, 1)], [0, 0, 2])
    assert touched_facets(*simplex, (half, half), 3) == [True] * 3


@pytest.fixture(scope="module")
def runner(tmp_path_factory):
    cli = run.load_program()
    return run.Runner(cli), str(tmp_path_factory.mktemp("work"))


FILE_NUMBERS = itertools.count()


def executed(runner, workload, label, seed=5):
    r, workdir = runner
    task = next(t for t in make_tasks(workload, seed, 1) if t.label == label)
    task.write(workdir, next(FILE_NUMBERS))
    results = task.execute(r.call)
    task.check(results)  # the program's own reports pass
    return task, results


def rejects(task, results, corrupt) -> None:
    bad = copy.deepcopy(results)
    corrupt(bad)
    with pytest.raises(CheckError):
        task.check(bad)


def bump(value, by=Fraction(1, 1000)):
    q = Fraction(value) + by
    return q.numerator if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def test_query_checks(runner):
    task, results = executed(runner, "query", "query d2 unbounded")
    for step in (1, 2):  # gauge, rho
        rejects(task, results, lambda b, s=step: b[s][1]["values"].__setitem__(7, bump(b[s][1]["values"][7])))
        rejects(task, results, lambda b, s=step: b[s][1].__setitem__("values", []))
    rejects(task, results, lambda b: b[0][1]["points"].pop())
    rejects(task, results, lambda b: b[0][1]["points"][1].__setitem__(0, bump(b[0][1]["points"][1][0])))


def test_verify_checks(runner):
    task, results = executed(runner, "verify", "verify d2 bounded")

    def zero_samples(b):
        b[0][1]["checks"]["sandwich"]["samples_checked"] = 0

    rejects(task, results, zero_samples)
    rejects(task, results, lambda b: b[0][1]["checks"]["exposed"].__setitem__("rows_checked", 1))
    rejects(task, results, lambda b: b[0][1].__setitem__("passed", False))


def test_cutcheck_checks(runner):
    task, results = executed(runner, "cutcheck", "cutcheck d2 simplex r3-6")
    rejects(task, results, lambda b: b[0][1]["alpha"].__setitem__(1, bump(b[0][1]["alpha"][1], 1)))
    rejects(task, results, lambda b: b[1][1].__setitem__("valid_on_region", False))
    rejects(task, results, lambda b: b.pop())  # check-cut never ran


def test_scan_checks(runner):
    task, results = executed(runner, "scan", "scan d2 simplex3 r8-12")
    assert task.witness is not None
    rejects(task, results, lambda b: b[0][1]["z"].__setitem__(0, b[0][1]["z"][0] + 1))
    rejects(task, results, lambda b: b[1][1]["z"].__setitem__(1, b[1][1]["z"][1] - 1))
    rejects(task, results, lambda b: b[2][1].__setitem__("uncertified_facets", [0]))
    free, results = executed(runner, "scan", "scan d2 box1 r10-10")
    assert free.witness is None and free.theory is False
    rejects(free, results, lambda b: b[1][1]["alpha"].__setitem__(0, bump(b[1][1]["alpha"][0])))
    rejects(free, results, lambda b: b[2][1].__setitem__("certified", True))


def test_known_fault_operations_fail_today(runner):
    """Both kept faults fail on every seed: they use fixed inputs."""
    for workload, label in (("verify", "verify --samples -5"), ("scan", "cut --radius -1")):
        r, workdir = runner
        task = next(t for t in make_tasks(workload, 1, 1) if t.label == label)
        assert task.fault
        task.write(workdir, next(FILE_NUMBERS))
        results = task.execute(r.call)
        with pytest.raises(CheckError):
            task.check(results)
