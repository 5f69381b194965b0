"""Byte-identity of the command line: exit code and sha256 of stdout and of
stderr for a fixed corpus of calls, each in both report formats, against
the table in cli_golden.json.

Each call runs `polarcut.cli.main` in this process on documents written to
a temporary directory; that directory is replaced by the token {tmp} in
stderr before hashing. The table is regenerated, only when a change of
output is intended, with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile
from fractions import Fraction
from operator import mul

import pytest

from conftest import rational_samples, reference_render
from polarcut import cli, cuts, jsonio, lp
from polarcut.cli import main
from polarcut.cuts import (
    CornerInstance,
    check_cut_validity,
    make_body,
    maximality_certificate,
)
from polarcut.polyhedra import (
    VPolytope,
    hull_membership,
    normalize,
    polar,
    random_polyhedron,
)
from polarcut.rationals import TooLongToPrint, Values, scaled
from polarcut.sublinear import (
    check_unit_ball,
    property_suite,
    random_unit_ball_rep,
)

TABLE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_golden.json")

QUADRANT = {
    "dim": 2,
    "rows": [[1, 0], [0, 1]],
    "rhs": [1, 1],
    "points": [[-1, -2], [3, 2], ["1/2", "1/4"], [0, 0], ["-7/3", 5]],
}

# [1, 1, 0] <= 5 is redundant given x1 <= 1/2 and x2 <= 1
SIMPLEX_3D = {
    "dim": 3,
    "rows": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1], [1, 1, 0]],
    "rhs": ["1/2", 1, "3/2", 2, 5],
    "points": [[1, 1, 1], ["-1/2", 0, "2/3"], [0, 0, 0], [-3, "5/4", -1]],
}

SPLIT_INSTANCE = {"dim": 1, "f": ["1/2"], "rays": [[1], [-1]], "P": None}
SPLIT = {"instance": SPLIT_INSTANCE, "body": {"rows": [[1], [-1]], "rhs": [1, 0]}}
FAT = {"instance": SPLIT_INSTANCE, "body": {"rows": [[1], [-1]], "rhs": ["3/2", "1/2"]}}
BOX_3D = {
    "instance": {
        "dim": 3,
        "f": ["1/2", "1/2", "1/2"],
        "rays": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]],
        "P": {"rows": [[1, 1, 1], [-1, 0, 0]], "rhs": [2, 1]},
    },
    "body": {
        "rows": [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]],
        "rhs": [1, 0, 1, 0, 1, 0],
    },
}

# The lattice-free simplex {x >= 0, x1 + x2 + x3 <= 3} about f, P absent:
# bounded, so maximal's boundedness test (polyhedra.is_bounded) finds its
# rows positively spanning the space: its one LP is feasible.
SIMPLEX_BODY_3D = {
    "instance": dict(BOX_3D["instance"], P=None),
    "body": {
        "rows": [[-1, 0, 0], [0, -1, 0], [0, 0, -1], [1, 1, 1]],
        "rhs": [0, 0, 0, 3],
    },
}

# A 3-D slab {0 <= x1 + x3 <= 1, x2 <= 2} about f with P: among the rows
# of B and P, x2 has a zero last coefficient and x1 + x2 - x3 <= 3 a
# negative one, so the scan's last-coordinate slices are cut short from
# both ends and emptied for some prefixes. The slab is lattice-free; its
# widening to x1 + x3 <= 2 is not, and its lexicographically smallest
# interior point depends on P.
SLAB_P_INSTANCE = {
    "dim": 3,
    "f": ["1/2", "1/3", "1/4"],
    "rays": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]],
    "P": {"rows": [[1, 1, -1], [0, -1, 0]], "rhs": [3, 1]},
}
SLAB_P_3D = {
    "instance": SLAB_P_INSTANCE,
    "body": {"rows": [[1, 0, 1], [-1, 0, -1], [0, 1, 0]], "rhs": [1, 0, 2]},
}
WIDE_SLAB_P_3D = {
    "instance": SLAB_P_INSTANCE,
    "body": {"rows": [[1, 0, 1], [-1, 0, -1], [0, 1, 0]], "rhs": [2, 0, 2]},
}

# The box 0 <= y <= 1 in the coordinates y = U x of the unimodular U with
# rows (1, 0, 0, 0), (2, 1, 0, 0), (0, 2, 1, 0), (0, 0, 2, 1), about the
# f with U f = (1/2, 1/2, 1/2, 1/2). The centred rows are +-2 U_i, and
# <2 U_2, 2 U_1> = 8 > |2 U_1|^2 = 4: the Gram test fails on the rows
# +-2 U_1, and a normal direction proves each irredundant with no LP.
UNIMODULAR_BOX_4D = {
    "instance": {
        "dim": 4,
        "f": ["1/2", "-1/2", "3/2", "-5/2"],
        "rays": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [-1, -1, -1, -1]],
        "P": None,
    },
    "body": {
        "rows": [
            [1, 0, 0, 0], [-1, 0, 0, 0], [2, 1, 0, 0], [-2, -1, 0, 0],
            [0, 2, 1, 0], [0, -2, -1, 0], [0, 0, 2, 1], [0, 0, -2, -1],
        ],
        "rhs": [1, 0, 1, 0, 1, 0, 1, 0],
    },
}

# The unit square about f with the redundant row x1 + x2 <= 3, which no
# ray can prove irredundant: it still takes its LP, and is dropped.
REDUNDANT_BOX_2D = {
    "instance": {"dim": 2, "f": ["1/2", "1/3"], "rays": [[1, 0], [0, 1], [-1, -1]], "P": None},
    "body": {"rows": [[1, 0], [-1, 0], [1, 1], [0, 1], [0, -1]], "rhs": [1, 0, 3, 1, 0]},
}

# check-cut scans the radius box clipped to the cut's violation_box and
# reuses certificates there. Here the box at radius 3 is {0..3} x {1..3}.
# Posing LPs alone (no certificate search), its first violation, at
# (1, 1), comes after one optimal LP whose dual skips (0, 2) and (0, 3);
# with the search, the cut's one dual vertex settles (0, 1..3) and the
# violation's LP is the only one.
CUT_LATE = {
    "instance": {"dim": 2, "f": ["1/2", "1/3"], "rays": [[-1, 0], [2, 2]], "P": None},
    "cut": {"alpha": [1, "1/2"], "provenance": ""},
}
# The same cut on other rays about another f: in the box {0..4} x {1..4},
# posing LPs alone, the Farkas row of (0, 1) skips (0, 2), the dual of
# (0, 3) skips (0, 4), and (1, 1) is the first violation; with the search,
# a cone facet settles (0, 1) and (0, 2), the one dual vertex (0, 3) and
# (0, 4), and the violation's LP is the only one.
CUT_REUSE = {
    "instance": {"dim": 2, "f": ["3/4", "2/3"], "rays": [[-1, 2], [2, 2]], "P": None},
    "cut": {"alpha": [1, "1/2"], "provenance": ""},
}
# Two rays in 3-D (they do not span the space), and the split cut of the
# lattice-free box [0, 1] x [0, 1] x [-1, 1] about f: valid.
CUT_PLANE_3D = {
    "instance": {
        "dim": 3,
        "f": ["1/2", "1/2", 0],
        "rays": [[1, 0, 0], [0, 1, 0]],
        "P": None,
    },
    "cut": {"alpha": [2, 2], "provenance": "box"},
}

# alpha_1 = 4 puts the tip e1 / 4 short of x1 = 1, so the violation box is
# empty on axis 1 ({1..0}); the zero coefficients of +-e2 leave axis 2 open.
# No lattice point can violate the cut: scope "global".
CUT_EMPTY_AXIS = {
    "instance": {
        "dim": 2,
        "f": ["1/2", "1/2"],
        "rays": [[1, 0], [0, 1], [0, -1]],
        "P": None,
    },
    "cut": {"alpha": [4, 0, 0], "provenance": ""},
}

BIG = "1" + "0" * 1000


def query_points(count: int, dim: int, seed: int) -> list:
    """count seeded points in the canonical spelling: an int or "p/q"."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        row = (Fraction(rng.randint(-40, 40), rng.randint(1, 9)) for _ in range(dim))
        out.append([q.numerator if q.denominator == 1 else str(q) for q in row])
    return out


# 600 points, read as one block. The set has zero coefficients and is
# unbounded, so rho is negative at some points (19) where gauge is 0.
# LOOSE spells two entries in the middle of the list the tolerant way
# (blanks, unicode minus), so the whole list is read row by row; BAD has a
# float text at points[300][1], which is named by its path.
QUERY_600 = {
    "dim": 3,
    "rows": [[1, 0, 2], [0, -1, 1], [-1, -1, 0], [2, 1, 0]],
    "rhs": [1, "1/2", 3, 2],
    "points": query_points(600, 3, 600),
}
QUERY_600_LOOSE = dict(QUERY_600, points=[list(p) for p in QUERY_600["points"]])
QUERY_600_LOOSE["points"][260][0] = " 1/2"
QUERY_600_LOOSE["points"][400][2] = "\u22127/3"
QUERY_600_BAD = dict(QUERY_600, points=[list(p) for p in QUERY_600["points"]])
QUERY_600_BAD["points"][300][1] = "1.5"

DOCUMENTS = {
    "quadrant.json": QUADRANT,
    "simplex3d.json": SIMPLEX_3D,
    "split.json": SPLIT,
    "fat.json": FAT,
    "box3d.json": BOX_3D,
    "simplex_body3d.json": SIMPLEX_BODY_3D,
    "slab_p3d.json": SLAB_P_3D,
    "wide_slab_p3d.json": WIDE_SLAB_P_3D,
    "unimodular_box4d.json": UNIMODULAR_BOX_4D,
    "redundant_box2d.json": REDUNDANT_BOX_2D,
    "cut_valid.json": dict(SPLIT, cut={"alpha": [2, 2], "provenance": "split"}),
    "cut_zero.json": dict(SPLIT, cut={"alpha": [0, 0], "provenance": ""}),
    "cut_ray.json": dict(SPLIT, cut={"alpha": [-2, "1/2"], "provenance": ""}),
    "cut_box3d.json": dict(BOX_3D, cut={"alpha": ["1/2"] * 4, "provenance": ""}),
    "cut_late.json": CUT_LATE,
    "cut_reuse.json": CUT_REUSE,
    "cut_plane3d.json": CUT_PLANE_3D,
    "cut_empty_axis.json": CUT_EMPTY_AXIS,
    "float.json": {"dim": 2, "rows": [[0.5, 0]], "rhs": [1]},
    "bad_field.json": {
        "instance": dict(SPLIT_INSTANCE, P={"rows": [["x"]], "rhs": [1]}),
        "body": SPLIT["body"],
    },
    "query600.json": QUERY_600,
    "query600_loose.json": QUERY_600_LOOSE,
    "query600_bad.json": QUERY_600_BAD,
    "huge.json": {"dim": 1, "rows": [[BIG]], "rhs": [1], "points": [["1" + "0" * 4000]]},
}
# One malformed document per reader position, each refused with the
# field it names: a set's rows and rhs, a body's rows and rhs, an
# instance's f, rays, and P's rows and rhs, and the query points.
BAD_FIELD_DOCUMENTS = {
    "bad_set_rows.json": {"dim": 2, "rows": [[1, 0], [0]], "rhs": [1, 1]},
    "bad_set_rhs.json": {"dim": 2, "rows": [[1, 0], [0, 1]], "rhs": [1, "1/0"]},
    "bad_body_rows.json": dict(SPLIT, body={"rows": [[1], "-1"], "rhs": [1, 0]}),
    "bad_body_rhs.json": dict(SPLIT, body={"rows": [[1], [-1]]}),
    "bad_instance_f.json": dict(SPLIT, instance=dict(SPLIT_INSTANCE, f=["1/2", 0])),
    "bad_instance_rays.json": dict(
        CUT_LATE, instance=dict(CUT_LATE["instance"], rays=[[-1, 0], [2, True]])
    ),
    "bad_instance_p_rows.json": dict(
        BOX_3D,
        instance=dict(BOX_3D["instance"], P={"rows": [[1, 1, 1], [-1, 0]], "rhs": [2, 1]}),
    ),
    "bad_instance_p_rhs.json": dict(
        BOX_3D,
        instance=dict(BOX_3D["instance"], P={"rows": [[1, 1, 1], [-1, 0, 0]], "rhs": [2, 1.5]}),
    ),
    "bad_points.json": dict(QUADRANT, points=[[-1, -2], 7]),
}
DOCUMENTS.update(BAD_FIELD_DOCUMENTS)
RAW_DOCUMENTS = {
    "truncated.json": '{"dim": 2,\n  "rows": [[1, 0],',
    "deep.json": "[" * 100_000,
}


def _calls() -> list:
    calls = []
    for name in ("quadrant.json", "simplex3d.json"):
        for command in ("polar", "gauge", "rho"):
            calls.append((command, name))
        calls.append(("verify", name, "--samples", "40"))
    for name in ("query600.json", "query600_loose.json"):
        for command in ("gauge", "rho"):
            calls.append((command, name))
    calls.append(("verify", "--random", "5", "--seed", "7", "--samples", "40"))
    bodies = ("split.json", "fat.json", "box3d.json", "slab_p3d.json", "wide_slab_p3d.json")
    bodies += ("unimodular_box4d.json", "redundant_box2d.json")
    for name in bodies:
        for command in ("cut", "sfree", "maximal"):
            for radius in ("0", "2", "5"):
                calls.append((command, name, "--radius", radius))
    for name in ("cut_valid.json", "cut_zero.json", "cut_ray.json"):
        calls.append(("check-cut", name, "--radius", "3"))
    # radius 0 scans {0}, inside the split cut's box {0, 1}: scope "region"
    calls.append(("check-cut", "cut_valid.json", "--radius", "0"))
    calls.append(("check-cut", "cut_box3d.json", "--radius", "2"))
    calls.append(("check-cut", "cut_late.json", "--radius", "3"))
    calls.append(("check-cut", "cut_reuse.json", "--radius", "3"))
    calls.append(("check-cut", "cut_plane3d.json", "--radius", "2"))
    calls.append(("check-cut", "cut_empty_axis.json", "--radius", "3"))
    calls.append(("maximal", "simplex_body3d.json", "--radius", "2"))
    calls += [
        ("polar", "truncated.json"),
        ("polar", "deep.json"),
        ("polar", "float.json"),
        ("maximal", "bad_field.json"),
        ("gauge", "huge.json"),
        ("gauge", "query600_bad.json"),
        ("polar", "missing.json"),
        ("polar", "bad_set_rows.json"),
        ("gauge", "bad_set_rhs.json"),
        ("cut", "bad_body_rows.json", "--radius", "2"),
        ("sfree", "bad_body_rhs.json", "--radius", "2"),
        ("maximal", "bad_instance_f.json", "--radius", "2"),
        ("check-cut", "bad_instance_rays.json", "--radius", "3"),
        ("cut", "bad_instance_p_rows.json", "--radius", "2"),
        ("sfree", "bad_instance_p_rhs.json", "--radius", "2"),
        ("rho", "bad_points.json"),
    ]
    return [
        call + ("--format", fmt) for call in calls for fmt in ("json", "text")
    ]


CALLS = _calls()


def _key(call) -> str:
    return " ".join(call)


def write_documents(directory: str) -> None:
    for name, doc in DOCUMENTS.items():
        with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    for name, text in RAW_DOCUMENTS.items():
        with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
            fh.write(text)


def run_call(call, directory: str) -> tuple[int, str, str]:
    """(exit code, stdout, stderr with the directory replaced by {tmp})."""
    argv = [
        os.path.join(directory, a) if a.endswith(".json") else a for a in call
    ]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue().replace(directory, "{tmp}")


def digest(code: int, out: str, err: str) -> dict:
    return {
        "exit": code,
        "stdout": hashlib.sha256(out.encode()).hexdigest(),
        "stderr": hashlib.sha256(err.encode()).hexdigest(),
    }


@pytest.fixture(scope="module")
def table() -> dict:
    with open(TABLE, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    directory = str(tmp_path_factory.mktemp("golden"))
    write_documents(directory)
    return directory


def test_table_covers_corpus(table):
    assert sorted(table) == sorted(_key(c) for c in CALLS)


@pytest.mark.parametrize(
    "doc, statuses, certificates",
    [
        pytest.param(CUT_LATE, ["optimal", "optimal"], (2, 1), id="late"),
        pytest.param(CUT_REUSE, ["infeasible", "optimal", "optimal"], (2, 1), id="reuse"),
    ],
)
def test_late_violation_fixtures(monkeypatch, doc, statuses, certificates):
    # What the comments on CUT_LATE and CUT_REUSE say: the LPs posed, in
    # order, up to the violation at (1, 1), whose LP is the last. Posing
    # LPs alone (a search budget of 0), the LP certificates skip points;
    # with the search, its (Farkas rows, dual vertices) settle every point
    # before the violation, whose LP is still posed.
    real_solve = lp.solve
    seen = []

    def recording(program):
        outcome = real_solve(program)
        seen.append(outcome.status)
        return outcome

    monkeypatch.setattr(lp, "solve", recording)
    inst, cut = jsonio.task_from_json(doc, "cut")
    for budget, posed in ((0, statuses), (cuts._SEARCH_BUDGET, ["optimal"])):
        seen.clear()
        with monkeypatch.context() as mp:
            mp.setattr(cuts, "_SEARCH_BUDGET", budget)
            report = check_cut_validity(inst, cut, 3)
        assert report.violation.x == (1, 1) and report.scope == "global"
        assert seen == posed
    rays, r_den = cuts._ray_rows(inst)
    f_den = inst.f.den
    columns = [tuple(f_den * c for c in r) for r in rays]
    costs = scaled(cut.alpha).ints
    found = cuts._cut_certificates(rays, columns, costs, f_den)
    assert tuple(map(len, found)) == certificates


@pytest.mark.parametrize("call", CALLS, ids=_key)
def test_cli_output_matches_table(table, documents, call):
    code, out, err = run_call(call, documents)
    assert digest(code, out, err) == table[_key(call)], (
        f"polarcut {_key(call)}\nexit {code}\n--- stdout\n{out[:4000]}"
        f"\n--- stderr\n{err[:4000]}"
    )


def _cylinder_rows(rng, dim: int, count: int) -> list:
    """count drawn nonzero 2-D rows, each with dim - 2 zeros appended: the
    rows of a cylinder over a 2-D set, redundant ones among them."""
    rows = []
    while len(rows) < count:
        a = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(2))
        if any(a):
            rows.append(a + (0,) * (dim - 2))
    return rows


def test_every_library_lp_is_posed_in_ints(documents, monkeypatch):
    # Every program that the library gives lp.solve holds only ints: each
    # coefficient, right-hand side and objective entry. The programs are
    # those of the whole corpus with seeded maximality_certificate calls on
    # drawn 2-4-D bodies, and of a seeded property suite, whose
    # generator sets are checked once more without their weights and whose
    # samples are tested against the polar's hull, so that every library
    # caller of lp.solve is seen. Both parts hold cylinders over drawn 2-D
    # rows in 3-D and 4-D: their rows hold no basis of the space, so the
    # basis search settles none of their questions, and their redundant
    # rows and stripped generators pose LPs. Every outcome is passed to
    # lp.verify_certificate right after its solve, and it is given no
    # other: proved_bounded checks the basis search's points of
    # is_bounded's LP with lp.primal_feasible, the primal test that
    # verify_certificate runs too.
    real_solve, real_verify, real_primal = lp.solve, lp.verify_certificate, lp.primal_feasible
    programs, callers, verified, solved, searched, proved = [], set(), [], [], [], []

    def recording(program):
        programs.append(program)
        frame = sys._getframe(1)
        for _ in range(4):  # maximality_certificate's LP is in is_bounded
            callers.add(frame.f_code.co_name)
            frame = frame.f_back
        solved.append(real_solve(program))
        return solved[-1]

    def verifying(program, outcome):
        if solved and outcome is solved[-1]:
            verified.append((len(programs), program))
        else:
            searched.append((sys._getframe(1).f_code.co_name, outcome.status))
        return real_verify(program, outcome)

    def primal(*args):
        proved.append(sys._getframe(1).f_code.co_name)
        return real_primal(*args)

    monkeypatch.setattr(lp, "solve", recording)
    monkeypatch.setattr(lp, "verify_certificate", verifying)
    monkeypatch.setattr(lp, "primal_feasible", primal)
    for call in CALLS:
        run_call(call, documents)
    rng = random.Random(1971)
    drawn = [random_polyhedron(dim, dim + 3, rng).rows for dim in (2, 3, 4) * 4]
    for rows in drawn + [_cylinder_rows(rng, dim, 8) for dim in (3, 4) * 8]:
        dim = len(rows[0])
        f = (Fraction(1, 2),) + (Fraction(0),) * (dim - 1)
        rays = [tuple(int(i == d) for i in range(dim)) for d in range(dim)]
        body = make_body(rows, [1 + sum(map(mul, a, f)) for a in rows], f)
        maximality_certificate(body, CornerInstance(dim, f, rays), 1)
    corpus = len(programs)
    rng = random.Random(1968)
    sets = [random_polyhedron(dim, dim + 3, rng) for dim in (1, 2, 3, 4) * 2]
    sets += [normalize(_cylinder_rows(rng, dim, 6), [1] * 6) for dim in (3, 4) * 2]
    property_suite(sets, 5, 24)
    for index, h in enumerate(sets):
        gens = random_unit_ball_rep(h, index, 4)
        assert check_unit_ball(VPolytope(h.dim, gens.points), h)
        for x in rational_samples(h, index, 8):
            hull_membership(x, polar(h))
    assert corpus >= 100 and len(programs) - corpus >= 100, (corpus, len(programs))
    assert verified == list(enumerate(programs, 1))
    assert searched == []
    assert set(proved) == {"proved_bounded", "verify_certificate"}
    assert callers >= {
        "remove_redundancy",
        "exposed_point",
        "property_suite",
        "check_unit_ball",
        "maximality_certificate",
        "check_cut_validity",
        "hull_membership",
    }, callers
    for program in programs:
        entries = [*program.objective]
        for coeffs, _, rhs in program.rows:
            entries += [*coeffs, rhs]
        assert {type(c) for c in entries} <= {int}, program


def test_render_matches_reference_writer(documents, monkeypatch):
    # cli._render's own writer gives json.dumps(indent=2)'s text, over the
    # plain form the writer had before Values columns, on every report
    # of the corpus that reaches it.
    real_render = cli._render
    reports = []

    def recording(report, fmt):
        reports.append(report)
        return real_render(report, fmt)

    monkeypatch.setattr(cli, "_render", recording)
    for call in CALLS:
        if call[-1] == "json":
            run_call(call, documents)
    columns = [r["values"] for r in reports if "values" in r]
    assert len(reports) >= 50 and all(type(c) is Values for c in columns)
    assert any(d == 1 for c in columns for d in c.dens)
    assert any(d > 1 for c in columns for d in c.dens)
    for report in reports:
        try:
            expected = reference_render(report)
        except ValueError:  # a value too long to print
            with pytest.raises(TooLongToPrint):
                real_render(report, "json")
        else:
            assert real_render(report, "json") == expected


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as directory:
        write_documents(directory)
        table = {_key(c): digest(*run_call(c, directory)) for c in CALLS}
    with open(TABLE, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    sys.stdout.write(f"wrote {len(table)} calls to {TABLE}\n")
