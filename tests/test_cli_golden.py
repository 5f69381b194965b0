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
import sys
import tempfile

import pytest

from polarcut.cli import main

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
# bounded, so maximal's boundedness test runs sup_over to a finite value.
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

# check-cut's scan reuses LP certificates. Here the first violation, at
# radius 3, comes after one Farkas row and one dual have each skipped points.
CUT_LATE = {
    "instance": {"dim": 2, "f": ["1/2", "1/3"], "rays": [[-1, 0], [2, 2]], "P": None},
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

BIG = "1" + "0" * 1000

DOCUMENTS = {
    "quadrant.json": QUADRANT,
    "simplex3d.json": SIMPLEX_3D,
    "split.json": SPLIT,
    "fat.json": FAT,
    "box3d.json": BOX_3D,
    "simplex_body3d.json": SIMPLEX_BODY_3D,
    "slab_p3d.json": SLAB_P_3D,
    "wide_slab_p3d.json": WIDE_SLAB_P_3D,
    "cut_valid.json": dict(SPLIT, cut={"alpha": [2, 2], "provenance": "split"}),
    "cut_zero.json": dict(SPLIT, cut={"alpha": [0, 0], "provenance": ""}),
    "cut_ray.json": dict(SPLIT, cut={"alpha": [-2, "1/2"], "provenance": ""}),
    "cut_box3d.json": dict(BOX_3D, cut={"alpha": ["1/2"] * 4, "provenance": ""}),
    "cut_late.json": CUT_LATE,
    "cut_plane3d.json": CUT_PLANE_3D,
    "float.json": {"dim": 2, "rows": [[0.5, 0]], "rhs": [1]},
    "bad_field.json": {
        "instance": dict(SPLIT_INSTANCE, P={"rows": [["x"]], "rhs": [1]}),
        "body": SPLIT["body"],
    },
    "huge.json": {"dim": 1, "rows": [[BIG]], "rhs": [1], "points": [["1" + "0" * 4000]]},
}
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
    calls.append(("verify", "--random", "5", "--seed", "7", "--samples", "40"))
    bodies = ("split.json", "fat.json", "box3d.json", "slab_p3d.json", "wide_slab_p3d.json")
    for name in bodies:
        for command in ("cut", "sfree", "maximal"):
            for radius in ("0", "2", "5"):
                calls.append((command, name, "--radius", radius))
    for name in ("cut_valid.json", "cut_zero.json", "cut_ray.json"):
        calls.append(("check-cut", name, "--radius", "3"))
    calls.append(("check-cut", "cut_box3d.json", "--radius", "2"))
    calls.append(("check-cut", "cut_late.json", "--radius", "3"))
    calls.append(("check-cut", "cut_plane3d.json", "--radius", "2"))
    calls.append(("maximal", "simplex_body3d.json", "--radius", "2"))
    calls += [
        ("polar", "truncated.json"),
        ("polar", "deep.json"),
        ("polar", "float.json"),
        ("maximal", "bad_field.json"),
        ("gauge", "huge.json"),
        ("polar", "missing.json"),
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


@pytest.mark.parametrize("call", CALLS, ids=_key)
def test_cli_output_matches_table(table, documents, call):
    code, out, err = run_call(call, documents)
    assert digest(code, out, err) == table[_key(call)], (
        f"polarcut {_key(call)}\nexit {code}\n--- stdout\n{out[:4000]}"
        f"\n--- stderr\n{err[:4000]}"
    )


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as directory:
        write_documents(directory)
        table = {_key(c): digest(*run_call(c, directory)) for c in CALLS}
    with open(TABLE, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    sys.stdout.write(f"wrote {len(table)} calls to {TABLE}\n")
