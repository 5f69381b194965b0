import json
import random
import re
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    in_recession,
    make_instance,
    raise_polar_support,
    raise_rho,
    rational_samples,
    reference_body_from_json,
    reference_corner_instance_from_json,
    reference_points_from_json,
    reference_polyhedron_from_json,
    reference_render,
    vscale,
    zero_witness,
)
from polarcut import cli, cuts, jsonio, rationals, sublinear
from polarcut.cli import main
from polarcut.cuts import generate_cut
from polarcut.polyhedra import VPolytope
from polarcut.rationals import Values
from polarcut.sublinear import property_suite
from test_cli_golden import DOCUMENTS, run_call


QUADRANT_K = {"dim": 2, "rows": [[1, 0], [0, 1]], "rhs": [1, 1]}

SPLIT = {
    "instance": {"dim": 1, "f": ["1/2"], "rays": [[1], [-1]], "P": None},
    "body": {"rows": [[1], [-1]], "rhs": [1, 0]},
}

FAT = {
    "instance": {"dim": 1, "f": ["1/2"], "rays": [[1], [-1]], "P": None},
    "body": {"rows": [[1], [-1]], "rhs": ["3/2", "1/2"]},
}


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_polar(tmp_path, capsys):
    path = write(tmp_path, "k.json", QUADRANT_K)
    code, out, _ = run(capsys, "polar", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["dim"] == 2
    assert doc["points"] == [[0, 0], [1, 0], [0, 1]]


def test_gauge_and_rho_values(tmp_path, capsys):
    doc = dict(QUADRANT_K, points=[[-1, -2], [3, 2], ["1/2", "1/4"]])
    path = write(tmp_path, "k.json", doc)
    code, out, _ = run(capsys, "rho", path)
    assert code == 0
    assert json.loads(out)["values"] == [-1, 3, "1/2"]
    code, out, _ = run(capsys, "gauge", path)
    assert code == 0
    assert json.loads(out)["values"] == [0, 3, "1/2"]


def quadrant_counts():
    """QUADRANT_K, its 40 samples for seed 0, those off the recession cone,
    and the per-check counts of a clean verify run on them."""
    h = jsonio.polyhedron_from_json(QUADRANT_K)
    pts = rational_samples(h, 0, 40)
    off = [x for x in pts if not in_recession(h, x)]
    checks = {
        "sandwich": {
            "pairs": 3,
            "samples_checked": 120,
            "violations": 0,
            "first_violation": None,
        },
        "reconstruct": {"instances_checked": 1, "failures": 0},
        "off_recession": {
            "samples_checked": len(off),
            "violations": 0,
            "first_violation": None,
        },
        "exposed": {"rows_checked": 2, "failures": 0},
    }
    return h, pts, off, checks


def verify_quadrant(tmp_path, capsys):
    """verify on QUADRANT_K with 40 samples, through the CLI and through
    property_suite; asserts that both agree and returns (exit code, checks,
    violations) from the CLI report."""
    path = write(tmp_path, "k.json", QUADRANT_K)
    code, out, _ = run(capsys, "verify", path, "--samples", "40")
    doc = json.loads(out)
    h = jsonio.polyhedron_from_json(QUADRANT_K)
    tally, violations = property_suite([h], 0, 40)
    for name in ("sandwich", "off_recession"):
        x = tally[name]["first_violation"]
        if x is not None:
            assert all(type(v) is Fraction for v in x)
            tally[name]["first_violation"] = [rationals.json_scalar(v) for v in x]
    assert doc["checks"] == tally and doc["violations"] == violations
    assert doc["passed"] is (violations == 0)
    return code, doc["checks"], doc["violations"]


def test_verify_file_mode(tmp_path, capsys):
    _, _, _, checks = quadrant_counts()
    assert verify_quadrant(tmp_path, capsys) == (0, checks, 0)


def test_verify_random_mode(capsys):
    code, out, _ = run(
        capsys, "verify", "--random", "5", "--seed", "7", "--samples", "40"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["instances"] == 5 and doc["violations"] == 0


def test_verify_reports_off_recession_violation(tmp_path, capsys, monkeypatch):
    _, _, off, checks = quadrant_counts()
    raise_polar_support(monkeypatch)
    checks["off_recession"].update(violations=len(off), first_violation=[-2, 1])
    assert verify_quadrant(tmp_path, capsys) == (1, checks, len(off))


def test_verify_reports_off_recession_violation_when_polar_drops_a_row(
    tmp_path, capsys, monkeypatch
):
    # A polar without its last row (0, 1) has support max(0, x_1), below
    # the gauge at each off-recession sample where x_2 alone attains the
    # max; the samples where x_1 attains it still pass.
    _, _, off, checks = quadrant_counts()
    real = sublinear.polar
    monkeypatch.setattr(sublinear, "polar", lambda h: VPolytope(h.dim, real(h).points[:-1]))
    missed = [x for x in off if x[1] > max(0, x[0])]
    assert 0 < len(missed) < len(off)
    checks["off_recession"].update(
        violations=len(missed),
        first_violation=[rationals.json_scalar(v) for v in missed[0]],
    )
    assert verify_quadrant(tmp_path, capsys) == (1, checks, len(missed))


def test_verify_reports_exposed_failure(tmp_path, capsys, monkeypatch):
    # Both rows of the quadrant have a ray certificate, so exposed_point
    # answers for them with no LP, and a zero witness on that route fails
    # both.
    _, _, _, checks = quadrant_counts()
    zero_witness(monkeypatch, ("ray",))
    checks["exposed"]["failures"] = 2
    assert verify_quadrant(tmp_path, capsys) == (1, checks, 2)


def test_verify_reports_exposed_failure_on_the_lp_fallback(tmp_path, capsys, monkeypatch):
    # In {x_1 + 3 x_2 <= 1, 2 x_1 + 2 x_2 <= 1, 2 x_1 - 2 x_2 <= 1} the
    # row (2, 2) has no ray certificate: the Gram test ties (|a_2|^2 = 8 =
    # <a_1, a_2>), the normal (3, -1) of a_1 meets a_3 first, and the
    # normal (2, 2) of a_3 ties with a_1. So exposed_point takes its
    # witness from the support LP; a zero witness on that route fails that
    # row alone.
    doc = {"dim": 2, "rows": [[1, 3], [2, 2], [2, -2]], "rhs": [1, 1, 1]}
    path = write(tmp_path, "k.json", doc)
    code, out, _ = run(capsys, "verify", path, "--samples", "40")
    clean = json.loads(out)
    assert code == 0 and clean["checks"]["exposed"] == {"rows_checked": 3, "failures": 0}
    zero_witness(monkeypatch, ("lp",))
    code, out, _ = run(capsys, "verify", path, "--samples", "40")
    doc = json.loads(out)
    clean["checks"]["exposed"]["failures"] = 1
    assert (code, doc["checks"], doc["violations"]) == (1, clean["checks"], 1)


def test_verify_reports_reconstruct_failure(tmp_path, capsys, monkeypatch):
    # A rho one too high misplaces every sample whose true value lies in
    # (0, 1] (the boundary rescalings among them), and can no longer equal
    # the polar's support off the recession cone either.
    _, _, off, checks = quadrant_counts()
    raise_rho(monkeypatch)
    checks["reconstruct"]["failures"] = 1
    checks["off_recession"].update(violations=len(off), first_violation=[-2, 1])
    assert verify_quadrant(tmp_path, capsys) == (1, checks, 1 + len(off))


def test_verify_reports_sandwich_violation(tmp_path, capsys, monkeypatch):
    # Twice the rows, with check_unit_ball bypassed: the support is twice
    # the minimal function, so it leaves the sandwich wherever that is not 0.
    h, pts, _, checks = quadrant_counts()
    nonzero = sum(1 for x in pts if sublinear.minimal_sublinear(h, x) != 0)
    doubled = VPolytope(2, tuple(vscale(2, a) for a in h.rows))
    monkeypatch.setattr(sublinear, "random_unit_ball_rep", lambda h, seed, n: doubled)
    monkeypatch.setattr(sublinear, "check_unit_ball", lambda gens, h: True)
    checks["sandwich"].update(violations=3 * nonzero, first_violation=[-2, -2])
    assert verify_quadrant(tmp_path, capsys) == (1, checks, 3 * nonzero)


def test_verify_deterministic_bytes(capsys):
    args = ("verify", "--random", "3", "--seed", "11", "--samples", "25")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_cut_split(tmp_path, capsys):
    path = write(tmp_path, "split.json", SPLIT)
    code, out, _ = run(capsys, "cut", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["alpha"] == [2, 2]
    assert doc["radius"] == 5
    assert "provenance" in doc


def test_cut_refused_not_s_free(tmp_path, capsys):
    path = write(tmp_path, "fat.json", FAT)
    code, out, _ = run(capsys, "cut", path)
    assert code == 1
    doc = json.loads(out)
    assert doc["refused"] is True and doc["z"] == [0]


def test_check_cut(tmp_path, capsys):
    good = dict(SPLIT, cut={"alpha": [2, 2], "provenance": ""})
    path = write(tmp_path, "good.json", good)
    code, out, _ = run(capsys, "check-cut", path)
    assert code == 0
    assert json.loads(out)["valid_on_region"] is True
    # the cut's violation_box [0, 1] lies in the radius-5 box, not in the
    # radius-0 one
    assert json.loads(out)["scope"] == "global"
    code, out, _ = run(capsys, "check-cut", path, "--radius", "0")
    assert code == 0 and json.loads(out)["scope"] == "region"

    bad = dict(SPLIT, cut={"alpha": [0, 0], "provenance": ""})
    path = write(tmp_path, "bad.json", bad)
    code, out, _ = run(capsys, "check-cut", path, "--radius", "4")
    assert code == 1
    doc = json.loads(out)
    assert doc["valid_on_region"] is False
    assert doc["violation"]["x"] == [-4]
    assert doc["violation"]["improving_ray"] is False
    assert doc["scope"] == "global"


def test_sfree(tmp_path, capsys):
    code, out, _ = run(capsys, "sfree", write(tmp_path, "a.json", SPLIT))
    assert code == 0
    assert json.loads(out)["free_on_region"] is True
    code, out, _ = run(capsys, "sfree", write(tmp_path, "b.json", FAT))
    assert code == 1
    assert json.loads(out)["z"] == [0]


def test_maximal(tmp_path, capsys):
    code, out, _ = run(capsys, "maximal", write(tmp_path, "a.json", SPLIT))
    assert code == 0
    doc = json.loads(out)
    assert doc["certified"] is True and doc["heuristic"] is False
    square = {
        "instance": {
            "dim": 2,
            "f": ["1/2", "1/2"],
            "rays": [[1, 0], [0, 1]],
            "P": None,
        },
        "body": {
            "rows": [[1, 0], [0, 1], [-1, 0], [0, -1]],
            "rhs": [1, 1, 0, 0],
        },
    }
    code, out, _ = run(capsys, "maximal", write(tmp_path, "sq.json", square))
    assert code == 1
    assert json.loads(out)["uncertified_facets"] == [0, 1, 2, 3]


def test_malformed_json_diagnoses_position(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"dim": 2,\n  "rows": [[1, 0],]}')
    code, out, err = run(capsys, "polar", str(path))
    assert code == 2 and out == ""
    assert "line 2" in err and "column" in err


def test_schema_error_names_field(tmp_path, capsys):
    code, _, err = run(
        capsys, "polar", write(tmp_path, "a.json", {"dim": 2, "rhs": [1]})
    )
    assert code == 2 and "'rows'" in err
    code, _, err = run(
        capsys,
        "polar",
        write(tmp_path, "b.json", {"dim": 2, "rows": [[1, "1/0"]], "rhs": [1]}),
    )
    assert code == 2 and "rows[0][1]" in err
    code, _, err = run(
        capsys,
        "polar",
        write(tmp_path, "c.json", {"dim": 2, "rows": [[0.5, 0]], "rhs": [1]}),
    )
    assert code == 2 and "not exact" in err


def test_geometric_input_errors_exit_2(tmp_path, capsys):
    code, _, err = run(
        capsys,
        "polar",
        write(tmp_path, "a.json", {"dim": 2, "rows": [[1, 0]], "rhs": [0]}),
    )
    assert code == 2 and "origin not interior" in err
    code, _, err = run(
        capsys,
        "cut",
        write(
            tmp_path,
            "b.json",
            {
                "instance": SPLIT["instance"],
                "body": {"rows": [[1], [-1]], "rhs": [0, 1]},
            },
        ),
    )
    assert code == 2 and "f not interior" in err


def test_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "polar", "/nonexistent/path.json")
    assert code == 2 and "input error" in err


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 2


def dispatch_grammar(tmp_path) -> list:
    """argv lists for the dispatch test: each subcommand with good
    arguments and with none, an option as "--radius=3" and abbreviated,
    an unknown option, an extra positional, a missing or bad option value,
    -h before and after the command, --format text, "--", an empty argv,
    an unknown word, and verify's --random with no input."""
    k = write(tmp_path, "k.json", dict(QUADRANT_K, points=[[1, 2], ["1/2", -1]]))
    split = write(tmp_path, "split.json", SPLIT)
    checked = write(tmp_path, "cut.json", dict(SPLIT, cut={"alpha": [2, 2]}))
    fat = write(tmp_path, "fat.json", FAT)
    good = {
        "polar": [k], "gauge": [k], "rho": [k], "verify": [k, "--samples", "5"],
        "cut": [split], "check-cut": [checked], "sfree": [split], "maximal": [split],
    }
    argvs = [[command, *args] for command, args in good.items()]
    argvs += [[command] for command in good]
    argvs += [[command, *args, "--format", "text"] for command, args in good.items()]
    argvs += [[command, "-h"] for command in good]
    argvs += [
        ["sfree", split, "--radius=3"], ["cut", split, "--rad", "3"],
        ["maximal", "--rad", "2", split], ["check-cut", checked, "--radius"],
        ["sfree", split, "--radius", "x"], ["cut", split, "--radius", "-1"],
        ["polar", k, "--bogus"], ["gauge", k, "--radius", "3"], ["rho", k, "-x"],
        ["sfree", split, "extra"], ["polar", k, k], ["verify", k, "--samples", "5", "x"],
        ["-h"], ["--help"], ["-h", "sfree"], ["cut", "--help", split], ["rho", k, "--he"],
        ["polar", "--format", "xml", k], ["--"], ["--", "polar", k], ["polar", "--", k],
        ["cut", split, "--", "--radius", "3"], [], ["frobnicate"], ["frobnicate", k],
        ["Polar", k], ["sfre", split], ["--format", "text", "polar", k],
        ["verify", "--random", "2"], ["verify", "--random", "2", "--samples", "5"],
        ["verify", "--random", "0"], ["verify", "--random", "2", k],
        ["sfree", fat], ["cut", fat, "--format", "text"], ["polar", str(tmp_path / "none.json")],
    ]
    return argvs


def dispatch_outcome(capsys, argv):
    """(exit code or ("SystemExit", code), stdout, stderr) of main(argv)."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = ("SystemExit", exc.code)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_dispatch_matches_the_full_parser(tmp_path, capsys, monkeypatch):
    # main hands an argv that opens with a subcommand to that subcommand's
    # own parser. On every argv of the grammar it exits, prints and
    # reports exactly as with the full parser's parse_args, which argparse
    # routes to the same subparser.
    argvs = dispatch_grammar(tmp_path)
    fast = [dispatch_outcome(capsys, argv) for argv in argvs]
    monkeypatch.setattr(cli, "_parse", lambda argv: cli._parsers()[0].parse_args(argv))
    plain = [dispatch_outcome(capsys, argv) for argv in argvs]
    for argv, got, expected in zip(argvs, fast, plain):
        assert got == expected, argv
    codes = Counter(code if type(code) is int else code[0] for code, _, _ in plain)
    assert codes[0] >= 20 and codes[1] >= 1 and codes[2] >= 5, codes
    exits = Counter(code[1] for code, _, _ in plain if type(code) is tuple)
    assert exits[0] >= 10 and exits[2] >= 15, exits
    unrecognized = [err for _, _, err in plain if "unrecognized arguments" in err]
    assert len(unrecognized) >= 5
    assert all(err.startswith("usage: polarcut [-h]") for err in unrecognized)


def test_text_format_same_content(tmp_path, capsys):
    path = write(tmp_path, "k.json", QUADRANT_K)
    code, out, _ = run(capsys, "verify", path, "--samples", "25", "--format", "text")
    assert code == 0
    assert "violations: 0" in out
    assert "passed: true" in out


def test_round_trip_identity_every_schema(tmp_path, capsys):
    # The cut is the one schema the CLI both writes (cut) and reads back
    # (check-cut).
    inst = jsonio.corner_instance_from_json(SPLIT["instance"])
    body = jsonio.body_from_json(SPLIT["body"], inst.f)
    code, out, _ = run(capsys, "cut", write(tmp_path, "split.json", SPLIT))
    assert code == 0
    report = json.loads(out)
    doc = dict(SPLIT, cut={k: report[k] for k in ("alpha", "provenance")})
    assert jsonio.cut_from_json(doc["cut"]) == generate_cut(inst, body)
    code, _, _ = run(capsys, "check-cut", write(tmp_path, "cut.json", doc))
    assert code == 0


SUBCOMMANDS = ("polar", "gauge", "rho", "verify", "cut", "check-cut", "sfree", "maximal")


@pytest.mark.parametrize("command", SUBCOMMANDS)
@pytest.mark.parametrize("root", [[1], "x", 3, None], ids=repr)
def test_non_object_root_names_the_document(tmp_path, capsys, root, command):
    code, out, err = run(capsys, command, write(tmp_path, "root.json", root))
    assert code == 2 and out == ""
    assert err == "input error: the document must be a JSON object\n"


CUT_FAMILY_FIELD_ERRORS = {
    "instance": ("cut", {"instance": 3, "body": SPLIT["body"]}),
    "instance.dim": ("cut", {"instance": {"f": ["1/2"]}, "body": SPLIT["body"]}),
    "instance.f[0]": (
        "sfree", {"instance": dict(SPLIT["instance"], f=[1.5]), "body": SPLIT["body"]}
    ),
    "instance.P": (
        "cut", {"instance": dict(SPLIT["instance"], P=[1]), "body": SPLIT["body"]}
    ),
    "instance.P.rows[0][0]": (
        "maximal",
        {
            "instance": dict(SPLIT["instance"], P={"rows": [["x"]], "rhs": [1]}),
            "body": SPLIT["body"],
        },
    ),
    "body": ("cut", {"instance": SPLIT["instance"], "body": 5}),
    "body.rhs[1]": (
        "sfree", {"instance": SPLIT["instance"], "body": dict(SPLIT["body"], rhs=[1, "a"])}
    ),
    "cut": ("check-cut", {"instance": SPLIT["instance"], "cut": [1, 2]}),
}


@pytest.mark.parametrize("field", CUT_FAMILY_FIELD_ERRORS)
def test_cut_family_errors_name_field_from_root(tmp_path, capsys, field):
    # Every field of a cut-family document is named by its path from the
    # document root, whether it sits in "instance", "body" or "cut".
    command, doc = CUT_FAMILY_FIELD_ERRORS[field]
    code, out, err = run(capsys, command, write(tmp_path, "bad.json", doc))
    assert code == 2 and out == ""
    assert err.startswith(f"input error: field '{field}': ")


def test_cut_instance_schema_errors(tmp_path, capsys):
    doc = {
        "instance": {"dim": 1, "f": [1], "rays": [[1]], "P": None},
        "body": SPLIT["body"],
    }
    code, _, err = run(capsys, "cut", write(tmp_path, "a.json", doc))
    assert code == 2 and "non-integer" in err
    code, _, err = run(capsys, "check-cut", write(tmp_path, "b.json", SPLIT))
    assert code == 2 and "'cut'" in err


def test_negative_radius_exits_2(tmp_path, capsys):
    # FAT strictly contains the lattice point 0: an empty scan must not
    # stand in for a lattice-free verdict. Radius 0 still scans round(f).
    path = write(tmp_path, "fat.json", FAT)
    for command in ("cut", "sfree"):
        code, out, err = run(capsys, command, path, "--radius", "-1")
        assert code == 2 and out == ""
        assert "input error" in err and "radius" in err
        code, out, _ = run(capsys, command, path, "--radius", "0")
        assert code == 1 and json.loads(out)["z"] == [0]


UNIT_BOX_3D = {
    "instance": {
        "dim": 3,
        "f": ["1/2", "1/2", "1/2"],
        "rays": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        "P": None,
    },
    "body": {
        "rows": [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]],
        "rhs": [1, 0, 1, 0, 1, 0],
    },
}


def test_oversized_scan_exits_2(tmp_path, capsys, monkeypatch):
    # (2 * 10^6 + 1)^3 points are refused before the scan starts: the
    # enumeration itself is replaced by a failure.
    def no_scan(*args):
        raise AssertionError("scan started")

    monkeypatch.setattr(cuts, "_projections", no_scan)
    path = write(tmp_path, "box.json", UNIT_BOX_3D)
    for command in ("sfree", "maximal"):
        code, out, err = run(capsys, command, path, "--radius", "1000000")
        assert code == 2 and out == ""
        assert "input error" in err and str(cuts.MAX_SCAN_POINTS) in err


def test_verify_rejects_empty_checks(tmp_path, capsys):
    path = write(tmp_path, "k.json", QUADRANT_K)
    for argv in (
        (path, "--samples", "0"),
        (path, "--samples", "-5"),
        ("--random", "0"),
        ("--random", "-3"),
    ):
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2 and out == ""
        assert "input error" in err and argv[-2] in err


def test_oversized_verify_exits_2(tmp_path, capsys, monkeypatch):
    # samples times instances above 10^6 is refused before any instance is
    # built or sampled: both are replaced by failures.
    def no_build(*args):
        raise AssertionError("instance built")

    def no_sample(*args):
        raise AssertionError("samples drawn")

    monkeypatch.setattr(cli, "random_polyhedron", no_build)
    monkeypatch.setattr(sublinear, "sample_points", no_sample)
    path = write(tmp_path, "k.json", QUADRANT_K)
    for argv in (
        (path, "--samples", "1000001"),
        ("--random", "1001", "--samples", "1000"),
        ("--random", "1000001", "--samples", "1"),
        ("--random", str(10**30)),
    ):
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2 and out == ""
        assert "input error" in err and str(cli.MAX_VERIFY_SAMPLES) in err
    # 10^6 itself is allowed: the first instance is built.
    with pytest.raises(AssertionError, match="instance built"):
        main(["verify", "--random", "1000", "--samples", "1000"])


def test_deeply_nested_json_exits_2(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    code, out, err = run(capsys, "polar", str(path))
    assert code == 2 and out == ""
    assert "input error" in err


MALFORMED_SCALARS = [
    0.5, True, None, [1], "1/0", "3/-2", "1.5", "9" * 5000, "１", "٣/4", "1/２",
]


def test_malformed_point_scalars_exit_2(tmp_path, capsys):
    # A bad entry of a query point gets the message parse_rational gives
    # any other field, under its points[i][j] path; a row of the wrong
    # width is named as a whole.
    for k, bad in enumerate(MALFORMED_SCALARS):
        with pytest.raises(ValueError) as excinfo:
            rationals.parse_rational(bad)
        doc = dict(QUADRANT_K, points=[[1, 2], ["1/2", bad]])
        path = write(tmp_path, f"bad{k}.json", doc)
        for command in ("gauge", "rho"):
            code, out, err = run(capsys, command, path)
            assert code == 2 and out == ""
            assert err == f"input error: field 'points[1][1]': {excinfo.value}\n"
    for k, row in enumerate(([1, 2, 3], [1], "1/2")):
        doc = dict(QUADRANT_K, points=[[0, 0], [1, 1], row])
        code, out, err = run(capsys, "gauge", write(tmp_path, f"w{k}.json", doc))
        assert code == 2 and out == "" and "field 'points[2]'" in err


def test_over_long_digit_strings_name_the_limit(tmp_path, capsys):
    # A digit string past the interpreter's int conversion limit, in a set
    # row or a query point, numerator or denominator, is an input error that
    # names the limit rather than the Python call that raises it.
    limit = sys.get_int_max_str_digits()
    digits = "9" * (limit + 1)
    cases = [
        ("polar", dict(QUADRANT_K, rows=[[digits, 0], [0, 1]]), "rows[0][0]"),
        ("gauge", dict(QUADRANT_K, points=[[digits, 0]]), "points[0][0]"),
        ("rho", dict(QUADRANT_K, points=[[0, 0], [1, f"-1/{digits}"]]), "points[1][1]"),
    ]
    for k, (command, doc, field) in enumerate(cases):
        code, out, err = run(capsys, command, write(tmp_path, f"long{k}.json", doc))
        assert code == 2 and out == ""
        assert err == (
            f"input error: field '{field}': too many digits: "
            f"a number may have at most {limit} decimal digits\n"
        )
        assert "set_int_max_str_digits" not in err


def test_over_long_number_literal_names_the_limit(tmp_path, capsys):
    # A JSON number literal past the int conversion limit fails inside
    # json's decoder, before any field is read: an input error in
    # parse_rational's words. A file that is not UTF-8 keeps its decoding
    # error, which is a ValueError too.
    limit = sys.get_int_max_str_digits()
    for k, digits in enumerate(("9" * (limit + 1), "-" + "1" * 5000)):
        path = tmp_path / f"literal{k}.json"
        path.write_text(f'{{"dim": 1, "rows": [[{digits}]], "rhs": [1]}}')
        for command in ("polar", "gauge"):
            code, out, err = run(capsys, command, str(path))
            assert code == 2 and out == ""
            assert err == (
                "input error: too many digits: "
                f"a number may have at most {limit} decimal digits\n"
            )
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"dim": 1, "rows": [[1]], "rhs": [1], "note": "\xff"}')
    code, out, err = run(capsys, "polar", str(path))
    assert code == 2 and out == ""
    assert err.startswith("input error: 'utf-8' codec can't decode byte 0xff")
    assert "too many digits" not in err


def test_malformed_points_in_later_blocks_exit_2(tmp_path, capsys):
    # Past the first block the path is still absolute: a bad entry at
    # points[300][1] (second block) and a row of the wrong width at
    # points[257] are named as they are on a one-block document.
    points = query_doc(400)["points"]
    for k, bad in enumerate(MALFORMED_SCALARS):
        with pytest.raises(ValueError) as excinfo:
            rationals.parse_rational(bad)
        rows = [list(p) for p in points]
        rows[300][1] = bad
        path = write(tmp_path, f"bad{k}.json", dict(query_doc(0), points=rows))
        for command in ("gauge", "rho"):
            code, out, err = run(capsys, command, path)
            assert code == 2 and out == ""
            assert err == f"input error: field 'points[300][1]': {excinfo.value}\n"
    for k, row in enumerate(([1, 2, 3], [1], "1/2")):
        rows = points[:257] + [row] + points[258:]
        doc = dict(query_doc(0), points=rows)
        code, out, err = run(capsys, "gauge", write(tmp_path, f"w{k}.json", doc))
        assert code == 2 and out == ""
        assert err.startswith("input error: field 'points[257]'")


def test_huge_report_value_exits_2(tmp_path, capsys):
    # gauge = rho = 10^5000 and 10^5000 / 3: more digits than the
    # interpreter turns into text. Nothing is printed, in either format.
    big = "1" + "0" * 1000
    for k, point in enumerate(("1" + "0" * 4000, "1" + "0" * 4000 + "/3")):
        doc = {"dim": 1, "rows": [[big]], "rhs": [1], "points": [[point]]}
        path = write(tmp_path, f"big{k}.json", doc)
        for command in ("gauge", "rho"):
            for fmt in ("json", "text"):
                code, out, err = run(capsys, command, path, "--format", fmt)
                assert code == 2 and out == ""
                assert err.startswith("output error: a report value is too long to print")
    # No input scalar has more than 4,001 digits, but the centered row
    # 10^4000 / (1 - <a, f>) = 10^4000 * (10^4000 + 1) in cut's provenance
    # text has about 8,000.
    huge = "1" + "0" * 4000
    task = {
        "instance": {"dim": 1, "f": [f"1/{huge[:-1]}1"], "rays": [[1], [-1]], "P": None},
        "body": {"rows": [[huge], [-1]], "rhs": [1, 0]},
    }
    path = write(tmp_path, "big_cut.json", task)
    for fmt in ("json", "text"):
        code, out, err = run(capsys, "cut", path, "--radius", "1", "--format", fmt)
        assert code == 2 and out == ""
        assert err.startswith("output error: a report value is too long to print")


# Leaves of a drawn report: JSON scalars (huge and negative ints, texts with
# quotes, backslashes, control characters and non-ASCII), the library's
# Fractions, and Values columns of values in lowest terms, d == 1 or not.
report_texts = st.text() | st.sampled_from(
    ['say "hi"', "back\\slash", "\x00\x1f\x7f\n\t", "\u00e9\u2211\U0001d53d", "\u2028"]
)
report_ints = st.integers() | st.integers(-(10**300), 10**300)
report_values = st.lists(st.fractions(max_denominator=10**20) | report_ints.map(Fraction)).map(
    lambda qs: Values([q.numerator for q in qs], [q.denominator for q in qs])
)
report_leaves = st.none() | st.booleans() | report_ints | report_texts
report_leaves |= st.fractions() | report_values
report_trees = st.recursive(
    report_leaves,
    lambda kids: st.lists(kids, max_size=5)
    | st.tuples(kids, kids)
    | st.dictionaries(report_texts, kids, max_size=5),
    max_leaves=20,
)


@settings(max_examples=150, deadline=None)
@given(st.dictionaries(report_texts, report_trees, max_size=6))
@example(
    {
        "values": Values([0, -3, 5, 10**40], [1, 2, 1, 7]),
        "empty": [[], {}, ()],
        "mixed": [1, {"a": [], "b": {"c": None}}, "x", [True, Fraction(-1, 3)]],
        "text": 'q"\n\u00e9\\',
    }
)
def test_render_matches_reference_writer_on_drawn_reports(report):
    # cli._render's own writer gives json.dumps(indent=2)'s text (the
    # pure-Python encoder over the plain form before Values columns).
    assert cli._render(report, "json") == reference_render(report)


def query_doc(count):
    rng = random.Random(count)
    points = [
        [f"{rng.randint(-30, 30)}/{rng.randint(1, 12)}", rng.randint(-9, 9)]
        for _ in range(count)
    ]
    return dict(QUADRANT_K, rows=[[1, 0], [0, 1], [-1, -1]], rhs=[1, 1, 2], points=points)


def test_set_and_body_rows_build_no_fractions(monkeypatch):
    # A set document and a body document, their rows and right-hand
    # sides spelled each accepted way (ints, "p/q", blanks, a unicode
    # minus, an unreduced text), are read with no parse_rational or
    # rationals.vector call and without the entry-by-entry reader, which
    # only diagnoses a refused row; one bad entry calls it on that row.
    calls = Counter()

    def counted(module, name):
        real = getattr(module, name)

        def call(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(module, name, call)

    for module, name in [
        (rationals, "parse_rational"),
        (rationals, "vector"),
        (jsonio, "parse_rational"),
        (jsonio, "vector_from_json"),
    ]:
        counted(module, name)
    rows = [[1, " 2/4"], ["\u22123/6", 0], ["+5", "7/1"], [-1, "-1"]]
    rhs = [" 1 ", "3/2", 4, "\u22121/2"]
    doc = {"dim": 2, "rows": rows, "rhs": ["1", "3/2", 4, "5/2"]}
    h = jsonio.polyhedron_from_json(doc)
    body = jsonio.body_from_json({"rows": rows, "rhs": rhs}, (Fraction(1, 4), Fraction(1, 3)))
    assert (len(h.rows), len(body.rows), sum(calls.values())) == (4, 3, 0), calls
    # an instance with P: f, the rays and P read to ints the same way
    inst = jsonio.corner_instance_from_json(INSTANCE_WITH_P)
    task_inst, _ = jsonio.task_from_json({"instance": INSTANCE_WITH_P, "body": SPLIT_2D}, "body")
    assert sum(calls.values()) == 0, calls
    assert inst == task_inst == make_instance(
        2,
        [Fraction(1, 2), Fraction(-1, 3)],
        [[1, 0], [Fraction(-1, 2), 2]],
        [[Fraction(1, 2), 0], [Fraction(-1), Fraction(2, 3)]],
        [Fraction(5, 2), 4],
    )
    with pytest.raises(jsonio.SchemaError, match=re.escape("field 'rows[3][1]'")):
        jsonio.polyhedron_from_json(dict(doc, rows=rows[:3] + [[-1, 0.5]]))
    assert calls["vector_from_json"] == 1 and calls["parse_rational"] > 0


INSTANCE_WITH_P = {
    "dim": 2,
    "f": [" 2/4", "\u22121/3"],
    "rays": [[1, "0"], ["-1/2", "+2"]],
    "P": {"rows": [["1/2", 0], [-1, " 4/6 "]], "rhs": ["10/4", 4]},
}
SPLIT_2D = {"rows": [[1, 0], [-1, 0]], "rhs": [1, 0]}

# (where the entry is, its bad value, the error as the entry-by-entry
# readers word it)
INSTANCE_ENTRY_ERRORS = [
    (("f", 1), "x", "field 'instance.f[1]': not a rational: 'x'"),
    (("f", 0), 1.5, "field 'instance.f[0]': floats are not exact rationals: 1.5"),
    (("rays", 1, 0), True, "field 'instance.rays[1][0]': not a rational: True"),
    (("rays", 0, 1), "1/0", "field 'instance.rays[0][1]': not a rational: '1/0'"),
    (("P", "rows", 1, 0), None, "field 'instance.P.rows[1][0]': not a rational: None"),
    (
        ("P", "rows", 0, 1),
        "9" * 5000,
        "field 'instance.P.rows[0][1]': too many digits: a number may have at "
        f"most {sys.get_int_max_str_digits()} decimal digits",
    ),
    (("P", "rhs", 1), "1.5", "field 'instance.P.rhs[1]': not a rational: '1.5'"),
    (("P", "rhs", 0), [1], "field 'instance.P.rhs[0]': not a rational: [1]"),
    (("f",), [1], "field 'instance.f': expected 2 entries, got 1"),
    (("rays",), [[1, 0], [1]], "field 'instance.rays[1]': expected 2 entries, got 1"),
    (("P", "rhs"), [1], "field 'instance.P.rhs': expected 2 entries, got 1"),
    (("P", "rows"), 3, "field 'instance.P.rows': expected a list"),
]


@pytest.mark.parametrize(
    "where, value, message",
    INSTANCE_ENTRY_ERRORS,
    ids=[".".join(map(str, where)) for where, *_ in INSTANCE_ENTRY_ERRORS],
)
def test_instance_entry_errors_name_the_entry(where, value, message):
    # The int reader refuses what the entry-by-entry readers refuse, and
    # they name it: the same SchemaError text as when every entry was read
    # into a Fraction, for an entry of f, of a ray, of P's rows and of P's
    # right-hand sides, and for a list of the wrong shape.
    doc = json.loads(json.dumps(INSTANCE_WITH_P))
    *path, last = where
    obj = doc
    for key in path:
        obj = obj[key]
    obj[last] = value
    with pytest.raises(jsonio.SchemaError) as excinfo:
        jsonio.corner_instance_from_json(doc)
    assert str(excinfo.value) == message


def _json_paths(value, path=()):
    """The path (keys and indices from the root) of every field of a JSON
    document, depth first."""
    if isinstance(value, dict):
        fields = value.items()
    elif isinstance(value, list):
        fields = enumerate(value)
    else:
        return
    for key, child in fields:
        yield path + (key,)
        yield from _json_paths(child, path + (key,))


# What a mutation puts in place of a field: scalars outside the grammar,
# too long or not numbers, ints that are rationals but a wrong dim, width
# or sign there, and values that are not lists.
BAD_SCALARS = ["x", 1.5, True, "9" * 5000, -1, 2]
NON_LISTS = [3, "1, 2", {"rows": []}, None]


def _mutation(doc, path, change):
    """A copy of doc with the field at path changed: ("delete",), ("short",)
    (the list one entry short, [] in place of a scalar), or ("put", value)."""
    doc = json.loads(json.dumps(doc))
    *above, key = path
    parent = doc
    for k in above:
        parent = parent[k]
    if change[0] == "delete":
        del parent[key]
    elif change[0] == "short":
        value = parent[key]
        parent[key] = value[:-1] if isinstance(value, list) and value else []
    else:
        parent[key] = change[1]
    return doc


def _changes(doc, rng) -> list:
    """(path, change) pairs: each member of each object in doc deleted,
    made one entry short, made a non-list and made each bad scalar; then
    10 entries of its lists drawn, each changed one of those ways."""
    paths = list(_json_paths(doc))
    ways = [("delete",), ("short",)]
    members = [path for path in paths if isinstance(path[-1], str)]
    entries = [path for path in paths if isinstance(path[-1], int)]
    out = []
    for path in members:
        out += [(path, way) for way in ways]
        out.append((path, ("put", rng.choice(NON_LISTS))))
        out += [(path, ("put", value)) for value in BAD_SCALARS]
    for _ in range(10):
        way = rng.choice(ways + [("put", rng.choice(NON_LISTS + BAD_SCALARS))])
        out.append((rng.choice(entries), way))
    return out


REFUSAL_COMMANDS = {
    "set": [("polar",), ("gauge",), ("rho",)],
    "body": [(c, "--radius", "1") for c in ("cut", "sfree", "maximal")],
    "cut": [("check-cut", "--radius", "1")],
}
# golden documents: sets with points, bodies with instances with and
# without P, and cuts
REFUSAL_DOCUMENTS = {
    "quadrant.json": "set",
    "simplex3d.json": "set",
    "split.json": "body",
    "fat.json": "body",
    "box3d.json": "body",
    "simplex_body3d.json": "body",
    "slab_p3d.json": "body",
    "redundant_box2d.json": "body",
    "cut_valid.json": "cut",
    "cut_box3d.json": "cut",
    "cut_late.json": "cut",
    "cut_plane3d.json": "cut",
}


def test_refusals_match_the_entry_by_entry_readers(tmp_path, monkeypatch):
    # About 1,000 seeded mutations of golden set, points, body, instance
    # and cut documents, each one field made a bad scalar, a short list or
    # a non-list, or deleted: main gives the same exit code, stdout and
    # stderr as with jsonio's readers swapped for the references that
    # read every row entry by entry, in document order.
    rng = random.Random(3301)
    calls = []
    for name, kind in REFUSAL_DOCUMENTS.items():
        doc = DOCUMENTS[name]
        for path, change in _changes(doc, rng):
            command, *options = rng.choice(REFUSAL_COMMANDS[kind])
            target = write(tmp_path, f"m{len(calls)}.json", _mutation(doc, path, change))
            calls.append((command, target, *options, "--format", rng.choice(["json", "text"])))
    directory = str(tmp_path)
    outcomes = [run_call(call, directory) for call in calls]
    monkeypatch.setattr(jsonio, "polyhedron_from_json", reference_polyhedron_from_json)
    monkeypatch.setattr(jsonio, "points_from_json", reference_points_from_json)
    monkeypatch.setattr(jsonio, "corner_instance_from_json", reference_corner_instance_from_json)
    monkeypatch.setattr(jsonio, "body_from_json", reference_body_from_json)
    for call, outcome in zip(calls, outcomes):
        assert run_call(call, directory) == outcome, call
    codes = Counter(code for code, _, _ in outcomes)
    print("refusal calls:", len(calls), "exits:", dict(codes))
    assert 900 <= len(calls) <= 1100 and min(codes[c] for c in (0, 1, 2)) >= 20, codes


def test_query_points_build_no_fractions(tmp_path, capsys, monkeypatch):
    # gauge and rho on 1,000 canonically spelled points parse none of them
    # with parse_rational, jsonio._row or jsonio.vector_from_json (which
    # read a block scaled_columns refuses), read them in blocks of at most
    # 256 rows, and build no Fraction beyond what the set itself needs
    # (measured on the same set with no points): the values go from int
    # columns to text.
    counts = {"parse": 0, "fraction": 0, "vector": 0, "rationals.vector": 0}
    blocks = []
    point_rows = []
    real_parse = rationals.parse_rational
    real_vector = rationals.vector
    real_vector_from_json = jsonio.vector_from_json
    real_columns = rationals.scaled_columns
    real_row = jsonio._row

    def counted_parse(value):
        counts["parse"] += 1
        return real_parse(value)

    def counted_vector(entries):
        counts["rationals.vector"] += 1
        return real_vector(entries)

    def counted_vector_from_json(value, path, dim=None):
        counts["vector"] += path.startswith("points[")
        return real_vector_from_json(value, path, dim)

    def recorded_row(value, path, width, index=None):
        if path == "points":
            point_rows.append(index)
        return real_row(value, path, width, index)

    def recorded_columns(rows, dim):
        blocks.append(len(rows))
        return real_columns(rows, dim)

    real_new = Fraction.__new__

    def counted_new(cls, *args, **kwargs):
        counts["fraction"] += 1
        return real_new(cls, *args, **kwargs)

    monkeypatch.setattr(jsonio, "parse_rational", counted_parse)
    monkeypatch.setattr(rationals, "vector", counted_vector)
    monkeypatch.setattr(jsonio, "vector_from_json", counted_vector_from_json)
    monkeypatch.setattr(jsonio, "scaled_columns", recorded_columns)
    monkeypatch.setattr(jsonio, "_row", recorded_row)
    monkeypatch.setattr(Fraction, "__new__", counted_new)
    for command in ("gauge", "rho"):
        seen = []
        for count in (0, 1000):
            counts.update(parse=0, fraction=0, vector=0)
            blocks.clear()
            path = write(tmp_path, f"q{count}.json", query_doc(count))
            code, out, _ = run(capsys, command, path)
            assert code == 0 and len(json.loads(out)["values"]) == count
            seen.append(dict(counts))
        empty, full = seen
        assert full["parse"] == empty["parse"] == 0  # the set's rows too
        assert full["vector"] == 0
        assert blocks == [256, 256, 256, 232]
        assert full["fraction"] == empty["fraction"]
        assert point_rows == []
    # a tolerant spelling sends its block, and only that block, to _row,
    # row by row: rows 768-999, each read once, with no vector_from_json;
    # a bad entry is named by vector_from_json on its row alone (the rows
    # of its block before it are read to ints), and the bad block is read
    # once: rationals.vector is never called
    loose = query_doc(1000)
    loose["points"][998][0] = " 1/2"
    loose["points"][998][1] = "\u22127"
    counts.update(vector=0)
    code, _, _ = run(capsys, "rho", write(tmp_path, "loose.json", loose))
    assert code == 0 and counts["vector"] == 0
    assert point_rows == list(range(768, 1000))
    point_rows.clear()
    loose["points"][999][0] = "1.5"
    code, _, _ = run(capsys, "rho", write(tmp_path, "bad.json", loose))
    assert code == 2 and counts["vector"] == 1  # row 999
    assert point_rows == list(range(768, 1000))
    assert counts["parse"] > 0  # the diagnosis parses what it names
    assert counts["rationals.vector"] == 0
