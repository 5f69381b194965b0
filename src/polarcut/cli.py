"""Command line front end.

Subcommands: polar, gauge, rho, verify, cut, check-cut, sfree, maximal.
Reports go to stdout as JSON (default) or as equivalent flat text; both are
byte-identical across runs on the same inputs. Exit codes: 0 pass/success,
1 property violation or refused precondition, 2 input error (malformed
JSON or schema problems, diagnosed to stderr) or a report value too long
to print. The whole report is rendered before anything is printed.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys

from . import jsonio
from .cuts import (
    DEFAULT_RADIUS,
    NotSFreeError,
    check_cut_validity,
    generate_cut,
    is_s_free,
    maximality_certificate,
)
from .polyhedra import polar, random_polyhedron
from .rationals import TooLongToPrint, json_scalar
from .sublinear import gauge, minimal_sublinear, property_suite


def _load_document(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError("JSON nested too deeply to read") from None


def _render(report: dict, fmt: str) -> str:
    """The report as JSON or as flat "key: value" lines. An int with more
    digits than the interpreter converts to text raises TooLongToPrint."""
    lines: list[str] = []

    def walk(prefix: str, value) -> None:
        if isinstance(value, dict):
            for k, v in value.items():
                walk(f"{prefix}{k}." if isinstance(v, dict) else f"{prefix}{k}", v)
        else:
            lines.append(f"{prefix}: {json.dumps(value)}")

    try:
        if fmt == "json":
            return json.dumps(report, indent=2)
        walk("", report)
    except ValueError as exc:
        raise TooLongToPrint(str(exc)) from None
    return "\n".join(lines)


def _cmd_polar(args) -> tuple[int, dict]:
    h = jsonio.polyhedron_from_json(_load_document(args.input))
    body = polar(h)
    return 0, {"command": "polar", **jsonio.vpolytope_to_json(body)}


def _cmd_values(args) -> tuple[int, dict]:
    """gauge or rho, as args.command names, at the document's points."""
    evaluate = gauge if args.command == "gauge" else minimal_sublinear
    doc = _load_document(args.input)
    h = jsonio.polyhedron_from_json(doc)
    points = jsonio.points_from_json(doc, h.dim)
    values = [json_scalar(evaluate(h, x)) for x in points]
    return 0, {"command": args.command, "dim": h.dim, "values": values}


def _cmd_verify(args) -> tuple[int, dict]:
    if args.random is not None and args.input is not None:
        raise jsonio.SchemaError("give an input file or --random, not both")
    if args.random is None and args.input is None:
        raise jsonio.SchemaError("give an input file or --random")
    if args.samples < 1:
        raise ValueError(f"--samples must be at least 1, got {args.samples}")
    if args.random is not None and args.random < 1:
        raise ValueError(f"--random must be at least 1, got {args.random}")

    if args.random is not None:
        rng = random.Random(args.seed)
        instances = [
            random_polyhedron(rng.randint(1, 4), rng.randint(3, 10), rng)
            for _ in range(args.random)
        ]
        mode = "random"
    else:
        instances = [jsonio.polyhedron_from_json(_load_document(args.input))]
        mode = "file"

    checks, total = property_suite(instances, args.seed, args.samples)
    for name in ("sandwich", "off_recession"):
        x = checks[name]["first_violation"]
        if x is not None:
            checks[name]["first_violation"] = jsonio.vector_to_json(x)
    report = {
        "command": "verify",
        "mode": mode,
        "instances": len(instances),
        "seed": args.seed,
        "samples": args.samples,
        "checks": checks,
        "violations": total,
        "passed": total == 0,
    }
    return (0 if total == 0 else 1), report


def _cmd_cut(args) -> tuple[int, dict]:
    inst, body = jsonio.task_from_json(_load_document(args.input), "body")
    try:
        cut = generate_cut(inst, body, args.radius)
    except NotSFreeError as exc:
        report = {
            "command": "cut",
            "refused": True,
            "radius": exc.radius,
            "z": jsonio.vector_to_json(exc.witness),
        }
        return 1, report
    return 0, {
        "command": "cut",
        "radius": args.radius,
        **jsonio.cut_to_json(cut),
    }


def _cmd_check_cut(args) -> tuple[int, dict]:
    inst, cut = jsonio.task_from_json(_load_document(args.input), "cut")
    report = check_cut_validity(inst, cut, args.radius)
    out = {
        "command": "check-cut",
        "valid_on_region": report.valid_on_region,
        "radius": report.radius,
        "violation": None,
    }
    if report.violation is not None:
        out["violation"] = {
            "x": jsonio.vector_to_json(report.violation.x),
            "s": jsonio.vector_to_json(report.violation.s),
            "improving_ray": report.violation.improving_ray,
        }
    return (0 if report.valid_on_region else 1), out


def _cmd_sfree(args) -> tuple[int, dict]:
    inst, body = jsonio.task_from_json(_load_document(args.input), "body")
    verdict = is_s_free(body, inst, args.radius)
    report = {
        "command": "sfree",
        "free_on_region": verdict.free_on_region,
        "radius": verdict.radius,
        "z": None
        if verdict.witness is None
        else jsonio.vector_to_json(verdict.witness),
    }
    return (0 if verdict.free_on_region else 1), report


def _cmd_maximal(args) -> tuple[int, dict]:
    inst, body = jsonio.task_from_json(_load_document(args.input), "body")
    report = maximality_certificate(body, inst, args.radius)
    out = {
        "command": "maximal",
        "certified": report.certified,
        "heuristic": report.heuristic,
        "radius": report.radius,
        "uncertified_facets": list(report.uncertified_facets),
    }
    return (0 if report.certified else 1), out


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: main reuses it, and
    parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="polarcut",
        description=(
            "Exact polar duality, gauge evaluators, and corner-relaxation "
            "cuts over rational arithmetic."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text, needs_input=True, radius=False):
        p = sub.add_parser(name, help=help_text)
        if needs_input:
            p.add_argument("input", help="path to a JSON document")
        if radius:
            p.add_argument(
                "--radius",
                type=int,
                default=DEFAULT_RADIUS,
                help=f"lattice scan radius (default {DEFAULT_RADIUS})",
            )
        p.add_argument(
            "--format",
            choices=("json", "text"),
            default="json",
            help="report format (default json)",
        )
        p.set_defaults(handler=handler)
        return p

    add("polar", _cmd_polar, "polar body of a canonical set")
    add("gauge", _cmd_values, "gauge values at the given points")
    add("rho", _cmd_values, "minimal sublinear values at the given points")

    p_verify = add(
        "verify",
        _cmd_verify,
        "run the full property suite on given or random instances",
        needs_input=False,
    )
    p_verify.add_argument(
        "input", nargs="?", default=None, help="path to a JSON set document"
    )
    p_verify.add_argument(
        "--random", type=int, default=None, metavar="N",
        help="verify N seeded random instances instead of a file",
    )
    p_verify.add_argument("--seed", type=int, default=0, help="random seed")
    p_verify.add_argument(
        "--samples", type=int, default=200, help="sample points per instance"
    )

    add("cut", _cmd_cut, "generate a cut from an instance and a body", radius=True)
    add(
        "check-cut",
        _cmd_check_cut,
        "check a cut against every reachable lattice point of the region",
        radius=True,
    )
    add("sfree", _cmd_sfree, "scan a body for interior lattice points", radius=True)
    add(
        "maximal",
        _cmd_maximal,
        "certify facet-by-facet maximality on the region",
        radius=True,
    )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code, report = args.handler(args)
        text = _render(report, args.format)
    except TooLongToPrint:
        print(
            "output error: a report value is too long to print "
            f"(over {sys.get_int_max_str_digits()} decimal digits)",
            file=sys.stderr,
        )
        return 2
    except json.JSONDecodeError as exc:
        print(
            f"input error: line {exc.lineno} column {exc.colno}: {exc.msg}",
            file=sys.stderr,
        )
        return 2
    except OSError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # SchemaError, the geometric input errors (origin/anchor not
        # interior, improper set, malformed fields), out-of-range --radius,
        # --samples or --random, and over-deep JSON all land here.
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
