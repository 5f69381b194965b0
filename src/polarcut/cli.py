"""Command line front end.

Subcommands: polar, gauge, rho, verify, cut, check-cut, sfree, maximal.
Reports go to stdout as JSON (default) or as equivalent flat text; both are
byte-identical across runs on the same inputs. Exit codes: 0 pass/success,
1 property violation or refused precondition, 2 input error (malformed
JSON or schema problems, diagnosed to stderr) or a report value too long
to print. One reader and one writer: _load_document turns a file into a
document or an input error; handlers return library values (Fractions,
tuples, gauge and rho's rationals.Values column, property_suite's tally as
it comes) and _render alone turns the whole report into text before
anything is printed, pretty-printed as json.dumps would with an indent of
2 but with json's C encoder. main has two failure branches, the output error
(TooLongToPrint) and the input error. An argv that opens with a
subcommand's name is parsed by that subcommand's own parser, as argparse
would route it (_parse); any other argv, or one that parser leaves
arguments over from, goes through the full parser and its errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from fractions import Fraction

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
from .rationals import TooLongToPrint, Values, json_scalar
from .sublinear import block_values, property_suite

MAX_VERIFY_SAMPLES = 10**6  # largest --samples times instance count verify takes


def _load_document(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()  # a file that is not UTF-8 raises its own error here
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None
    except RecursionError:
        raise ValueError("JSON nested too deeply to read") from None
    except ValueError:  # int() on a number literal past the digit limit
        raise ValueError(
            "too many digits: a number may have at most "
            f"{sys.get_int_max_str_digits()} decimal digits"
        ) from None


def _plain(value):
    """value with each Fraction in json_scalar's form and each tuple a list;
    a list converts its Fractions inline, and a Values column becomes one
    list of ints (d == 1) and "n/d" texts, as gauge reports hold thousands."""
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, Values):
        return [n if d == 1 else f"{n}/{d}" for n, d in zip(*value)]
    if isinstance(value, (tuple, list)):
        return [json_scalar(v) if type(v) is Fraction else _plain(v) for v in value]
    if isinstance(value, Fraction):
        return json_scalar(value)
    return value


def _leaves(prefix: str, report: dict):
    """(key, value) for each leaf of a plain report, nested keys dotted."""
    for k, v in report.items():
        if isinstance(v, dict):
            yield from _leaves(f"{prefix}{k}.", v)
        else:
            yield f"{prefix}{k}", v


@functools.cache
def _flat(sep: str):
    """json's C encoder with sep between the items of a container; one per
    depth of a report, made once."""
    return json.JSONEncoder(separators=(sep, ": ")).encode


def _json(value, pad: str = "\n") -> str:
    """json.dumps' text of a plain value with an indent of 2, nested at the
    depth that pad, a newline and two spaces per level, indents: its closing
    bracket follows pad and its items pad plus two spaces. A container of
    scalars is encoded whole by json's C encoder, which json.dumps skips
    whenever indent is given."""
    if not value or not isinstance(value, (dict, list)):
        return json.dumps(value)  # a scalar, [] or {}
    inner = pad + "  "
    sep = "," + inner
    if isinstance(value, dict):
        brackets, items = "{}", value.values()
    else:
        brackets, items = "[]", value
    if {dict, list}.isdisjoint(map(type, items)):
        body = _flat(sep)(value)[1:-1]
    elif isinstance(value, dict):
        body = sep.join(f"{json.dumps(k)}: {_json(v, inner)}" for k, v in value.items())
    else:
        body = sep.join(_json(v, inner) for v in value)
    return f"{brackets[0]}{inner}{body}{pad}{brackets[1]}"


def _render(report: dict, fmt: str) -> str:
    """The report as JSON or as flat "key: value" lines. A value with more
    digits than the interpreter converts to text raises TooLongToPrint."""
    try:
        report = _plain(report)
        if fmt == "json":
            return _json(report)
        return "\n".join(f"{k}: {json.dumps(v)}" for k, v in _leaves("", report))
    except ValueError as exc:
        raise TooLongToPrint(str(exc)) from None


def _cmd_polar(args) -> tuple[int, dict]:
    body = polar(jsonio.polyhedron_from_json(_load_document(args.input)))
    return 0, {"command": "polar", "dim": body.dim, "points": body.points}


def _cmd_values(args) -> tuple[int, dict]:
    """gauge or rho, as args.command names, at the document's points."""
    clamp = args.command == "gauge"
    doc = _load_document(args.input)
    h = jsonio.polyhedron_from_json(doc)
    nums, dens = [], []
    for block in jsonio.points_from_json(doc, h.dim):
        block_nums, block_dens = block_values(h, block, clamp)
        nums += block_nums
        dens += block_dens
    return 0, {"command": args.command, "dim": h.dim, "values": Values(nums, dens)}


def _cmd_verify(args) -> tuple[int, dict]:
    if args.random is not None and args.input is not None:
        raise jsonio.SchemaError("give an input file or --random, not both")
    if args.random is None and args.input is None:
        raise jsonio.SchemaError("give an input file or --random")
    if args.samples < 1:
        raise ValueError(f"--samples must be at least 1, got {args.samples}")
    if args.random is not None and args.random < 1:
        raise ValueError(f"--random must be at least 1, got {args.random}")
    count = 1 if args.random is None else args.random
    if args.samples * count > MAX_VERIFY_SAMPLES:
        raise ValueError(
            f"{args.samples} samples times {count} instances is over the "
            f"limit of {MAX_VERIFY_SAMPLES}"
        )

    if args.random is not None:
        # Built one at a time as the suite reaches them, from the same draws.
        rng = random.Random(args.seed)
        instances = (
            random_polyhedron(rng.randint(1, 4), rng.randint(3, 10), rng)
            for _ in range(count)
        )
        mode = "random"
    else:
        instances = [jsonio.polyhedron_from_json(_load_document(args.input))]
        mode = "file"

    checks, total = property_suite(instances, args.seed, args.samples)
    return (0 if total == 0 else 1), {
        "command": "verify",
        "mode": mode,
        "instances": count,
        "seed": args.seed,
        "samples": args.samples,
        "checks": checks,
        "violations": total,
        "passed": total == 0,
    }


def _cmd_cut(args) -> tuple[int, dict]:
    inst, body = jsonio.task_from_json(_load_document(args.input), "body")
    try:
        cut = generate_cut(inst, body, args.radius)
    except NotSFreeError as exc:
        return 1, {
            "command": "cut",
            "refused": True,
            "radius": exc.radius,
            "z": exc.witness,
        }
    return 0, {
        "command": "cut",
        "radius": args.radius,
        "alpha": cut.alpha,
        "provenance": cut.provenance,
    }


def _cmd_check_cut(args) -> tuple[int, dict]:
    inst, cut = jsonio.task_from_json(_load_document(args.input), "cut")
    report = check_cut_validity(inst, cut, args.radius)
    v = report.violation
    return (0 if report.valid_on_region else 1), {
        "command": "check-cut",
        "valid_on_region": report.valid_on_region,
        "radius": report.radius,
        "scope": report.scope,
        "violation": None
        if v is None
        else {"x": v.x, "s": v.s, "improving_ray": v.improving_ray},
    }


def _cmd_sfree(args) -> tuple[int, dict]:
    inst, body = jsonio.task_from_json(_load_document(args.input), "body")
    verdict = is_s_free(body, inst, args.radius)
    return (0 if verdict.free_on_region else 1), {
        "command": "sfree",
        "free_on_region": verdict.free_on_region,
        "radius": verdict.radius,
        "z": verdict.witness,
    }


def _cmd_maximal(args) -> tuple[int, dict]:
    inst, body = jsonio.task_from_json(_load_document(args.input), "body")
    report = maximality_certificate(body, inst, args.radius)
    return (0 if report.certified else 1), {
        "command": "maximal",
        "certified": report.certified,
        "heuristic": report.heuristic,
        "radius": report.radius,
        "uncertified_facets": report.uncertified_facets,
    }


@functools.cache
def _parsers() -> tuple:
    """(the command-line parser, {subcommand name: its parser}), built once
    per process: main reuses both, and parsing leaves them unchanged."""
    parser = argparse.ArgumentParser(
        prog="polarcut",
        description=(
            "Exact polar duality, gauge evaluators, and corner-relaxation "
            "cuts over rational arithmetic."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}

    def add(name, handler, help_text, needs_input=True, radius=False):
        p = commands[name] = sub.add_parser(name, help=help_text)
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
    return parser, commands


def _parse(argv) -> argparse.Namespace:
    """parse_args of the full parser, by the subcommand's own parser when
    argv opens with a subcommand's name: argparse hands the rest of such
    an argv to that parser, so it gives the same namespace, or the same
    exit. Any other argv, and one with arguments the subcommand's parser
    leaves over, goes to the full parser, which prints its own usage and
    errors."""
    parser, commands = _parsers()
    if argv and argv[0] in commands:
        args, extras = commands[argv[0]].parse_known_args(argv[1:])
        if not extras:
            args.command = argv[0]
            return args
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else list(argv))
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
    except (OSError, ValueError) as exc:
        # An unreadable file, malformed or over-deep JSON, SchemaError, the
        # geometric input errors (origin/anchor not interior, improper set)
        # and out-of-range --radius, --samples or --random (or their product)
        # all land here.
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
