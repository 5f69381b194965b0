"""JSON interchange for every schema the command line speaks.

Conventions: rationals travel as native ints when integral and as "p/q"
strings otherwise; parsers accept both forms (plus "p" strings). Floats are
rejected - there is no inexact mode. Schema problems raise SchemaError
naming the offending field.

Query points never become Fractions: points_from_json reads each row
straight into the scaled form rationals.Scaled, with the scalar grammar
and error messages that every other field gets from parse_rational.
"""

from __future__ import annotations

from .cuts import CornerInstance, Cut, SFreeBody, make_body
from .polyhedra import HPolyhedron, VPolytope, normalize
from .rationals import json_scalar, parse_rational, scaled_row


class SchemaError(ValueError):
    """Malformed input document; the message names the field."""


def _fail(path: str, problem: str):
    raise SchemaError(f"field '{path}': {problem}")


def _require(obj, key: str, path: str):
    if not isinstance(obj, dict):
        _fail(path or key, "expected an object")
    if key not in obj:
        _fail(f"{path}{key}", "missing")
    return obj[key]


def scalar_from_json(value, path: str):
    try:
        return parse_rational(value)
    except ValueError as exc:
        _fail(path, str(exc))


def vector_from_json(value, path: str, dim: int | None = None):
    if not isinstance(value, list):
        _fail(path, "expected a list")
    if dim is not None and len(value) != dim:
        _fail(path, f"expected {dim} entries, got {len(value)}")
    return tuple(
        scalar_from_json(v, f"{path}[{i}]") for i, v in enumerate(value)
    )


def vector_list_from_json(value, path: str, dim: int | None = None):
    if not isinstance(value, list):
        _fail(path, "expected a list")
    return tuple(
        vector_from_json(row, f"{path}[{i}]", dim)
        for i, row in enumerate(value)
    )


def _dim_from_json(obj, path: str) -> int:
    dim = _require(obj, "dim", path)
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        _fail(f"{path}dim", "expected a positive integer")
    return dim


def vector_to_json(v) -> list:
    return [json_scalar(x) for x in v]


def vector_list_to_json(vs) -> list:
    return [vector_to_json(v) for v in vs]


def polyhedron_from_json(obj) -> HPolyhedron:
    """{"dim", "rows", "rhs"} -> canonical set (normalization included)."""
    dim = _dim_from_json(obj, "")
    rows = vector_list_from_json(_require(obj, "rows", ""), "rows", dim)
    rhs = vector_from_json(_require(obj, "rhs", ""), "rhs", len(rows))
    return normalize(rows, rhs)


def vpolytope_to_json(v: VPolytope) -> dict:
    return {"dim": v.dim, "points": vector_list_to_json(v.points)}


def points_from_json(obj, dim: int) -> tuple:
    """The "points" list, each row as a rationals.Scaled of width dim."""
    value = _require(obj, "points", "")
    if not isinstance(value, list):
        _fail("points", "expected a list")
    out = []
    for i, row in enumerate(value):
        try:
            if not isinstance(row, list) or len(row) != dim:
                raise ValueError
            out.append(scaled_row(row))
        except ValueError:
            # parse the row again, entry by entry, to name what is wrong
            vector_from_json(row, f"points[{i}]", dim)
            raise
    return tuple(out)


def corner_instance_from_json(obj) -> CornerInstance:
    """{"dim", "f", "rays", "P": {"rows", "rhs"}}; "P" may be absent or null
    for the whole space."""
    dim = _dim_from_json(obj, "")
    f = vector_from_json(_require(obj, "f", ""), "f", dim)
    rays = vector_list_from_json(_require(obj, "rays", ""), "rays", dim)
    p_rows: tuple = ()
    p_rhs: tuple = ()
    if obj.get("P") is not None:
        p = obj["P"]
        p_rows = vector_list_from_json(_require(p, "rows", "P."), "P.rows", dim)
        p_rhs = vector_from_json(_require(p, "rhs", "P."), "P.rhs", len(p_rows))
    try:
        return CornerInstance(dim, f, rays, p_rows, p_rhs)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


def body_from_json(obj, f) -> SFreeBody:
    """{"rows", "rhs"} in x-space; the anchor comes from the instance."""
    rows = vector_list_from_json(_require(obj, "rows", "body."), "body.rows", len(f))
    rhs = vector_from_json(_require(obj, "rhs", "body."), "body.rhs", len(rows))
    return make_body(rows, rhs, f)


def task_from_json(doc, part: str) -> tuple:
    """A cut-family document {"instance": .., part: ..}, part being "body"
    (cut, sfree, maximal) or "cut" (check-cut): (instance, body or cut)."""
    inst = corner_instance_from_json(_require(doc, "instance", ""))
    obj = _require(doc, part, "")
    if part == "body":
        return inst, body_from_json(obj, inst.f)
    return inst, cut_from_json(obj)


def cut_from_json(obj) -> Cut:
    alpha = vector_from_json(_require(obj, "alpha", "cut."), "cut.alpha")
    provenance = obj.get("provenance", "")
    if not isinstance(provenance, str):
        _fail("cut.provenance", "expected a string")
    return Cut(alpha=alpha, provenance=provenance)


def cut_to_json(cut: Cut) -> dict:
    return {"alpha": vector_to_json(cut.alpha), "provenance": cut.provenance}
