"""Reading every schema the command line speaks; cli._render writes.

Conventions: rationals travel as native ints when integral and as "p/q"
strings otherwise; parsers accept both forms (plus "p" strings). Floats are
rejected - there is no inexact mode. Schema problems raise SchemaError
naming the document, or the offending field by its path from the document
root, such as "points[3][1]", "instance.P.rows[0][0]" or "body".

Query points never become Fractions: points_from_json reads the "points"
list POINT_BLOCK rows at a time into int columns
(rationals.scaled_columns), with the scalar grammar and error messages
that every other field gets from parse_rational.
"""

from __future__ import annotations

from .cuts import CornerInstance, Cut, make_body
from .polyhedra import HPolyhedron, normalize
from .rationals import parse_rational, scaled_columns

POINT_BLOCK = 256  # query points read, and evaluated, at a time


class SchemaError(ValueError):
    """Malformed input document; the message names the field."""


def _fail(path: str, problem: str):
    raise SchemaError(f"field '{path}': {problem}")


def _field(obj, key: str, path: str = "") -> tuple:
    """(obj[key], its path); obj is the object at path, "" for the root."""
    if not isinstance(obj, dict):
        if not path:
            raise SchemaError("the document must be a JSON object")
        _fail(path, "expected an object")
    path = f"{path}.{key}" if path else key
    if key not in obj:
        _fail(path, "missing")
    return obj[key], path


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


def _dim_from_json(obj, path: str = "") -> int:
    dim, path = _field(obj, "dim", path)
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        _fail(path, "expected a positive integer")
    return dim


def polyhedron_from_json(obj) -> HPolyhedron:
    """{"dim", "rows", "rhs"} -> canonical set (normalization included)."""
    dim = _dim_from_json(obj)
    rows = vector_list_from_json(*_field(obj, "rows"), dim)
    rhs = vector_from_json(*_field(obj, "rhs"), len(rows))
    return normalize(rows, rhs)


def points_from_json(obj, dim: int):
    """The "points" list of width-dim rows, yielded in blocks of at most
    POINT_BLOCK rows, each as rationals.scaled_columns' (cols, dens)."""
    value, _ = _field(obj, "points")
    if not isinstance(value, list):
        _fail("points", "expected a list")
    for start in range(0, len(value), POINT_BLOCK):
        rows = value[start : start + POINT_BLOCK]
        try:
            block = scaled_columns(rows, dim)
        except ValueError:
            # parse the rows again, entry by entry, to name what is wrong
            for i, row in enumerate(rows, start):
                vector_from_json(row, f"points[{i}]", dim)
            raise
        yield block


def corner_instance_from_json(obj) -> CornerInstance:
    """The "instance" object {"dim", "f", "rays", "P": {"rows", "rhs"}};
    "P" may be absent or null for the whole space."""
    dim = _dim_from_json(obj, "instance")
    f = vector_from_json(*_field(obj, "f", "instance"), dim)
    rays = vector_list_from_json(*_field(obj, "rays", "instance"), dim)
    p_rows: tuple = ()
    p_rhs: tuple = ()
    if obj.get("P") is not None:
        p = obj["P"]
        p_rows = vector_list_from_json(*_field(p, "rows", "instance.P"), dim)
        p_rhs = vector_from_json(*_field(p, "rhs", "instance.P"), len(p_rows))
    return CornerInstance(dim, f, rays, p_rows, p_rhs)


def body_from_json(obj, f) -> HPolyhedron:
    """The "body" object {"rows", "rhs"}, B in x-space, as the centered
    canonical set K = B - f (cuts.make_body); f comes from the instance."""
    rows = vector_list_from_json(*_field(obj, "rows", "body"), len(f))
    rhs = vector_from_json(*_field(obj, "rhs", "body"), len(rows))
    return make_body(rows, rhs, f)


def task_from_json(doc, part: str) -> tuple:
    """A cut-family document {"instance": .., part: ..}, part being "body"
    (cut, sfree, maximal) or "cut" (check-cut): (instance, K or cut)."""
    inst = corner_instance_from_json(_field(doc, "instance")[0])
    obj, _ = _field(doc, part)
    if part == "body":
        return inst, body_from_json(obj, inst.f)
    return inst, cut_from_json(obj)


def cut_from_json(obj) -> Cut:
    alpha = vector_from_json(*_field(obj, "alpha", "cut"))
    provenance = obj.get("provenance", "")
    if not isinstance(provenance, str):
        _fail("cut.provenance", "expected a string")
    return Cut(alpha=alpha, provenance=provenance)
