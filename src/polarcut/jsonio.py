"""Reading every schema the command line speaks; cli._render writes.

Conventions: rationals travel as native ints when integral and as "p/q"
strings otherwise; parsers accept both forms (plus "p" strings). Floats are
rejected - there is no inexact mode. Schema problems raise SchemaError
naming the document, or the offending field by its path from the document
root, such as "points[3][1]", "instance.P.rows[0][0]" or "body".

Every row is read once, to ints, with no Fraction: _row reads a list of
scalars by rationals.scaled_vector, in parse_rational's grammar, and
hands only a row that reader refuses to vector_from_json, the one
diagnoser, which names the bad entry. A set's and a body's "rows" and
"rhs" (_rows_from_json) and a corner instance's f, rays and P are read
by _row, in document order, so the first bad field is the one named; the
instance goes to cuts.CornerInstance as Scaled points. Query points are
read POINT_BLOCK rows at a time into int columns by points_from_json: a
block in the spelling the CLI writes by rationals.scaled_columns, as one
flat int list, and any other block row by row by _row, which names the
first bad row.
"""

from __future__ import annotations

from .cuts import CornerInstance, Cut, make_body
from .polyhedra import HPolyhedron, normalize
from .rationals import Scaled, parse_rational, scaled, scaled_columns, scaled_vector

# Query points read, and evaluated, at a time. A block bounds the memory a
# points document holds in int columns, whatever its size: read as one
# block, the seed-1 `query` benchmark's 1000-2000-point documents raised
# its peak RSS from 20.3-20.4 MB to 20.5-20.8 MB, for tasks_per_s
# 44.1-44.6 against 41.6-42.3 (3 alternating pairs, 2-vCPU VM, CPython
# 3.11).
POINT_BLOCK = 256


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


def _dim_from_json(obj, path: str = "") -> int:
    dim, path = _field(obj, "dim", path)
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        _fail(path, "expected a positive integer")
    return dim


def _row(value, path: str, width: int, index: int | None = None) -> Scaled:
    """value, a list of width scalars, as one Scaled, read by
    rationals.scaled_vector with no Fraction. A value that reader refuses
    (not a list, another width, an entry outside the grammar) is read
    again by vector_from_json, entry by entry, which raises the SchemaError
    that names what is wrong, at path[index] (path when index is None)."""
    if isinstance(value, list) and len(value) == width:
        try:
            return scaled_vector(value)
        except ValueError:
            pass
    if index is not None:
        path = f"{path}[{index}]"
    return scaled(vector_from_json(value, path, width))


def _rows(value, path: str, width: int) -> list:
    """value, a list of rows of width scalars each, as a list of Scaled."""
    if not isinstance(value, list):
        _fail(path, "expected a list")
    return [_row(row, path, width, i) for i, row in enumerate(value)]


def _rows_from_json(obj, dim: int, path: str = "") -> tuple:
    """(rows, rhs) of the object at path: its "rows", each width dim, as a
    list of Scaled, then its "rhs", one per row, as one Scaled, each row
    read once by _row."""
    rows = _rows(*_field(obj, "rows", path), dim)
    return rows, _row(*_field(obj, "rhs", path), len(rows))


def polyhedron_from_json(obj) -> HPolyhedron:
    """{"dim", "rows", "rhs"} -> canonical set (normalization included)."""
    return normalize(*_rows_from_json(obj, _dim_from_json(obj)))


def points_from_json(obj, dim: int):
    """The "points" list of width-dim rows, yielded in blocks of at most
    POINT_BLOCK rows, each as rationals.scaled_columns' (cols, dens). A
    block scaled_columns refuses is read row by row by _row, which raises
    the SchemaError of its first bad row, and laid out from those Scaled
    points."""
    value, _ = _field(obj, "points")
    if not isinstance(value, list):
        _fail("points", "expected a list")
    for start in range(0, len(value), POINT_BLOCK):
        rows = value[start : start + POINT_BLOCK]
        block = scaled_columns(rows, dim)
        if block is None:
            points = [_row(row, "points", dim, i) for i, row in enumerate(rows, start)]
            block = [list(c) for c in zip(*(p.ints for p in points))], [p.den for p in points]
        yield block


def corner_instance_from_json(obj) -> CornerInstance:
    """The "instance" object {"dim", "f", "rays", "P": {"rows", "rhs"}};
    "P" may be absent or null for the whole space. f, then the rays, then
    P (_rows_from_json) are read, each row once by _row."""
    dim = _dim_from_json(obj, "instance")
    f = _row(*_field(obj, "f", "instance"), dim)
    rays = _rows(*_field(obj, "rays", "instance"), dim)
    p_rows, p_rhs = (), ()
    if obj.get("P") is not None:
        p_rows, p_rhs = _rows_from_json(obj["P"], dim, "instance.P")
    return CornerInstance(dim, f, rays, p_rows, p_rhs)


def body_from_json(obj, f) -> HPolyhedron:
    """The "body" object {"rows", "rhs"}, B in x-space, as the centered
    canonical set K = B - f (cuts.make_body); f comes from the instance,
    as a Scaled or a rational tuple."""
    f = scaled(f)
    return make_body(*_rows_from_json(obj, len(f.ints), "body"), f)


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
