"""The library's records are immutable named tuples.

Every program, set, verdict and report the library hands out is a
collections.namedtuple subclass: fields read by name or position, a field
cannot be assigned, records with equal fields are equal and hash alike, and
repr spells each field by name. The records that check their fields check
them when built, with the messages below.
"""

from fractions import Fraction

import pytest

from polarcut.cuts import (
    CornerInstance,
    Cut,
    CutViolation,
    MaximalityReport,
    SFreeVerdict,
    ValidityReport,
)
from polarcut.lp import LinearProgram, LPOutcome
from polarcut.polyhedra import (
    HPolyhedron,
    HullVerdict,
    ImproperSetError,
    MembershipVerdict,
    VPolytope,
)
from polarcut.sublinear import SandwichReport

HALF = Fraction(1, 2)

# One builder per record; each call builds a new record with the same fields.
RECORDS = {
    "LinearProgram": lambda: LinearProgram(
        "max", (1, HALF), (((1, 0), "<=", 1), ((0, 1), "=", HALF)), ("free", "nonneg")
    ),
    "LPOutcome": lambda: LPOutcome("optimal", (1, HALF), Fraction(3, 2), None, (1, 1)),
    "HPolyhedron": lambda: HPolyhedron(2, ((Fraction(1), Fraction(0)), (Fraction(0), HALF))),
    "VPolytope": lambda: VPolytope(2, ((0, 0), (1, 0), (0, HALF))),
    "MembershipVerdict": lambda: MembershipVerdict("boundary", (0, 2)),
    "HullVerdict": lambda: HullVerdict(False, None, ((1, -1), HALF)),
    "SandwichReport": lambda: SandwichReport(4, (((1, 2), 3, 2),), False),
    "CornerInstance": lambda: CornerInstance(2, (HALF, 0), ((1, 0), (0, 1)), ((1, 1),), (3,)),
    "Cut": lambda: Cut((2, HALF), "from a body"),
    "SFreeVerdict": lambda: SFreeVerdict(False, 3, (1, 0)),
    "CutViolation": lambda: CutViolation((1, 0), (HALF, 1), False),
    "ValidityReport": lambda: ValidityReport(False, 3, "global", CutViolation((1,), (1,), True)),
    "MaximalityReport": lambda: MaximalityReport(False, 3, (1,), True),
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_fields_cannot_be_assigned(name):
    record = RECORDS[name]()
    assert type(record).__name__ == name and len(record._fields) >= 2
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    assert record == RECORDS[name]()


@pytest.mark.parametrize("name", RECORDS)
def test_records_with_equal_fields_are_equal_and_hash_alike(name):
    first, second = RECORDS[name](), RECORDS[name]()
    assert first is not second
    assert first == second and hash(first) == hash(second)
    assert first == tuple(second)
    changed = first._replace(**{first._fields[-1]: "other"})
    assert changed != first


@pytest.mark.parametrize("name", RECORDS)
def test_record_repr_names_every_field(name):
    record = RECORDS[name]()
    fields = ", ".join(f"{f}={getattr(record, f)!r}" for f in record._fields)
    assert repr(record) == f"{name}({fields})"


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: HPolyhedron(0, ((1,),)), ValueError, "dimension must be positive"),
        (lambda: HPolyhedron(1, ()), ImproperSetError, "at least one row"),
        (lambda: HPolyhedron(2, ((1,),)), ValueError, "row width differs"),
        (lambda: HPolyhedron(2, ((0, 0),)), ValueError, "zero rows are not canonical"),
        (lambda: HPolyhedron(1, ((1,), (1,))), ValueError, "duplicate rows are not"),
        (lambda: VPolytope(0, ((1,),)), ValueError, "dimension must be positive"),
        (lambda: VPolytope(1, ()), ValueError, "at least one point"),
        (lambda: VPolytope(2, ((1,),)), ValueError, "point width differs"),
        (lambda: VPolytope(1, ((0,), (1,)), (None,)), ValueError, "one entry per point"),
        (lambda: LinearProgram("maximize", (1,), (), ("free",)), ValueError, "direction"),
        (lambda: LinearProgram("max", (), (), ()), ValueError, "at least one variable"),
        (lambda: LinearProgram("max", (1,), (), ()), ValueError, "one bound per variable"),
        (lambda: LinearProgram("max", (1,), (), ("pos",)), ValueError, "bound must be"),
        (
            lambda: LinearProgram("max", (1,), (((1, 1), "=", 1),), ("free",)),
            ValueError,
            "row width differs from variable count",
        ),
        (
            lambda: LinearProgram("max", (1,), (((1,), ">=", 1),), ("free",)),
            ValueError,
            "relation must be one of",
        ),
        (lambda: CornerInstance(0, (), ((1,),)), ValueError, "dimension must be positive"),
        (lambda: CornerInstance(2, (HALF,), ((1, 0),)), ValueError, "anchor width"),
        (lambda: CornerInstance(1, (Fraction(3),), ((1,),)), ValueError, "non-integer"),
        (lambda: CornerInstance(1, (HALF,), ()), ValueError, "at least one ray"),
        (lambda: CornerInstance(1, (HALF,), ((1, 0),)), ValueError, "ray width"),
        (lambda: CornerInstance(1, (HALF,), ((1,),), ((1,),), ()), ValueError, "count mismatch"),
        (lambda: CornerInstance(1, (HALF,), ((1,),), ((1, 0),), (1,)), ValueError, "P row width"),
    ],
)
def test_record_constructor_checks(build, error, message):
    with pytest.raises(error, match=message):
        build()
