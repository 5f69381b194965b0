"""Exact rational polar duality, gauge evaluators, and corner-relaxation cuts."""

from .rationals import Vec, dot, parse_rational
from .lp import LinearProgram, LPOutcome, solve, verify_certificate
from .polyhedra import (
    HPolyhedron,
    VPolytope,
    MembershipVerdict,
    normalize,
    polar,
    membership,
    hull_membership,
    exposed_point,
)
from .sublinear import (
    SandwichReport,
    gauge,
    minimal_sublinear,
    support,
    check_unit_ball,
    sandwich_check,
    reconstruct_check,
    off_recession_check,
    property_suite,
)
from .cuts import (
    CornerInstance,
    Cut,
    make_body,
    generate_cut,
    is_s_free,
    check_cut_validity,
    maximality_certificate,
)

__version__ = "0.1.0"
