"""Exact local invariants of plane foliation germs.

Everything is computed exactly over the rationals: standard bases of local
ideals, Milnor and Tjurina numbers, polar intersection certificates, blow-up
reduction of singularities, and the global count of singular points of a
degree-``d`` foliation of the projective plane.  A polynomial is a rational
content times a primitive integer term map.  The submodules stay importable
on their own; this namespace re-exports the pieces most sessions start from.
"""

from .blowup import (
    BlowupLimitError,
    IrrationalSingularPointError,
    ReductionResult,
    dicritical_report,
    reduce_germ,
)
from .documents import (
    DocumentError,
    load_local_problem,
    load_projective_problem,
    parse_document,
    render_document,
)
from .germs import (
    BalancedEquation,
    CurveGerm,
    FoliationGerm,
    generic_polar,
    gsv_index,
    intersection_multiplicity,
    is_semihomogeneous,
    milnor_curve,
    milnor_foliation,
    multiplicity,
    tangency_excess,
    tjurina_curve,
    tjurina_foliation,
)
from .localalg import EngineInconsistencyError, standard_basis
from .polynomials import Poly, parse_poly
from .projective import (
    EulerRelationError,
    ProjectiveFoliation,
    ProjectivePoint,
    chart_curve,
    chart_germ,
    check_form,
    check_global_bound,
    milnor_sum_certificate,
    singular_points,
    validate_form,
)
from .theorems import (
    CheckReport,
    check_briancon_skoda,
    check_cota,
    check_liu,
    check_second_type,
)

__version__ = "0.1.0"

__all__ = [
    "BalancedEquation",
    "BlowupLimitError",
    "CheckReport",
    "CurveGerm",
    "DocumentError",
    "EngineInconsistencyError",
    "EulerRelationError",
    "FoliationGerm",
    "IrrationalSingularPointError",
    "Poly",
    "ProjectiveFoliation",
    "ProjectivePoint",
    "ReductionResult",
    "chart_curve",
    "chart_germ",
    "check_briancon_skoda",
    "check_cota",
    "check_form",
    "check_global_bound",
    "check_liu",
    "check_second_type",
    "dicritical_report",
    "generic_polar",
    "gsv_index",
    "intersection_multiplicity",
    "is_semihomogeneous",
    "load_local_problem",
    "load_projective_problem",
    "milnor_curve",
    "milnor_foliation",
    "milnor_sum_certificate",
    "multiplicity",
    "parse_document",
    "parse_poly",
    "reduce_germ",
    "render_document",
    "singular_points",
    "standard_basis",
    "tangency_excess",
    "tjurina_curve",
    "tjurina_foliation",
    "validate_form",
]
