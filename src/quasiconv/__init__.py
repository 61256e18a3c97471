"""Numerical toolkit for quasi-convexity classes on intervals and rectangles.

Parses candidate functions from a small expression language, falsifies their
membership in convexity-type classes (convex, J-convex, Wright-convex and the
quasi variants, globally and co-ordinate-wise), evaluates both sides of the
associated Hadamard-type integral inequalities, and searches for examples
separating the inclusion chains.
"""

__version__ = "0.1.0"

from .classifiers import (
    ClassId,
    NotApplicableError,
    SearchBudget,
    Verdict,
    Witness,
    check_membership,
    coordinate_check,
    defining_inequality,
    lift_witness,
    make_witness,
    strengthen_witness,
    violation_tolerance,
)
from .domains import Box2, Interval
from .expressions import (
    ArityError,
    Axis,
    DomainError,
    Expr,
    ExprSyntaxError,
    parse,
    restrict,
)
from .inclusions import (
    GalleryDrift,
    GalleryEntry,
    InvalidSearchPair,
    PiecewiseLinear,
    PolynomialBasis,
    SearchConfig,
    SearchResult,
    load_gallery,
    search_separation,
    validate_gallery,
)
from .inequalities import (
    VERIFY_TOL,
    InequalityReport,
    coord_convex_chain,
    hadamard_1d,
    jqc_bound_1d,
    max_identity,
    thm_jqc_coord,
    thm_wqc_coord,
    wqc_bound_1d,
)
from .quadrature import (
    QuadConfig,
    QuadResult,
    integrate_1d,
    integrate_2d,
    integrate_abs_difference,
)

__all__ = [
    "ArityError",
    "Axis",
    "Box2",
    "ClassId",
    "DomainError",
    "Expr",
    "ExprSyntaxError",
    "GalleryDrift",
    "GalleryEntry",
    "InequalityReport",
    "Interval",
    "InvalidSearchPair",
    "NotApplicableError",
    "PiecewiseLinear",
    "PolynomialBasis",
    "QuadConfig",
    "QuadResult",
    "SearchBudget",
    "SearchConfig",
    "SearchResult",
    "VERIFY_TOL",
    "Verdict",
    "Witness",
    "check_membership",
    "coord_convex_chain",
    "coordinate_check",
    "defining_inequality",
    "hadamard_1d",
    "integrate_1d",
    "integrate_2d",
    "integrate_abs_difference",
    "jqc_bound_1d",
    "lift_witness",
    "load_gallery",
    "make_witness",
    "max_identity",
    "parse",
    "restrict",
    "search_separation",
    "strengthen_witness",
    "thm_jqc_coord",
    "thm_wqc_coord",
    "validate_gallery",
    "violation_tolerance",
    "wqc_bound_1d",
]
