"""logbound: certified elementary bounds around ln(1+x) and 2t*ln(t).

The package evaluates the classical upper-bound family for ln(1+x)
together with the tighter arctangent corridor bound, certifies local
two-sided estimates of 2t*ln(t) near t = 1 from derivative jets, and
runs witness/feasibility experiments showing that no rational function
can inhabit the corridor globally.
"""

from .bounds import (
    ATLAS_COLUMNS,
    BOUNDS,
    BoundSpec,
    H_deriv,
    H_value,
    atan_deriv,
    atlas_rows,
    bound_value,
    f_cb,
    gap_R,
    ln1p,
    phi_identity,
)
from .certifier import (
    Certificate,
    ConditionReport,
    case3_constant,
    certify,
    check_case,
    equality_constant,
    find_radius,
    verify_pattern_on_grid,
)
from .errors import (
    BudgetError,
    DomainError,
    LogboundError,
    NonDifferentiableError,
    OutOfRegionError,
    ParseError,
    PrecisionError,
    QVanishesError,
)
from .exprjet import (
    DEFAULT_PRECISION,
    Expr,
    Jet,
    Precision,
    eval_expr,
    fd_derivative,
    jet,
    parse,
    to_text,
)
from .sandwich import (
    FeasibilityReport,
    RationalFn,
    Witness,
    check_sandwich,
    expr_to_poly,
    find_witness,
    fit_sandwich,
)

__version__ = "0.1.0"

__all__ = [
    "ATLAS_COLUMNS",
    "BOUNDS",
    "BoundSpec",
    "BudgetError",
    "Certificate",
    "ConditionReport",
    "DEFAULT_PRECISION",
    "DomainError",
    "Expr",
    "FeasibilityReport",
    "H_deriv",
    "H_value",
    "Jet",
    "LogboundError",
    "NonDifferentiableError",
    "OutOfRegionError",
    "ParseError",
    "Precision",
    "PrecisionError",
    "QVanishesError",
    "RationalFn",
    "Witness",
    "atan_deriv",
    "atlas_rows",
    "bound_value",
    "case3_constant",
    "certify",
    "check_case",
    "check_sandwich",
    "equality_constant",
    "eval_expr",
    "expr_to_poly",
    "f_cb",
    "fd_derivative",
    "find_radius",
    "find_witness",
    "fit_sandwich",
    "gap_R",
    "jet",
    "ln1p",
    "parse",
    "phi_identity",
    "to_text",
    "verify_pattern_on_grid",
]
