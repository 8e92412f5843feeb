"""Exact counting of cusp points bifurcating in one-parameter families of
plane-to-plane polynomial maps, split by local degree and parameter sign."""

from .branch_counter import (
    BranchCount,
    build_H,
    choose_combination,
    compute_xi,
    count_branches,
    count_branches_positive_t,
)
from .cusp_pipeline import (
    BifurcationReport,
    DerivedGerms,
    HypothesisReport,
    cusp_degree,
    derive,
    euler_extras,
    run,
    solve_sigma,
    verify_hypotheses,
)
from .elk_degree import (
    DegreeCertificate,
    LocalAlgebra,
    build_algebra,
    local_degree,
    signature,
)
from .errors import CuspCountError, HypothesisError, ParseError
from .exprparse import parse_poly
from .polyring import (
    Poly,
    VARS_TX,
    VARS_X,
    jacobian_det,
    partial,
    substitute_t_squared,
)
from .standard_basis import INFINITE, LocalIdeal

__version__ = "0.1.0"

__all__ = [
    "BifurcationReport",
    "BranchCount",
    "CuspCountError",
    "DegreeCertificate",
    "DerivedGerms",
    "HypothesisError",
    "HypothesisReport",
    "INFINITE",
    "LocalAlgebra",
    "LocalIdeal",
    "ParseError",
    "Poly",
    "VARS_TX",
    "VARS_X",
    "build_H",
    "build_algebra",
    "choose_combination",
    "compute_xi",
    "count_branches",
    "count_branches_positive_t",
    "cusp_degree",
    "derive",
    "euler_extras",
    "jacobian_det",
    "local_degree",
    "parse_poly",
    "partial",
    "run",
    "signature",
    "solve_sigma",
    "substitute_t_squared",
    "verify_hypotheses",
]
