"""Degenerate complex Monge-Ampere analysis for polynomial exhaustions on C^n.

Computes and verifies, at desk scale: Levi forms and their degeneracy strata,
Monge-Ampere residuals of log rho, the complex gradient field and its
least-squares extension across degenerate sets, foliation leaf flows,
weighted-homogeneity weights, and the bidegree-(k,k) criterion for
homogeneous potentials. Ships a CLI (``mafoliation``) for file-driven scans
with seeded, reproducible output.
"""

from .burns import burns_check
from .foliation import (
    leaf_log_linearity,
    leaf_stratum_invariance,
    level_set_invariance,
    trace_leaf,
)
from .gradient import (
    RealFieldKind,
    SingularHessianError,
    complex_gradient,
    cr_scan,
    euler_residual_scan,
    extended_gradient,
    flow_points,
    gradient_field,
    theta_orbit_det_check,
)
from .homogeneity import (
    analyze_weights,
    default_lambda_samples,
    flow_level_map_check,
    linear_field_agreement,
    rescale_to_level,
    verify_weights,
)
from .levi import (
    Stratum,
    levi_data,
    levi_scan,
    ma_residual,
    restricted_levi_eigen,
)
from .potential import (
    PolyExpr,
    PolyPotential,
    PotentialFormatError,
    bidegree_decompose,
    format_potential,
    homogeneous_degree,
    parse_potential,
    parse_potential_file,
)

__version__ = "0.1.0"

__all__ = [
    "burns_check",
    "leaf_log_linearity", "leaf_stratum_invariance", "level_set_invariance", "trace_leaf",
    "RealFieldKind", "SingularHessianError", "complex_gradient", "cr_scan", "euler_residual_scan",
    "extended_gradient", "flow_points", "gradient_field", "theta_orbit_det_check",
    "analyze_weights", "default_lambda_samples", "flow_level_map_check", "linear_field_agreement",
    "rescale_to_level", "verify_weights",
    "Stratum", "levi_data", "levi_scan", "ma_residual", "restricted_levi_eigen",
    "PolyExpr", "PolyPotential", "PotentialFormatError", "bidegree_decompose", "format_potential",
    "homogeneous_degree", "parse_potential", "parse_potential_file",
]
