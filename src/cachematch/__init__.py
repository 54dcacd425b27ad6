"""Cache-network rate toolkit: schemes, bounds, regimes, Monte Carlo."""

from .bounds import (
    DISTINCT_FRACTION,
    gap_constant,
    lower_bound_report,
    optimality_gap,
    shallow_lower_bound,
    shallow_lower_bound_small_memory,
)
from .config import PolyKPoint, SystemConfig, load_config, validate
from .errors import (
    DomainError,
    HardInvariantViolation,
    IncompatibleScheme,
    InsufficientMemory,
)
from .hcm import build_color_plan, compute_chi, hcm_rate, hcm_simulate
from .montecarlo import (
    HCM_SCHEME,
    PAM_SHALLOW_SCHEME,
    PAM_STEEP_SCHEME,
    PCD_SCHEME,
    SCHEMES,
    ExperimentSpec,
    RateReport,
    run_experiment,
)
from .pam_shallow import pam_shallow_rate, pam_shallow_serve, proportional_placement
from .pam_steep import build_knapsack, mlp_match, pam_steep_rate, solve_fractional_knapsack
from .pcd import pcd_rate_shallow, pcd_rate_steep, pcd_simulate
from .popularity import build_catalog
from .regimes import classify_shallow, classify_steep, regime_map
from .traffic import SAMPLER_VERSION, sample_profile
from .verification import verify_config

__version__ = "0.1.0"

__all__ = [
    "DISTINCT_FRACTION",
    "DomainError",
    "ExperimentSpec",
    "HCM_SCHEME",
    "HardInvariantViolation",
    "IncompatibleScheme",
    "InsufficientMemory",
    "PAM_SHALLOW_SCHEME",
    "PAM_STEEP_SCHEME",
    "PCD_SCHEME",
    "PolyKPoint",
    "RateReport",
    "SAMPLER_VERSION",
    "SCHEMES",
    "SystemConfig",
    "build_catalog",
    "build_color_plan",
    "build_knapsack",
    "classify_shallow",
    "classify_steep",
    "compute_chi",
    "gap_constant",
    "hcm_rate",
    "hcm_simulate",
    "load_config",
    "lower_bound_report",
    "mlp_match",
    "optimality_gap",
    "pam_shallow_rate",
    "pam_shallow_serve",
    "pam_steep_rate",
    "pcd_rate_shallow",
    "pcd_rate_steep",
    "pcd_simulate",
    "proportional_placement",
    "regime_map",
    "run_experiment",
    "sample_profile",
    "shallow_lower_bound",
    "shallow_lower_bound_small_memory",
    "solve_fractional_knapsack",
    "validate",
    "verify_config",
]
