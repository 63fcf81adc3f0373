"""Simulation and transform toolkit for a nonnegative branching coordinate
coupled to a real Ornstein-Uhlenbeck-type coordinate, with numerical
verification of coupling, ergodicity and regularity estimates."""

# Recorded in every run manifest.  Bump it whenever a seed's output changes
# (0.2.0: superposed jump counts changed the simulator's draw order).
__version__ = "0.5.1"

from .errors import AffineError
from .measures import LevyMeasure, Marginal1D, levy_integral, levy_restrict_tail
from .mechanisms import (
    UPoint,
    check_A,
    check_B,
    check_C,
    check_Cprime,
)
from .model import ModelParams, load_model, save_model, validate
from .riccati import (
    Vbar,
    char_fn,
    delta1,
    solve_V,
    stationary_transform,
    stationary_transform_closed,
)
from .simulator import SimConfig, simulate_coupled, simulate_paths
from .analysis import (
    BoundReport,
    EmpiricalDistribution,
    coalescence_curve,
    ergodicity_curve,
    lemma31_check,
    lemma31_constants,
    prop42_bound,
    stationary_moments,
    strong_feller_probe,
    tv_hat,
)

__all__ = [
    "AffineError",
    "BoundReport",
    "EmpiricalDistribution",
    "LevyMeasure",
    "Marginal1D",
    "ModelParams",
    "SimConfig",
    "UPoint",
    "Vbar",
    "char_fn",
    "check_A",
    "check_B",
    "check_C",
    "check_Cprime",
    "coalescence_curve",
    "delta1",
    "ergodicity_curve",
    "lemma31_check",
    "lemma31_constants",
    "levy_integral",
    "levy_restrict_tail",
    "load_model",
    "prop42_bound",
    "save_model",
    "simulate_coupled",
    "simulate_paths",
    "solve_V",
    "stationary_moments",
    "stationary_transform",
    "stationary_transform_closed",
    "strong_feller_probe",
    "tv_hat",
    "validate",
]
