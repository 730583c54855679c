"""Approximation algorithms for capacitated fault-tolerant k-center.

Bottleneck-style solvers for the fault-tolerant and conservative variants,
with exact rational arithmetic throughout, plus exhaustive oracles for
verification at desk scale.
"""

from .conservative import solve_conservative_general, solve_conservative_uniform
from .instance import (
    ContractViolation,
    InstanceError,
    MetricInstance,
    Radius,
    SizeLimitError,
    ThresholdGraph,
    load_instance,
    save_instance,
)
from .oracle import exact_opt_conservative, exact_opt_ft, gap_instance
from .solvers import SolveResult, solve_ft_general, solve_ft_uniform
from .verify import verify_conservative, verify_ft

__all__ = [
    "ContractViolation",
    "InstanceError",
    "MetricInstance",
    "Radius",
    "SizeLimitError",
    "SolveResult",
    "ThresholdGraph",
    "exact_opt_conservative",
    "exact_opt_ft",
    "gap_instance",
    "load_instance",
    "save_instance",
    "solve_conservative_general",
    "solve_conservative_uniform",
    "solve_ft_general",
    "solve_ft_uniform",
    "verify_conservative",
    "verify_ft",
]

__version__ = "0.1.0"
