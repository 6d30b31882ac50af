"""Transient and stationary analysis of a finite SI epidemic with limited
recovery units and retrying infected nodes.

The state (i, j) of the continuous-time chain counts busy recovery units and
orbiting (retrying) infected nodes.  Three independent solution routes are
provided and cross-checked: Laplace-domain resolvent solves (one batched
level sweep per time grid) inverted numerically, uniformization of the
forward equations, and exact stochastic simulation.
"""

from .errors import (
    AccuracyError,
    ConfigError,
    DomainError,
    GraphFormatError,
    ModelError,
    NumericalError,
    RetrialSIError,
)
from .generator import GeneratorMatrix, ValidationReport, build_generator, validate_generator
from .inversion import (
    DEFAULT_CHAIN_ORDER,
    DEFAULT_ORDER,
    StehfestWeights,
    invert_at,
    stehfest_coefficients,
    transient_via_ilt,
)
from .laplace import stationary_nullspace
from .measures import (
    MarginalReport,
    marginal_orbit,
    marginal_recovering,
    marginal_report,
    moment_orbit,
    moment_recovering,
)
from .model import (
    Closure,
    ContactGraph,
    Mode,
    ModelConfig,
    StateSpace,
    graph_to_text,
    load_graph,
    rate_function,
    ring_with_hub,
)
from .transient import (
    MonteCarloResult,
    ProbabilityVector,
    Trajectory,
    TransientSolution,
    delta_vector,
    monte_carlo_estimate,
    simulate_gillespie,
    transient_grid,
    uniformize,
)

__version__ = "0.1.0"

__all__ = [
    "AccuracyError",
    "Closure",
    "ConfigError",
    "ContactGraph",
    "DEFAULT_CHAIN_ORDER",
    "DEFAULT_ORDER",
    "DomainError",
    "GeneratorMatrix",
    "GraphFormatError",
    "MarginalReport",
    "Mode",
    "ModelConfig",
    "ModelError",
    "MonteCarloResult",
    "NumericalError",
    "ProbabilityVector",
    "RetrialSIError",
    "StateSpace",
    "StehfestWeights",
    "Trajectory",
    "TransientSolution",
    "ValidationReport",
    "build_generator",
    "delta_vector",
    "graph_to_text",
    "invert_at",
    "load_graph",
    "marginal_orbit",
    "marginal_recovering",
    "marginal_report",
    "moment_orbit",
    "moment_recovering",
    "monte_carlo_estimate",
    "rate_function",
    "ring_with_hub",
    "simulate_gillespie",
    "stationary_nullspace",
    "stehfest_coefficients",
    "transient_grid",
    "transient_via_ilt",
    "uniformize",
    "validate_generator",
]
