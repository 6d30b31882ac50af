"""Transient and stationary analysis of a finite SI epidemic with limited
recovery units and retrying infected nodes.

The state (i, j) of the continuous-time chain counts busy recovery units and
orbiting (retrying) infected nodes.  Three independent solution routes are
provided and cross-checked: Laplace-domain resolvent solves (one batched
level sweep per time grid) inverted numerically, uniformization of the
forward equations, and exact stochastic simulation.

Each public name is loaded from its submodule on first use (PEP 562), so
importing the package or its CLI loads neither numpy nor any solver.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULE_NAMES = {
    "errors": ("AccuracyError", "ConfigError", "DomainError", "GraphFormatError", "ModelError",
               "NumericalError", "RetrialSIError"),
    "generator": ("GeneratorMatrix", "ValidationReport", "build_generator", "validate_generator"),
    "inversion": ("DEFAULT_ORDER", "invert_at", "stehfest_coefficients", "transient_via_ilt"),
    "laplace": ("stationary_nullspace",),
    "measures": ("MarginalReport", "marginal_orbit", "marginal_recovering", "marginal_report",
                 "moment_orbit", "moment_recovering"),
    "model": ("DEFAULT_CHAIN_ORDER", "Closure", "ContactGraph", "Mode", "ModelConfig", "StateSpace",
              "graph_to_text", "load_graph", "rate_function", "ring_with_hub"),
    "transient": ("ProbabilityVector", "Trajectory", "TransientSolution", "delta_vector",
                  "monte_carlo_estimate", "simulate_gillespie", "standard_errors", "transient_grid",
                  "uniformize"),
}
_SUBMODULE = {name: module for module, names in _SUBMODULE_NAMES.items() for name in names}

__all__ = sorted(_SUBMODULE)


def __getattr__(name):
    if name in _SUBMODULE_NAMES:  # a submodule, reachable as when the package imported them all
        return importlib.import_module(f".{name}", __name__)
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SUBMODULE[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})
