"""Marginal distributions and raw moments of the two state components.

The joint vector over (i, j) collapses to the recovering marginal p_i by
summing over orbit levels and to the orbit marginal q_j by summing over
recovery levels; raw moments are taken against those marginals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .transient import ProbabilityVector


def marginal_recovering(p: ProbabilityVector) -> np.ndarray:
    """p_i = sum_j p_{i,j}; length c + 1."""
    return p.as_grid().sum(axis=1)


def marginal_orbit(p: ProbabilityVector) -> np.ndarray:
    """q_j = sum_i p_{i,j}; length N - c + 1."""
    return p.as_grid().sum(axis=0)


def _raw_moment(marginal: np.ndarray, n: int) -> float:
    """n-th raw moment of a marginal over the levels 0, 1, ..."""
    if n < 1:
        raise DomainError(f"moment order must be >= 1, got {n}")
    levels = np.arange(marginal.size, dtype=float)
    return float(levels ** n @ marginal)


def moment_recovering(p: ProbabilityVector, n: int = 1) -> float:
    """n-th raw moment of the number of busy recovery units."""
    return _raw_moment(marginal_recovering(p), n)


def moment_orbit(p: ProbabilityVector, n: int = 1) -> float:
    """n-th raw moment of the orbit occupancy."""
    return _raw_moment(marginal_orbit(p), n)


@dataclass(frozen=True, eq=False)
class MarginalReport:
    """Both marginals and their raw moments up to a requested order."""

    t: float
    server_marginal: np.ndarray
    orbit_marginal: np.ndarray
    recovering_moments: np.ndarray  # E[I^1], .., E[I^order]
    orbit_moments: np.ndarray       # E[R^1], .., E[R^order]

    @property
    def mean_recovering(self) -> float:
        return float(self.recovering_moments[0])

    @property
    def mean_orbit(self) -> float:
        return float(self.orbit_moments[0])

    @property
    def var_recovering(self) -> float:
        return float(self.recovering_moments[1] - self.recovering_moments[0] ** 2)

    @property
    def var_orbit(self) -> float:
        return float(self.orbit_moments[1] - self.orbit_moments[0] ** 2)


def marginal_report(p: ProbabilityVector, order: int = 2) -> MarginalReport:
    """Single-pass summary of a joint vector."""
    if order < 2:
        raise DomainError(f"report order must be >= 2 (variance needs E[X^2]), got {order}")
    server = marginal_recovering(p)
    orbit = marginal_orbit(p)
    rec = np.array([_raw_moment(server, n) for n in range(1, order + 1)])
    orb = np.array([_raw_moment(orbit, n) for n in range(1, order + 1)])
    return MarginalReport(p.t, server, orbit, rec, orb)
