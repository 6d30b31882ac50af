"""Gaver-Stehfest numerical inversion of Laplace transforms.

The inverse at time t is approximated from real-axis samples,

    f(t) ~= (ln 2 / t) * sum_{k=1}^{K} V_k F(k ln 2 / t),

with alternating weights

    V_k = (-1)^(k + K/2) * sum_{m=floor((k+1)/2)}^{min(k, K/2)}
          m^(K/2) (2m)! / [ (K/2 - m)!  m!  (m-1)!  (k-m)!  (2m-k)! ].

The weights grow like 1e8 .. 1e12 for K = 14 .. 20 and cancel almost
completely, so they are built in exact rational arithmetic and the
chain-probability driver accumulates in extended precision on top of
longdouble resolvent solves.  It solves each distinct abscissa of a time
grid once, all of them in one batched level sweep
(:func:`~.laplace.solve_resolvents`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import AccuracyError, DomainError
from .generator import GeneratorMatrix
from .laplace import solve_resolvents
from .model import DEFAULT_CHAIN_ORDER, K_MAX, K_MIN
from .transient import ProbabilityVector, TransientSolution, time_grid

#: Default order for generic scalar transforms.
DEFAULT_ORDER = 14

#: Raw inversion output may stray this far outside [0, 1] before it is an error.
RAW_TOLERANCE_BAND = 1e-4

_LN2 = math.log(2.0)
_LN2_EXT = np.log(np.longdouble(2.0))


@dataclass(frozen=True, eq=False)
class StehfestWeights:
    """Inversion weights of even order K.

    ``values`` is the double rounding of the exact weights;
    ``values_extended`` carries them split to extended precision.
    """

    values: np.ndarray
    values_extended: np.ndarray

    def __post_init__(self):
        self.values.setflags(write=False)
        self.values_extended.setflags(write=False)


def _exact_weights(order: int) -> list[Fraction]:
    half = order // 2
    weights = []
    for k in range(1, order + 1):
        acc = Fraction(0)
        for m in range((k + 1) // 2, min(k, half) + 1):
            acc += Fraction(
                m ** half * math.factorial(2 * m),
                math.factorial(half - m) * math.factorial(m) * math.factorial(m - 1)
                * math.factorial(k - m) * math.factorial(2 * m - k),
            )
        weights.append((-1) ** (k + half) * acc)
    return weights


def stehfest_coefficients(order: int = DEFAULT_ORDER) -> StehfestWeights:
    """Compute the order-K weights exactly, then round once."""
    if order % 2 != 0 or not K_MIN <= order <= K_MAX:
        raise DomainError(f"order must be even and in [{K_MIN}, {K_MAX}], got {order}")
    exact = _exact_weights(order)
    values = np.array([float(v) for v in exact])
    # exact remainder of each weight's double rounding
    remainders = np.array([float(v - Fraction(hi)) for v, hi in zip(exact, values.tolist())])
    extended = values.astype(np.longdouble) + remainders.astype(np.longdouble)
    return StehfestWeights(values, extended)


def invert_at(transform, t: float, weights: StehfestWeights) -> float:
    """Invert a scalar transform at one time point."""
    if t <= 0:
        raise DomainError(f"t must be > 0, got {t}")
    acc = 0.0
    for k, v in enumerate(weights.values, start=1):
        acc += v * transform(k * _LN2 / t)
    return (_LN2 / t) * acc


def transient_via_ilt(gen: GeneratorMatrix, p0: ProbabilityVector, times,
                      order: int = DEFAULT_CHAIN_ORDER) -> TransientSolution:
    """Recover P(t) on a time grid from K resolvent solves per point.

    For each t the resolvent is solved at s = k ln 2 / t, k = 1..K, and the
    solutions are combined with the Stehfest weights.  Pairs (k, t) with the
    same exact ratio k / t share one solve, at the abscissa of the pair that
    comes first on the grid; metadata records the number of distinct
    abscissae.  They are solved in ascending order, so every time point adds
    its K terms in k order and the output does not depend on the sweep's
    chunking.  Raw entries must stay within RAW_TOLERANCE_BAND of [0, 1],
    else AccuracyError names the first time point that strays and its worst
    state; each vector is then renormalized to total probability one and
    returned *signed*: near-zero states can carry negative excursions of
    order 1e-5 (inversion truncation wiggle), and zeroing them would bias the
    orbit moments by an order of magnitude more than the wiggle itself.  Use
    :meth:`ProbabilityVector.clipped` when a strictly nonnegative
    distribution is required.  Metadata records each time point's band
    excursion and raw mass deviation.
    """
    grid = time_grid(times)
    if grid[0] <= 0:
        raise DomainError("times must be strictly positive")

    v_ext = stehfest_coefficients(order).values_extended
    # With t = num / den, the ratio k / t is k * den / num.  Scaled by 2**bits >= num * num' and
    # floored, it stays exact: equal ratios share a key, and distinct ones keep their order.
    fractions = [t.as_integer_ratio() for t in grid.tolist()]
    bits = 2 * max(num.bit_length() for num, _ in fractions)
    keys = np.array([(k * den << bits) // num for num, den in fractions for k in range(1, order + 1)],
                    dtype=object)
    pairs = np.argsort(keys, kind="stable")  # ascending; equal ratios in grid order
    first = np.r_[True, keys[pairs[1:]] != keys[pairs[:-1]]]
    columns = np.empty((grid.size, order), dtype=np.intp)
    columns.flat[pairs] = np.cumsum(first) - 1
    n, k = np.divmod(pairs[first], order)
    shifts = (k + 1).astype(np.longdouble) * _LN2_EXT / grid[n].astype(np.longdouble)

    acc = np.zeros((grid.size, gen.dim), dtype=np.longdouble)
    for cols, x in solve_resolvents(gen, shifts, p0.values):
        for k in range(order):
            rows = np.flatnonzero((columns[:, k] >= cols.start) & (columns[:, k] < cols.stop))
            acc[rows] += v_ext[k] * x[columns[rows, k] - cols.start]
        del x  # free this chunk before the sweep of the next one

    acc *= (_LN2_EXT / grid.astype(np.longdouble))[:, None]
    raw = acc.astype(float)
    del acc
    low, high = raw.min(axis=1), raw.max(axis=1)
    excursion = np.maximum(np.maximum(-low, high - 1.0), 0.0)
    failing = np.flatnonzero(excursion > RAW_TOLERANCE_BAND)
    if failing.size:
        n = failing[0]
        worst = np.argmin(raw[n]) if -low[n] >= high[n] - 1.0 else np.argmax(raw[n])
        state = gen.space.state_at(int(worst))
        raise AccuracyError(
            f"inverted probabilities stray {excursion[n]:.3e} outside [0, 1] "
            f"at t={grid[n]} (state {state}); decrease the step or change order K={order}",
            t=float(grid[n]), state=state,
        )
    totals = raw.sum(axis=1)
    raw /= totals[:, None]
    meta = {
        "method": "ilt",
        "order": order,
        "abscissae": shifts.size,
        "raw_sum_deviation": (totals - 1.0).tolist(),
        "band_excursion": excursion.tolist(),
    }
    vectors = [ProbabilityVector(row, p0.t + t, gen.space)
               for t, row in zip(grid.tolist(), raw)]
    return TransientSolution(grid, vectors, meta)
