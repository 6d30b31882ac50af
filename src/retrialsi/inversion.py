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
from fractions import Fraction

import numpy as np

from .errors import AccuracyError, DomainError
from .generator import GeneratorMatrix
from .laplace import solve_resolvents
from .model import DEFAULT_CHAIN_ORDER, K_MAX, K_MIN, checked_times
from .transient import ProbabilityVector, TransientSolution

#: Raw inversion output may stray this far outside [0, 1] before it is an error.
RAW_TOLERANCE_BAND = 1e-4

_LN2 = math.log(2.0)
_LN2_EXT = np.log(np.longdouble(2.0))


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


def stehfest_coefficients(order: int) -> np.ndarray:
    """The order-K weights as a read-only longdouble array.

    Each weight is computed exactly, rounded once to double, and carried with
    the exact remainder of that rounding; ``astype(float)`` recovers the
    double rounding.
    """
    if order % 2 != 0 or not K_MIN <= order <= K_MAX:
        raise DomainError(f"order must be even and in [{K_MIN}, {K_MAX}], got {order}")
    exact = _exact_weights(order)
    rounded = [float(v) for v in exact]
    remainders = [float(v - Fraction(hi)) for v, hi in zip(exact, rounded)]
    weights = np.array(rounded, dtype=np.longdouble) + np.array(remainders, dtype=np.longdouble)
    weights.setflags(write=False)
    return weights


def invert_at(transform, t: float, weights: np.ndarray) -> float:
    """Invert a scalar transform at one time point with :func:`stehfest_coefficients` weights."""
    if not 0 < t < math.inf:  # NaN fails too
        raise DomainError(f"t must be finite and > 0, got {t}")
    acc = 0.0
    for k, v in enumerate(weights.astype(float), start=1):
        acc += v * transform(k * _LN2 / t)
    return (_LN2 / t) * acc


def transient_via_ilt(gen: GeneratorMatrix, p0: ProbabilityVector, times,
                      order: int = DEFAULT_CHAIN_ORDER) -> TransientSolution:
    """Recover P(t) on a time grid from K resolvent solves per point.

    A leading t = 0 row is ``p0`` itself, neither inverted nor renormalized.
    For each t > 0 the resolvent is solved at s = k ln 2 / t, k = 1..K, and
    the solutions are combined with the Stehfest weights.  Pairs (k, t) with
    the same exact ratio k / t share one solve, at the abscissa of the pair
    that comes first on the grid; metadata records the number of distinct
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
    excursion and raw mass deviation, 0.0 at t = 0.
    """
    grid = np.array(checked_times(times))
    lead = int(grid[0] == 0)  # the t = 0 row, if any
    positive = grid[lead:]

    weights = stehfest_coefficients(order)
    # With t = num / den, the ratio k / t is k * den / num.  Scaled by 2**bits >= num * num' and
    # floored, it stays exact: equal ratios share a key, and distinct ones keep their order.
    fractions = [t.as_integer_ratio() for t in positive.tolist()]
    bits = 2 * max((num.bit_length() for num, _ in fractions), default=0)
    keys = np.array([(k * den << bits) // num for num, den in fractions for k in range(1, order + 1)],
                    dtype=object)
    pairs = np.argsort(keys, kind="stable")  # ascending; equal ratios in grid order
    first = np.diff(keys[pairs], prepend=-1) != 0  # keys are >= 0, so the first pair starts an abscissa
    columns = np.empty((positive.size, order), dtype=np.intp)
    columns.flat[pairs] = np.cumsum(first) - 1
    n, k = np.divmod(pairs[first], order)
    shifts = (k + 1).astype(np.longdouble) * _LN2_EXT / positive[n].astype(np.longdouble)

    acc = np.zeros((positive.size, gen.dim), dtype=np.longdouble)
    for cols, x in solve_resolvents(gen, shifts, p0.values) if shifts.size else ():
        for k in range(order):
            rows = np.flatnonzero((columns[:, k] >= cols.start) & (columns[:, k] < cols.stop))
            acc[rows] += weights[k] * x[columns[rows, k] - cols.start]
        del x  # free this chunk before the sweep of the next one

    acc *= (_LN2_EXT / positive.astype(np.longdouble))[:, None]
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
            f"at t={positive[n]} (state {state}); decrease the step or change order K={order}",
            t=float(positive[n]), state=state,
        )
    totals = raw.sum(axis=1)
    raw /= totals[:, None]
    meta = {
        "method": "ilt",
        "order": order,
        "abscissae": shifts.size,
        "raw_sum_deviation": [0.0] * lead + (totals - 1.0).tolist(),
        "band_excursion": [0.0] * lead + excursion.tolist(),
    }
    vectors = [p0] * lead + [ProbabilityVector(row, p0.t + t, gen.space) for t, row in zip(positive.tolist(), raw)]
    return TransientSolution(grid, vectors, meta)
