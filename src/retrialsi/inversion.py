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
from .transient import ProbabilityVector, Provenance, TransientSolution, time_grid

K_MIN = 2
K_MAX = 20

#: Default order for generic scalar transforms.
DEFAULT_ORDER = 14

#: Default order for the chain-probability driver.  With longdouble solves and
#: extended-precision accumulation, K = 20 keeps the worst per-entry and
#: first-moment deviations from the uniformization oracle below 1e-4 on the
#: reference grids; K = 14 in plain double precision does not.
DEFAULT_CHAIN_ORDER = 20

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

    order: int
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
    return StehfestWeights(order, values, extended)


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
    same exact ratio k / t share one solve; metadata records the number of
    distinct abscissae.  Raw entries must stay within RAW_TOLERANCE_BAND of
    [0, 1]; the vector is then renormalized to total probability one and
    returned *signed*: near-zero states can carry negative excursions of
    order 1e-5 (inversion truncation wiggle), and zeroing them would bias the
    orbit moments by an order of magnitude more than the wiggle itself.  Use :meth:`ProbabilityVector.clipped` when a
    strictly nonnegative distribution is required.  Raw deviations are
    recorded in metadata.
    """
    grid = time_grid(times)
    if grid[0] <= 0:
        raise DomainError("times must be strictly positive")

    v_ext = stehfest_coefficients(order).values_extended
    # one abscissa k ln2 / t per exact ratio k / t: repeats across the grid are solved once.
    # With t = num / den, the ratio is k * den / num, keyed as that fraction in lowest terms.
    column_of: dict[tuple[int, int], int] = {}
    shifts = []
    columns = np.empty((grid.size, order), dtype=np.intp)
    for n, t in enumerate(grid.tolist()):
        num, den = t.as_integer_ratio()
        for k in range(1, order + 1):
            g = math.gcd(k * den, num)
            key = (k * den // g, num // g)
            if key not in column_of:
                column_of[key] = len(shifts)
                shifts.append(np.longdouble(k) * _LN2_EXT / np.longdouble(t))
            columns[n, k - 1] = column_of[key]
    # solve the abscissae in ascending order, so each row meets its k in order whatever the chunking
    ascending = sorted(column_of, key=lambda key: Fraction(*key))
    rank = np.empty(len(shifts), dtype=np.intp)
    rank[[column_of[key] for key in ascending]] = np.arange(len(shifts))
    columns, shifts = rank[columns], [shifts[column_of[key]] for key in ascending]

    acc = np.zeros((grid.size, gen.dim), dtype=np.longdouble)
    for cols, x in solve_resolvents(gen, np.array(shifts, dtype=np.longdouble), p0.values):
        for k in range(order):
            rows = np.flatnonzero((columns[:, k] >= cols.start) & (columns[:, k] < cols.stop))
            acc[rows] += v_ext[k] * x[columns[rows, k] - cols.start]
        del x  # free this chunk before the sweep of the next one

    vectors = []
    raw_sum_deviation = []
    band_excursion = []
    for t, total in zip(grid, acc):
        raw = np.asarray((_LN2_EXT / np.longdouble(t)) * total, dtype=float)

        excursion = max(float(-raw.min()), float(raw.max() - 1.0), 0.0)
        if excursion > RAW_TOLERANCE_BAND:
            worst = int(np.argmin(raw)) if -raw.min() >= raw.max() - 1.0 else int(np.argmax(raw))
            state = gen.space.state_at(worst)
            raise AccuracyError(
                f"inverted probabilities stray {excursion:.3e} outside [0, 1] "
                f"at t={t} (state {state}); decrease the step or change order K={order}",
                t=float(t), state=state,
            )
        band_excursion.append(excursion)
        raw_sum_deviation.append(float(raw.sum() - 1.0))
        normalized = raw / raw.sum()
        vectors.append(ProbabilityVector(normalized, p0.t + float(t), Provenance.ILT, gen.space))

    meta = {
        "method": "ilt",
        "order": order,
        "abscissae": len(shifts),
        "raw_sum_deviation": raw_sum_deviation,
        "band_excursion": band_excursion,
    }
    return TransientSolution(grid, vectors, meta)
