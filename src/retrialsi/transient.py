"""Time-domain solvers independent of the Laplace route: uniformization and simulation.

Uniformization expresses P(t) = P(0) exp(Q t) as a Poisson mixture of powers of
the stochastic matrix U = I + Q / Lambda, truncated with an explicit total
variation bound.  It serves as the oracle the inverse-transform solver is
checked against.  :func:`transient_grid` bounds Lambda * t_max and builds U
once per grid, then steps interval by interval.  Gillespie sampling provides a
third, statistical route; it takes the arrival rate of every state as one array, as
:func:`.model.rate_function` returns it.  Every grid route takes any grid that
:func:`.model.checked_times` accepts and returns a :class:`TransientSolution`;
:func:`standard_errors` reads a Monte Carlo one.  No route loads scipy.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DomainError
from .generator import GeneratorMatrix, transitions, transposed_product
from .model import EPS_MAX, MIN_REPLICAS, ModelConfig, State, StateSpace, checked_times

RNG_ALGORITHM = "pcg64"  # numpy default_rng bit generator
MAX_POISSON_MEAN = 10 ** 6  # largest Lambda * t uniformization accepts, ~1e3 in the shipped configs


@dataclass(frozen=True, eq=False)
class ProbabilityVector:
    """Distribution over the state space at one time point; ``t`` is inf for a stationary one."""

    values: np.ndarray
    t: float
    space: StateSpace | None = None

    def __post_init__(self):
        if self.space is not None and not isinstance(self.space, StateSpace):
            raise DomainError(f"space must be a StateSpace or None, got {self.space!r}")
        v = np.array(self.values, dtype=float)  # a copy: freezing must not touch the caller's array
        if v.ndim != 1:
            raise DomainError(f"probability vector must be 1-d, got shape {v.shape}")
        if self.space is not None and v.size != self.space.size:
            raise DomainError(
                f"vector length {v.size} does not match state space size {self.space.size}"
            )
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def total(self) -> float:
        return float(self.values.sum())

    def as_grid(self) -> np.ndarray:
        """Values reshaped to (c + 1, N - c + 1); needs an attached space."""
        if self.space is None:
            raise DomainError("no state space attached to this vector")
        return self.values.reshape(self.space.c + 1, self.space.width)

    def clipped(self) -> "ProbabilityVector":
        """Strictly nonnegative copy, renormalized to total one.

        Inverse-transform vectors may carry small negative excursions; this
        zeroes them for consumers that need a proper distribution.  Note the
        zeroing can bias moments by more than the excursions themselves.
        """
        values = np.clip(self.values, 0.0, 1.0)
        return ProbabilityVector(values / values.sum(), self.t, self.space)


def delta_vector(space: StateSpace, state: State) -> ProbabilityVector:
    """Point mass at ``state`` at time 0."""
    values = np.zeros(space.size)
    values[space.index(*state)] = 1.0
    return ProbabilityVector(values, 0.0, space)


@dataclass(frozen=True, eq=False)
class TransientSolution:
    """One probability vector per grid time, plus solver metadata; ``metadata["method"]`` names the route."""

    times: np.ndarray
    vectors: list[ProbabilityVector]
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        t = np.array(checked_times(self.times))
        if t.size != len(self.vectors):
            raise DomainError("times and vectors must align one to one")
        sizes = {v.values.size for v in self.vectors}
        if len(sizes) > 1:
            raise DomainError("all vectors must live on the same state space")
        t.setflags(write=False)
        object.__setattr__(self, "times", t)

    def __len__(self) -> int:
        return len(self.vectors)

    def at(self, t: float) -> ProbabilityVector:
        """The vector at grid time ``t``, matched exactly."""
        hits = np.flatnonzero(self.times == t)
        if not hits.size:
            raise DomainError(f"time {t} not on the solution grid")
        return self.vectors[int(hits[0])]


@dataclass(frozen=True, eq=False)
class Trajectory:
    """One sampled path: state after each event, starting state included."""

    times: np.ndarray
    states: np.ndarray  # shape (n_events + 1, 2)
    horizon: float
    seed: int
    rng: str = RNG_ALGORITHM

    def __post_init__(self):
        t = np.array(self.times, dtype=float)
        s = np.array(self.states, dtype=int)
        if t.size and not np.all(np.diff(t) > 0):
            raise DomainError("event times must be strictly increasing")
        if s.shape != (t.size, 2):
            raise DomainError("states must align with event times")
        t.setflags(write=False)
        s.setflags(write=False)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "states", s)

    def __len__(self) -> int:
        return self.times.size


def _poisson_weights(q: float, eps: float) -> np.ndarray:
    """Poisson(q) pmf on 0..n*, n* chosen so the truncated tail is < eps.

    Computed in log space, then renormalized so the truncation mass is
    redistributed proportionally.
    """
    if q == 0.0:
        return np.ones(1)
    # generous upper bound for the support scan
    hi = int(np.ceil(q + 12.0 * np.sqrt(q) + 60.0))
    n = np.arange(hi + 1)
    logw = -q + n * np.log(q) - np.fromiter(map(math.lgamma, range(1, hi + 2)), float, hi + 1)
    w = np.exp(logw)
    cum = np.cumsum(w)
    cut = int(np.searchsorted(cum, 1.0 - eps))
    cut = min(cut, hi)
    w = w[: cut + 1]
    return w / w.sum()


def poisson_quantile(q: float, tail: float) -> int | float:
    """Smallest integer m with P(Poisson(q) > m) <= ``tail``, for 0 < tail < 1/2; inf at tail 0.

    The pmf is computed in log space, as in :func:`_poisson_weights`, so no
    e^-q underflows, and only from floor(q) - 1 up, since the median exceeds
    q - ln 2.  The scan ends where Bernstein's inequality puts less than
    tail * e^-40 above it; the tail is summed from there, smallest terms first.
    """
    if q == 0.0:
        return 0
    if not tail > 0.0:
        return math.inf
    bound = 40.0 - math.log(tail)
    lo = max(0, math.floor(q) - 1)
    hi = math.ceil(q + math.sqrt(2.0 * q * bound) + 2.0 * bound / 3.0) + 1
    n = np.arange(lo, hi + 1)
    logp = -q + n * math.log(q) - np.fromiter(map(math.lgamma, range(lo + 1, hi + 2)), float, n.size)
    above = np.cumsum(np.exp(logp)[:0:-1])[::-1]  # above[k] = P(lo + k < X <= hi)
    return lo + int(np.flatnonzero(above <= tail)[0])


#: Share of a solve's eps that the reachable box (:func:`reachable_box`) may leave out.
BOX_TAIL = 1e-3


def reachable_box(cfg: ModelConfig, arrival: np.ndarray, horizon: float,
                  tail: float) -> tuple[ModelConfig, np.ndarray] | None:
    """The lattice model of the states the chain reaches by ``horizon`` except with probability ``tail``.

    Only an arrival raises i + j, and every arrival rate is at most
    lambda_max = max(arrival), so with m = :func:`poisson_quantile` of
    lambda_max * horizon and M = i0 + j0 + m, the chain stays in i <= c' =
    max(1, min(c, M)), j <= j_max = min(N - c, max(j0, M - c)) up to
    ``horizon``, except with probability at most ``tail`` (a finite state
    projection: Munsky & Khammash, J. Chem. Phys. 124, 044104, 2006).

    Returns the box as a model with c' units and the box's orbit levels, one
    spare level added when j_max = 0 (a lattice needs N > c), and its arrival
    rates: ``arrival``'s on the box, with every arrival that would leave it
    zeroed (all of row c' when c' < c, and (c', j >= j_max)).  The blocked
    chain follows the full one on every path that never tries to leave, so
    their laws differ by at most ``tail`` in total variation.  Returns None
    when the box, its spare level included, is the whole lattice.
    """
    i0, j0 = cfg.initial_state
    q = float(arrival.max()) * horizon
    if not q < cfg.N - i0 - j0 + 1:  # m is above the median, so above q - 1: M >= N, the box is the lattice
        return None
    top = i0 + j0 + poisson_quantile(q, tail)
    c = max(1, min(cfg.c, top))
    j_max = min(cfg.N - cfg.c, max(j0, top - cfg.c))
    if c == cfg.c and max(j_max, 1) == cfg.N - cfg.c:  # with its spare level, the box is the lattice
        return None
    box = replace(cfg, N=c + max(j_max, 1), c=c)
    rates = arrival.reshape(cfg.c + 1, cfg.space.width)[:c + 1, :box.space.width].copy()
    rates[c, j_max if c == cfg.c else 0:] = 0.0
    return box, rates.ravel()


def embedded(solution: TransientSolution, space: StateSpace) -> TransientSolution:
    """``solution``, solved on a :func:`reachable_box` of ``space``, with zero on every state outside the box."""
    box = solution.vectors[0].space
    vectors = []
    for vector in solution.vectors:
        values = np.zeros((space.c + 1, space.width))
        values[:box.c + 1, :box.width] = vector.as_grid()
        vectors.append(ProbabilityVector(values.ravel(), vector.t, space))
    return TransientSolution(solution.times, vectors, solution.metadata)


def uniformize(gen: GeneratorMatrix, p0: ProbabilityVector, t: float,
               eps: float = 1e-10) -> ProbabilityVector:
    """``p0`` propagated for a duration ``t`` within total variation ``eps``: :func:`transient_grid` at ``t``."""
    return transient_grid(gen, p0, [t], eps).vectors[0]


def transient_grid(gen: GeneratorMatrix, p0: ProbabilityVector, times,
                   eps: float = 1e-10) -> TransientSolution:
    """Evaluate the distribution on a time grid, stamped ``p0.t + t``, propagating interval by interval.

    Cost scales with the largest time, not with grid size times horizon: the steps of all
    intervals together number about Lambda * t_max, bounded by MAX_POISSON_MEAN up front.
    The metadata records Lambda (``rate``) and the products U^T v taken (``steps``).
    """
    grid = np.array(checked_times(times))
    if not 0 < eps <= EPS_MAX:
        raise DomainError(f"eps must lie in (0, {EPS_MAX:g}], got {eps}")
    v = np.array(p0.values, dtype=float)
    if v.shape != (gen.dim,):
        raise DomainError(f"p0 has shape {v.shape}, system dimension is {gen.dim}")
    lam = float(gen.exit_rates().max(initial=0.0))
    if not lam * grid[-1] <= MAX_POISSON_MEAN:  # NaN and inf fail too
        raise DomainError(f"uniformization Poisson mean Lambda * t_max = {lam} * {grid[-1]} exceeds "
                          f"MAX_POISSON_MEAN = {MAX_POISSON_MEAN:g}")
    # U = eye + Q / lam as scipy forms it, Q * (1 / lam) plus 1 on the diagonal: a step is its U.T @ v bit
    # for bit, as the zeros scipy drops weigh 0 here, and adding 0 * v never changes a sum begun at +0
    q, scale = gen.csr, 1.0 / lam if lam else 0.0  # at lam = 0 every Poisson weight vector is [1]
    ut = sorted([(d, lo, w * scale) for d, lo, w in q.diagonals() if d] + [(0, 0, 1.0 + q.diagonal() * scale)],
                key=lambda diagonal: -diagonal[0])
    after, term = np.empty_like(v), np.empty_like(v)
    steps = ((transposed_product(ut, v, after, term), after), (transposed_product(ut, after, v, term), v))
    vectors, prev_t, products = [], 0.0, 0
    for t in grid.tolist():
        weights = _poisson_weights(lam * (t - prev_t), eps)
        acc = weights[0] * v
        for w, (step, stepped) in zip(weights[1:], itertools.cycle(steps)):  # into after, v, after, ...
            stepped.fill(0.0)
            acc += np.multiply(w, step(), out=term)
        v[:] = acc
        prev_t, products = t, products + weights.size - 1
        vectors.append(ProbabilityVector(acc, p0.t + t, p0.space or gen.space))
    return TransientSolution(grid, vectors, {"method": "uniformization", "eps": eps, "rate": lam, "steps": products})


def _transition_table(cfg: ModelConfig, arrival: np.ndarray):
    """Per-state targets and cumulative rates of the moves in :func:`transitions`.

    Returns (exit_rate[s], cum_rates[s, :], targets[s, :]), as wide as the
    most moves of any state (3, or 2 at c = 1).  A state's moves fill its
    first slots in family order, and the rest are padded with the row's
    total, so a uniform draw below the exit rate never selects a padded
    slot.  The exit rate is the last cumulative rate; it can differ from
    -diag(Q), which sums the same rates in column order, in the last bits.
    """
    src, dst, rate = transitions(cfg, arrival)
    size = cfg.space.size
    slot = np.arange(src.size) - np.searchsorted(src, src)  # rank within the state's moves
    targets = np.zeros((size, slot.max() + 1), dtype=np.int64)
    rates = np.zeros(targets.shape)
    targets[src, slot] = dst
    rates[src, slot] = rate
    cum = np.cumsum(rates, axis=1)
    return cum[:, -1], cum, targets


def simulate_gillespie(cfg: ModelConfig, arrival: np.ndarray, horizon: float,
                       seed: int) -> Trajectory:
    """Sample one exact jump path of the chain up to ``horizon``.

    Random draws are consumed from fixed-size buffers (one unit-exponential
    and one uniform per event, in event order), so a seed pins the path.
    """
    if not 0 < horizon < math.inf:  # a NaN or infinite horizon is never passed, and no path would end
        raise DomainError(f"horizon must be finite and > 0, got {horizon}")
    space = cfg.space
    exit_rate, cum, targets = _transition_table(cfg, arrival)
    last = cum.shape[1] - 1
    # plain-Python tables keep the event loop cheap
    totals = exit_rate.tolist()
    cum_rows = [row.tolist() for row in cum]
    target_rows = [row.tolist() for row in targets]
    rng = np.random.default_rng(seed)

    chunk = 256
    exp_buf = rng.standard_exponential(chunk)
    uni_buf = rng.random(chunk)
    pos = 0

    state = space.index(*cfg.initial_state)
    t = 0.0
    times = [0.0]
    path = [state]
    while True:
        total = totals[state]
        if total == 0.0:
            break  # absorbing; path simply ends at the horizon
        if pos == chunk:
            exp_buf = rng.standard_exponential(chunk)
            uni_buf = rng.random(chunk)
            pos = 0
        t += exp_buf[pos] / total
        if t > horizon:
            break
        u = uni_buf[pos] * total
        pos += 1
        row = cum_rows[state]
        slot = 0
        while row[slot] <= u and slot < last:
            slot += 1
        state = target_rows[state][slot]
        times.append(t)
        path.append(state)
    states = np.stack(divmod(np.asarray(path), space.width), axis=1)
    return Trajectory(np.array(times), states, horizon, seed)


def monte_carlo_estimate(cfg: ModelConfig, arrival: np.ndarray, times,
                         replicas: int, seed: int) -> TransientSolution:
    """Estimate the state distribution at each grid time from ``replicas`` paths.

    All replicas advance in lockstep; at each requested time the residual
    holding time is resampled, which is distribution-exact because holding
    times are exponential.  Deterministic for a fixed seed.

    A round steps only the live replicas, kept as ascending indices with
    their clocks alongside.  A replica leaves the live set when its next
    jump falls past the grid time or its state is absorbing, and every
    replica is live again, at the previous grid time, when the next interval
    starts.  A mover's slot counts its cumulative rates below the uniform
    draw; rows are nondecreasing and end in their total, so all but the
    last column need a compare.  The metadata counts the jumps taken
    (``events``) and the lockstep rounds (``rounds``), and holds the
    ``replicas`` that :func:`standard_errors` reads.
    """
    if replicas < MIN_REPLICAS:
        raise DomainError(f"replicas must be >= {MIN_REPLICAS}, got {replicas}")
    grid = np.array(checked_times(times))

    space = cfg.space
    exit_rate, cum, targets = _transition_table(cfg, arrival)
    columns = [np.ascontiguousarray(cum[:, k]) for k in range(cum.shape[1] - 1)]
    rng = np.random.default_rng(seed)

    state = np.full(replicas, space.index(*cfg.initial_state), dtype=np.int64)
    every = np.arange(replicas)
    events = rounds = 0
    start = 0.0
    vectors = []
    for t_q in grid:
        live = every if t_q > start else every[:0]
        clock = np.full(replicas, start)
        while live.size:
            rounds += 1
            lam = exit_rate[state[live]]
            stuck = lam == 0.0
            if stuck.any():
                keep = ~stuck
                live, lam, clock = live[keep], lam[keep], clock[keep]
            t_new = clock + rng.standard_exponential(live.size) / lam
            moving = np.flatnonzero(t_new < t_q)
            live, clock = live.take(moving), t_new.take(moving)
            src = state[live]
            u = rng.random(moving.size) * lam.take(moving)
            slot = np.zeros(src.size, dtype=np.int64)
            for column in columns:
                slot += column[src] < u
            state[live] = targets[src, slot]
            events += live.size
        start = t_q
        counts = np.bincount(state, minlength=space.size).astype(float)
        vectors.append(ProbabilityVector(counts / replicas, float(t_q), space))
    meta = {
        "method": "monte_carlo",
        "replicas": replicas,
        "seed": seed,
        "rng": RNG_ALGORITHM,
        "stepping": "lockstep with memoryless resampling at grid times",
        "events": events,
        "rounds": rounds,
    }
    return TransientSolution(grid, vectors, meta)


def standard_errors(solution: TransientSolution) -> list[np.ndarray]:
    """sqrt(p (1 - p) / replicas) per time and state of a Monte Carlo ``solution``."""
    replicas = solution.metadata.get("replicas")
    if replicas is None:
        raise DomainError("standard errors need a Monte Carlo solution, whose metadata holds its replicas")
    return [np.sqrt(v.values * (1.0 - v.values) / replicas) for v in solution.vectors]
