"""Model configuration, state space, contact graphs and arrival rates.

This module imports no numpy until a graph or rate array is built, so the
config parser can check a well-mixed scenario without it; it also holds the
solver bounds and the time-grid rule that the parser and the solvers share.

The system tracks a closed population of ``N`` nodes.  Infected nodes occupy
one of ``c`` recovery units; when all units are busy a newly infected node
joins the orbit (capacity ``N - c``) and retries for service.  A system state
is the pair ``(i, j)`` = (busy units, orbit occupancy).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import TYPE_CHECKING

from .errors import ConfigError, DomainError, GraphFormatError

if TYPE_CHECKING:
    import numpy as np

State = tuple[int, int]

K_MIN = 2  # Gaver-Stehfest orders K accepted: even and in [K_MIN, K_MAX]
K_MAX = 20
#: Default order for the chain-probability driver.  With longdouble solves and
#: extended-precision accumulation, K = 20 keeps the worst per-entry and
#: first-moment deviations from the uniformization oracle below 1e-4 on the
#: reference grids; K = 14 in plain double precision does not.
DEFAULT_CHAIN_ORDER = 20
EPS_MAX = 1e-6  # largest total-variation bound uniformization accepts
MIN_REPLICAS = 1000  # fewest replicas a Monte Carlo estimate accepts
# most nodes a contact graph may have: load_graph of ring_with_hub(1,000,000) (2e6 edges) peaks at
# 418 MB RSS in 2.8-3.3 s on a 2-core host, the budget of MAX_REPLICAS; the CLI's largest population
# (MAX_STATES at c = 1) is 150,000, whose ring loads in 0.4-0.6 s at 88 MB
MAX_GRAPH_NODES = 1_000_000


def checked_times(times) -> tuple[float, ...]:
    """``times`` as a tuple of floats, checked to be a grid the solvers accept.

    A grid is a nonempty 1-d sequence, every time is finite and >= 0, and the
    times strictly increase.  An infinite time would never be reached by a
    sampled path and overflows the uniformization step count.
    """
    try:
        grid = tuple(map(float, times))
    except TypeError:  # a scalar, or rows of a 2-d array
        raise DomainError("times must be a nonempty 1-d sequence") from None
    if not grid:
        raise DomainError("times must be a nonempty 1-d sequence")
    if not all(0.0 <= t < math.inf for t in grid):  # NaN fails too
        raise DomainError("times must be finite and nonnegative")
    if not all(a < b for a, b in zip(grid, grid[1:])):
        raise DomainError("times must be strictly increasing")
    return grid


class Mode(str, Enum):
    HOMOGENEOUS = "homogeneous"
    HETEROGENEOUS = "heterogeneous"


class Closure(str, Enum):
    """Count-level closure of the infected-neighbor term in heterogeneous mode.

    The per-node infection pressure depends on which neighbors are infected,
    which a count-level chain cannot represent.  MEAN_FIELD scales the full
    neighbor sum by the infected fraction (i + j) / N; FULL_NEIGHBOR keeps the
    whole sum as an upper bound.
    """

    MEAN_FIELD = "mean_field"
    FULL_NEIGHBOR = "full_neighbor"


@dataclass(frozen=True)
class StateSpace:
    """Rectangular lattice of states (i, j), 0 <= i <= c, 0 <= j <= N - c."""

    N: int
    c: int

    def __post_init__(self):
        if self.N < 2:
            raise ConfigError(f"N must be >= 2, got {self.N}")
        if not 1 <= self.c < self.N:
            raise ConfigError(f"c must satisfy 1 <= c < N, got c={self.c}, N={self.N}")

    @property
    def width(self) -> int:
        """Number of orbit levels per recovery level."""
        return self.N - self.c + 1

    @property
    def size(self) -> int:
        return (self.c + 1) * self.width

    def contains(self, i: int, j: int) -> bool:
        return 0 <= i <= self.c and 0 <= j <= self.N - self.c

    def index(self, i: int, j: int) -> int:
        """Linear index (N - c + 1) * i + j; bijective onto 0 .. size - 1."""
        if not self.contains(i, j):
            raise DomainError(f"state ({i}, {j}) outside the (N={self.N}, c={self.c}) lattice")
        return self.width * i + j

    def state_at(self, index: int) -> State:
        """Inverse of :meth:`index`."""
        if not 0 <= index < self.size:
            raise DomainError(f"index {index} outside 0..{self.size - 1}")
        i, j = divmod(index, self.width)
        return i, j

    def states(self) -> list[State]:
        """All states ordered by linear index."""
        return [self.state_at(k) for k in range(self.size)]


@dataclass(frozen=True, eq=False)
class ContactGraph:
    """Undirected simple graph on nodes 0..n-1, held as its distinct edges.

    ``edges`` lists node pairs in either order, repeats allowed; they are kept
    as an int64 (E, 2) array of distinct rows u < v in ascending order, so the
    graph is symmetric and 0/1 by construction.  Self-loops are rejected.
    """

    n: int
    edges: np.ndarray
    degrees: np.ndarray = field(init=False)

    def __post_init__(self):
        import numpy as np

        if isinstance(self.n, bool) or not isinstance(self.n, (int, np.integer)) or self.n < 1:
            raise ConfigError(f"node count must be an integer >= 1, got {self.n!r}")
        e = np.array(self.edges, dtype=np.int64)  # a copy: freezing must not touch the caller's array
        e = e.reshape(-1, 2) if e.size == 0 else e
        if e.ndim != 2 or e.shape[1] != 2:
            raise ConfigError(f"edges must be node pairs, got shape {e.shape}")
        if np.any(e[:, 0] == e[:, 1]):
            raise ConfigError("edges must not be self-loops")
        if e.size and not (0 <= e.min() and e.max() < self.n):
            raise ConfigError(f"edge endpoints must lie in 0..{self.n - 1}")
        e.sort(axis=1)
        keys = np.sort(e[:, 0] * self.n + e[:, 1])  # sorted and diffed: np.unique hashes, ~30x slower
        e = np.column_stack(np.divmod(keys[np.diff(keys, prepend=-1) != 0], self.n))
        e.setflags(write=False)
        object.__setattr__(self, "edges", e)
        d = np.bincount(e.ravel(), minlength=self.n)
        d.setflags(write=False)
        object.__setattr__(self, "degrees", d)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def degree(self, node: int) -> int:
        if not 0 <= node < self.n:
            raise DomainError(f"node {node} outside 0..{self.n - 1}")
        return int(self.degrees[node])


def load_graph(text: str, nodes: int | None = None) -> ContactGraph:
    """Parse an edge-list document into a :class:`ContactGraph`.

    Format: a header line ``n <count>`` followed by one ``u v`` edge per line
    (0-based node ids).  Blank lines and lines starting with ``#`` are
    ignored.  Duplicate edges collapse; self-loops are rejected.  The count
    must be at most ``MAX_GRAPH_NODES`` and, if ``nodes`` is given, equal it.
    """
    n = None
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if n is None:
            if len(parts) != 2 or parts[0] != "n":
                raise GraphFormatError("expected header 'n <count>'", line=lineno)
            try:
                n = int(parts[1])
            except ValueError:
                raise GraphFormatError(f"bad node count {parts[1]!r}", line=lineno) from None
            if n < 1:
                raise GraphFormatError(f"node count must be >= 1, got {n}", line=lineno)
            if n > MAX_GRAPH_NODES:
                raise GraphFormatError(f"node count {n} exceeds MAX_GRAPH_NODES = {MAX_GRAPH_NODES}",
                                       line=lineno)
            if nodes is not None and n != nodes:
                raise GraphFormatError(f"node count {n} differs from the {nodes} nodes expected", line=lineno)
            continue
        if len(parts) != 2:
            raise GraphFormatError(f"expected 'u v', got {line!r}", line=lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError(f"non-integer node id in {line!r}", line=lineno) from None
        if u == v:
            raise GraphFormatError(f"self-loop at node {u}", line=lineno)
        if not (0 <= u < n and 0 <= v < n):
            raise GraphFormatError(f"node id outside 0..{n - 1} in {line!r}", line=lineno)
        pairs.append((u, v))
    if n is None:
        raise GraphFormatError("empty document: missing 'n <count>' header")
    return ContactGraph(n, pairs)


def graph_to_text(graph: ContactGraph) -> str:
    """Serialize a graph back to the edge-list format accepted by load_graph."""
    lines = [f"n {graph.n}"] + [f"{u} {v}" for u, v in graph.edges.tolist()]
    return "\n".join(lines) + "\n"


def ring_with_hub(n: int) -> ContactGraph:
    """Fixture contact topology: a ring over nodes 1..n-1 plus node 0 joined to all.

    Every non-hub node has degree 3 (two ring neighbors and the hub), so the
    tagged-node dynamics are comparable across sizes; the hub has degree n - 1.
    """
    if n < 4:
        raise ConfigError(f"ring_with_hub needs n >= 4, got {n}")
    import numpy as np

    ring = np.arange(1, n)
    spokes = np.column_stack((np.zeros_like(ring), ring))
    arcs = np.column_stack((ring, np.roll(ring, -1)))
    return ContactGraph(n, np.concatenate((spokes, arcs)))


@dataclass(frozen=True)
class ModelConfig:
    """Population, service and rate parameters; the single source of model truth.

    Rates are per unit time: ``alpha`` population contact rate, ``mu`` recovery
    rate per busy unit, ``theta`` retrial rate per orbiting node (0 allowed).
    """

    N: int
    c: int
    alpha: float
    mu: float
    theta: float
    mode: Mode = Mode.HOMOGENEOUS
    tagged_node: int | None = None
    closure: Closure = Closure.MEAN_FIELD
    initial_state: State = (0, 0)

    def __post_init__(self):
        object.__setattr__(self, "mode", Mode(self.mode))
        object.__setattr__(self, "closure", Closure(self.closure))
        object.__setattr__(self, "initial_state", tuple(self.initial_state))
        space = StateSpace(self.N, self.c)  # validates N, c
        if not (self.alpha > 0 and math.isfinite(self.alpha)):
            raise ConfigError(f"alpha must be finite and > 0, got {self.alpha}")
        if not (self.mu > 0 and math.isfinite(self.mu)):
            raise ConfigError(f"mu must be finite and > 0, got {self.mu}")
        if not (self.theta >= 0 and math.isfinite(self.theta)):
            raise ConfigError(f"theta must be finite and >= 0, got {self.theta}")
        i0, j0 = self.initial_state
        if not space.contains(i0, j0):
            raise ConfigError(f"initial_state {self.initial_state} outside the state space")
        if self.mode is Mode.HETEROGENEOUS and self.tagged_node is None:
            raise ConfigError("heterogeneous mode requires tagged_node")

    @cached_property
    def space(self) -> StateSpace:
        return StateSpace(self.N, self.c)


def rate_function(cfg: ModelConfig, graph: ContactGraph | None = None) -> np.ndarray:
    """Arrival rate lambda(i, j) of every state of ``cfg.space``, in index order.

    Well-mixed, alpha * (N - i - j) / N: zero iff everyone is infected.  With
    heterogeneous contacts, the rate seen by the tagged node k: external
    pressure scales the population rate by its degree, (alpha * d_k / N) *
    (N - i - j) / N, and internal pressure sums d_k / N over its neighbors
    (d_k^2 / N in full), closed over count states per ``cfg.closure``.
    """
    import numpy as np

    N = cfg.N
    i, j = np.divmod(np.arange(cfg.space.size), cfg.space.width)
    if cfg.mode is Mode.HOMOGENEOUS:
        return cfg.alpha * (N - i - j) / N
    if graph is None:
        raise ConfigError("heterogeneous mode requires a contact graph")
    if graph.n != N:
        raise ConfigError(f"graph has {graph.n} nodes but config N={N}")
    k = cfg.tagged_node
    if not 0 <= k < graph.n:
        raise ConfigError(f"tagged_node {k} outside 0..{graph.n - 1}")
    d_k = graph.degree(k)
    external = (cfg.alpha * d_k / N) * (N - i - j) / N
    neighbor_sum = d_k * d_k / N
    if cfg.closure is Closure.MEAN_FIELD:
        neighbor_sum *= (i + j) / N
    return external + neighbor_sum
