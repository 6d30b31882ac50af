"""Model configuration, state space, contact-graph parsing and arrival rates.

The heterogeneous chain reads a contact graph only through N and the tagged
node's degree, so a graph file is parsed to that one integer and no edges
are kept.  This module imports no numpy until a rate array is built, so the
config parser can check any scenario, a graph included, without it; it also
holds the solver bounds and the time-grid rule that the parser and the
solvers share.

The system tracks a closed population of ``N`` nodes.  Infected nodes occupy
one of ``c`` recovery units; when all units are busy a newly infected node
joins the orbit (capacity ``N - c``) and retries for service.  A system state
is the pair ``(i, j)`` = (busy units, orbit occupancy).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
# most nodes a contact graph may have: reading and parsing the 2e6-edge file of ring_with_hub(1,000,000)
# peaks at 58 MB RSS in 1.2-1.4 s on a 2-core host, the text and one chunk of lines; the CLI's largest
# population (MAX_STATES at c = 1) is 150,000, whose ring loads in 0.17-0.25 s at 21 MB
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


def _lines(text: str):
    """``text.splitlines()`` one line at a time, splitting 64 Ki characters or so at a time.

    Each chunk ends just after a newline, so no line break straddles two
    chunks and the lines are those of the whole text; a list of every line of
    a large graph would outweigh the text itself.
    """
    start = 0
    while start < len(text):
        end = text.find("\n", start + (1 << 16)) + 1 or len(text)
        yield from text[start:end].splitlines()
        start = end


def load_graph(text: str, nodes: int, node: int) -> int:
    """Degree of ``node`` in the graph an edge-list document describes.

    Format: a header line ``n <count>`` followed by one ``u v`` edge per line
    (0-based node ids).  Blank lines and lines starting with ``#`` are
    ignored.  The count must be at most ``MAX_GRAPH_NODES`` and equal
    ``nodes``.  Every line is checked, whichever nodes it joins; self-loops
    are rejected.  The degree counts the distinct neighbours of ``node``, so
    duplicate edges, in either order, count once.
    """
    if not 0 <= node < nodes:
        raise DomainError(f"node {node} outside 0..{nodes - 1}")
    numbered = enumerate(_lines(text), start=1)
    for lineno, raw in numbered:
        parts = raw.split()
        if parts and not parts[0].startswith("#"):
            break
    else:
        raise GraphFormatError("empty document: missing 'n <count>' header")
    if len(parts) != 2 or parts[0] != "n":
        raise GraphFormatError("expected header 'n <count>'", line=lineno)
    try:
        n = int(parts[1])
    except ValueError:
        raise GraphFormatError(f"bad node count {parts[1]!r}", line=lineno) from None
    if n < 1:
        raise GraphFormatError(f"node count must be >= 1, got {n}", line=lineno)
    if n > MAX_GRAPH_NODES:
        raise GraphFormatError(f"node count {n} exceeds MAX_GRAPH_NODES = {MAX_GRAPH_NODES}", line=lineno)
    if n != nodes:
        raise GraphFormatError(f"node count {n} differs from the {nodes} nodes expected", line=lineno)
    neighbours = set()
    for lineno, raw in numbered:
        parts = raw.split()
        if not parts or parts[0].startswith("#"):
            continue
        if len(parts) != 2:
            raise GraphFormatError(f"expected 'u v', got {raw.strip()!r}", line=lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError(f"non-integer node id in {raw.strip()!r}", line=lineno) from None
        if u == v:
            raise GraphFormatError(f"self-loop at node {u}", line=lineno)
        if not (0 <= u < n and 0 <= v < n):
            raise GraphFormatError(f"node id outside 0..{n - 1} in {raw.strip()!r}", line=lineno)
        if u == node:
            neighbours.add(v)
        elif v == node:
            neighbours.add(u)
    return len(neighbours)


def ring_with_hub(n: int, node: int) -> int:
    """Degree of ``node`` in the fixture contact topology ``ring_with_hub(n)``.

    The fixture is a ring over nodes 1..n-1 plus node 0 joined to all.  Every
    non-hub node has degree 3 (two ring neighbors and the hub), so the
    tagged-node dynamics are comparable across sizes; the hub has degree n - 1.
    """
    if n < 4:
        raise ConfigError(f"ring_with_hub needs n >= 4, got {n}")
    if not 0 <= node < n:
        raise DomainError(f"node {node} outside 0..{n - 1}")
    return n - 1 if node == 0 else 3


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


def rate_function(cfg: ModelConfig, degree: int | None = None) -> np.ndarray:
    """Arrival rate lambda(i, j) of every state of ``cfg.space``, in index order.

    Well-mixed, alpha * (N - i - j) / N: zero iff everyone is infected.  With
    heterogeneous contacts, the rate seen by the tagged node k of ``degree``
    d_k (see :func:`load_graph`): external pressure scales the population
    rate by its degree, (alpha * d_k / N) * (N - i - j) / N, and internal
    pressure sums d_k / N over its neighbors (d_k^2 / N in full), closed over
    count states per ``cfg.closure``.
    """
    import numpy as np

    N = cfg.N
    i, j = np.divmod(np.arange(cfg.space.size), cfg.space.width)
    if cfg.mode is Mode.HOMOGENEOUS:
        return cfg.alpha * (N - i - j) / N
    if degree is None:
        raise ConfigError("heterogeneous mode requires the tagged node's degree")
    if not 0 <= cfg.tagged_node < N:
        raise ConfigError(f"tagged_node {cfg.tagged_node} outside 0..{N - 1}")
    if not 0 <= degree < N:
        raise ConfigError(f"degree {degree} outside 0..{N - 1}")
    external = (cfg.alpha * degree / N) * (N - i - j) / N
    neighbor_sum = degree * degree / N
    if cfg.closure is Closure.MEAN_FIELD:
        neighbor_sum *= (i + j) / N
    return external + neighbor_sum
