"""Laplace-domain system M(s) = s I - Q: a batched level sweep, and the stationary vector.

The transformed state probabilities p*(s) = p0 (s I - Q)^(-1) solve the
row-vector system x M(s) = p0, that is M(s)^T x^T = p0^T.  The equation of
state (i, j) involves x only at its lattice neighbours:

    (s + d(i, j)) x(i, j) - a(i-1, j) x(i-1, j) - (i+1) mu x(i+1, j)
        - r(i-1, j+1) x(i-1, j+1) - [i = c] a(c, j-1) x(c, j-1)  =  b(i, j)

with d the exit rate, a the arrival rate and r the retrial rate.  Grouped by
orbit level j, a block of c + 1 states, each level couples to the level above
through the retrials (one shifted diagonal) and to the level below through
the single unknown x(c, j-1): the orbit grows only from (c, j-1).
:func:`solve_resolvents` therefore eliminates the levels from j = N - c down
to 0 (the linear level reduction of Gaver, Jacobs & Latouche, Adv. Appl.
Prob. 16, 1984).  A level's Schur complement is tridiagonal plus one dense
column (state c); one Thomas pass solves it, and its solution is affine in
the one scalar x(c, j-1).  A back-substitution from j = 0 upward then
recovers x.  The tridiagonal pivots do not depend on the levels above, so
they are factored for all levels at once before the sweep.

The sweep performs the same operations for every shift s, so all the shifts
of a time grid travel through it together as vectors.  It runs in longdouble
without pivoting: M(s)^T is column diagonally dominant for s > 0, so every
pivot is positive and elimination in any order is stable.  Every solution is
residual-checked in longdouble against the entries of
:attr:`~GeneratorMatrix.matrix_extended`, gathered along the rows of Q^T, not
against the sweep's rates: near s = 0 the solution has size 1/s, and a
double-precision residual there is one rounding step, not a measurement.

The stationary vector solves pi Q = 0 with one balance equation replaced by
sum(pi) = 1, by sparse LU, after a structural check that the chain has
exactly one closed class; it also serves generators without a lattice.
:func:`stationary_fvt` approaches the same vector as the final-value limit
s p*(s), through :func:`solve_resolvents`, the one resolvent entry point.

The sweep and its residual check use numpy alone, so the inversion route
loads no scipy; ``scipy.sparse``, its ``csgraph`` and ``sparse.linalg`` are
imported in the function bodies of the stationary solve.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ModelError, NumericalError
from .generator import CsrArrays, GeneratorMatrix, _moves
from .transient import ProbabilityVector, Provenance

DEFAULT_S_GRID = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)  # decreasing shifts of stationary_fvt
FVT_TOL = 1e-5  # max-norm step between the last two grid points that counts as converged
RESIDUAL_TOL = 1e-10  # bound on max |(s I - Q)^T x - rhs| of every resolvent solve, in longdouble
#: Largest dim * width of one sweep; more shifts than that run in chunks.  The
#: sweep's working set is a few longdouble arrays of this many entries (4 MiB
#: each at the bound).  2**18 is the smallest power of two that holds N = 200
#: at one time point (10,201 states x 20 shifts) in one chunk.
SWEEP_ENTRIES = 2 ** 18


def _level_rates(gen: GeneratorMatrix):
    """The rates of :attr:`~GeneratorMatrix.matrix_extended`, level-major.

    Returns ``(exit, arrival, recovery, retrial, orbit)``.  All but ``orbit``
    have shape (N - c + 1, c + 1) and are indexed [j, i] by the state (i, j)
    whose equation the rate enters:

    - exit[j, i]      d(i, j), minus the diagonal of Q;
    - arrival[j, i]   the rate (i-1, j) -> (i, j), 0 at i = 0;
    - recovery[j, i]  the rate (i+1, j) -> (i, j), 0 at i = c;
    - retrial[j, i]   the rate (i-1, j+1) -> (i, j), 0 at i = 0 and j = N - c;
    - orbit[j]        the rate (c, j-1) -> (c, j), 0 at j = 0.
    """
    space = gen.space
    if space is None:
        raise ModelError("generator has no attached state space")
    q = gen.matrix_extended
    src, dst, family = _moves(space)
    # entry (src, dst) of Q, found among the stored entries by its row-major key
    keys = q.rows().astype(np.int64) * gen.dim + q.indices
    wanted = src.astype(np.int64) * gen.dim + dst
    at = np.searchsorted(keys, wanted)
    stored = at < keys.size
    stored[stored] = keys[at[stored]] == wanted[stored]
    rate = np.zeros(src.size, dtype=np.longdouble)
    rate[stored] = q.data[at[stored]]
    diagonal = q.diagonal()
    if np.count_nonzero(rate) != np.count_nonzero(q.data) - np.count_nonzero(diagonal):
        raise ModelError("generator has transitions off the lattice stencil")
    c, width = space.c, space.width
    by_source = np.zeros((4, c + 1, width), dtype=np.longdouble)  # [family, i, j] of the source
    i, j = np.divmod(src, width)
    by_source[family, i, j] = rate
    exit_rate = np.ascontiguousarray(-diagonal.reshape(c + 1, width).T)
    arrival, recovery, retrial = (np.zeros_like(exit_rate) for _ in range(3))
    arrival[:, 1:] = by_source[0, :-1].T
    recovery[:, :-1] = by_source[1, 1:].T
    retrial[:-1, 1:] = by_source[2, :-1, 1:].T
    orbit = np.zeros(width, dtype=np.longdouble)
    orbit[1:] = by_source[3, c, :-1]
    return exit_rate, arrival, recovery, retrial, orbit


def _sweep(rates, s: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve M(s)^T x = b for every shift in ``s`` by the level sweep.

    ``b`` is level-major, [j, i]; the result is x[j, i, k] for shift s[k].
    Each level's solution is kept as offset u and slope w, x_j = u_j + w_j
    x(c, j-1).  For b >= 0 every quantity below is nonnegative, and the only
    subtractions are in the pivots, which stay >= s.
    """
    exit_rate, arrival, recovery, retrial, orbit = rates
    levels, units = exit_rate.shape
    c = units - 1
    # Thomas pivots of the tridiagonal part of every level.  mult[j, i] is the
    # negated multiplier arrival / pivot of row i - 1.
    pivot = exit_rate[:, :, None] + s
    mult = np.empty_like(pivot)
    for i in range(1, c):
        mult[:, i] = arrival[:, i, None] / pivot[:, i - 1]
        pivot[:, i] -= mult[:, i] * recovery[:, i - 1, None]
    mult[:, c] = arrival[:, c, None] / pivot[:, c - 1]
    last = pivot[:, c].copy()  # row c of each level, before its coupling to the level above
    inv = np.reciprocal(pivot[:, :c], out=pivot[:, :c])

    # sol[j, i, 0] is the slope w, sol[j, i, 1] the offset u
    sol = np.zeros((levels, units, 2, s.size), dtype=np.longdouble)
    for j in range(levels - 1, -1, -1):
        # rows i < c: column c (entry (i, c) negated), then the right-hand side
        z = sol[j, :c]
        z[:, 1] = b[j, :c, None]
        tail_c, rhs_c = 0.0, b[j, c]
        if j + 1 < levels:  # retrials from the level above, (i-1, j+1) -> (i, j)
            inflow = retrial[j, 1:, None, None] * sol[j + 1, :c]
            z[1:] += inflow[:-1]
            tail_c, rhs_c = inflow[-1, 0], rhs_c + inflow[-1, 1]
        z[c - 1, 0] += recovery[j, c - 1]  # (c, j) -> (c-1, j) sits in column c too
        mult_j, ratio_j = mult[j], recovery[j, :c - 1, None] * inv[j, :c - 1]
        for i in range(1, c):
            z[i] += mult_j[i] * z[i - 1]
        top = sol[j, c]
        denominator = last[j] - tail_c - mult[j, c] * z[c - 1, 0]
        top[0] = orbit[j] / denominator
        top[1] = (rhs_c + mult[j, c] * z[c - 1, 1]) / denominator
        z *= inv[j][:, None]
        z[:, 1] += z[:, 0] * top[1]
        z[:, 0] *= top[0]
        for i in range(c - 2, -1, -1):
            z[i] += ratio_j[i] * z[i + 1]

    x, slope = sol[:, :, 1], sol[:, :, 0]
    for j in range(1, levels):
        x[j] += slope[j] * x[j - 1, c]
    return x


def _transposed(q: CsrArrays):
    """Q^T as padded rows ``(source, weight)``: (Q^T x)[k] = sum_m weight[k, m] x[source[k, m]].

    Row k of Q^T holds the entries of column k of Q; padding slots weigh 0.
    """
    order = np.argsort(q.indices, kind="stable")
    cols = q.indices[order]
    slot = np.arange(cols.size) - np.searchsorted(cols, cols)  # rank within the column
    source = np.zeros((q.dim, slot.max(initial=-1) + 1), dtype=np.intp)
    weight = np.zeros(source.shape, dtype=q.data.dtype)
    source[cols, slot] = q.rows()[order]
    weight[cols, slot] = q.data[order]
    return source, weight


def _solve_batch(rates, qt, s: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The sweep at the shifts ``s``, as x[k, state]; every row residual-checked.

    ``qt`` is :func:`_transposed` of :attr:`~GeneratorMatrix.matrix_extended`:
    the residual reads Q's own entries, not ``rates``.
    """
    levels, units = rates[0].shape
    with np.errstate(all="ignore"):  # a zero or overflowing pivot shows in the residual
        x = _sweep(rates, s, b.reshape(units, levels).T).transpose(1, 0, 2).reshape(b.size, -1)
        source, weight = qt
        r = np.repeat(b[:, None], s.size, axis=1)
        for m in range(source.shape[1]):  # r = Q^T x + b, one slot of Q^T's rows at a time
            term = x[source[:, m]]
            term *= weight[:, m, None]
            r += term
        residual = np.abs(np.subtract(x * s, r, out=r), out=r).max(axis=0)
    worst = int(np.argmax(residual))  # the first NaN, if any
    if not residual[worst] <= RESIDUAL_TOL:
        raise NumericalError(f"resolvent solve residual {residual[worst]:.3e} exceeds "
                             f"{RESIDUAL_TOL:.1e} at s={float(s[worst])}")
    return x.T


def solve_resolvents(gen: GeneratorMatrix, shifts, rhs):
    """Solve x(s) (s I - Q) = rhs for every shift s, by the level sweep.

    ``gen`` needs its state space; ``shifts`` is a 1-d array, best given in
    longdouble, of positive shifts.  Returns an iterator over chunks
    ``(columns, x)``: ``columns`` is a slice of ``shifts`` and row k of the
    longdouble array ``x`` solves for the shift ``shifts[columns][k]``.  A
    chunk holds at most SWEEP_ENTRIES // dim shifts (at least one).  Each
    solution must meet RESIDUAL_TOL in longdouble, else NumericalError.
    """
    shifts = np.asarray(shifts, dtype=np.longdouble)
    if shifts.ndim != 1:
        raise DomainError(f"shifts must be a 1-d array, got shape {shifts.shape}")
    if shifts.size and not shifts.min() > 0:
        raise DomainError(f"Laplace variable s must be > 0, got {shifts.min()}")
    b = np.asarray(rhs, dtype=np.longdouble)
    if b.shape != (gen.dim,):
        raise DomainError(f"right-hand side has shape {b.shape}, system dimension is {gen.dim}")
    rates, qt = _level_rates(gen), _transposed(gen.matrix_extended)
    width = max(1, SWEEP_ENTRIES // gen.dim)
    chunks = (slice(k, k + width) for k in range(0, shifts.size, width))
    return ((cols, _solve_batch(rates, qt, shifts[cols], b)) for cols in chunks)


def _closed_classes(q) -> int:
    """Number of closed communicating classes of the transition graph of the CSR matrix Q."""
    from scipy.sparse.csgraph import connected_components

    n_classes, labels = connected_components(q, directed=True, connection="strong")
    rows, cols = q.nonzero()
    leaving = labels[rows] != labels[cols]
    has_exit = np.zeros(n_classes, dtype=bool)
    has_exit[labels[rows[leaving]]] = True
    return int(n_classes - has_exit.sum())


def stationary_nullspace(gen: GeneratorMatrix) -> ProbabilityVector:
    """Stationary vector: the normalized left null vector of Q, by sparse LU.

    Solves pi Q = 0 with the last balance equation replaced by sum(pi) = 1.
    That system is nonsingular exactly when Q is conservative and the chain
    has one closed class (transient states allowed).  Both are checked
    exactly first, because an LU notices a second closed class only if a
    pivot happens to come out exactly zero.
    """
    from scipy import sparse
    from scipy.sparse.linalg import splu

    q = gen.matrix
    scale = max(1.0, float(np.abs(q.diagonal()).max(initial=0.0)))
    if np.abs(gen.row_sums()).max(initial=0.0) > 1e-12 * scale:
        raise ModelError("generator is not conservative: row sums are not zero")
    closed = _closed_classes(q)
    if closed != 1:
        raise ModelError(f"chain is reducible: {closed} closed classes")
    balance = q.T.tocsr()
    normalization = sparse.csr_matrix(np.ones((1, gen.dim)))
    system = sparse.vstack([balance[:-1], normalization])
    rhs = np.zeros(gen.dim)
    rhs[-1] = 1.0
    try:
        pi = splu(sparse.csc_matrix(system)).solve(rhs)
    except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
        raise NumericalError(f"singular pivot in the stationary system: {exc}") from exc
    pi = np.clip(pi, 0.0, None)
    pi = pi / pi.sum()
    residual = float(np.abs(q.T @ pi).max())
    if not residual <= 1e-10:
        raise NumericalError(f"stationary residual {residual:.3e} exceeds 1e-10")
    return ProbabilityVector(pi, np.inf, Provenance.STATIONARY, gen.space)


@dataclass(frozen=True, eq=False)
class FvtResult:
    """Final-value-theorem limit s P*(s) along a decreasing s grid."""

    vector: ProbabilityVector
    s_grid: tuple[float, ...]
    successive_diffs: tuple[float, ...]
    converged: bool


def stationary_fvt(gen: GeneratorMatrix, p0: ProbabilityVector) -> FvtResult:
    """Approach the stationary vector as lim_{s -> 0} s P*(s) along DEFAULT_S_GRID.

    The limit needs the s factor: the plain transform satisfies
    sum P*(s) = 1 / s and diverges as s -> 0.  Convergence is judged by the
    max-norm difference between consecutive grid points, against FVT_TOL.
    """
    grid = DEFAULT_S_GRID
    v = np.asarray(p0.values, dtype=float)
    if v.size != gen.dim:
        raise DomainError(f"p0 has length {v.size}, system dimension is {gen.dim}")
    if v.min() < 0 or abs(v.sum() - 1.0) > 1e-9:
        raise DomainError("p0 must be a probability distribution")
    solved = np.concatenate([x for _, x in solve_resolvents(gen, np.array(grid, dtype=np.longdouble), v)])
    vectors = [s * x.astype(float) for s, x in zip(grid, solved)]
    diffs = [float(np.abs(b - a).max()) for a, b in zip(vectors, vectors[1:])]
    converged = bool(diffs and diffs[-1] <= FVT_TOL)
    if not converged:
        warnings.warn(
            f"final-value limit not converged on the s grid (last diff "
            f"{diffs[-1] if diffs else float('nan'):.3e})",
            stacklevel=2,
        )
    result = ProbabilityVector(np.clip(vectors[-1], 0.0, None), np.inf,
                               Provenance.STATIONARY, gen.space)
    return FvtResult(result, grid, tuple(diffs), converged)
