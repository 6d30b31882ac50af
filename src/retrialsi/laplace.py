"""Laplace-domain system M(s) = s I - Q: assembly, sparse LU solve, stationary vector.

The transformed state probabilities p*(s) = p0 (s I - Q)^(-1) solve the
row-vector system x M(s) = p0, that is M(s)^T x^T = p0^T.  M(s) is kept as
one CSR matrix and M(s)^T is factored by a sparse LU (SuperLU) on the first
solve; the factorization is cached, so repeated solves at the same s are
cheap.  Under the linear state ordering M(s) is block tridiagonal with c + 1
square blocks of width N - c + 1:

        [ A_0  B_0              ]
        [ C_1  A_1  B_1         ]
    M = [      C_2  A_2  ...    ]
        [           ...    B_c-1]
        [            C_c   A_c  ]

A_i is diagonal for i < c and upper bidiagonal for i = c (orbit arrivals);
B_i is lower bidiagonal (arrivals on the diagonal, retrials below);
C_i is diagonal (recoveries).

Every resolvent solve that leaves this module is refined and then
residual-checked, both in longdouble, against Q with its diagonal recomputed
as minus the off-diagonal row sums (built once per generator): near s = 0
the solution has size 1/s, and a double-precision residual there is one
rounding step, not a measurement.  The stationary vector solves the
same kind of sparse system, pi Q = 0 with one balance equation replaced by
sum(pi) = 1, after a structural check that the chain has exactly one closed
class.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import splu

from .errors import DomainError, ModelError, NumericalError
from .generator import GeneratorMatrix
from .model import StateSpace
from .transient import ProbabilityVector, Provenance

DEFAULT_S_GRID = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
REFINE_STEPS = 2  # iterative-refinement steps per resolvent solve
RESIDUAL_TOL = 1e-10  # bound on max |(s I - Q)^T x - rhs| of a refined solve, in longdouble


def _sparse_lu(a: sparse.spmatrix, what: str):
    """Sparse LU of A, for solves A x = b; an exactly singular pivot is a NumericalError."""
    try:
        return splu(sparse.csc_matrix(a))
    except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
        raise NumericalError(f"singular pivot in {what}: {exc}") from exc


@dataclass(eq=False)
class ResolventSystem:
    """M(s) = s I - Q in CSR form, with a lazily cached sparse LU of M(s)^T.

    ``s_extended`` keeps the abscissa to extended precision: the refinement
    path must target s I - Q at the exact s, not its double rounding, or the
    near-total cancellation in the inversion weights exposes the difference.
    Refinement and the residual check measure against the generator's
    :attr:`~GeneratorMatrix.matrix_extended`.
    """

    generator: GeneratorMatrix
    s_extended: np.longdouble
    matrix: sparse.csr_matrix       # M(s) at the double rounding of s
    _lu: object = field(default=None, repr=False)

    @property
    def s(self) -> float:
        return float(self.s_extended)

    @property
    def space(self) -> StateSpace:
        return self.generator.space

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def to_dense(self) -> np.ndarray:
        """M(s) as a dense array (equal to s I - Q entry by entry)."""
        return self.matrix.toarray()

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve x M = rhs for a row vector x (double precision)."""
        if self._lu is None:
            self._lu = _sparse_lu(self.matrix.T, f"M(s) at s={self.s}")
        return self._lu.solve(np.asarray(rhs, dtype=float))

    def apply_transpose_extended(self, x: np.ndarray) -> np.ndarray:
        """(s_extended I - Q)^T x in longdouble, with the exact abscissa."""
        x = np.asarray(x, dtype=np.longdouble)
        return self.s_extended * x - self.generator.matrix_extended.T @ x

    def solve_refined(self, rhs: np.ndarray) -> np.ndarray:
        """Solve x M = rhs with iterative refinement; extended-precision result.

        Each of REFINE_STEPS steps recomputes the residual in longdouble
        against the exact abscissa and corrects through the cached
        double-precision factorization.  Needed by the inverse-transform
        driver, whose alternating weights amplify solver noise.  The refined
        solution must meet RESIDUAL_TOL in longdouble, else NumericalError.
        """
        x = self.solve(rhs).astype(np.longdouble)
        b = np.asarray(rhs, dtype=np.longdouble)
        for _ in range(REFINE_STEPS):
            r = b - self.apply_transpose_extended(x)
            x = x + self.solve(r.astype(float))  # promoted to longdouble exactly
        residual = float(np.abs(self.apply_transpose_extended(x) - b).max())
        if not residual <= RESIDUAL_TOL:
            raise NumericalError(
                f"resolvent solve residual {residual:.3e} exceeds {RESIDUAL_TOL:.1e} at s={self.s}"
            )
        return x


def assemble_resolvent(gen: GeneratorMatrix, s) -> ResolventSystem:
    """Form s I - Q as one sparse matrix.

    ``s`` may be a longdouble; the matrix is built at its double rounding
    while the exact value is retained for refined solves.
    """
    if s <= 0:
        raise DomainError(f"Laplace variable s must be > 0, got {s}")
    if gen.space is None:
        raise ModelError("generator has no attached state space")
    matrix = (sparse.identity(gen.dim, format="csr") * float(s) - gen.matrix).tocsr()
    return ResolventSystem(gen, np.longdouble(s), matrix)


@dataclass(frozen=True, eq=False)
class LaplaceSolution:
    """Transformed state probabilities p*(s) = p0 (s I - Q)^(-1)."""

    s: float
    pstar: np.ndarray
    space: StateSpace | None = None

    @property
    def total(self) -> float:
        return float(self.pstar.sum())


def solve_resolvent(system: ResolventSystem, p0: ProbabilityVector) -> LaplaceSolution:
    """Solve x M(s) = p0 by :meth:`ResolventSystem.solve_refined`.

    ``pstar`` is the double rounding of the refined, residual-checked solution.
    """
    v = np.asarray(p0.values, dtype=float)
    if v.size != system.dim:
        raise DomainError(f"p0 has length {v.size}, system dimension is {system.dim}")
    if v.min() < 0 or abs(v.sum() - 1.0) > 1e-9:
        raise DomainError("p0 must be a probability distribution")
    return LaplaceSolution(system.s, system.solve_refined(v).astype(float), system.space)


def _closed_classes(q: sparse.csr_matrix) -> int:
    """Number of closed communicating classes of the transition graph of Q."""
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
    pi = _sparse_lu(system, "the stationary system").solve(rhs)
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


def stationary_fvt(gen: GeneratorMatrix, p0: ProbabilityVector,
                   s_grid=DEFAULT_S_GRID, tol: float = 1e-5) -> FvtResult:
    """Approach the stationary vector as lim_{s -> 0} s P*(s).

    The limit needs the s factor: the plain transform satisfies
    sum P*(s) = 1 / s and diverges as s -> 0.  Convergence is judged by the
    max-norm difference between consecutive grid points.
    """
    grid = tuple(float(s) for s in s_grid)
    if len(grid) == 0 or any(s <= 0 for s in grid):
        raise DomainError("s_grid must contain positive values")
    if any(b >= a for a, b in zip(grid, grid[1:])):
        raise DomainError("s_grid must be strictly decreasing")

    vectors = [s * solve_resolvent(assemble_resolvent(gen, s), p0).pstar for s in grid]
    diffs = [float(np.abs(b - a).max()) for a, b in zip(vectors, vectors[1:])]
    converged = bool(diffs and diffs[-1] <= tol)
    if not converged:
        warnings.warn(
            f"final-value limit not converged on the s grid (last diff "
            f"{diffs[-1] if diffs else float('nan'):.3e})",
            stacklevel=2,
        )
    result = ProbabilityVector(np.clip(vectors[-1], 0.0, None), np.inf,
                               Provenance.STATIONARY, gen.space)
    return FvtResult(result, grid, tuple(diffs), converged)
