"""Transition table and sparse infinitesimal generator of the retrial-SI chain.

The moves of the chain are enumerated once, in :func:`_moves`, and
:func:`transitions` attaches their rates; the generator, its structural check
(which :func:`level_rates`, the level sweep's view of Q, enforces) and the
simulator's tables are all derived from that one table.  The diagonal
of Q carries minus the row's total exit rate, so every row sums to 0.

Q and its longdouble twin are assembled with numpy alone, as the arrays of
compressed sparse rows (:class:`CsrArrays`); only :attr:`GeneratorMatrix.matrix`,
a reference view for tests, imports scipy.  Products with a transpose run
along the matrix's diagonals (:meth:`CsrArrays.diagonals`, at most five on the
lattice stencil, and :func:`transposed_product`): one contiguous multiply-add
per offset, adding each target's terms in scipy's order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import ModelError
from .model import ModelConfig, StateSpace

DENSE_LIMIT = 10_000


class CsrArrays(NamedTuple):
    """A square sparse matrix as compressed sparse rows.

    The fields are in the argument order of scipy's ``csr_matrix((data,
    indices, indptr))``, so ``csr_matrix(arrays, shape=(n, n))`` wraps them.
    The arrays this module builds hold each row in column order.
    """

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray

    @property
    def dim(self) -> int:
        return self.indptr.size - 1

    def rows(self) -> np.ndarray:
        """Row index of every stored entry."""
        return np.repeat(np.arange(self.dim, dtype=self.indices.dtype), np.diff(self.indptr))

    def diagonal(self) -> np.ndarray:
        """The diagonal, 0 where none is stored."""
        rows = self.rows()
        on = rows == self.indices
        diagonal = np.zeros(self.dim, dtype=self.data.dtype)
        diagonal[rows[on]] = self.data[on]
        return diagonal

    def row_sums(self) -> np.ndarray:
        """Each row summed left to right in storage order, as scipy's CSR row sum does."""
        sums = np.zeros(self.dim, dtype=self.data.dtype)
        stored = np.flatnonzero(np.diff(self.indptr))
        sums[stored] = np.add.reduceat(self.data, self.indptr[stored])
        return sums

    def diagonals(self):
        """The transpose by diagonals: ``(d, lo, weight)`` per distinct offset d = col - row, d descending.

        weight[k], from source lo + k - d into target lo + k, spans the targets d reaches (0 between
        entries, duplicates summed), so a target meets its sources in ascending order, as in scipy.
        """
        offset = self.indices.astype(np.intp) - self.rows()
        order = np.lexsort((self.indices, -offset))  # by offset descending, then by target
        offset, targets, data = offset[order], self.indices[order], self.data[order]
        starts = np.flatnonzero(np.diff(offset, prepend=offset[:1] + 1))  # where each offset begins
        diagonals = []
        for a, b in zip(starts, np.append(starts[1:], offset.size)):
            weight = np.zeros(targets[b - 1] + 1 - targets[a], dtype=data.dtype)
            np.add.at(weight, targets[a:b] - targets[a], data[a:b])
            diagonals.append((int(offset[a]), int(targets[a]), weight))
        return diagonals


def transposed_product(diagonals, x: np.ndarray, out: np.ndarray, term=None):
    """A function of no arguments that adds A^T x (x 1-d or (dim, k)) into and returns ``out``, for
    ``diagonals = A.diagonals()``, through ``term`` of out's shape; the slices are taken once, here."""
    term = np.empty_like(out) if term is None else term
    views = [(w if x.ndim == 1 else w[:, None], x[lo - d:lo - d + w.size], out[lo:lo + w.size],
              term[:w.size]) for d, lo, w in diagonals]

    def add():
        for weight, source, target, part in views:
            np.multiply(weight, source, out=part)
            target += part
        return out
    return add


def _csr(rows, cols, values, size: int) -> CsrArrays:
    """CSR arrays of the distinct entries (rows, cols, values), zeros dropped.

    Indices are int32 wherever they fit, as scipy stores them.
    """
    keep = values != 0
    rows, cols, values = rows[keep], cols[keep], values[keep]
    order = np.lexsort((cols, rows))
    index = np.int32 if max(size, values.size) <= np.iinfo(np.int32).max else np.int64
    indptr = np.zeros(size + 1, dtype=index)
    np.cumsum(np.bincount(rows, minlength=size), out=indptr[1:])
    return CsrArrays(values[order], cols[order].astype(index), indptr)


def _conservative(rows, cols, rates, size: int) -> CsrArrays:
    """CSR arrays of the off-diagonal entries (rows, cols, rates), with minus their row sums on the diagonal."""
    exit_rate = _csr(rows, cols, rates, size).row_sums()
    diagonal = np.arange(size)
    return _csr(np.concatenate([rows, diagonal]), np.concatenate([cols, diagonal]),
                np.concatenate([rates, -exit_rate]), size)


@dataclass(frozen=True, eq=False)
class GeneratorMatrix:
    """Generator Q as CSR arrays, optionally tied to its state space."""

    csr: CsrArrays
    space: StateSpace | None = None

    def __post_init__(self):
        if not (isinstance(self.csr, tuple) and len(self.csr) == 3):
            raise ModelError("generator needs CSR arrays (data, indices, indptr)")
        data, indices, indptr = (np.array(a) for a in self.csr)  # copies, frozen below
        csr = CsrArrays(data.astype(float, copy=False), indices, indptr)
        dim = indptr.size - 1
        if not (
            data.ndim == indices.ndim == indptr.ndim == 1
            and indices.dtype.kind in "iu" and indptr.dtype.kind in "iu" and dim >= 0 and indptr[0] == 0 and indptr[-1] == data.size == indices.size
            and np.all(np.diff(indptr) >= 0) and np.all((indices >= 0) & (indices < dim))
        ):
            raise ModelError("generator arrays are not a square CSR matrix")
        if self.space is not None and self.space.size != dim:
            raise ModelError(
                f"generator dimension {dim} does not match state space size {self.space.size}"
            )
        for a in csr:
            a.setflags(write=False)
        object.__setattr__(self, "csr", csr)

    @classmethod
    def from_dense(cls, array, space: StateSpace | None = None) -> "GeneratorMatrix":
        """Wrap an explicit (typically hand-built or test) matrix."""
        a = np.asarray(array, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ModelError(f"generator must be square, got shape {a.shape}")
        rows, cols = np.nonzero(a)
        return cls(_csr(rows, cols, a[rows, cols], a.shape[0]), space)

    @property
    def dim(self) -> int:
        return self.csr.dim

    @cached_property
    def matrix(self):
        """Q as a scipy ``csr_matrix`` over the same (read-only) arrays, built on first use."""
        from scipy import sparse

        return sparse.csr_matrix(self.csr, shape=(self.dim, self.dim))

    def toarray(self) -> np.ndarray:
        if self.dim > DENSE_LIMIT:
            raise ModelError(f"refusing dense conversion for dimension {self.dim} > {DENSE_LIMIT}")
        dense = np.zeros((self.dim, self.dim))
        np.add.at(dense, (self.csr.rows(), self.csr.indices), self.csr.data)  # duplicates add up
        return dense

    @cached_property
    def matrix_extended(self) -> CsrArrays:
        """Q in longdouble, its diagonal recomputed as minus the off-diagonal row sums.

        Built once, on first use.  The stored double diagonal is the rounded
        negated row sum, so the stored rows miss zero by an ulp of the exit
        rate; at s = 1e-6 that alone moves s * sum(x) off 1 by about 1e-10.
        Each row is summed left to right in storage (column) order, as
        scipy's sparse product with a vector of ones sums it.
        """
        q = self.csr
        rows = q.rows()
        off = rows != q.indices
        return _conservative(rows[off], q.indices[off], q.data[off].astype(np.longdouble), self.dim)

    def exit_rates(self) -> np.ndarray:
        """Total exit rate per state (= minus the diagonal)."""
        return -self.csr.diagonal()

    def triplets(self):
        """(rows, cols, rates) of all stored entries, diagonal included."""
        return self.csr.rows(), self.csr.indices, self.csr.data


def _moves(space: StateSpace):
    """Source, target and family of every move on the stencil of ``space``.

    Four transition families leave a state (i, j):

        0  (i, j) -> (i + 1, j)      arrival straight to a unit   rate lambda(i, j), i <= c - 1
        1  (i, j) -> (i - 1, j)      recovery completes           rate i * mu,       i >= 1
        2  (i, j) -> (i + 1, j - 1)  successful retrial           rate j * theta,    i <= c - 1, j >= 1
        3  (c, j) -> (c, j + 1)      arrival joins the orbit      rate lambda(c, j), j <= N - c - 1

    The arrays are sorted by source state and, within a state, by family.
    """
    width = space.width
    i, j = np.divmod(np.arange(space.size), width)
    below = i <= space.c - 1
    present = np.stack(
        [below, i >= 1, below & (j >= 1), (i == space.c) & (j <= space.N - space.c - 1)], axis=1
    )
    src, family = np.nonzero(present)  # row-major: by source state, then by family
    offset = np.array([width, -width, width - 1, 1])  # target index minus source index
    return src, src + offset[family], family


def transitions(cfg: ModelConfig, arrival: np.ndarray):
    """Every move of the chain with its rate, as arrays ``(src, dst, rate)``.

    The moves are those of :func:`_moves`, in the same order.  A move on the
    stencil is listed even when its rate is 0 (theta = 0, or an arrival with
    i + j = N), so the stored pattern of Q does not depend on the rates.
    ``arrival`` holds the arrival rate of every state in index order, as
    :func:`.model.rate_function` returns it.
    """
    space = cfg.space
    lam = np.asarray(arrival, dtype=float)
    if lam.shape != (space.size,):
        raise ModelError(f"arrival rates have shape {lam.shape}, the state space needs ({space.size},)")
    i, j = np.divmod(np.arange(space.size), space.width)
    invalid = np.flatnonzero(~(lam >= 0))  # negative or NaN
    if invalid.size:
        k = invalid[0]
        raise ModelError(f"arrival rate {lam[k]} at state ({i[k]}, {j[k]}) is not >= 0")
    src, dst, family = _moves(space)
    per_family = np.stack([lam, i * cfg.mu, j * cfg.theta, lam])
    return src, dst, per_family[family, src]


def build_generator(cfg: ModelConfig, arrival: np.ndarray) -> GeneratorMatrix:
    """Assemble Q over the linear state ordering from the transition table.

    The diagonal is minus the off-diagonal row sums, each reduced in column
    order as scipy's CSR row sum does, so Q equals scipy's ``coo -> csr``
    assembly plus ``diags(-off.sum(axis=1))`` bit for bit.  Zero entries are
    not stored.
    """
    return GeneratorMatrix(_conservative(*transitions(cfg, arrival), cfg.space.size), cfg.space)


ROW_SUM_TOL = 1e-12  # bound on |row sum| of a valid Q, relative to max(1, largest exit rate)
SUMMARY_SHOWN = 5  # offenders of each kind ValidationReport.summary names


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the structural checks on a generator matrix."""

    max_abs_row_sum: float
    row_sum_violations: tuple[int, ...]
    negative_off_diagonal: tuple[tuple[int, int], ...]
    off_stencil: tuple[tuple[int, int], ...]
    stencil_checked: bool
    tolerance: float

    @property
    def ok(self) -> bool:
        return not (self.row_sum_violations or self.negative_off_diagonal or self.off_stencil)

    def summary(self) -> str:
        status = "pass" if self.ok else "FAIL"
        parts = [f"{status}: max |row sum| = {self.max_abs_row_sum:.3e}"]
        kinds = ((self.row_sum_violations, "rows not conservative, in rows"),
                 (self.negative_off_diagonal, "negative off-diagonal rates, at"),
                 (self.off_stencil, "off-stencil transitions, at"))
        for found, what in kinds:  # the count and the first SUMMARY_SHOWN of each kind
            if found:
                more = f" ... and {len(found) - SUMMARY_SHOWN} more" if len(found) > SUMMARY_SHOWN else ""
                parts.append(f"{len(found)} {what} {list(found[:SUMMARY_SHOWN])}{more}")
        return "; ".join(parts)


def _validate(gen: GeneratorMatrix):
    """:func:`validate_generator`'s report, and the family (numbered as in :func:`_moves`) of
    each stored entry of Q: -1 off the stencil, the diagonal included; None without a state space."""
    sums = gen.csr.row_sums()
    tol = ROW_SUM_TOL * max(1.0, float(np.abs(gen.exit_rates()).max(initial=0.0)))
    rows, cols, vals = gen.triplets()
    off_diagonal = rows != cols

    def pairs(mask):
        return tuple(zip(rows[mask].tolist(), cols[mask].tolist()))

    family = None
    if gen.space is not None:
        src, dst, move_family = _moves(gen.space)
        target = np.full((4, gen.dim), -1, dtype=cols.dtype)  # [family, state]: where the move goes
        target[move_family, src] = dst
        family = np.full(rows.size, -1)
        for f in range(4):
            family[target[f, rows] == cols] = f

    report = ValidationReport(
        max_abs_row_sum=float(np.abs(sums).max()) if sums.size else 0.0,
        row_sum_violations=tuple(np.flatnonzero(~(np.abs(sums) <= tol)).tolist()),
        negative_off_diagonal=pairs(off_diagonal & ~(vals >= 0)),
        off_stencil=() if family is None else pairs(off_diagonal & (vals != 0) & (family < 0)),
        stencil_checked=family is not None,
        tolerance=tol,
    )
    return report, family


def validate_generator(gen: GeneratorMatrix) -> ValidationReport:
    """Check the rule the level sweep's routes (inversion and both stationary solves) need of Q.

    Every row sums to 0 within ``tolerance`` = ROW_SUM_TOL * max(1, largest
    exit rate), every off-diagonal rate is >= 0 (a NaN fails both), and
    every nonzero off-diagonal entry is a move of the stencil.  Reports
    rather than raises, so it can run on deliberately broken input.  The
    stencil check needs a state space; it is skipped (and flagged) without one.
    """
    return _validate(gen)[0]


def level_rates(gen: GeneratorMatrix):
    """The off-diagonal rates of Q in longdouble, level-major, for the level sweep of :mod:`.laplace`.

    Returns ``(arrival, recovery, retrial, orbit)``.  All but ``orbit`` have
    shape (N - c + 1, c + 1) and are indexed [j, i] by the state (i, j) whose
    equation the rate enters, the target of the move:

    - arrival[j, i]   the rate (i-1, j) -> (i, j), 0 at i = 0;
    - recovery[j, i]  the rate (i+1, j) -> (i, j), 0 at i = c;
    - retrial[j, i]   the rate (i-1, j+1) -> (i, j), 0 at i = 0 and j = N - c;
    - orbit[j]        the rate (c, j-1) -> (c, j), 0 at j = 0.

    Raises ModelError without a state space, or when Q fails
    :func:`validate_generator`: the sweep rebuilds every pivot from these
    rates, so it can honour neither a stored diagonal nor a negative rate.
    """
    space = gen.space
    if space is None:
        raise ModelError("generator has no attached state space")
    report, family = _validate(gen)
    if not report.ok:
        raise ModelError(f"generator fails validation: {report.summary()}")
    q, on = gen.csr, family >= 0
    # rate of family f into state t at [f * dim + t], duplicate entries summed as in toarray()
    by_target = np.bincount(family[on] * gen.dim + q.indices[on], q.data[on], minlength=4 * gen.dim)
    arrival, recovery, retrial, orbit = (
        by_target.astype(np.longdouble).reshape(4, space.c + 1, space.width).transpose(0, 2, 1))
    return arrival, recovery, retrial, orbit[:, space.c]
