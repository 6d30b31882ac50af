"""Transition table and sparse infinitesimal generator of the retrial-SI chain.

The moves of the chain are enumerated once, in :func:`_moves`, and
:func:`transitions` attaches their rates; the generator, its structural check
and the simulator's tables are all derived from that one table.  The diagonal
of Q carries minus the row's total exit rate, so every row sums to 0.

Q and its longdouble twin are assembled with numpy alone, as the arrays of
compressed sparse rows (:class:`CsrArrays`); only :attr:`GeneratorMatrix.matrix`,
a reference view for tests, imports scipy.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import ModelError
from .model import ModelConfig, RateFunction, StateSpace

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

    def transposed(self):
        """The transpose as slot-major padded rows ``(source, weight)``, each (slots, dim).

        (A^T x)[k] = sum_m weight[m, k] x[source[m, k]], sources ascending; padding weighs 0.
        """
        order = np.argsort(self.indices, kind="stable")
        cols = self.indices[order]
        slot = np.arange(cols.size) - np.searchsorted(cols, cols)  # rank within the column
        source = np.zeros((slot.max(initial=-1) + 1, self.dim), dtype=np.intp)
        weight = np.zeros(source.shape, dtype=self.data.dtype)
        source[slot, cols] = self.rows()[order]
        weight[slot, cols] = self.data[order]
        return source, weight


def add_transposed_product(at, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out += A^T x`` for ``at = A.transposed()``, one slot at a time as scipy's CSC product adds."""
    for source, weight in zip(*at):
        term = x[source]
        term *= weight if x.ndim == 1 else weight[:, None]
        out += term
    return out


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

    def row_sums(self) -> np.ndarray:
        return self.csr.row_sums()

    def exit_rates(self) -> np.ndarray:
        """Total exit rate per state (= minus the diagonal)."""
        return -self.csr.diagonal()

    def triplets(self):
        """(rows, cols, rates) of all stored entries, diagonal included."""
        return self.csr.rows(), self.csr.indices, self.csr.data

    def write_triplets(self, fileobj) -> None:
        """Dump the matrix as ``row,col,rate`` CSV lines for external inspection."""
        fileobj.write("row,col,rate\n")
        rows, cols, vals = self.triplets()
        for r, c, v in zip(rows.tolist(), cols.tolist(), vals.tolist()):
            fileobj.write(f"{r},{c},{v!r}\n")


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


def transitions(cfg: ModelConfig, rate_fn: RateFunction):
    """Every move of the chain with its rate, as arrays ``(src, dst, rate)``.

    The moves are those of :func:`_moves`, in the same order.  A move on the
    stencil is listed even when its rate is 0 (theta = 0, or an arrival with
    i + j = N), so the stored pattern of Q does not depend on the rates.
    ``rate_fn`` is called once per state, in index order.
    """
    space = cfg.space
    i, j = np.divmod(np.arange(space.size), space.width)
    lam = np.array([rate_fn(a, b) for a, b in zip(i.tolist(), j.tolist())], dtype=float)
    negative = np.flatnonzero(lam < 0)
    if negative.size:
        k = negative[0]
        raise ModelError(f"rate function returned {lam[k]} < 0 at state ({i[k]}, {j[k]})")
    src, dst, family = _moves(space)
    per_family = np.stack([lam, i * cfg.mu, j * cfg.theta, lam])
    return src, dst, per_family[family, src]


def build_generator(cfg: ModelConfig, rate_fn: RateFunction) -> GeneratorMatrix:
    """Assemble Q over the linear state ordering from the transition table.

    The diagonal is minus the off-diagonal row sums, each reduced in column
    order as scipy's CSR row sum does, so Q equals scipy's ``coo -> csr``
    assembly plus ``diags(-off.sum(axis=1))`` bit for bit.  Zero entries are
    not stored.
    """
    return GeneratorMatrix(_conservative(*transitions(cfg, rate_fn), cfg.space.size), cfg.space)


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
        return (
            not self.row_sum_violations
            and not self.negative_off_diagonal
            and not self.off_stencil
        )

    def summary(self) -> str:
        status = "pass" if self.ok else "FAIL"
        parts = [f"{status}: max |row sum| = {self.max_abs_row_sum:.3e}"]
        if self.row_sum_violations:
            parts.append(f"row sums off in rows {list(self.row_sum_violations)}")
        if self.negative_off_diagonal:
            parts.append(f"negative off-diagonal at {list(self.negative_off_diagonal)}")
        if self.off_stencil:
            parts.append(f"off-stencil transition at {list(self.off_stencil)}")
        return "; ".join(parts)


def validate_generator(gen: GeneratorMatrix, tol: float = 1e-12) -> ValidationReport:
    """Check zero row sums, nonnegative off-diagonal, and the transition stencil.

    Reports rather than raises, so it can run on deliberately broken input.
    The stencil check needs a state space; it is skipped (and flagged) without one.
    """
    sums = gen.row_sums()
    bad_rows = tuple(np.nonzero(np.abs(sums) > tol)[0].tolist())

    rows, cols, vals = gen.triplets()
    off_diagonal = rows != cols

    def pairs(mask):
        return tuple(zip(rows[mask].tolist(), cols[mask].tolist()))

    neg = pairs(off_diagonal & (vals < 0))

    off_stencil: tuple[tuple[int, int], ...] = ()
    checked = gen.space is not None
    if checked:
        src, dst, _ = _moves(gen.space)
        # int64 keys: dim ** 2 overflows int32 from about 46,000 states
        keys = rows.astype(np.int64) * gen.dim + cols
        on_stencil = np.isin(keys, src * gen.dim + dst)
        off_stencil = pairs(off_diagonal & (vals != 0) & ~on_stencil)

    return ValidationReport(
        max_abs_row_sum=float(np.abs(sums).max()) if sums.size else 0.0,
        row_sum_violations=bad_rows,
        negative_off_diagonal=neg,
        off_stencil=off_stencil,
        stencil_checked=checked,
        tolerance=tol,
    )
