"""Laplace-domain system M(s) = s I - Q: one level sweep for the resolvents and the stationary vector.

The transformed state probabilities p*(s) = p0 (s I - Q)^(-1) solve
M(s)^T x^T = p0^T.  The equation of state (i, j) involves x only at its
lattice neighbours:

    (s + d(i, j)) x(i, j) - a(i-1, j) x(i-1, j) - (i+1) mu x(i+1, j)
        - r(i-1, j+1) x(i-1, j+1) - [i = c] a(c, j-1) x(c, j-1)  =  b(i, j)

with d the exit rate, a the arrival rate and r the retrial rate.  Grouped by
orbit level j, a block of c + 1 states, each level couples to the level
above through the retrials and to the level below through the one unknown
x(c, j-1).  :func:`solve_resolvents` therefore eliminates the levels from
j = N - c down to 0 (linear level reduction: Gaver, Jacobs & Latouche, Adv.
Appl. Prob. 16, 1984).  A level's Schur complement is tridiagonal plus one
dense column; one Thomas pass solves it, affine in x(c, j-1), and a
back-substitution from j = 0 upward recovers x.  All the shifts of a time
grid travel through the sweep together as vectors, in longdouble.  Each
level's pivot factors wait in that level's rows of the solution array until
the sweep reaches it, so a chunk holds about three longdouble arrays of
states x shifts: the slopes and offsets and the returned x in the sweep, and
x, the residual and one scratch array in the residual check.

No pivot subtracts.  As in the state reduction of Grassmann, Taksar &
Heyman (Oper. Res. 33, 1985), with s as a killing rate, each pivot is a sum
of nonnegative rates of leaving the states not yet eliminated: a row i < c
pivots on its arrival rate plus its rate of leaving the level (a retrial
down, or death at rate s) directly or through the rows below it; (c, j)
pivots on s times one plus the time spent above level j, plus the rate at
which the level's rows below c leave the level.  The rates come from
:func:`~.generator.level_rates`, which refuses a Q that fails
:func:`~.generator.validate_generator`.  So the sweep stays
accurate as s -> 0, and at s = 0 the pivot of (c, 0) is exactly 0: pinning
x(c, 0) = 1 there gives the null vector of Q that :func:`stationary_nullspace`
normalizes.  Every solution is residual-checked in longdouble against the
entries of :attr:`~GeneratorMatrix.matrix_extended`, multiplied along its
diagonals: near s = 0 the solution has size 1/s, and a double-precision
residual there is one rounding step, not a measurement.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, ModelError, NumericalError
from .generator import GeneratorMatrix, level_rates, transposed_product
from .transient import ProbabilityVector

RESIDUAL_TOL = 1e-10  # bound on max |(s I - Q)^T x - rhs| of every resolvent solve, in longdouble
#: Largest dim * width of one sweep; more shifts than that run in chunks.  The
#: sweep's working set is about three longdouble arrays of this many entries
#: (8 MiB each at the bound).  2**19 holds N = 200 at one time point (10,201
#: states x 20 shifts) in one chunk, and a chunk takes about the bytes that
#: 2**18 took when the sweep held six such arrays.
SWEEP_ENTRIES = 2 ** 19


@np.errstate(all="ignore")  # a zero or overflowing pivot shows in the residual check
def _sweep(rates, s: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve M(s)^T x = b for every shift in ``s`` by the level sweep, as x[state, k].

    Each level's solution is kept as offset u and slope w, x_j = u_j + w_j
    x(c, j-1).  Where the pivot of (c, 0) is exactly 0, x(c, 0) is 1.
    """
    arrival, recovery, retrial, orbit = rates
    levels, units = arrival.shape
    c = units - 1
    b = b.reshape(units, levels).T  # level-major, [j, i]
    # sol[j, i, 0] is the slope w, sol[j, i, 1] the offset u.  Until the sweep
    # reaches level j, rows i < c hold the level's factors instead: in slot 0
    # the rate of leaving the level (directly or through lower rows) times 1 /
    # pivot, in slot 1 the 1 / pivot itself.
    sol = np.empty((levels, units, 2, s.size), dtype=np.longdouble)
    up = arrival[:, 1:].T  # (i, j) -> (i+1, j), as [i, j]
    sol[:, :c, 0] = s
    sol[1:, :c, 0] += retrial[:-1, 1:, None]  # (i, j) -> (i+1, j-1)
    for i in range(c):
        leave, inv = sol[:, i, 0], sol[:, i, 1]
        if i:
            leave += recovery[:, i - 1, None] * sol[:, i - 1, 0]
        np.reciprocal(up[i, :, None] + leave, out=inv)
        leave *= inv

    above = np.zeros_like(s)  # time spent above level j per unit time at (c, j)
    for j in range(levels - 1, -1, -1):
        z = sol[j, :c]
        leave_j, inv_j = z[:, 0].copy(), z[:, 1].copy()  # the level's factors, before z takes x
        fwd_j = up[:, j, None] * inv_j  # the arrival rate times 1 / pivot
        # rows i < c: column c (entry (i, c) negated), then the right-hand side
        z[:, 0] = 0
        z[:, 1] = b[j, :c, None]
        rhs_c = b[j, c]
        if j + 1 < levels:  # retrials from the level above, (i-1, j+1) -> (i, j)
            inflow = retrial[j, 1:, None, None] * sol[j + 1, :c]
            z[1:] += inflow[:-1]
            rhs_c = rhs_c + inflow[-1, 1]
        z[c - 1, 0] += recovery[j, c - 1]  # (c, j) -> (c-1, j) sits in column c too
        rows = list(z)  # views of z's rows: += on a list item copies nothing back into z
        for i in range(1, c):
            rows[i] += fwd_j[i - 1] * rows[i - 1]
        top = sol[j, c]
        denominator = s * (1 + above) + np.einsum("ik,ik->k", leave_j, z[:, 0])
        top[0] = orbit[j] / denominator
        top[1] = (rhs_c + fwd_j[c - 1] * z[c - 1, 1]) / denominator
        if j == 0:  # the pivot of (c, 0) is exactly 0 only at s = 0, where b = 0
            top[1][denominator == 0] = 1
        z *= inv_j[:, None]
        z[:, 1] += z[:, 0] * top[1]
        z[:, 0] *= top[0]
        ratio_j = recovery[j, :c - 1, None] * inv_j[:c - 1]
        for i in range(c - 2, -1, -1):
            rows[i] += ratio_j[i] * rows[i + 1]
        above = sol[j, :, 0].sum(axis=0) + top[0] * above

    x, slope = sol[:, :, 1], sol[:, :, 0]
    for j in range(1, levels):
        x[j] += slope[j] * x[j - 1, c]
    return x.transpose(1, 0, 2).reshape(b.size, s.size)


@np.errstate(all="ignore")
def _checked(qt, s: np.ndarray, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``x`` if every column x[:, k] has max |s x - Q^T x - b| <= RESIDUAL_TOL, else NumericalError.

    ``qt`` is :attr:`~GeneratorMatrix.matrix_extended` by diagonals, so the
    residual reads Q's own entries; a NaN fails the check.
    """
    term = np.empty_like(x)
    r = transposed_product(qt, x, np.repeat(b[:, None], s.size, axis=1), term)()  # Q^T x + b
    residual = np.abs(np.subtract(np.multiply(x, s, out=term), r, out=r), out=r).max(axis=0)
    worst = int(np.argmax(residual))  # the first NaN, if any
    if not residual[worst] <= RESIDUAL_TOL:
        raise NumericalError(f"resolvent solve residual {residual[worst]:.3e} exceeds "
                             f"{RESIDUAL_TOL:.1e} at s={float(s[worst])}")
    return x


def solve_resolvents(gen: GeneratorMatrix, shifts, rhs):
    """Solve x(s) (s I - Q) = rhs for every shift s, by the level sweep.

    ``gen`` needs its state space and must pass :func:`~.generator.validate_generator`,
    else ModelError; ``shifts`` is a 1-d array, best given in
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
    rates, qt = level_rates(gen), gen.matrix_extended.diagonals()
    width = max(1, SWEEP_ENTRIES // gen.dim)
    chunks = (slice(k, k + width) for k in range(0, shifts.size, width))
    return ((cols, _checked(qt, shifts[cols], b, _sweep(rates, shifts[cols], b)).T) for cols in chunks)


def stationary_nullspace(gen: GeneratorMatrix) -> ProbabilityVector:
    """Stationary vector: the normalized left null vector of Q, by the level sweep at s = 0.

    Q must pass :func:`~.generator.validate_generator`, else ModelError.
    A closed segment is a level's
    states 0..m, where m is the first with no move up (to i + 1, or from
    i = c to the level above) and none of 0..m retries down.  The closed
    classes of every :func:`build_generator` chain follow from them.  As
    mu > 0 takes any state to (0, j), every closed class holds some (0, j)
    and the states a walk up level j reaches from it.  With theta > 0,
    (0, j) retries to (1, j-1) and recovers to (0, j-1), so the one closed
    class holds (0, 0); only level 0, whose row 0 does not retry, can hold a
    segment, which is then the class; without one the walk up level 0
    reaches (c, 0).  With theta = 0 a segment is closed and, being
    birth-death, communicating, while from (0, j) of any other level the
    walk up reaches level j + 1 for good: the segments are the classes.

    Two or more segments raise ModelError; one gives its birth-death product
    form.  With none, the sweep at s = 0 pins x(c, 0) = 1: the chain reaches
    (c, 0) from every state, so every earlier pivot is positive.  On other
    lattice generators a closed class the rule misses shows, beside one
    segment, as a state that never reaches it, which raises ModelError, and
    without one as an exactly zero pivot, which the residual check reports.
    """
    rates = level_rates(gen)
    arrival, recovery, retrial, orbit = rates
    up, down = np.zeros_like(arrival), np.zeros_like(arrival)  # rates out of [j, i]
    up[:, :-1], up[:-1, -1] = arrival[:, 1:], orbit[1:]
    down[1:, :-1] = retrial[:-1, 1:]
    ends = (up == 0) & (np.cumsum(down, axis=1) == 0)  # [j, m]: a closed segment ends at m
    closed = np.flatnonzero(ends.any(axis=1))
    if closed.size > 1:
        raise ModelError(f"chain is reducible: {closed.size} closed classes")
    zero, b = np.zeros(1, dtype=np.longdouble), np.zeros(gen.dim, dtype=np.longdouble)
    qt = gen.matrix_extended.diagonals()
    with np.errstate(all="ignore"):  # a zero pivot shows in the residual check
        if closed.size:
            j = closed[0]
            m = int(np.argmax(ends[j]))
            segment = j + gen.space.width * np.arange(m + 1)
            reached, new = np.zeros(gen.dim, dtype=bool), segment
            while new.size:  # add the states with a positive rate into a reached one
                reached[new] = True
                into = np.concatenate([t[w[t - lo] > 0] - d for d, lo, w in qt  # the sources t - d of
                                       for t in [new[(lo <= new) & (new < lo + w.size)]]])  # new targets t
                new = np.unique(into[~reached[into]])
            if not reached.all():
                raise ModelError(f"chain is reducible: {np.count_nonzero(~reached)} states "
                                 f"never reach the closed class of level {j}")
            x = np.zeros((gen.dim, 1), dtype=np.longdouble)
            x[segment, 0] = np.cumprod(np.r_[1, arrival[j, 1:m + 1] / recovery[j, :m]])
        else:
            x = _sweep(rates, zero, b)
        pi = _checked(qt, zero, b, x / x.sum())
    return ProbabilityVector(pi[:, 0], np.inf, gen.space)
