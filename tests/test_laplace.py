import tracemalloc

import numpy as np
import pytest
from scipy.sparse import csr_matrix

import retrialsi as rs
from retrialsi import GeneratorMatrix, ModelConfig, laplace
from retrialsi.errors import DomainError, ModelError, NumericalError
from retrialsi.laplace import RESIDUAL_TOL, solve_resolvents

SMALL_CONFIGS = [(2, 1), (10, 5), (20, 5), (20, 15)]  # all |state space| <= 100


def make_gen(N, c, theta=2.0):
    cfg = ModelConfig(N=N, c=c, alpha=5.0, mu=0.4, theta=theta)
    return cfg, rs.build_generator(cfg, rs.rate_function(cfg))


def resolvent(gen, s):
    """M(s) = s I - Q as a dense array."""
    return s * np.eye(gen.dim) - gen.toarray()


def extended(gen):
    """The longdouble Q of ``gen`` as a scipy matrix over its arrays."""
    return csr_matrix(gen.matrix_extended, shape=(gen.dim, gen.dim))


def block(m, w, i, j):
    """Block (i, j) of the dense M(s), for blocks of width w."""
    return m[i * w:(i + 1) * w, j * w:(j + 1) * w]


def solve(gen, shifts, rhs):
    """The level sweep's x(s) at every shift, one longdouble row each."""
    return np.concatenate([x for _, x in solve_resolvents(gen, shifts, rhs)])


def resolvent_from_rates(gen, s):
    """M(s) in longdouble, its off-diagonal rebuilt from the level sweep's rates alone."""
    arrival, recovery, retrial, orbit = rs.generator.level_rates(gen)
    w, c = gen.space.width, gen.space.c
    j, i = np.indices(arrival.shape)
    state = i * w + j  # [j, i]: the state whose equation the rate enters
    m = np.zeros((gen.dim, gen.dim), dtype=np.longdouble)
    m[state, state] = s - gen.matrix_extended.diagonal()[state]
    m[state[:, 1:] - w, state[:, 1:]] = -arrival[:, 1:]  # from (i-1, j)
    m[state[:, :-1] + w, state[:, :-1]] = -recovery[:, :-1]  # from (i+1, j)
    m[state[:-1, 1:] - w + 1, state[:-1, 1:]] = -retrial[:-1, 1:]  # from (i-1, j+1)
    m[state[:-1, c], state[1:, c]] = -orbit[1:]  # from (c, j-1)
    return m


class TestAssemble:
    """The structure of M(s), and the rates the level sweep reads it from."""

    def test_tiny_blocks_by_hand(self, tiny_generator):
        # N=2, c=1: lambda(0,0)=5, lambda(0,1)=2.5, lambda(1,0)=2.5
        m, w = resolvent(tiny_generator, 1.0), tiny_generator.space.width
        np.testing.assert_allclose(block(m, w, 1, 0), np.diag([-0.4, -0.4]))
        np.testing.assert_allclose(block(m, w, 0, 1), [[-5.0, 0.0], [-2.0, -2.5]])
        np.testing.assert_allclose(block(m, w, 0, 0), np.diag([1.0 + 5.0, 1.0 + 2.5 + 2.0]))
        # top orbit row: arrival to orbit leaves (1,0); nothing leaves (1,1) but recovery
        np.testing.assert_allclose(block(m, w, 1, 1),
                                   [[1.0 + 2.5 + 0.4, -2.5], [0.0, 1.0 + 0.4]])

    @pytest.mark.parametrize("N,c", SMALL_CONFIGS)
    @pytest.mark.parametrize("s", [0.1, 1.0, 10.0])
    def test_blocks_reassemble_exactly(self, N, c, s):
        _, gen = make_gen(N, c)
        m = s * np.eye(gen.dim, dtype=np.longdouble) - extended(gen).toarray()
        assert np.array_equal(resolvent_from_rates(gen, s), m)

    def test_block_shapes(self):
        cfg, gen = make_gen(10, 5)
        m = resolvent(gen, 1.0)
        w = cfg.space.width
        c = cfg.space.c
        for i in range(c):
            a = block(m, w, i, i)
            assert np.count_nonzero(a - np.diag(np.diag(a))) == 0, f"A_{i} not diagonal"
        a_c = block(m, w, c, c)
        assert np.count_nonzero(np.tril(a_c, -1)) == 0
        assert np.count_nonzero(np.triu(a_c, 2)) == 0
        for i in range(c):
            b = block(m, w, i, i + 1)
            assert np.count_nonzero(np.triu(b, 1)) == 0
            assert np.count_nonzero(np.tril(b, -2)) == 0
        for i in range(1, c + 1):
            np.testing.assert_allclose(block(m, w, i, i - 1), -i * cfg.mu * np.eye(w))

    def test_nonpositive_s_rejected(self, wellmixed_generator, wellmixed_p0):
        for s in (0.0, -1.0):
            with pytest.raises(DomainError):
                solve_resolvents(wellmixed_generator, [s], wellmixed_p0.values)


class TestSolveResolvent:
    """p*(s) = p0 (s I - Q)^(-1) from the level sweep, against dense algebra."""

    @pytest.mark.parametrize("N,c", SMALL_CONFIGS)
    @pytest.mark.parametrize("s", [0.1, 1.0, 10.0])
    def test_block_solve_matches_dense(self, N, c, s):
        cfg, gen = make_gen(N, c)
        p0 = rs.delta_vector(cfg.space, (0, 0))
        (pstar,) = solve(gen, [s], p0.values).astype(float)
        dense = np.linalg.solve(resolvent(gen, s).T, p0.values)
        assert np.abs(pstar - dense).max() <= 1e-10

    @pytest.mark.parametrize("s", [0.1, 1.0, 10.0])
    def test_total_transform_mass(self, wellmixed_generator, wellmixed_p0, s):
        (pstar,) = solve(wellmixed_generator, [s], wellmixed_p0.values).astype(float)
        assert abs(s * pstar.sum() - 1.0) <= 1e-10

    def test_large_s_initial_value(self, wellmixed_generator, wellmixed_p0):
        s = 1e6
        (pstar,) = solve(wellmixed_generator, [s], wellmixed_p0.values).astype(float)
        assert np.abs(s * pstar - wellmixed_p0.values).max() <= 1e-4

    def test_resolvent_identity(self, wellmixed_generator, wellmixed_p0):
        s = 1.0
        (pstar,) = solve(wellmixed_generator, [s], wellmixed_p0.values).astype(float)
        residual = s * pstar - pstar @ wellmixed_generator.toarray() - wellmixed_p0.values
        assert np.abs(residual).max() <= 1e-10

    def test_transform_nonnegative(self, wellmixed_generator, wellmixed_p0):
        pstar = solve(wellmixed_generator, [0.05, 0.5, 5.0], wellmixed_p0.values).astype(float)
        assert pstar.min() >= -1e-12

    def test_refined_solve_consistent(self, wellmixed_generator, wellmixed_p0):
        s = np.longdouble(0.7)
        x64 = np.linalg.solve(resolvent(wellmixed_generator, 0.7).T, wellmixed_p0.values)
        (xext,) = solve(wellmixed_generator, [s], wellmixed_p0.values)
        assert xext.dtype == np.longdouble
        assert np.abs(xext.astype(float) - x64).max() <= 1e-12
        applied = s * xext - extended(wellmixed_generator).T @ xext
        assert np.abs(wellmixed_p0.values - applied.astype(float)).max() <= 1e-15


def sweep_cases():
    """The lattices at the edges of the level sweep, one pytest param each."""
    het = ModelConfig(N=40, c=20, alpha=5.0, mu=0.4, theta=2.0,
                      mode="heterogeneous", tagged_node=2)
    cases = {"theta_0": make_gen(40, 20, theta=0.0)[1], "c_1": make_gen(40, 1)[1],
             "c_N-1": make_gen(40, 39)[1], "N_2": make_gen(2, 1)[1],
             "ring_with_hub": rs.build_generator(het, rs.rate_function(het, rs.ring_with_hub(40, 2)))}
    return [pytest.param(gen, id=name) for name, gen in cases.items()]


class TestLevelSweep:
    SHIFTS = np.array([1e-6, 1e-3, 1.0, 40.0], dtype=np.longdouble)

    @pytest.mark.parametrize("N,c", SMALL_CONFIGS + [(20, 1), (20, 19)])
    def test_matches_dense_solve(self, N, c):
        _, gen = make_gen(N, c)
        rhs = np.random.default_rng(N * 100 + c).normal(size=gen.dim)  # signed, not a distribution
        shifts = (0.05, 1.0, 10.0, 300.0)
        ((cols, x),) = solve_resolvents(gen, np.array(shifts, dtype=np.longdouble), rhs)
        assert cols.start == 0 and x.shape == (len(shifts), gen.dim) and x.dtype == np.longdouble
        for s, row in zip(shifts, x):
            dense = np.linalg.solve(resolvent(gen, s).T, rhs)
            assert np.abs(row.astype(float) - dense).max() <= 1e-10 * max(1.0, np.abs(dense).max())

    @pytest.mark.parametrize("gen", sweep_cases())
    def test_residual_bound_on_every_column(self, gen):
        p0 = np.zeros(gen.dim)
        p0[0] = 1.0
        solved = 0
        for cols, x in solve_resolvents(gen, self.SHIFTS, p0):
            for s, row in zip(self.SHIFTS[cols], x):
                residual = s * row - extended(gen).T @ row - p0
                assert np.abs(residual).max() <= RESIDUAL_TOL, s
                assert abs(float(s * row.sum()) - 1.0) <= 1e-10, s
                solved += 1
        assert solved == self.SHIFTS.size

    def test_chunks_agree_with_one_batch(self, wellmixed_generator, wellmixed_p0, monkeypatch):
        shifts = np.linspace(0.1, 5.0, 7).astype(np.longdouble)
        ((_, whole),) = solve_resolvents(wellmixed_generator, shifts, wellmixed_p0.values)
        monkeypatch.setattr(laplace, "SWEEP_ENTRIES", 3 * wellmixed_generator.dim)
        chunks = list(solve_resolvents(wellmixed_generator, shifts, wellmixed_p0.values))
        assert [len(x) for _, x in chunks] == [3, 3, 1]
        for cols, x in chunks:
            assert np.abs(x - whole[cols]).max() <= 1e-15 * np.abs(whole).max()

    def test_storage_order_and_split_entries(self, wellmixed_generator, wellmixed_p0):
        # each row stored in descending column order, every entry as two halves: the same Q
        q = wellmixed_generator.csr
        order = np.lexsort((-q.indices, q.rows()))
        gen = GeneratorMatrix((np.repeat(q.data[order] / 2, 2), np.repeat(q.indices[order], 2),
                               2 * q.indptr), wellmixed_generator.space)
        assert rs.validate_generator(gen).ok
        shifts = np.array([0.5, 2.0], dtype=np.longdouble)
        ((_, x),) = solve_resolvents(gen, shifts, wellmixed_p0.values)
        ((_, canonical),) = solve_resolvents(wellmixed_generator, shifts, wellmixed_p0.values)
        assert np.array_equal(x, canonical)

    def test_working_set_is_about_three_arrays(self):
        # the factors wait in the solution array and the residual check reuses its scratch
        # buffer, so one chunk peaks below four longdouble arrays of states x shifts
        _, gen = make_gen(100, 50)
        shifts = np.geomspace(0.1, 50.0, 20).astype(np.longdouble)
        p0 = np.zeros(gen.dim)
        p0[0] = 1.0
        gen.matrix_extended  # built once, before the measurement
        tracemalloc.start()
        try:
            ((_, x),) = solve_resolvents(gen, shifts, p0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert x.shape == (shifts.size, gen.dim)
        assert peak <= 4 * gen.dim * shifts.size * np.dtype(np.longdouble).itemsize

    def test_invalid_input_rejected(self, wellmixed_generator, wellmixed_p0):
        v = wellmixed_p0.values
        for shifts in ([1.0, 0.0], [-1.0], [[1.0]]):
            with pytest.raises(DomainError):
                solve_resolvents(wellmixed_generator, shifts, v)
        with pytest.raises(DomainError):
            solve_resolvents(wellmixed_generator, [1.0], v[:-1])
        with pytest.raises(ModelError):  # no lattice
            solve_resolvents(GeneratorMatrix(wellmixed_generator.csr), [1.0], v)
        off = wellmixed_generator.toarray()
        off[0, 0] -= 1.0
        off[0, -1] = 1.0  # a jump the lattice stencil does not have
        with pytest.raises(ModelError, match="stencil"):
            solve_resolvents(GeneratorMatrix.from_dense(off, wellmixed_generator.space), [1.0], v)


def zero_arrival_generator(theta):
    """N = 10, c = 3 with no arrivals: every (0, j) is absorbing unless theta > 0 drains the orbit."""
    cfg = ModelConfig(N=10, c=3, alpha=5.0, mu=0.4, theta=theta)
    return rs.build_generator(cfg, np.zeros(cfg.space.size))


class TestStationaryNullspace:
    def test_normalization(self, wellmixed_generator):
        pi = rs.stationary_nullspace(wellmixed_generator)
        assert abs(pi.total - 1.0) <= 1e-12
        assert pi.values.min() >= 0.0
        assert pi.t == np.inf

    def test_agrees_with_long_horizon(self, wellmixed_generator, wellmixed_p0):
        pi = rs.stationary_nullspace(wellmixed_generator)
        late = rs.uniformize(wellmixed_generator, wellmixed_p0, 200.0)
        assert np.abs(pi.values - late.values).max() <= 1e-6

    def test_residual_small(self, wellmixed_generator):
        pi = rs.stationary_nullspace(wellmixed_generator)
        assert np.abs(pi.values @ wellmixed_generator.toarray()).max() <= 1e-10

    def test_no_retrials_still_unique(self):
        # theta = 0 leaves transient states but a single recurrent class
        cfg = ModelConfig(N=10, c=5, alpha=5.0, mu=0.4, theta=0.0)
        gen = rs.build_generator(cfg, rs.rate_function(cfg))
        pi = rs.stationary_nullspace(gen)
        grid = pi.values.reshape(6, 6)
        assert grid[:, -1].sum() == pytest.approx(1.0)  # all mass at a full orbit

    @pytest.mark.parametrize("N,c", [(30, 1), (400, 1), (400, 200)])
    def test_matches_sparse_lu(self, N, c, splu_stationary):
        # at c = 1 a pin on the subtracting sweep's last pivot was off by 0.475 (N = 30)
        _, gen = make_gen(N, c)
        pi = rs.stationary_nullspace(gen)
        assert np.abs(pi.values - splu_stationary(gen)).max() <= 1e-14

    def test_reducible_chain_rejected(self):
        # without arrivals or retrials each of the 8 levels keeps its own (0, j)
        with pytest.raises(ModelError, match="8 closed classes"):
            rs.stationary_nullspace(zero_arrival_generator(0.0))

    def test_closed_class_without_the_pinned_state(self):
        # retrials drain the orbit into (0, 0), which nothing leaves; a pin at (c, 0) would miss it
        pi = rs.stationary_nullspace(zero_arrival_generator(1.0))
        assert pi.values[0] == 1.0 and np.count_nonzero(pi.values) == 1

    def test_second_closed_class_beside_a_segment_rejected(self):
        # (0, 0) made absorbing is the one closed segment, but (1, 1) and (2, 1)
        # made a closed pair never reach it: pi = delta(0, 0) would pass the residual
        cfg, gen = make_gen(6, 3)
        q, index = gen.toarray(), cfg.space.index
        q[index(0, 0)] = 0.0
        for a, b in [((1, 1), (2, 1)), ((2, 1), (1, 1))]:
            q[index(*a)] = 0.0
            q[index(*a), index(*b)], q[index(*a), index(*a)] = 0.4, -0.4
        with pytest.raises(ModelError, match="reducible"):
            rs.stationary_nullspace(GeneratorMatrix.from_dense(q, cfg.space))

    def test_negative_rate_rejected(self):
        # the retrial (0, 2) -> (1, 1) negated and its row rebalanced: the
        # sweep's pi had a least entry of -0.0036 and passed the residual check
        cfg, gen = make_gen(6, 3)
        q, index = gen.toarray(), cfg.space.index
        a, b = index(0, 2), index(1, 1)
        q[a, a] += 2 * q[a, b]
        q[a, b] = -q[a, b]
        with pytest.raises(ModelError, match="negative"):
            rs.stationary_nullspace(GeneratorMatrix.from_dense(q, cfg.space))

    def test_nonconservative_rejected(self, wellmixed_generator):
        q = wellmixed_generator.toarray()
        q[7, 7] -= 0.5
        with pytest.raises(ModelError, match="not conservative"):
            rs.stationary_nullspace(GeneratorMatrix.from_dense(q, wellmixed_generator.space))

    def test_zero_pivot_fails_the_residual(self):
        # an absorbing (1, 1) the closed-segment rule does not see, since (0, 1)
        # retries down: the sweep's pivot of (1, 1) is exactly zero
        cfg, gen = make_gen(6, 3)
        q = gen.toarray()
        q[cfg.space.index(1, 1)] = 0.0
        with pytest.raises(NumericalError, match="residual"):
            rs.stationary_nullspace(GeneratorMatrix.from_dense(q, cfg.space))

    def test_no_state_space_rejected(self, wellmixed_generator):
        with pytest.raises(ModelError, match="state space"):
            rs.stationary_nullspace(GeneratorMatrix(wellmixed_generator.csr))


class TestSweepNearZero:
    @pytest.mark.parametrize("s", [1e-12, 1e-15, 1e-18])
    def test_final_value_limit(self, s):
        # Calls the sweep without the residual check, which solve_resolvents
        # runs: x has size 1 / s there, so its longdouble residual cannot
        # reach RESIDUAL_TOL.  A subtracting pivot of (c, 0) gave 4.7e-8,
        # 1.6e-5 and 7.8e-3 at these shifts.
        cfg, gen = make_gen(200, 100)
        pi = rs.stationary_nullspace(gen).values
        p0 = rs.delta_vector(cfg.space, cfg.initial_state).values.astype(np.longdouble)
        x = laplace._sweep(rs.generator.level_rates(gen), np.array([s], dtype=np.longdouble), p0)
        assert np.abs(s * x[:, 0] - pi).max() <= 1e-11

    def test_mass_identity_along_grid(self):
        # near s = 0 the solution has size 1/s, so the residual and mass checks
        # there need the longdouble sweep; N = 100 is where double fails
        shifts = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
        for N, c in [(10, 5), (100, 50)]:
            cfg, gen = make_gen(N, c)
            p0 = rs.delta_vector(cfg.space, cfg.initial_state)
            pstar = solve(gen, shifts, p0.values).astype(float)
            for s, row in zip(shifts, pstar):
                assert abs(s * row.sum() - 1.0) <= 1e-10, (N, c, s)


class TestKillingRateRefused:
    def test_lowered_diagonal(self, wellmixed_generator, wellmixed_p0):
        # every exit rate raised by a killing rate of 0.5: uniformization honours
        # it (mass 0.368 at t = 2), but the sweep rebuilds the diagonal from the
        # off-diagonal rates and returned the conservative chain's law
        q = wellmixed_generator.toarray() - 0.5 * np.eye(wellmixed_generator.dim)
        gen = GeneratorMatrix.from_dense(q, wellmixed_generator.space)
        with pytest.raises(ModelError, match="not conservative"):
            rs.transient_via_ilt(gen, wellmixed_p0, [2.0])
        with pytest.raises(ModelError, match="not conservative"):
            rs.stationary_nullspace(gen)

