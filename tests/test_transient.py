import math
import time
from unittest import mock

import numpy as np
import pytest
from scipy.linalg import expm

import retrialsi as rs
from retrialsi import ModelConfig
from retrialsi.errors import DomainError
from retrialsi.generator import CsrArrays
from retrialsi.transient import (MAX_POISSON_MEAN, _poisson_weights, _transition_table, poisson_quantile,
                                 reachable_box)

STENCIL_MOVES = {(1, 0), (-1, 0), (1, -1), (0, 1)}


class TestUniformize:
    def test_zero_time_returns_p0(self, wellmixed_generator, wellmixed_p0):
        out = rs.uniformize(wellmixed_generator, wellmixed_p0, 0.0)
        np.testing.assert_array_equal(out.values, wellmixed_p0.values)

    def test_two_state_closed_form(self, two_state_toy):
        p0 = rs.ProbabilityVector([1.0, 0.0], 0.0)
        out = rs.uniformize(two_state_toy, p0, 1.0)
        expected = [(1 + math.exp(-2)) / 2, (1 - math.exp(-2)) / 2]
        np.testing.assert_allclose(out.values, expected, atol=1e-10)

    @pytest.mark.parametrize("t", [0.5, 2.0, 20.0])
    def test_matches_dense_matrix_exponential(self, wellmixed_generator, wellmixed_p0, t):
        out = rs.uniformize(wellmixed_generator, wellmixed_p0, t)
        dense = wellmixed_p0.values @ expm(wellmixed_generator.toarray() * t)
        assert np.abs(out.values - dense).max() <= 1e-9

    def test_conservation(self, wellmixed_generator, wellmixed_p0):
        for t in (0.1, 1.0, 10.0, 100.0):
            out = rs.uniformize(wellmixed_generator, wellmixed_p0, t)
            assert abs(out.total - 1.0) <= 1e-12
            assert out.values.min() >= 0.0

    def test_semigroup(self, wellmixed_generator, wellmixed_p0):
        eps = 1e-10
        direct = rs.uniformize(wellmixed_generator, wellmixed_p0, 3.0, eps)
        stepped = rs.uniformize(
            wellmixed_generator, rs.uniformize(wellmixed_generator, wellmixed_p0, 1.2, eps), 1.8, eps)
        assert np.abs(direct.values - stepped.values).max() <= 2 * eps + 1e-12

    def test_domain_checks(self, wellmixed_generator, wellmixed_p0):
        with pytest.raises(DomainError):
            rs.uniformize(wellmixed_generator, wellmixed_p0, -1.0)
        for eps in (0.0, 1e-5):
            with pytest.raises(DomainError):
                rs.uniformize(wellmixed_generator, wellmixed_p0, 1.0, eps)

    @pytest.mark.parametrize("case", ["two_state_toy", "absorbing"])
    def test_step_matches_scipy(self, case, two_state_toy, step_matches_scipy):
        if case == "two_state_toy":  # no state space
            gen = two_state_toy
        else:  # no arrivals and theta = 0: every (0, j) is absorbing, and Q stores no diagonal there
            cfg = ModelConfig(N=10, c=3, alpha=5.0, mu=0.4, theta=0.0)
            gen = rs.build_generator(cfg, np.zeros(cfg.space.size))
            assert np.count_nonzero(gen.exit_rates() == 0) == cfg.space.width
        v = np.random.default_rng(3).standard_normal(gen.dim)
        v[::3] = -0.0
        step_matches_scipy(gen, v)

    def test_poisson_mean_bound(self, wellmixed_generator, wellmixed_p0):
        # rejected before the Poisson scan, which would allocate and loop over ~Lambda * t terms
        lam = float(wellmixed_generator.exit_rates().max())
        for t in (2 * MAX_POISSON_MEAN / lam, 1e300):
            with pytest.raises(DomainError, match="MAX_POISSON_MEAN"):
                rs.uniformize(wellmixed_generator, wellmixed_p0, t)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -1.0])
    def test_time_follows_the_grid_rule(self, wellmixed_generator, wellmixed_p0, t):
        # NaN and inf once reached the Poisson-mean bound and were refused as exceeding it
        with pytest.raises(DomainError, match="times must be finite and nonnegative"):
            rs.uniformize(wellmixed_generator, wellmixed_p0, t)

    def test_grid_poisson_mean_bound(self, wellmixed_generator, wellmixed_p0):
        # each of the 20 intervals passes uniformize's own bound, the grid's 4.75e6 steps do not
        lam = float(wellmixed_generator.exit_rates().max())
        grid = 1.0 + 2e4 * np.arange(20)
        assert lam * np.diff(grid).max() <= MAX_POISSON_MEAN < lam * grid[-1]
        start = time.perf_counter()
        with pytest.raises(DomainError, match=r"Lambda \* t_max = 12\.5 \* 380001\.0 exceeds MAX_POISSON_MEAN = 1e\+06"):
            rs.transient_grid(wellmixed_generator, wellmixed_p0, grid)
        assert time.perf_counter() - start < 1.0

    def test_timestamp_accumulates(self, wellmixed_generator, wellmixed_p0):
        mid = rs.uniformize(wellmixed_generator, wellmixed_p0, 1.5)
        out = rs.uniformize(wellmixed_generator, mid, 2.5)
        assert out.t == pytest.approx(4.0)


class TestReachableBox:
    @pytest.mark.parametrize("tail", [1e-13, 1e-9])
    @pytest.mark.parametrize("q", [0.0, 25.0, 745.0, 1e4, 1e6])
    def test_poisson_quantile_matches_mpmath(self, q, tail):
        # e^-q underflows above q = 745, where a cdf summed from k = 0 would never reach 1 - tail
        mpmath = pytest.importorskip("mpmath")

        def above(k):  # P(Poisson(q) > k) = P(Gamma(k + 1, 1) < q)
            with mpmath.workdps(30):
                return mpmath.gammainc(k + 1, 0, q, regularized=True)

        m = poisson_quantile(q, tail)
        assert above(m) <= tail
        assert m == 0 or above(m - 1) > tail

    def test_poisson_quantile_without_a_tail(self):
        assert poisson_quantile(0.0, 0.0) == 0
        assert poisson_quantile(1.0, 0.0) == math.inf

    @pytest.mark.parametrize("initial,t,shape", [
        ((0, 0), 0.0, (1, 0)),     # m = 0, so M = 0: c' is floored at 1
        ((2, 3), 0.0, (5, 3)),     # M = 5 < c: c' = 5, and the start's orbit levels
        ((0, 0), 0.05, (10, 0)),   # m = 10 at 1e-13 (alpha t = 0.25): c' = 10 < c
        ((0, 0), 20.0, (40, 45)),  # m = 182 >= N: the box is the whole lattice
    ])
    def test_box_shape(self, initial, t, shape):
        # shape is (c', j_max); a box without orbit levels gets one spare level, as a lattice needs N > c
        cfg = ModelConfig(N=85, c=40, alpha=5.0, mu=0.4, theta=2.0, initial_state=initial)
        box = reachable_box(cfg, rs.rate_function(cfg), t, 1e-13)
        if shape == (cfg.c, cfg.N - cfg.c):
            assert box is None
            return
        c, j_max = shape
        box_cfg, arrival = box
        assert (box_cfg.c, box_cfg.N - box_cfg.c) == (c, max(j_max, 1))
        assert box_cfg.initial_state == initial
        rates = arrival.reshape(c + 1, box_cfg.space.width)
        full = rs.rate_function(cfg).reshape(cfg.c + 1, cfg.space.width)
        assert np.array_equal(rates[:c], full[:c, :box_cfg.space.width])
        assert not rates[c].any()  # c' < c: every arrival out of row c' leaves the box

    def test_blocks_the_orbit_above_the_box(self):
        cfg = ModelConfig(N=200, c=3, alpha=5.0, mu=0.4, theta=2.0)
        box_cfg, arrival = reachable_box(cfg, rs.rate_function(cfg), 1.0, 1e-13)
        j_max = box_cfg.N - box_cfg.c
        assert box_cfg.c == cfg.c and 0 < j_max < cfg.N - cfg.c
        rates = arrival.reshape(cfg.c + 1, j_max + 1)
        full = rs.rate_function(cfg).reshape(cfg.c + 1, cfg.space.width)
        assert np.array_equal(rates[:, :j_max], full[:, :j_max])
        assert np.array_equal(rates[:cfg.c, j_max], full[:cfg.c, j_max])
        assert rates[cfg.c, j_max] == 0.0  # the arrival into level j_max + 1


class TestTransientGrid:
    def test_time_zero_grid(self, wellmixed_generator, wellmixed_p0):
        sol = rs.transient_grid(wellmixed_generator, wellmixed_p0, [0.0])
        np.testing.assert_array_equal(sol.vectors[0].values, wellmixed_p0.values)

    def test_stepwise_equals_direct(self, wellmixed_generator, wellmixed_p0):
        eps = 1e-10
        sol = rs.transient_grid(wellmixed_generator, wellmixed_p0, [0.5, 2.0, 5.0], eps)
        direct = rs.uniformize(wellmixed_generator, wellmixed_p0, 5.0, eps)
        assert np.abs(sol.vectors[-1].values - direct.values).max() <= 2 * eps + 1e-12

    def test_grid_validation(self, wellmixed_generator, wellmixed_p0):
        with pytest.raises(DomainError):
            rs.transient_grid(wellmixed_generator, wellmixed_p0, [])
        with pytest.raises(DomainError):
            rs.transient_grid(wellmixed_generator, wellmixed_p0, [2.0, 1.0])
        with pytest.raises(DomainError):
            rs.transient_grid(wellmixed_generator, wellmixed_p0, [-1.0, 1.0])

    @pytest.mark.parametrize("n", [10, 66, 100])
    def test_p0_of_another_dimension_rejected(self, wellmixed_generator, n):
        # the 36-state chain: 10 entries died with IndexError, 66 and 100 with a broadcast ValueError
        p0 = rs.ProbabilityVector(np.full(n, 1.0 / n), 0.0)
        with pytest.raises(DomainError, match="dimension is 36"):
            rs.uniformize(wellmixed_generator, p0, 1.0)
        with pytest.raises(DomainError, match="dimension is 36"):
            rs.transient_grid(wellmixed_generator, p0, [0.5, 1.0])

    def test_metadata_and_lookup(self, wellmixed_generator, wellmixed_p0):
        sol = rs.transient_grid(wellmixed_generator, wellmixed_p0, [1.0, 2.0])
        assert sol.metadata["method"] == "uniformization"
        assert sol.at(2.0).t == pytest.approx(2.0)
        with pytest.raises(DomainError):
            sol.at(3.0)

    def test_lookup_matches_times_exactly(self, wellmixed_generator, wellmixed_p0):
        # two times 1e-6 apart in relative terms: np.isclose at rtol 1e-5 matched both
        sol = rs.transient_grid(wellmixed_generator, wellmixed_p0, [1000.0, 1000.001])
        assert sol.at(1000.0) is sol.vectors[0]
        assert sol.at(1000.001) is sol.vectors[1]
        with pytest.raises(DomainError):
            sol.at(1000.0005)

    def test_builds_diagonals_once(self, wellmixed_generator, wellmixed_p0):
        # U is set up once per grid, not once per interval
        with mock.patch.object(CsrArrays, "diagonals", autospec=True,
                               side_effect=CsrArrays.diagonals) as diagonals:
            rs.transient_grid(wellmixed_generator, wellmixed_p0, np.arange(11) * 0.5)
        assert diagonals.call_count == 1

    def test_metadata_counts_products(self, wellmixed_generator, wellmixed_p0):
        eps, grid = 1e-10, [0.0, 0.3, 1.0, 4.0]
        sol = rs.transient_grid(wellmixed_generator, wellmixed_p0, grid, eps)
        lam = float(wellmixed_generator.exit_rates().max())
        assert sol.metadata["rate"] == lam
        assert sol.metadata["steps"] == sum(_poisson_weights(lam * dt, eps).size - 1
                                            for dt in np.diff(grid, prepend=0.0))


class TestGillespie:
    def test_first_jump_from_empty_system(self, wellmixed_config):
        rate = rs.rate_function(wellmixed_config)
        for seed in range(20):
            traj = rs.simulate_gillespie(wellmixed_config, rate, horizon=1.0, seed=seed)
            assert tuple(traj.states[0]) == (0, 0)
            if len(traj) > 1:
                assert tuple(traj.states[1]) == (1, 0)

    def test_seed_determinism(self, wellmixed_config):
        rate = rs.rate_function(wellmixed_config)
        a = rs.simulate_gillespie(wellmixed_config, rate, horizon=5.0, seed=77)
        b = rs.simulate_gillespie(wellmixed_config, rate, horizon=5.0, seed=77)
        c = rs.simulate_gillespie(wellmixed_config, rate, horizon=5.0, seed=78)
        assert np.array_equal(a.times, b.times) and np.array_equal(a.states, b.states)
        assert not np.array_equal(a.times, c.times)

    def test_trajectory_stays_on_stencil(self, wellmixed_config):
        rate = rs.rate_function(wellmixed_config)
        traj = rs.simulate_gillespie(wellmixed_config, rate, horizon=50.0, seed=3)
        assert len(traj) > 50
        assert np.all(np.diff(traj.times) > 0)
        assert traj.times.max() <= traj.horizon
        moves = {tuple(d) for d in np.diff(traj.states, axis=0)}
        assert moves <= STENCIL_MOVES
        for (i, _), move in zip(traj.states[:-1], np.diff(traj.states, axis=0)):
            if tuple(move) == (0, 1):
                assert i == wellmixed_config.c  # orbit arrivals only when units saturated

    def test_states_with_three_moves_take_each(self, wellmixed_config):
        # 0 < i < c, j > 0 has an arrival, a recovery and a retrial; the last
        # slot of the transition table must stay reachable
        c = wellmixed_config.c
        traj = rs.simulate_gillespie(wellmixed_config, rs.rate_function(wellmixed_config), 50.0, 3)
        (i, j), moves = traj.states[:-1].T, np.diff(traj.states, axis=0)
        interior = (i > 0) & (i < c) & (j > 0)
        assert {tuple(m) for m in moves[interior]} == {(1, 0), (-1, 0), (1, -1)}

    def test_holding_time_at_origin(self, wellmixed_config):
        # exit rate at (0,0) is alpha = 5, so holding times average 0.2
        rate = rs.rate_function(wellmixed_config)
        first = []
        for seed in range(30000):
            traj = rs.simulate_gillespie(wellmixed_config, rate, horizon=2.0, seed=seed)
            if len(traj) > 1:
                first.append(traj.times[1])
        mean = np.mean(first)
        se = np.std(first, ddof=1) / math.sqrt(len(first))
        assert abs(mean - 0.2) <= 3 * se

    def test_bad_horizon(self, wellmixed_config):
        with pytest.raises(DomainError):
            rs.simulate_gillespie(wellmixed_config, rs.rate_function(wellmixed_config), 0.0, 1)

    @pytest.mark.parametrize("horizon", [math.nan, math.inf])
    def test_non_finite_horizon(self, wellmixed_config, horizon):
        # t > horizon never holds, and with mu > 0 no state is absorbing: the path would never end
        with pytest.raises(DomainError, match="finite"):
            rs.simulate_gillespie(wellmixed_config, rs.rate_function(wellmixed_config), horizon, 1)


def lockstep_reference(cfg, arrival, times, replicas, seed):
    """Reference lockstep loop that rescans every replica's clock in each round.

    It draws the same random numbers as ``monte_carlo_estimate`` and returns
    its (vectors, standard errors), so the two must agree bit for bit.
    """
    grid = np.asarray(times, dtype=float)
    space = cfg.space
    exit_rate, cum, targets = _transition_table(cfg, arrival)
    rng = np.random.default_rng(seed)

    state = np.full(replicas, space.index(*cfg.initial_state), dtype=np.int64)
    clock = np.zeros(replicas)
    vectors = []
    errors = []
    for t_q in grid:
        while True:
            live = clock < t_q
            if not live.any():
                break
            idx = np.nonzero(live)[0]
            lam = exit_rate[state[idx]]
            stuck = lam == 0.0
            if stuck.any():
                clock[idx[stuck]] = t_q
                idx = idx[~stuck]
                if idx.size == 0:
                    continue
                lam = lam[~stuck]
            dt = rng.exponential(1.0, size=idx.size) / lam
            t_new = clock[idx] + dt
            past = t_new >= t_q
            clock[idx[past]] = t_q
            movers = idx[~past]
            if movers.size:
                clock[movers] = t_new[~past]
                u = rng.uniform(0.0, exit_rate[state[movers]])
                rows = cum[state[movers]]
                slots = (rows < u[:, None]).sum(axis=1)
                state[movers] = targets[state[movers], np.minimum(slots, 3)]
        counts = np.bincount(state, minlength=space.size).astype(float)
        phat = counts / replicas
        vectors.append(phat)
        errors.append(np.sqrt(phat * (1.0 - phat) / replicas))
    return vectors, errors


def _reference_models():
    """(config, arrival rates) by name, with an absorbing chain for the stuck branch."""
    homogeneous = {
        "wellmixed": ModelConfig(N=10, c=5, alpha=5.0, mu=0.4, theta=2.0),
        "theta0_c1": ModelConfig(N=10, c=1, alpha=5.0, mu=0.4, theta=0.0),
        "c_N-1": ModelConfig(N=10, c=9, alpha=5.0, mu=0.4, theta=1.3),
    }
    cases = {name: (cfg, rs.rate_function(cfg)) for name, cfg in homogeneous.items()}
    het = ModelConfig(N=10, c=5, alpha=5.0, mu=0.4, theta=2.0, mode="heterogeneous",
                      tagged_node=2)
    cases["ring_with_hub"] = (het, rs.rate_function(het, rs.ring_with_hub(10, 2)))
    for theta in (0.0, 1.0):  # no arrivals: every path ends in an absorbing state
        cfg = ModelConfig(N=10, c=3, alpha=5.0, mu=0.4, theta=theta, initial_state=(2, 4))
        cases[f"absorbing_theta{theta:g}"] = (cfg, np.zeros(cfg.space.size))
    return cases


REFERENCE_MODELS = _reference_models()


class TestMonteCarlo:
    def test_time_zero_is_point_mass(self, wellmixed_config):
        rate = rs.rate_function(wellmixed_config)
        mc = rs.monte_carlo_estimate(wellmixed_config, rate, [0.0, 1.0], 1000, seed=1)
        first = mc.vectors[0]
        assert first.values[wellmixed_config.space.index(0, 0)] == 1.0
        assert first.total == 1.0

    def test_counts_are_exactly_normalized(self, wellmixed_config):
        rate = rs.rate_function(wellmixed_config)
        mc = rs.monte_carlo_estimate(wellmixed_config, rate, [2.0], 2000, seed=9)
        assert mc.vectors[0].total == pytest.approx(1.0, abs=1e-15)

    def test_seed_determinism(self, wellmixed_config):
        rate = rs.rate_function(wellmixed_config)
        a = rs.monte_carlo_estimate(wellmixed_config, rate, [1.0, 3.0], 2000, seed=4)
        b = rs.monte_carlo_estimate(wellmixed_config, rate, [1.0, 3.0], 2000, seed=4)
        for va, vb in zip(a.vectors, b.vectors):
            np.testing.assert_array_equal(va.values, vb.values)

    def test_agrees_with_uniformization(self, wellmixed_config, wellmixed_generator, wellmixed_p0):
        rate = rs.rate_function(wellmixed_config)
        replicas = 20000
        mc = rs.monte_carlo_estimate(wellmixed_config, rate, [2.0], replicas, seed=20260810)
        exact = rs.uniformize(wellmixed_generator, wellmixed_p0, 2.0)
        for moment in (rs.moment_recovering, rs.moment_orbit):
            var = (moment(exact, 2) - moment(exact) ** 2)
            se = math.sqrt(var / replicas)
            assert abs(moment(mc.vectors[0]) - moment(exact)) <= 3 * se

    def test_replica_floor(self, wellmixed_config):
        with pytest.raises(DomainError):
            rs.monte_carlo_estimate(wellmixed_config, rs.rate_function(wellmixed_config), [1.0], 999, 0)

    def test_standard_errors_shape(self, wellmixed_config):
        rate = rs.rate_function(wellmixed_config)
        mc = rs.monte_carlo_estimate(wellmixed_config, rate, [1.0, 2.0], 1000, seed=2)
        errors = rs.standard_errors(mc)
        assert len(errors) == 2
        assert errors[0].shape == (wellmixed_config.space.size,)
        assert mc.metadata["rng"] == "pcg64"
        assert mc.metadata["method"] == "monte_carlo"

    def test_standard_errors_need_a_sampled_solution(self, wellmixed_generator, wellmixed_p0):
        exact = rs.transient_grid(wellmixed_generator, wellmixed_p0, [1.0])
        with pytest.raises(DomainError, match="replicas"):
            rs.standard_errors(exact)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("name", sorted(REFERENCE_MODELS))
    def test_bit_identical_to_lockstep_reference(self, name, seed):
        cfg, rate = REFERENCE_MODELS[name]
        times = [0.0, 0.5, 1.0, 3.0, 7.0]
        mc = rs.monte_carlo_estimate(cfg, rate, times, 3000, seed)
        vectors, errors = lockstep_reference(cfg, rate, times, 3000, seed)
        for got, want in zip(mc.vectors, vectors):
            np.testing.assert_array_equal(got.values, want)
        for got, want in zip(rs.standard_errors(mc), errors):
            np.testing.assert_array_equal(got, want)

    def test_tied_draws_pick_the_reference_slot(self, monkeypatch):
        # With mu = theta = 1 and arrivals at rate i + j, a row (i < c, i, j >= 1)
        # is [i + j, i, j]: a draw of half the exit rate ties with the first
        # cumulative rate, and three quarters ties with the second when i == j.
        # A tie must not count as "below the draw", as in the reference.
        real_rng = np.random.default_rng

        class TyingGenerator:
            def __init__(self, seed):
                self._rng = real_rng(seed)

            def exponential(self, scale, size):
                return self._rng.exponential(scale, size=size)

            def standard_exponential(self, size):
                return self._rng.standard_exponential(size)

            def uniform(self, low, high):
                return low + high * (0.25 * self._rng.integers(1, 4, size=np.shape(high)))

            def random(self, size):
                return 0.25 * self._rng.integers(1, 4, size=size)

        monkeypatch.setattr(np.random, "default_rng", TyingGenerator)
        cfg = ModelConfig(N=10, c=5, alpha=1.0, mu=1.0, theta=1.0, initial_state=(2, 2))
        i, j = np.divmod(np.arange(cfg.space.size), cfg.space.width)
        rate = (i + j).astype(float)
        times = [0.5, 1.0, 3.0]
        mc = rs.monte_carlo_estimate(cfg, rate, times, 2000, seed=3)
        vectors, _ = lockstep_reference(cfg, rate, times, 2000, seed=3)
        for got, want in zip(mc.vectors, vectors):
            np.testing.assert_array_equal(got.values, want)

    def test_work_counts(self, wellmixed_config):
        rate = rs.rate_function(wellmixed_config)
        idle = rs.monte_carlo_estimate(wellmixed_config, rate, [0.0], 1000, seed=1)
        assert (idle.metadata["events"], idle.metadata["rounds"]) == (0, 0)
        grid = [0.0, 0.5, 1.0, 3.0, 7.0]
        runs = [rs.monte_carlo_estimate(wellmixed_config, rate, grid, 2000, seed=s).metadata
                for s in (5, 5, 6)]
        assert runs[0]["events"] > 0 and runs[0]["rounds"] > 0
        assert (runs[0]["events"], runs[0]["rounds"]) == (runs[1]["events"], runs[1]["rounds"])
        assert runs[0]["events"] != runs[2]["events"]


class TestContainers:
    def test_trajectory_validation(self):
        with pytest.raises(DomainError):
            rs.Trajectory(np.array([0.0, 0.0]), np.array([[0, 0], [1, 0]]), 1.0, 0)

    def test_transient_solution_validation(self, wellmixed_config, wellmixed_p0):
        with pytest.raises(DomainError):
            rs.TransientSolution(np.array([1.0, 1.0]), [wellmixed_p0, wellmixed_p0])

    def test_probability_vector_guards(self, wellmixed_config):
        with pytest.raises(DomainError):
            rs.ProbabilityVector(np.zeros((2, 2)), 0.0)
        with pytest.raises(DomainError):
            rs.ProbabilityVector(np.zeros(7), 0.0, wellmixed_config.space)
        with pytest.raises(DomainError, match="StateSpace"):  # a route label where the lattice goes
            rs.ProbabilityVector(np.zeros(36), 0.0, "ilt")

    def test_probability_vector_leaves_caller_array_writable(self, wellmixed_config):
        values = np.full(36, 1.0 / 36)
        vec = rs.ProbabilityVector(values, 0.0, wellmixed_config.space)
        assert values.flags.writeable and not vec.values.flags.writeable
        values[0] = 1.0  # the vector holds its own copy
        assert vec.values[0] == pytest.approx(1.0 / 36)

    def test_transient_solution_leaves_caller_array_writable(self, wellmixed_p0):
        times = np.array([0.5, 1.0])
        sol = rs.TransientSolution(times, [wellmixed_p0, wellmixed_p0])
        assert times.flags.writeable and not sol.times.flags.writeable
        times[0] = 0.25
        assert sol.times[0] == 0.5

    def test_trajectory_leaves_caller_arrays_writable(self):
        times, states = np.array([0.0, 0.5]), np.array([[0, 0], [1, 0]])
        path = rs.Trajectory(times, states, 1.0, 0)
        assert times.flags.writeable and states.flags.writeable
        assert not path.times.flags.writeable and not path.states.flags.writeable
        states[1, 0] = 0
        assert path.states[1, 0] == 1

    def test_clipped_restores_distribution(self, wellmixed_config):
        values = np.full(36, 1.0 / 36)
        values[0] = -1e-5
        values[1] += 1e-5 + 1.0 / 36
        vec = rs.ProbabilityVector(values / values.sum(), 1.0, wellmixed_config.space)
        clean = vec.clipped()
        assert clean.values.min() >= 0.0
        assert clean.total == pytest.approx(1.0)
