
import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

import retrialsi as rs
from retrialsi import GeneratorMatrix, ModelConfig, StateSpace
from retrialsi.errors import ModelError

ALL_CONFIGS = [
    (10, 5), (20, 5), (20, 10), (20, 15),
    (40, 5), (40, 10), (40, 15), (40, 20),
]


def het_config(N, c):
    return ModelConfig(N=N, c=c, alpha=5.0, mu=0.4, theta=2.0,
                       mode="heterogeneous", tagged_node=2)


class TestBuildGenerator:
    def test_entries_match_transition_rules(self, wellmixed_generator, wellmixed_config):
        space = wellmixed_config.space
        q = wellmixed_generator.matrix
        assert q[space.index(0, 0), space.index(1, 0)] == 5.0       # arrival at full rate
        assert q[space.index(3, 2), space.index(2, 2)] == pytest.approx(1.2)   # 3 mu
        assert q[space.index(3, 2), space.index(4, 1)] == pytest.approx(4.0)   # 2 theta

    def test_saturated_state_row(self, wellmixed_generator, wellmixed_config):
        # (c, N - c): only the recovery transition leaves it
        space = wellmixed_config.space
        row = wellmixed_generator.matrix[space.index(5, 5)].toarray().ravel()
        assert row[space.index(4, 5)] == pytest.approx(2.0)  # c mu
        assert row[space.index(5, 5)] == pytest.approx(-2.0)
        others = [v for k, v in enumerate(row) if k not in (space.index(4, 5), space.index(5, 5))]
        assert not any(others)

    @pytest.mark.parametrize("N,c", ALL_CONFIGS)
    def test_exit_rate_at_full_state(self, N, c):
        cfg = ModelConfig(N=N, c=c, alpha=5.0, mu=0.4, theta=2.0)
        gen = rs.build_generator(cfg, rs.rate_function(cfg))
        assert gen.exit_rates()[cfg.space.index(c, N - c)] == pytest.approx(c * cfg.mu)

    def test_negative_rate_rejected(self, wellmixed_config):
        with pytest.raises(ModelError, match="is not >= 0"):
            rs.build_generator(wellmixed_config, np.full(wellmixed_config.space.size, -1.0))

    def test_nan_rate_rejected(self, wellmixed_config):
        # a NaN rate made the Monte Carlo route treat its state as absorbing, with no error
        arrival = rs.rate_function(wellmixed_config)
        arrival[3] = np.nan
        with pytest.raises(ModelError, match=r"nan at state \(0, 3\) is not >= 0"):
            rs.monte_carlo_estimate(wellmixed_config, arrival, [1.0], 1000, seed=0)

    def test_wrong_shape_rejected(self, wellmixed_config):
        for shape in [(35,), (37,), (6, 6), ()]:  # 36 states
            with pytest.raises(ModelError, match="shape"):
                rs.build_generator(wellmixed_config, np.ones(shape))

    def test_dimension_matches_space(self, wellmixed_generator):
        assert wellmixed_generator.dim == 36
        assert wellmixed_generator.space == StateSpace(10, 5)


class TestValidateGenerator:
    @pytest.mark.parametrize("N,c", ALL_CONFIGS)
    @pytest.mark.parametrize("mode", ["homogeneous", "heterogeneous"])
    def test_built_generators_pass(self, N, c, mode):
        if mode == "homogeneous":
            cfg = ModelConfig(N=N, c=c, alpha=5.0, mu=0.4, theta=2.0)
            gen = rs.build_generator(cfg, rs.rate_function(cfg))
        else:
            cfg = het_config(N, c)
            gen = rs.build_generator(cfg, rs.rate_function(cfg, rs.ring_with_hub(N)))
        report = rs.validate_generator(gen)
        assert report.ok, report.summary()
        assert report.max_abs_row_sum <= 1e-12
        assert report.stencil_checked

    @pytest.mark.parametrize("alpha", [1e5, 1e7])
    def test_high_rate_chain_passes_and_solves(self, alpha):
        # an absolute row-sum bound of 1e-12 failed 287 and 336 rows here
        # (max |row sum| 5.8e-12 and 7.5e-10); the bound scales with the exit rate
        cfg = ModelConfig(N=40, c=20, alpha=alpha, mu=0.4, theta=2.0)
        gen = rs.build_generator(cfg, rs.rate_function(cfg))
        report = rs.validate_generator(gen)
        assert report.ok, report.summary()
        p0 = rs.delta_vector(cfg.space, cfg.initial_state)
        rs.transient_via_ilt(gen, p0, [0.5, 2.0])
        rs.stationary_nullspace(gen)

    def test_at_most_four_off_diagonal_per_row(self, wellmixed_generator):
        q = wellmixed_generator.matrix
        for row in range(q.shape[0]):
            entries = q[row].toarray().ravel()
            off = np.count_nonzero(entries) - (entries[row] != 0)
            assert off <= 4

    def test_row_sum_violation_reported(self):
        bad = GeneratorMatrix.from_dense([[-0.9, 1.0], [1.0, -1.0]])
        report = rs.validate_generator(bad)
        assert not report.ok
        assert report.row_sum_violations == (0,)
        assert report.max_abs_row_sum == pytest.approx(0.1)
        assert "FAIL" in report.summary()

    def test_summary_names_the_first_offenders_and_the_count(self):
        # every diagonal entry lowered by 0.5: the summary once named all 441 rows in 2,149 characters
        cfg = ModelConfig(N=40, c=20, alpha=5.0, mu=0.4, theta=2.0)
        q = rs.build_generator(cfg, rs.rate_function(cfg)).csr
        report = rs.validate_generator(
            GeneratorMatrix((q.data - 0.5 * (q.rows() == q.indices), q.indices, q.indptr), cfg.space))
        assert len(report.row_sum_violations) == 441
        summary = report.summary()
        assert len(summary) < 300 and "441" in summary and "and 436 more" in summary

    def test_negative_off_diagonal_reported(self):
        bad = GeneratorMatrix.from_dense([[1.0, -1.0], [1.0, -1.0]])
        report = rs.validate_generator(bad)
        assert (0, 1) in report.negative_off_diagonal

    def test_off_stencil_transition_reported(self, wellmixed_generator, wellmixed_config):
        space = wellmixed_config.space
        dense = wellmixed_generator.toarray()
        src, dst = space.index(0, 0), space.index(2, 0)  # double jump
        dense[src, dst] += 0.5
        dense[src, src] -= 0.5
        report = rs.validate_generator(GeneratorMatrix.from_dense(dense, space))
        assert not report.ok
        assert (src, dst) in report.off_stencil

    def test_stencil_skipped_without_space(self, two_state_toy):
        report = rs.validate_generator(two_state_toy)
        assert report.ok
        assert not report.stencil_checked


class TestDiagonals:
    def test_lattice_offsets_and_spans(self):
        # the orbit move (c, j) -> (c, j + 1) reaches only the last row's N - c targets
        cfg = ModelConfig(N=40, c=20, alpha=5.0, mu=0.4, theta=2.0)
        diagonals = rs.build_generator(cfg, rs.rate_function(cfg)).csr.diagonals()
        width, size = cfg.space.width, cfg.space.size
        assert [(d, lo, w.size) for d, lo, w in diagonals] == [
            (width, width, size - width), (width - 1, width, size - width - 1),
            (1, 20 * width + 1, width - 1), (0, 0, size), (-width, 0, size - width)]

    def test_hub(self, product_matches_scipy):
        # every state jumps to state 0: one offset per state, and state 0 meets them all
        dense = np.zeros((30, 30))
        dense[1:, 0] = np.linspace(0.5, 3.0, 29)
        dense[np.diag_indices(30)] = -dense.sum(axis=1)
        gen = GeneratorMatrix.from_dense(dense)
        assert [d for d, _, _ in gen.csr.diagonals()] == list(range(0, -30, -1))
        product_matches_scipy(gen.csr, 1)

    def test_off_stencil_entry(self, wellmixed_generator, wellmixed_config, product_matches_scipy):
        space = wellmixed_config.space
        dense = wellmixed_generator.toarray()
        src, dst = space.index(0, 3), space.index(4, 1)
        dense[src, dst] += 0.5
        dense[src, src] -= 0.5
        gen = GeneratorMatrix.from_dense(dense, space)
        assert len(gen.csr.diagonals()) == 6
        for arrays in (gen.csr, gen.matrix_extended):
            product_matches_scipy(arrays, 2)

    def test_two_state_toy(self, two_state_toy, product_matches_scipy):
        assert [(d, lo, w.tolist()) for d, lo, w in two_state_toy.csr.diagonals()] == [
            (1, 1, [1.0]), (0, 0, [-1.0, -1.0]), (-1, 0, [1.0])]
        product_matches_scipy(two_state_toy.csr, 3)

    def test_absorbing_chain_without_diagonal(self, product_matches_scipy):
        # no arrivals and theta = 0: every (0, j) is absorbing, and Q stores no diagonal there
        cfg = ModelConfig(N=10, c=3, alpha=5.0, mu=0.4, theta=0.0)
        gen = rs.build_generator(cfg, np.zeros(cfg.space.size))
        d, lo, weight = next(diagonal for diagonal in gen.csr.diagonals() if diagonal[0] == 0)
        assert lo == cfg.space.width and np.all(weight < 0)
        for arrays in (gen.csr, gen.matrix_extended):
            product_matches_scipy(arrays, 4)

    def test_empty(self):
        assert GeneratorMatrix.from_dense(np.zeros((3, 3))).csr.diagonals() == []


class TestIrreducibility:
    @pytest.mark.parametrize("N,c", [(10, 5), (20, 10)])
    def test_strongly_connected_with_retrials(self, N, c):
        cfg = ModelConfig(N=N, c=c, alpha=5.0, mu=0.4, theta=2.0)
        gen = rs.build_generator(cfg, rs.rate_function(cfg))
        n, _ = connected_components(gen.matrix, directed=True, connection="strong")
        assert n == 1

    def test_no_retrials_gives_transient_classes(self):
        cfg = ModelConfig(N=10, c=5, alpha=5.0, mu=0.4, theta=0.0)
        gen = rs.build_generator(cfg, rs.rate_function(cfg))
        n, _ = connected_components(gen.matrix, directed=True, connection="strong")
        assert n > 1  # orbit can only fill; early states are not revisited


class TestDumpAndGuards:
    def test_dense_guard(self):
        cfg = ModelConfig(N=200, c=100, alpha=5.0, mu=0.4, theta=2.0)
        gen = rs.build_generator(cfg, rs.rate_function(cfg))
        assert gen.dim == 101 * 101
        with pytest.raises(ModelError):
            gen.toarray()

    def test_space_size_mismatch_rejected(self):
        with pytest.raises(ModelError):
            GeneratorMatrix.from_dense(np.zeros((3, 3)), StateSpace(10, 5))

    @pytest.mark.parametrize("arrays", [
        pytest.param(csr_matrix(np.eye(3)), id="scipy_matrix"),
        pytest.param(([1.0], [3], [0, 1, 1, 1]), id="column_out_of_range"),
        pytest.param(([1.0], [0.0], [0, 1, 1, 1]), id="float_indices"),
        pytest.param(([1.0, 1.0], [0, 1], [0, 2, 1, 2]), id="row_pointers_decrease"),
        pytest.param(([1.0], [0], [1, 1]), id="row_pointers_start_past_0"),
        pytest.param(([1.0, 1.0], [0], [0, 1, 2]), id="data_longer_than_indices"),
    ])
    def test_malformed_csr_rejected(self, arrays):
        with pytest.raises(ModelError):
            GeneratorMatrix(arrays)

    def test_csr_arrays_copied_and_frozen(self, tiny_generator):
        data = tiny_generator.csr.data.copy()
        gen = GeneratorMatrix((data, tiny_generator.csr.indices, tiny_generator.csr.indptr))
        data[0] = 7.0
        assert np.array_equal(gen.csr.data, tiny_generator.csr.data)
        assert not any(a.flags.writeable for a in gen.csr)
        assert np.array_equal(gen.toarray(), tiny_generator.toarray())
