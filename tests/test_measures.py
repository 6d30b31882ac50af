import numpy as np
import pytest

import retrialsi as rs
from retrialsi import ModelConfig, ProbabilityVector
from retrialsi.errors import DomainError


def vector(values, space, t=0.0):
    return ProbabilityVector(np.asarray(values, dtype=float), t, space)


class TestMarginals:
    def test_point_mass(self, wellmixed_config, wellmixed_p0):
        p = rs.marginal_recovering(wellmixed_p0)
        q = rs.marginal_orbit(wellmixed_p0)
        assert p.tolist() == [1, 0, 0, 0, 0, 0]
        assert q.tolist() == [1, 0, 0, 0, 0, 0]

    def test_uniform_vector(self, wellmixed_config):
        space = wellmixed_config.space
        uniform = vector(np.full(space.size, 1.0 / space.size), space)
        np.testing.assert_allclose(rs.marginal_recovering(uniform), np.full(6, 1 / 6))
        np.testing.assert_allclose(rs.marginal_orbit(uniform), np.full(6, 1 / 6))

    def test_sums_agree_for_arbitrary_vectors(self, wellmixed_config):
        rng = np.random.default_rng(11)
        space = wellmixed_config.space
        arbitrary = vector(rng.normal(size=space.size), space)  # not a distribution
        total = arbitrary.values.sum()
        assert rs.marginal_recovering(arbitrary).sum() == pytest.approx(total)
        assert rs.marginal_orbit(arbitrary).sum() == pytest.approx(total)

    def test_requires_space(self):
        with pytest.raises(DomainError):
            rs.marginal_recovering(ProbabilityVector(np.ones(4) / 4, 0.0))


class TestMoments:
    def test_point_mass_moments_vanish(self, wellmixed_p0):
        for n in (1, 2, 3):
            assert rs.moment_recovering(wellmixed_p0, n) == 0.0
            assert rs.moment_orbit(wellmixed_p0, n) == 0.0

    def test_uniform_mean(self, wellmixed_config):
        space = wellmixed_config.space
        uniform = vector(np.full(space.size, 1.0 / space.size), space)
        assert rs.moment_recovering(uniform) == pytest.approx(wellmixed_config.c / 2)
        assert rs.moment_orbit(uniform) == pytest.approx((wellmixed_config.N - wellmixed_config.c) / 2)

    def test_brute_force_equivalence(self, wellmixed_generator, wellmixed_p0, wellmixed_config):
        p = rs.uniformize(wellmixed_generator, wellmixed_p0, 3.0)
        space = wellmixed_config.space
        for n in (1, 2):
            brute_i = sum(i ** n * p.values[space.index(i, j)] for i, j in space.states())
            brute_j = sum(j ** n * p.values[space.index(i, j)] for i, j in space.states())
            assert rs.moment_recovering(p, n) == pytest.approx(brute_i, abs=1e-12)
            assert rs.moment_orbit(p, n) == pytest.approx(brute_j, abs=1e-12)

    def test_bounds_on_distributions(self, wellmixed_generator, wellmixed_p0, wellmixed_config):
        for t in (0.5, 5.0, 50.0):
            p = rs.uniformize(wellmixed_generator, wellmixed_p0, t)
            assert 0.0 <= rs.moment_recovering(p) <= wellmixed_config.c
            assert 0.0 <= rs.moment_orbit(p) <= wellmixed_config.N - wellmixed_config.c

    def test_jensen(self, wellmixed_generator, wellmixed_p0):
        p = rs.uniformize(wellmixed_generator, wellmixed_p0, 2.0)
        assert rs.moment_recovering(p, 2) >= rs.moment_recovering(p) ** 2 - 1e-9
        assert rs.moment_orbit(p, 2) >= rs.moment_orbit(p) ** 2 - 1e-9

    def test_single_orbit_level_indicator(self):
        cfg = ModelConfig(N=4, c=3, alpha=5.0, mu=0.4, theta=2.0)
        gen = rs.build_generator(cfg, rs.rate_function(cfg))
        p = rs.uniformize(gen, rs.delta_vector(cfg.space, (0, 0)), 2.0)
        assert rs.moment_orbit(p) == pytest.approx(rs.marginal_orbit(p)[1])

    def test_order_validation(self, wellmixed_p0):
        with pytest.raises(DomainError):
            rs.moment_recovering(wellmixed_p0, 0)


class TestQualitativeShape:
    def test_saturation_dominates_late(self, wellmixed_generator, wellmixed_p0):
        p = rs.marginal_recovering(rs.uniformize(wellmixed_generator, wellmixed_p0, 9.0))
        assert p.argmax() == 5

    def test_empty_orbit_early(self, wellmixed_generator, wellmixed_p0):
        q = rs.marginal_orbit(rs.uniformize(wellmixed_generator, wellmixed_p0, 0.5))
        assert q[0] >= 0.98


class TestMarginalReport:
    def test_consistent_with_moment_functions(self, wellmixed_generator, wellmixed_p0):
        p = rs.uniformize(wellmixed_generator, wellmixed_p0, 4.0)
        report = rs.marginal_report(p)
        assert report.t == pytest.approx(4.0)
        assert report.mean_recovering == pytest.approx(rs.moment_recovering(p))
        assert report.mean_orbit == pytest.approx(rs.moment_orbit(p))
        assert report.recovering_moments[1] == pytest.approx(rs.moment_recovering(p, 2))
        assert report.var_recovering >= -1e-9
        assert report.var_orbit >= -1e-9
        np.testing.assert_allclose(report.server_marginal, rs.marginal_recovering(p))

    def test_marginals_normalized(self, wellmixed_generator, wellmixed_p0):
        report = rs.marginal_report(rs.uniformize(wellmixed_generator, wellmixed_p0, 4.0))
        assert report.server_marginal.sum() == pytest.approx(1.0, abs=1e-9)
        assert report.orbit_marginal.sum() == pytest.approx(1.0, abs=1e-9)

    def test_order_guard(self, wellmixed_p0):
        with pytest.raises(DomainError):
            rs.marginal_report(wellmixed_p0, order=1)
