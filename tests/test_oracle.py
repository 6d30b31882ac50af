"""Both deterministic routes against exp(Q t) computed at 40 significant digits."""

import numpy as np
import pytest

import retrialsi as rs

mpmath = pytest.importorskip("mpmath")

T = 2.0
EPS = 1e-10
ILT_BOUND = 1e-4  # the ILT-vs-oracle bound of the verification grid


@pytest.fixture(scope="module", params=[(6, 3), (10, 5)], ids=["16_states", "36_states"])
def exact(request):
    """(generator, p0, p0 exp(Q T) rounded to double) at the paper's rates."""
    N, c = request.param
    cfg = rs.ModelConfig(N=N, c=c, alpha=5.0, mu=0.4, theta=2.0)
    gen = rs.build_generator(cfg, rs.rate_function(cfg))
    p0 = rs.delta_vector(cfg.space, (0, 0))
    with mpmath.workdps(40):
        q = mpmath.matrix(gen.toarray().tolist())
        propagator = mpmath.expm(q * T)
        row = cfg.space.index(0, 0)
        values = np.array([float(propagator[row, k]) for k in range(gen.dim)])
    return gen, p0, rs.ProbabilityVector(values, T, cfg.space)


def test_uniformization_within_its_total_variation_bound(exact):
    gen, p0, oracle = exact
    vec = rs.uniformize(gen, p0, T, eps=EPS)
    assert np.abs(vec.values - oracle.values).sum() <= EPS


def test_ilt_within_oracle_bound(exact):
    gen, p0, oracle = exact
    vec = rs.transient_via_ilt(gen, p0, [T]).vectors[0]
    assert np.abs(vec.values - oracle.values).max() <= ILT_BOUND
    for moment in (rs.moment_recovering, rs.moment_orbit):
        assert abs(moment(vec) - moment(oracle)) <= ILT_BOUND
