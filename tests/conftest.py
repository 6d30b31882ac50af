from unittest import mock

import numpy as np
import pytest

import retrialsi as rs
from retrialsi import transient
from retrialsi.generator import transposed_product


@pytest.fixture(scope="session")
def wellmixed_config():
    # reference well-mixed setup used throughout the suite
    return rs.ModelConfig(N=10, c=5, alpha=5.0, mu=0.4, theta=2.0)


@pytest.fixture(scope="session")
def wellmixed_generator(wellmixed_config):
    return rs.build_generator(wellmixed_config, rs.rate_function(wellmixed_config))


@pytest.fixture(scope="session")
def wellmixed_p0(wellmixed_config):
    return rs.delta_vector(wellmixed_config.space, wellmixed_config.initial_state)


@pytest.fixture(scope="session")
def tiny_config():
    # 4-state chain; small enough to check against hand calculations
    return rs.ModelConfig(N=2, c=1, alpha=5.0, mu=0.4, theta=2.0)


@pytest.fixture(scope="session")
def tiny_generator(tiny_config):
    return rs.build_generator(tiny_config, rs.rate_function(tiny_config))


@pytest.fixture(scope="session")
def two_state_toy():
    # symmetric toy generator, closed-form transient and stationary behavior
    return rs.GeneratorMatrix.from_dense(np.array([[-1.0, 1.0], [1.0, -1.0]]))


def splu_stationary_vector(gen):
    """pi by sparse LU on the chain's one closed class, zero on its transient states.

    The package's former stationary solve, kept as an oracle independent of
    the level sweep: strongly connected components find the closed classes,
    a chain without exactly one is rejected with the package's message, and
    the class's balance equations, one replaced by sum(pi) = 1, go to
    SuperLU.  On all of Q^T that LU meets an exactly zero pivot on some
    theta = 0 chains, whose transient states take very long to leave.
    """
    from scipy import sparse
    from scipy.sparse.csgraph import connected_components
    from scipy.sparse.linalg import splu

    q = gen.matrix
    n_classes, labels = connected_components(q, directed=True, connection="strong")
    rows, cols = q.nonzero()
    closed = np.setdiff1d(np.arange(n_classes), labels[rows[labels[rows] != labels[cols]]])
    if closed.size != 1:
        raise rs.ModelError(f"chain is reducible: {closed.size} closed classes")
    members = np.flatnonzero(labels == closed[0])
    balance = q[members][:, members].T.tocsr()
    system = sparse.vstack([balance[:-1], sparse.csr_matrix(np.ones((1, members.size)))])
    rhs = np.zeros(members.size)
    rhs[-1] = 1.0
    pi = np.zeros(gen.dim)
    pi[members] = np.clip(splu(sparse.csc_matrix(system)).solve(rhs), 0.0, None)
    return pi / pi.sum()


@pytest.fixture(scope="session")
def splu_stationary():
    return splu_stationary_vector


def assert_step_matches_scipy(gen, v):
    """One step of ``uniformize`` equals scipy's ``(eye + Q / lam).T @ v`` bit for bit, signed zeros included.

    Poisson weights (0, 1) make ``uniformize`` return the one step U^T v.
    """
    from scipy import sparse

    lam = float(gen.exit_rates().max())
    expected = (sparse.eye(gen.dim, format="csr") + gen.matrix / lam).T @ v
    with mock.patch.object(transient, "_poisson_weights", return_value=np.array([0.0, 1.0])):
        step = rs.uniformize(gen, rs.ProbabilityVector(v, 0.0), 1.0).values
    assert np.array_equal(step, expected)
    assert np.array_equal(np.signbit(step), np.signbit(expected))


@pytest.fixture(scope="session")
def step_matches_scipy():
    return assert_step_matches_scipy


def assert_product_matches_scipy(arrays, seed=0):
    """``transposed_product`` over ``arrays.diagonals()`` equals scipy's CSC product bit for bit.

    Both start from out = 0.  The inputs are a 1-d vector with signed zeros
    and a (dim, 3) longdouble block whose entries carry more than double precision.
    """
    from scipy.sparse import csr_matrix

    dim = arrays.dim
    at = csr_matrix(arrays, shape=(dim, dim)).T  # CSC
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(dim)
    v[rng.random(dim) < 0.2] = -0.0
    block = rng.standard_normal((dim, 3)).astype(np.longdouble) / 3
    diagonals = arrays.diagonals()
    for x in (v, block):
        expected = at @ x
        got = transposed_product(diagonals, x, np.zeros(expected.shape, dtype=expected.dtype))()
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)
        assert np.array_equal(np.signbit(got), np.signbit(expected))


@pytest.fixture(scope="session")
def product_matches_scipy():
    return assert_product_matches_scipy
