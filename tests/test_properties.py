"""Invariants of the one transition table and the chain it defines, checked on generated models."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st  # noqa: E402
from scipy.sparse import coo_matrix, csr_matrix, diags  # noqa: E402
from scipy.sparse.csgraph import connected_components  # noqa: E402

import retrialsi as rs  # noqa: E402
from retrialsi import cli  # noqa: E402
from retrialsi.errors import ModelError  # noqa: E402
from retrialsi.generator import transitions  # noqa: E402
from retrialsi.laplace import solve_resolvents  # noqa: E402
from retrialsi.transient import BOX_TAIL, _transition_table, reachable_box  # noqa: E402

RATES = st.floats(0.05, 10.0)
PROPERTY_SETTINGS = settings(max_examples=30, deadline=None, database=None, derandomize=True)


@st.composite
def models(draw, max_n=30, thetas=st.one_of(st.just(0.0), RATES)):
    """(config, tagged node's degree) with N <= max_n; the degree is used in heterogeneous mode."""
    N = draw(st.integers(2, max_n))
    c = draw(st.integers(1, N - 1))
    degree = draw(st.integers(0, N - 1))
    heterogeneous = draw(st.booleans())
    cfg = rs.ModelConfig(
        N=N, c=c, alpha=draw(RATES), mu=draw(RATES),
        theta=draw(thetas),
        mode="heterogeneous" if heterogeneous else "homogeneous",
        tagged_node=draw(st.integers(0, N - 1)) if heterogeneous else None,
        closure=draw(st.sampled_from(list(rs.Closure))),
        initial_state=(draw(st.integers(0, c)), draw(st.integers(0, N - c))),
    )
    return cfg, degree


def paper_arrival_rate(cfg, d, i, j):
    """The paper's arrival rate at one state (i, j), written out as the reference for rate_function."""
    N = cfg.N
    if cfg.mode is rs.Mode.HOMOGENEOUS:
        return cfg.alpha * (N - i - j) / N
    neighbor = d * d / N
    if cfg.closure is rs.Closure.MEAN_FIELD:
        neighbor *= (i + j) / N
    return (cfg.alpha * d / N) * (N - i - j) / N + neighbor


RING_MODEL = dict(N=10, c=4, alpha=5.0, mu=0.4, theta=2.0, initial_state=(1, 2))


@PROPERTY_SETTINGS
@given(models())
@example((rs.ModelConfig(**RING_MODEL), None))
@example((rs.ModelConfig(**RING_MODEL, mode="heterogeneous", tagged_node=2), rs.ring_with_hub(10, 2)))
@example((rs.ModelConfig(**RING_MODEL, mode="heterogeneous", tagged_node=0,
                         closure=rs.Closure.FULL_NEIGHBOR), rs.ring_with_hub(10, 0)))
def test_rate_function_is_the_per_state_formula(model):
    # every rate bit for bit, in state-index order, for both modes and both closures
    cfg, degree = model
    want = [paper_arrival_rate(cfg, degree, i, j) for i, j in cfg.space.states()]
    assert np.array_equal(rs.rate_function(cfg, degree), want)


@PROPERTY_SETTINGS
@given(models(), st.floats(0.0, 2.0))
def test_generator_simulator_and_oracle_agree(model, t):
    cfg, degree = model
    arrival = rs.rate_function(cfg, degree)
    gen = rs.build_generator(cfg, arrival)
    report = rs.validate_generator(gen)
    assert report.ok and report.stencil_checked, report.summary()

    # The simulator sums a state's (at most three, nonnegative) rates in family
    # order, Q in column order; each sum is within 2u = eps of the exact one.
    exit_rate, cum, targets = _transition_table(cfg, arrival)
    np.testing.assert_allclose(exit_rate, gen.exit_rates(), rtol=3 * np.finfo(float).eps, atol=0)

    # Every slot a uniform draw can select moves along a positive off-diagonal
    # entry of Q with the same rate, and every such entry has a slot.  A slot's
    # rate, read back as a difference of cumulative rates, is exact to within
    # eps times the state's exit rate.
    q = gen.matrix
    slot_rates = np.diff(cum, axis=1, prepend=0.0)
    src, slot = np.nonzero(slot_rates > 0)
    dst = targets[src, slot]
    assert np.all(dst != src)
    error = np.abs(np.asarray(q[src, dst]).ravel() - slot_rates[src, slot])
    assert np.all(error <= 2 * np.finfo(float).eps * exit_rate[src])
    rows, cols, vals = gen.triplets()
    assert src.size == np.count_nonzero((rows != cols) & (vals > 0))

    p0 = rs.delta_vector(cfg.space, cfg.initial_state)
    assert abs(rs.uniformize(gen, p0, t).total - 1.0) <= 1e-12


@st.composite
def edge_lists(draw):
    """(n, edges, node): up to 3n edges of a graph on n nodes, repeated and reversed at will."""
    n = draw(st.integers(2, 30))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
    edges = draw(st.lists(pairs, max_size=3 * n))
    edges += draw(st.lists(st.sampled_from(edges), max_size=n)) if edges else []  # repeats
    edges = [(v, u) if draw(st.booleans()) else (u, v) for u, v in edges]  # reversals
    return n, draw(st.permutations(edges)), draw(st.integers(0, n - 1))


@PROPERTY_SETTINGS
@given(graph=edge_lists())
def test_load_graph_counts_distinct_neighbours(graph, graph_text):
    n, edges, node = graph
    neighbours = {v for u, v in edges if u == node} | {u for u, v in edges if v == node}
    assert rs.load_graph(graph_text(n, edges), n, node) == len(neighbours)


@PROPERTY_SETTINGS
@given(models(max_n=12), st.lists(st.floats(0.0, 3.0), min_size=1, max_size=5, unique=True).map(sorted),
       st.floats(0.0, 100.0))
def test_grid_equals_chained_uniformize(model, times, start):
    # one stepping loop: a grid is the chain of its intervals, bit for bit; a vector's stamp is
    # start + t_k, as the inversion's is, not the chain's running sum of interval lengths
    cfg, degree = model
    gen = rs.build_generator(cfg, rs.rate_function(cfg, degree))
    previous = rs.ProbabilityVector(rs.delta_vector(cfg.space, cfg.initial_state).values, start, cfg.space)
    sol = rs.transient_grid(gen, previous, times)
    for vector, t, before in zip(sol.vectors, times, [0.0, *times]):
        previous = rs.uniformize(gen, previous, t - before)
        assert np.array_equal(vector.values, previous.values)
        assert vector.t == start + t


def moves(gen):
    """{(i, j, i', j'): rate} of every nonzero off-diagonal entry of Q, keyed by lattice coordinates."""
    rows, cols, rates = gen.triplets()
    keep = (rows != cols) & (rates != 0)
    coordinates = [*np.divmod(rows[keep], gen.space.width), *np.divmod(cols[keep], gen.space.width)]
    return dict(zip(zip(*(x.tolist() for x in coordinates)), rates[keep].tolist()))


BOX_MODEL = dict(N=30, c=20, alpha=1.0, mu=0.4, theta=2.0)


@PROPERTY_SETTINGS
@given(models(max_n=60), st.lists(st.floats(0.0, 0.5), min_size=1, max_size=3, unique=True).map(sorted),
       st.sampled_from([1e-10, 1e-6]))
@example((rs.ModelConfig(**BOX_MODEL, initial_state=(2, 3)), None), [0.1, 0.2], 1e-10)
@example((rs.ModelConfig(**BOX_MODEL, mode="heterogeneous", tagged_node=2, initial_state=(1, 0)),
          rs.ring_with_hub(30, 2)), [0.0, 0.5], 1e-6)
@example((rs.ModelConfig(**BOX_MODEL), None), [0.0], 1e-10)
@example((rs.ModelConfig(**BOX_MODEL, initial_state=(4, 6)), None), [0.0], 1e-6)
def test_projected_uniformization_agrees_with_the_full_lattice(model, times, eps):
    # The CLI's solve on the reachable box keeps the whole lattice's bound in total variation: eps
    # per interval stepped, as the box's tail is spent once for the grid and each interval is truncated
    # at eps - tail.  The box chain moves only as the full chain does, at the same rates: an arrival
    # that would leave the box is blocked, not sent to another state.
    cfg, degree = model
    sol = cli._solve_grid(cfg, degree, cli.SolverSettings(method="uniformization", eps=eps), times)
    arrival = rs.rate_function(cfg, degree)
    gen = rs.build_generator(cfg, arrival)
    full = rs.transient_grid(gen, rs.delta_vector(cfg.space, cfg.initial_state), times, eps=1e-15)
    for intervals, projected, whole in zip(np.cumsum(np.array(times) > 0), sol.vectors, full.vectors):
        assert projected.space == cfg.space
        assert 0.5 * np.abs(projected.values - whole.values).sum() <= intervals * eps + 1e-13

    box = reachable_box(cfg, arrival, times[-1], BOX_TAIL * eps)
    if box is None:
        assert (sol.metadata["box_states"], sol.metadata["box_tail"]) == (cfg.space.size, 0.0)
        return
    box_cfg, box_arrival = box
    assert (sol.metadata["box_states"], sol.metadata["box_tail"]) == (box_cfg.space.size, BOX_TAIL * eps)
    assert box_cfg.initial_state == cfg.initial_state and box_cfg.space.size < cfg.space.size
    full_moves = moves(gen)
    assert all(full_moves.get(move) == rate for move, rate in moves(rs.build_generator(box_cfg, box_arrival)).items())


@PROPERTY_SETTINGS
@given(models(), st.integers(0, 2 ** 32 - 1))
def test_uniformization_step_matches_scipy(step_matches_scipy, model, seed):
    cfg, degree = model
    gen = rs.build_generator(cfg, rs.rate_function(cfg, degree))
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(gen.dim)  # signs and signed zeros too, not only a distribution
    v[rng.random(gen.dim) < 0.2] = -0.0
    step_matches_scipy(gen, v)


@PROPERTY_SETTINGS
@given(models(), st.integers(0, 2 ** 32 - 1))
def test_diagonal_product_matches_scipy(product_matches_scipy, model, seed):
    # the lattice stencil has five offsets at most: +-(N - c + 1), N - c, 1 and the diagonal
    cfg, degree = model
    gen = rs.build_generator(cfg, rs.rate_function(cfg, degree))
    for arrays in (gen.csr, gen.matrix_extended):
        assert len(arrays.diagonals()) <= 5
        product_matches_scipy(arrays, seed)


def scipy_assembly(cfg, arrival):
    """Q and its longdouble twin as scipy assembles them: coo -> csr, minus the row sums."""
    src, dst, rate = transitions(cfg, arrival)
    n = cfg.space.size
    off = coo_matrix((rate, (src, dst)), shape=(n, n)).tocsr()
    q = (off + diags(-np.asarray(off.sum(axis=1)).ravel())).tocsr()
    q_ext = q.astype(np.longdouble)
    off_ext = q_ext - diags(q_ext.diagonal())
    return q, (off_ext - diags(off_ext @ np.ones(n, dtype=np.longdouble))).tocsr()


def assert_assembly_matches_scipy(cfg, degree):
    arrival = rs.rate_function(cfg, degree)
    gen = rs.build_generator(cfg, arrival)
    for arrays, reference in zip((gen.csr, gen.matrix_extended), scipy_assembly(cfg, arrival)):
        for got, want in zip(arrays, (reference.data, reference.indices, reference.indptr)):
            assert got.dtype == want.dtype and np.array_equal(got, want)


@PROPERTY_SETTINGS
@given(models())
def test_assembly_matches_scipy_bit_for_bit(model):
    assert_assembly_matches_scipy(*model)


@pytest.mark.parametrize("N,c", [(200, 100), (30, 29)])
def test_assembly_matches_scipy_where_a_plain_sum_does_not(N, c):
    # summing a row's rates left to right misses scipy's diagonal in the last bit here
    cfg = rs.ModelConfig(N=N, c=c, alpha=5.0, mu=0.4, theta=2.0)
    assert_assembly_matches_scipy(cfg, None)


def retrying_model(model):
    """Generator of a model with theta > 0 whose tagged node, if any, has a contact.

    A tagged node without neighbours sees no arrivals, which makes (0, 0) absorbing.
    """
    cfg, degree = model
    assume(cfg.mode is rs.Mode.HOMOGENEOUS or degree > 0)
    return cfg, rs.build_generator(cfg, rs.rate_function(cfg, degree))


@PROPERTY_SETTINGS
@given(models(max_n=15, thetas=RATES))
def test_retrials_make_the_chain_irreducible(model):
    _, gen = retrying_model(model)
    rows, cols, vals = gen.triplets()
    moves = (rows != cols) & (vals > 0)
    graph = csr_matrix((vals[moves], (rows[moves], cols[moves])), shape=gen.matrix.shape)
    n_components, _ = connected_components(graph, directed=True, connection="strong")
    assert n_components == 1


@PROPERTY_SETTINGS
@given(models(max_n=15, thetas=RATES))
def test_stationary_flux_balances_across_level_cuts(model):
    # i moves up by arrivals and retrials and down by recoveries; i + j moves
    # up by arrivals (to a unit or to the orbit) and down by recoveries.  In
    # equilibrium the probability flux across every cut between adjacent
    # levels of either count is zero.
    cfg, gen = retrying_model(model)
    pi = rs.stationary_nullspace(gen).values
    rows, cols, vals = gen.triplets()
    moves = rows != cols
    src, dst = rows[moves], cols[moves]
    flow = pi[src] * vals[moves]
    i, j = np.divmod(np.arange(gen.dim), cfg.space.width)
    bound = 1e-12 * gen.exit_rates().max()
    for level in (i, i + j):
        for cut in range(level.max()):
            up = flow[(level[src] <= cut) & (level[dst] > cut)].sum()
            down = flow[(level[src] > cut) & (level[dst] <= cut)].sum()
            assert abs(up - down) <= bound, (cut, up, down)


def covered(N, c, theta, tagged_node=None):
    """A model the generated ones may miss: c = 1 or N - 1, theta = 0, or contacts on ring_with_hub(N)."""
    mode = "homogeneous" if tagged_node is None else "heterogeneous"
    cfg = rs.ModelConfig(N=N, c=c, alpha=5.0, mu=0.4, theta=theta, mode=mode, tagged_node=tagged_node)
    return cfg, None if tagged_node is None else rs.ring_with_hub(N, tagged_node)


@PROPERTY_SETTINGS
@given(model=models())
@example(model=covered(12, 1, 0.0))
@example(model=covered(12, 11, 0.0))
@example(model=covered(10, 1, 2.0, tagged_node=0))
@example(model=covered(10, 9, 0.0, tagged_node=2))
@example(model=covered(10, 5, 2.0, tagged_node=2))
def test_stationary_matches_sparse_lu(model, splu_stationary):
    # the level sweep at s = 0, or the closed-segment rule, against the former
    # sparse-LU solve; both reject the same chains with the same message
    cfg, degree = model
    gen = rs.build_generator(cfg, rs.rate_function(cfg, degree))
    try:
        expected = splu_stationary(gen)
    except rs.ModelError as exc:
        with pytest.raises(rs.ModelError, match=str(exc)):
            rs.stationary_nullspace(gen)
        return
    assert np.abs(rs.stationary_nullspace(gen).values - expected).max() <= 1e-14


@PROPERTY_SETTINGS
@given(models(), st.sampled_from(["none", "negate", "shift", "off_stencil"]), st.data())
def test_sweep_refuses_exactly_what_validation_fails(model, perturbation, data):
    cfg, degree = model
    q = rs.build_generator(cfg, rs.rate_function(cfg, degree)).toarray()
    off = ~np.eye(len(q), dtype=bool)
    if perturbation == "negate":  # one off-diagonal rate
        r, k = data.draw(st.sampled_from(list(zip(*np.nonzero(off & (q != 0))))))
        q[r, k] = -q[r, k]
    elif perturbation == "shift":  # one diagonal entry, by as little as nothing
        r = data.draw(st.integers(0, len(q) - 1))
        q[r, r] += data.draw(st.floats(-1.0, 1.0))
    elif perturbation == "off_stencil":  # one entry where Q stores none, balanced on its row
        r, k = data.draw(st.sampled_from(list(zip(*np.nonzero(off & (q == 0))))))
        rate = data.draw(RATES)
        q[r, k] += rate
        q[r, r] -= rate
    gen = rs.GeneratorMatrix.from_dense(q, cfg.space)
    p0 = rs.delta_vector(cfg.space, cfg.initial_state).values
    if rs.validate_generator(gen).ok:
        list(solve_resolvents(gen, [1.0], p0))
    else:
        with pytest.raises(ModelError):
            solve_resolvents(gen, [1.0], p0)
