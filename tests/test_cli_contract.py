"""Generative test of the CLI exit contract: 0, 2 or 3, and never a traceback.

Configs are drawn from the documented schema (small N, a bounded grid), and
at one leaf a value is replaced by a wrong type, a bool, NaN or +-inf, a
negative, non-integral or huge number, or the key is dropped or joined by an
extra one.  Huge values go only to leaves whose range the parser bounds: a
huge rate or time sets the amount of work, and nothing bounds that yet.  Two
fixed cases give uniformization a huge rate and a long grid of short
intervals, which ``MAX_POISSON_MEAN`` bounds; others give the parser huge
state counts, replica counts, grids and graph headers, which ``MAX_STATES``,
``MAX_REPLICAS``, ``MAX_GRID_ENTRIES`` and ``MAX_GRAPH_NODES`` bound.  A
contact graph is read to the tagged node's degree, so a heterogeneous model or
``table`` within ``MAX_STATES`` loads its graph at once, and a ``table`` with
no valid ``(N, c)`` pair builds no fixture.
"""

import contextlib
import io
import math
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
import yaml

from retrialsi import cli
from retrialsi.errors import ConfigError

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

CONTRACT_SETTINGS = settings(max_examples=40, deadline=None, database=None, derandomize=True)
EXIT_CODES = {cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_NUMERIC}
HUGE = 10 ** 12
BOUNDED_LEAVES = {("model", "N"), ("model", "c"), ("model", "initial_state", 0),
                  ("model", "initial_state", 1), ("solver", "K"), ("solver", "eps"),
                  ("solver", "replicas"), ("solver", "seed"),
                  ("times", "start"), ("times", "stop"), ("times", "step")}
SUBSTITUTES = {
    "wrong_type": st.sampled_from(["x", [1], {"a": 1}, None]),
    "bool": st.booleans(),
    "nan": st.just(math.nan),
    "inf": st.sampled_from([math.inf, -math.inf]),
    "negative": st.sampled_from([-1, -2.5]),
    "non_integral": st.just(2.5),
    "huge": st.sampled_from([HUGE, float(HUGE)]),
}
TIME_POINTS = [0.0, 0.25, 0.5, 1.0, 2.0, 3.0]


@st.composite
def valid_configs(draw):
    """A config the CLI accepts, small enough to solve by every method in milliseconds."""
    n = draw(st.integers(2, 8))
    c = draw(st.integers(1, n - 1))
    rate = st.sampled_from([0.1, 0.4, 1.0, 2.5, 6.0])
    model = {"N": n, "c": c, "alpha": draw(rate), "mu": draw(rate),
             "theta": draw(st.sampled_from([0.0, 0.4, 2.0])),
             "initial_state": [draw(st.integers(0, c)), draw(st.integers(0, n - c))]}
    solver = {"method": draw(st.sampled_from(cli.METHODS)),
              "K": draw(st.sampled_from([2, 8, 14, 20])), "eps": 1e-10,
              "replicas": 1000, "seed": draw(st.integers(0, 99))}
    times = draw(st.one_of(
        st.lists(st.sampled_from(TIME_POINTS), min_size=1, max_size=3, unique=True).map(sorted),
        st.fixed_dictionaries({"start": st.just(0.0), "stop": st.sampled_from([1.0, 3.0]),
                               "step": st.sampled_from([0.5, 1.0])}),
    ))
    outputs = draw(st.lists(st.sampled_from(["moments", "state_probs", "marginals"]),
                            min_size=1, max_size=2, unique=True))
    return {"model": model, "solver": solver, "times": times, "outputs": outputs}


def leaves(node, path=()):
    """Paths of every scalar in a config, in document order."""
    if isinstance(node, dict):
        return [leaf for key, child in node.items() for leaf in leaves(child, (*path, key))]
    if isinstance(node, list):
        return [leaf for k, child in enumerate(node) for leaf in leaves(child, (*path, k))]
    return [path]


@st.composite
def perturbed_configs(draw):
    """A valid config with one leaf replaced, dropped or joined by an extra key."""
    config = draw(valid_configs())
    path = draw(st.sampled_from(leaves(config)))
    kinds = [*SUBSTITUTES, "missing", "extra"]
    if path not in BOUNDED_LEAVES:
        kinds.remove("huge")
    kind = draw(st.sampled_from(kinds))
    parent = config
    for key in path[:-1]:
        parent = parent[key]
    last = path[-1]
    if kind == "missing":
        del parent[last]
    elif kind == "extra":
        target = parent if isinstance(parent, dict) else config
        target["unexpected_key"] = draw(SUBSTITUTES["wrong_type"])
    else:
        parent[last] = draw(SUBSTITUTES[kind])
    return config


def run(argv):
    """Exit code of one in-process CLI call; its output is discarded."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


@CONTRACT_SETTINGS
@given(perturbed_configs())
def test_exit_contract_on_generated_configs(config):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.yaml"
        path.write_text(yaml.safe_dump(config))
        validated = run(["validate-config", "--config", str(path)])
        assert validated in EXIT_CODES
        for method in cli.METHODS:
            code = run(["solve", "--config", str(path), "--method", method,
                        "--out", str(Path(tmp) / method)])
            assert code in EXIT_CODES, method
            if code == cli.EXIT_CONFIG:
                assert validated == cli.EXIT_CONFIG, (method, config)


def test_huge_rate_for_uniformization_exits_two_at_once(tmp_path):
    # Lambda * t = 1e12 exceeds MAX_POISSON_MEAN; the Poisson scan once tried to allocate 7 TiB
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump({"model": {"N": 10, "c": 5, "alpha": 1.0e12, "mu": 0.4, "theta": 2.0},
                                    "times": [1.0], "outputs": ["moments"]}))
    stderr = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = cli.main(["solve", "--config", str(path), "--method", "uniformization",
                         "--out", str(tmp_path / "out")])
    assert time.perf_counter() - start < 1.0
    assert code == cli.EXIT_CONFIG
    assert "MAX_POISSON_MEAN" in stderr.getvalue() and "Traceback" not in stderr.getvalue()


def test_grid_wide_poisson_mean_exits_two_at_once(tmp_path):
    # each of the 20 intervals is within MAX_POISSON_MEAN (Lambda * 2e4 = 2.5e5), the grid's 4.75e6 steps are not
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump({"model": {"N": 10, "c": 5, "alpha": 5.0, "mu": 0.4, "theta": 2.0},
                                    "times": {"start": 1.0, "stop": 4.0e5, "step": 2.0e4},
                                    "outputs": ["moments"]}))
    stderr = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = cli.main(["solve", "--config", str(path), "--method", "uniformization",
                         "--out", str(tmp_path / "out")])
    assert time.perf_counter() - start < 1.0
    assert code == cli.EXIT_CONFIG
    assert "MAX_POISSON_MEAN" in stderr.getvalue() and "Traceback" not in stderr.getvalue()


def write_config(tmp_path, model, extra, graph_nodes):
    """A config of the given model; with ``graph_nodes``, heterogeneous on a header-and-one-edge graph."""
    config = {"model": {**model, "alpha": 5.0, "mu": 0.4, "theta": 2.0}, "times": [1.0],
              "outputs": ["moments"], **extra}
    if graph_nodes is not None:
        (tmp_path / "graph.txt").write_text(f"n {graph_nodes}\n0 1\n")
        config["model"].update(mode="heterogeneous", tagged_node=2)
        config["graph_path"] = "graph.txt"
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(config))
    return path


@pytest.mark.parametrize("model, extra, graph_nodes, key", [
    # 7.28 TiB of replica state
    ({"N": 10, "c": 5}, {"solver": {"replicas": 10 ** 12}}, None, "solver.replicas"),
    # 18.6 GiB of transitions
    ({"N": 100_000, "c": 50_000}, {}, None, "model"),
    ({"N": 10, "c": 5}, {"table": {"N": [10, 100_000], "c": [5, 50_000]}}, None, "table"),
    # a header alone, one node above the bound: refused before any edge is read
    ({"N": 10, "c": 5}, {}, 1_000_001, "MAX_GRAPH_NODES"),
    # a heterogeneous model one node above the CLI's largest population, on a graph that would load
    ({"N": 150_001, "c": 1}, {}, 150_001, "model"),
    ({"N": 10, "c": 5}, {}, 40, "differs"),
    # a heterogeneous table's ring_with_hub(N) fixture is held to MAX_STATES like any table pair
    ({"N": 10, "c": 5}, {"table": {"N": [150_001], "c": [1]}}, 10, "table"),
    # 37.4 GiB of inversion accumulator: 10,000 times x 251,001 states, each within its own bound
    ({"N": 1000, "c": 500}, {"times": {"start": 0.01, "stop": 100, "step": 0.01}}, None, "times"),
])
def test_huge_sizes_exit_two_at_once(tmp_path, model, extra, graph_nodes, key):
    path = write_config(tmp_path, model, extra, graph_nodes)
    for command in ("validate-config", "solve", "table"):
        stderr = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = cli.main([command, "--config", str(path), "--method", "monte_carlo",
                             "--out", str(tmp_path / "out")])
        assert time.perf_counter() - start < 1.0
        assert code == cli.EXIT_CONFIG, command
        assert key in stderr.getvalue() and "Traceback" not in stderr.getvalue()


@pytest.mark.parametrize("model, extra, graph_nodes", [
    # 200,000 states on a graph of 100,000 nodes
    ({"N": 100_000, "c": 99_999}, {}, 100_000),
    # a fixture of 100,000 nodes for a table pair of 200,000 states
    ({"N": 10, "c": 5}, {"table": {"N": [100_000], "c": [99_999]}}, 10),
])
def test_heterogeneous_sizes_within_max_states_validate_at_once(tmp_path, model, extra, graph_nodes):
    path = write_config(tmp_path, model, extra, graph_nodes)
    start = time.perf_counter()
    assert run(["validate-config", "--config", str(path)]) == cli.EXIT_OK
    assert time.perf_counter() - start < 1.0


def test_heterogeneous_table_without_valid_pairs_builds_no_fixture(tmp_path, monkeypatch):
    path = write_config(tmp_path, {"N": 10, "c": 5}, {"table": {"N": [HUGE], "c": [HUGE]}}, 10)
    # validation lets an N without a valid pair lie outside ring_with_hub's domain, so it must not be evaluated
    monkeypatch.setattr(cli, "ring_with_hub", lambda n, node: pytest.fail(f"built ring_with_hub({n})"))
    start = time.perf_counter()
    assert run(["table", "--config", str(path), "--out", str(tmp_path / "out")]) == cli.EXIT_OK
    assert time.perf_counter() - start < 1.0


@CONTRACT_SETTINGS
@given(st.floats(0.0, 1.0e4), st.integers(0, 2000), st.floats(1.0e-13, 1.0e3), st.floats(0.0, 1.0))
@example(0.0, 18, 0.5, 0.0)  # the shipped 0..9 grid
@example(0.1, 3, 0.7, 0.5)  # start below step
@example(0.5, 10, 1.0e-13, 0.0)  # times 1e-13 apart round to repeats
def test_range_times_match_numpy(start, count, step, frac):
    """A {start, stop, step} range parses to np.round(np.arange(start, stop + step / 2, step), 12),
    bit for bit, and a range that rounds to repeated times, or to none, is refused."""
    stop = start + (count + frac) * step
    expected = np.round(np.arange(start, stop + step / 2.0, step), 12)
    mapping = {"model": {"N": 2, "c": 1, "alpha": 5.0, "mu": 0.4, "theta": 2.0},
               "times": {"start": start, "stop": stop, "step": step}}
    if expected.size and np.all(np.diff(expected) > 0):
        grid = np.array(cli.scenario_from_mapping(mapping).grid())
        assert np.array_equal(grid, expected) and grid.tobytes() == expected.tobytes()
    else:
        with pytest.raises(ConfigError, match="^times: times must be (a nonempty|strictly increasing)"):
            cli.scenario_from_mapping(mapping)
