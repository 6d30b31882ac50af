from pathlib import Path

import numpy as np
import pytest

import retrialsi as rs
from retrialsi import Closure, ModelConfig, StateSpace
from retrialsi.errors import ConfigError, DomainError, GraphFormatError


def star(n):
    """The edge list of the star on ``n`` nodes: node 0 joined to every other."""
    return f"n {n}\n" + "".join(f"0 {v}\n" for v in range(1, n))


def degrees(text, n):
    """The degree of every node 0..n-1 of an edge-list document, one load_graph each."""
    return [rs.load_graph(text, n, k) for k in range(n)]


class TestStateSpace:
    def test_index_examples(self):
        space = StateSpace(10, 5)
        assert space.index(0, 0) == 0
        assert space.index(1, 0) == 6
        assert space.index(5, 5) == 35 == space.size - 1

    @pytest.mark.parametrize("N,c", [(2, 1), (7, 3), (10, 5), (20, 15)])
    def test_index_bijection(self, N, c):
        space = StateSpace(N, c)
        states = space.states()
        assert len(states) == space.size == (c + 1) * (N - c + 1)
        assert len(set(states)) == space.size
        for k, (i, j) in enumerate(states):
            assert space.index(i, j) == k
            assert space.state_at(k) == (i, j)

    def test_enumerate_tiny(self):
        assert StateSpace(2, 1).states() == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_sizes(self):
        assert StateSpace(10, 5).size == 36
        assert StateSpace(20, 15).size == 96

    def test_out_of_range(self):
        space = StateSpace(10, 5)
        for i, j in [(6, 0), (0, 6), (-1, 0), (0, -1)]:
            with pytest.raises(DomainError):
                space.index(i, j)
        with pytest.raises(DomainError):
            space.state_at(36)

    def test_invalid_dimensions(self):
        with pytest.raises(ConfigError):
            StateSpace(10, 10)
        with pytest.raises(ConfigError):
            StateSpace(10, 0)
        with pytest.raises(ConfigError):
            StateSpace(1, 1)


class TestContactGraph:
    """A graph document as load_graph reads it: the count of one node's distinct neighbours."""

    def test_degrees_path(self):
        assert degrees("n 3\n0 1\n1 2", 3) == [1, 2, 1]

    def test_star_center(self):
        assert rs.load_graph(star(10), 10, 0) == 9
        assert rs.load_graph(star(10), 10, 3) == 1

    def test_degree_out_of_range(self):
        for node in (4, -1):
            with pytest.raises(DomainError):
                rs.load_graph(star(4), 4, node)

    def test_degree_sum_is_twice_edges(self, ring_with_hub_text):
        for text, n, edges in [(star(10), 10, 9), (ring_with_hub_text(10), 10, 18),
                               ("n 3\n0 1\n1 2", 3, 2), ("n 4\n0 1\n1 0\n2 3\n0 1", 4, 2)]:
            assert sum(degrees(text, n)) == 2 * edges

    def test_validation(self):
        # every line is checked, also one that does not touch the node asked for
        for text, match in [("n 4\n0 1\n2 2", "self-loop"), ("n 4\n0 1\n2 4", "0..3"),
                            ("n 4\n0 1\n-1 2", "0..3"), ("n 4\n0 1\n2 3 1", "expected 'u v'"),
                            ("n 4\n0 1\n2 x", "non-integer")]:
            with pytest.raises(GraphFormatError, match=match) as err:
                rs.load_graph(text, 4, 0)
            assert err.value.line == 3

    @pytest.mark.parametrize("n", [-1, 0, 2.5, True])
    def test_node_count_must_be_a_positive_integer(self, n):
        with pytest.raises(GraphFormatError, match="node count") as err:
            rs.load_graph(f"n {n}\n", 2, 0)
        assert err.value.line == 1

    def test_reversed_and_duplicate_pairs_collapse(self):
        assert degrees("n 4\n2 1\n0 3\n1 2\n3 0\n1 2", 4) == [1, 1, 1, 1]
        assert degrees("n 3\n0 1\n1 0\n1 2", 3) == [1, 2, 1]  # 1 0 after 0 1 counts once

    def test_isolated_node_has_degree_zero(self):
        assert degrees("n 4\n0 1", 4) == [1, 1, 0, 0]
        assert degrees("n 2\n", 2) == [0, 0]


class TestLoadGraph:
    def test_duplicate_edge_collapses(self):
        assert degrees("n 2\n0 1\n0 1", 2) == [1, 1]

    def test_self_loop_rejected(self):
        with pytest.raises(GraphFormatError) as err:
            rs.load_graph("n 2\n0 0", 2, 1)
        assert err.value.line == 2

    def test_node_id_out_of_range(self):
        with pytest.raises(GraphFormatError) as err:
            rs.load_graph("n 2\n0 2", 2, 1)
        assert err.value.line == 2

    def test_malformed_line(self):
        with pytest.raises(GraphFormatError):
            rs.load_graph("n 3\n0 1 2", 3, 0)
        with pytest.raises(GraphFormatError):
            rs.load_graph("n 3\nzero one", 3, 0)

    def test_missing_header(self):
        with pytest.raises(GraphFormatError):
            rs.load_graph("0 1\n1 2", 3, 0)
        with pytest.raises(GraphFormatError):
            rs.load_graph("", 3, 0)

    def test_comments_and_blanks_ignored(self):
        assert degrees("# path\nn 3\n\n0 1\n1 2\n", 3) == [1, 2, 1]

    def test_roundtrip(self, ring_with_hub_text):
        # the fixture's degree formula is the degree of its written edge list
        for n in (4, 10):
            assert degrees(ring_with_hub_text(n), n) == [rs.ring_with_hub(n, k) for k in range(n)]

    def test_line_numbers_past_the_first_chunk(self, ring_with_hub_text):
        # a large document is read a chunk at a time; lines are still numbered as splitlines numbers them
        text = ring_with_hub_text(20_000).replace("\n", "\r\n") + "\r\n# end\r5 5\r\n"
        with pytest.raises(GraphFormatError, match="self-loop") as err:
            rs.load_graph(text, 20_000, 2)
        assert err.value.line == len(text.splitlines())

    @pytest.mark.parametrize("n", [10, 20, 40])
    def test_shipped_fixtures_are_the_writer_output(self, n, ring_with_hub_text):
        path = Path(__file__).resolve().parents[1] / "graphs" / f"ring_hub_{n}.txt"
        assert path.read_bytes() == ring_with_hub_text(n).encode()


class TestRingWithHub:
    def test_degrees(self):
        assert rs.ring_with_hub(10, 0) == 9
        assert all(rs.ring_with_hub(10, k) == 3 for k in range(1, 10))

    def test_too_small(self):
        with pytest.raises(ConfigError):
            rs.ring_with_hub(3, 1)
        with pytest.raises(DomainError):
            rs.ring_with_hub(10, 10)


class TestModelConfig:
    def test_defaults(self, wellmixed_config):
        assert wellmixed_config.mode is rs.Mode.HOMOGENEOUS
        assert wellmixed_config.initial_state == (0, 0)
        assert wellmixed_config.space.size == 36

    def test_theta_zero_allowed(self):
        ModelConfig(N=10, c=5, alpha=5.0, mu=0.4, theta=0.0)

    @pytest.mark.parametrize("kwargs", [
        dict(N=10, c=10, alpha=5.0, mu=0.4, theta=2.0),
        dict(N=10, c=5, alpha=0.0, mu=0.4, theta=2.0),
        dict(N=10, c=5, alpha=5.0, mu=0.0, theta=2.0),
        dict(N=10, c=5, alpha=5.0, mu=0.4, theta=-1.0),
        dict(N=10, c=5, alpha=5.0, mu=0.4, theta=2.0, initial_state=(6, 0)),
        dict(N=10, c=5, alpha=5.0, mu=0.4, theta=2.0, mode="heterogeneous"),
    ])
    def test_rejects(self, kwargs):
        with pytest.raises(ConfigError):
            ModelConfig(**kwargs)


def rate_at(cfg, i, j, degree=None):
    """The arrival rate at state (i, j), read from the array rate_function returns."""
    return rs.rate_function(cfg, degree)[cfg.space.index(i, j)]


class TestHomogeneousRate:
    def test_examples(self, wellmixed_config):
        assert rate_at(wellmixed_config, 0, 0) == 5.0
        assert rate_at(wellmixed_config, 5, 5) == 0.0
        assert rate_at(wellmixed_config, 2, 3) == 2.5

    def test_zero_iff_everyone_infected(self, wellmixed_config):
        rates = rs.rate_function(wellmixed_config)
        assert rates.shape == (wellmixed_config.space.size,)
        for (i, j), rate in zip(wellmixed_config.space.states(), rates):
            assert rate >= 0.0
            assert (rate == 0.0) == (i + j == wellmixed_config.N)


class TestHeterogeneousRate:
    def het_config(self, k, closure=Closure.MEAN_FIELD):
        return ModelConfig(N=10, c=5, alpha=5.0, mu=0.4, theta=2.0,
                           mode="heterogeneous", tagged_node=k, closure=closure)

    def test_star_center_no_infected(self):
        # external term only: (alpha * 9/10) * (10/10) = 4.5
        cfg = self.het_config(0)
        assert rate_at(cfg, 0, 0, rs.load_graph(star(10), 10, 0)) == pytest.approx(4.5)

    def test_full_neighbor_adds_degree_pressure(self):
        cfg = self.het_config(0, Closure.FULL_NEIGHBOR)
        # neighbor sum d_k^2 / N = 81 / 10 on top of the external 4.5
        assert rate_at(cfg, 0, 0, rs.load_graph(star(10), 10, 0)) == pytest.approx(4.5 + 8.1)

    def test_everyone_infected_keeps_neighbor_term(self):
        cfg = self.het_config(0)
        got = rate_at(cfg, 5, 5, rs.load_graph(star(10), 10, 0))
        assert got == pytest.approx(81.0 / 10.0)  # external term vanished

    def test_isolated_node_rate_zero(self):
        cfg = self.het_config(0)
        assert rate_at(cfg, 2, 3, rs.load_graph("n 10\n1 2", 10, 0)) == 0.0

    def test_full_neighbor_dominates_mean_field(self):
        degree = rs.ring_with_hub(10, 2)
        full = rs.rate_function(self.het_config(2, Closure.FULL_NEIGHBOR), degree)
        mean = rs.rate_function(self.het_config(2, Closure.MEAN_FIELD), degree)
        assert np.all(full >= mean)

    def test_config_errors(self):
        with pytest.raises(ConfigError, match="tagged_node"):
            rs.rate_function(self.het_config(12), 3)  # k out of range
        for degree in (10, -1):  # a degree outside 0..N-1
            with pytest.raises(ConfigError, match="degree"):
                rs.rate_function(self.het_config(0), degree)


def test_rate_function_dispatch(wellmixed_config):
    assert rate_at(wellmixed_config, 0, 0) == 5.0
    het_cfg = ModelConfig(N=10, c=5, alpha=5.0, mu=0.4, theta=2.0,
                          mode="heterogeneous", tagged_node=2)
    assert rate_at(het_cfg, 0, 0, rs.ring_with_hub(10, 2)) == pytest.approx(5.0 * 3 / 10)
    with pytest.raises(ConfigError):
        rs.rate_function(het_cfg)  # degree missing
