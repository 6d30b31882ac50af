from pathlib import Path

import numpy as np
import pytest

import retrialsi as rs
from retrialsi import Closure, ContactGraph, ModelConfig, StateSpace
from retrialsi.errors import ConfigError, DomainError, GraphFormatError


def star_graph(n):
    return ContactGraph(n, [(0, v) for v in range(1, n)])


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
    def test_degrees_path(self):
        g = rs.load_graph("n 3\n0 1\n1 2")
        assert g.degrees.tolist() == [1, 2, 1]
        assert g.degree(1) == 2
        assert g.degree(0) == 1

    def test_star_center(self):
        g = star_graph(10)
        assert g.degree(0) == 9
        assert g.degree(3) == 1

    def test_degree_out_of_range(self):
        g = star_graph(4)
        with pytest.raises(DomainError):
            g.degree(4)

    def test_degree_sum_is_twice_edges(self):
        for g in [star_graph(10), rs.ring_with_hub(10), rs.load_graph("n 3\n0 1\n1 2")]:
            assert g.degrees.sum() == 2 * g.edge_count

    def test_validation(self):
        with pytest.raises(ConfigError, match="self-loop"):
            ContactGraph(3, [(0, 1), (2, 2)])
        with pytest.raises(ConfigError, match="0..2"):
            ContactGraph(3, [(0, 1), (1, 3)])
        with pytest.raises(ConfigError, match="0..2"):
            ContactGraph(3, [(-1, 1)])
        with pytest.raises(ConfigError, match="pairs"):
            ContactGraph(3, [(0, 1, 2)])

    @pytest.mark.parametrize("n", [-1, 0, 2.5, True])
    def test_node_count_must_be_a_positive_integer(self, n):
        with pytest.raises(ConfigError, match="node count"):
            ContactGraph(n, [])

    def test_reversed_and_duplicate_pairs_collapse(self):
        g = ContactGraph(4, [(2, 1), (0, 3), (1, 2), (3, 0), (1, 2)])
        assert g.edges.dtype == np.int64
        assert g.edges.tolist() == [[0, 3], [1, 2]]
        assert g.edge_count == 2
        assert g.degrees.tolist() == [1, 1, 1, 1]

    def test_isolated_node_has_degree_zero(self):
        g = ContactGraph(4, [(0, 1)])
        assert g.degree(3) == 0 and g.degrees.tolist() == [1, 1, 0, 0]
        empty = ContactGraph(2, [])
        assert empty.edges.shape == (0, 2) and empty.degrees.tolist() == [0, 0]

    def test_leaves_caller_array_writable(self):
        edges = np.array([[1, 0], [1, 2]])
        g = ContactGraph(3, edges)
        assert edges.flags.writeable
        assert not g.edges.flags.writeable and not g.degrees.flags.writeable
        edges[:] = 0
        assert g.edges.tolist() == [[0, 1], [1, 2]]


class TestLoadGraph:
    def test_duplicate_edge_collapses(self):
        g = rs.load_graph("n 2\n0 1\n0 1")
        assert g.degrees.tolist() == [1, 1]
        assert g.edge_count == 1

    def test_self_loop_rejected(self):
        with pytest.raises(GraphFormatError) as err:
            rs.load_graph("n 2\n0 0")
        assert err.value.line == 2

    def test_node_id_out_of_range(self):
        with pytest.raises(GraphFormatError) as err:
            rs.load_graph("n 2\n0 2")
        assert err.value.line == 2

    def test_malformed_line(self):
        with pytest.raises(GraphFormatError):
            rs.load_graph("n 3\n0 1 2")
        with pytest.raises(GraphFormatError):
            rs.load_graph("n 3\nzero one")

    def test_missing_header(self):
        with pytest.raises(GraphFormatError):
            rs.load_graph("0 1\n1 2")
        with pytest.raises(GraphFormatError):
            rs.load_graph("")

    def test_comments_and_blanks_ignored(self):
        g = rs.load_graph("# path\nn 3\n\n0 1\n1 2\n")
        assert g.degrees.tolist() == [1, 2, 1]

    def test_roundtrip(self):
        g = rs.ring_with_hub(10)
        again = rs.load_graph(rs.graph_to_text(g))
        assert again.n == g.n and np.array_equal(g.edges, again.edges)

    @pytest.mark.parametrize("n", [10, 20, 40])
    def test_shipped_fixtures_are_the_writer_output(self, n):
        path = Path(__file__).resolve().parents[1] / "graphs" / f"ring_hub_{n}.txt"
        assert path.read_bytes() == rs.graph_to_text(rs.ring_with_hub(n)).encode()


class TestRingWithHub:
    def test_degrees(self):
        g = rs.ring_with_hub(10)
        assert g.degree(0) == 9
        assert all(g.degree(k) == 3 for k in range(1, 10))

    def test_too_small(self):
        with pytest.raises(ConfigError):
            rs.ring_with_hub(3)


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


def rate_at(cfg, i, j, graph=None):
    """The arrival rate at state (i, j), read from the array rate_function returns."""
    return rs.rate_function(cfg, graph)[cfg.space.index(i, j)]


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
        assert rate_at(cfg, 0, 0, star_graph(10)) == pytest.approx(4.5)

    def test_full_neighbor_adds_degree_pressure(self):
        cfg = self.het_config(0, Closure.FULL_NEIGHBOR)
        # neighbor sum d_k^2 / N = 81 / 10 on top of the external 4.5
        assert rate_at(cfg, 0, 0, star_graph(10)) == pytest.approx(4.5 + 8.1)

    def test_everyone_infected_keeps_neighbor_term(self):
        cfg = self.het_config(0)
        got = rate_at(cfg, 5, 5, star_graph(10))
        assert got == pytest.approx(81.0 / 10.0)  # external term vanished

    def test_isolated_node_rate_zero(self):
        cfg = self.het_config(0)
        assert rate_at(cfg, 2, 3, ContactGraph(10, [(1, 2)])) == 0.0

    def test_full_neighbor_dominates_mean_field(self):
        graph = rs.ring_with_hub(10)
        full = rs.rate_function(self.het_config(2, Closure.FULL_NEIGHBOR), graph)
        mean = rs.rate_function(self.het_config(2, Closure.MEAN_FIELD), graph)
        assert np.all(full >= mean)

    def test_config_errors(self):
        with pytest.raises(ConfigError):
            rs.rate_function(self.het_config(12), star_graph(10))  # k out of range
        with pytest.raises(ConfigError):
            rs.rate_function(self.het_config(0), star_graph(8))  # size mismatch


def test_rate_function_dispatch(wellmixed_config):
    assert rate_at(wellmixed_config, 0, 0) == 5.0
    het_cfg = ModelConfig(N=10, c=5, alpha=5.0, mu=0.4, theta=2.0,
                          mode="heterogeneous", tagged_node=2)
    assert rate_at(het_cfg, 0, 0, rs.ring_with_hub(10)) == pytest.approx(5.0 * 3 / 10)
    with pytest.raises(ConfigError):
        rs.rate_function(het_cfg)  # graph missing
