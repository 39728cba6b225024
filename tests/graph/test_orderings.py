"""Unit tests for vertex and edge orderings."""

import pytest

from repro.exceptions import InvalidParameterError
from repro.graph.bitadj import BitGraph
from repro.graph.builders import complete_graph, star_graph
from repro.graph.generators import erdos_renyi_gnm
from repro.graph.orderings import (
    degen_lex_edge_ordering,
    degree_ordering,
    edge_ordering,
    min_degree_edge_ordering,
    vertex_ordering,
)
from repro.graph.truss import truss_edge_ordering


class TestVertexOrderings:
    def test_degree_ordering_sorted(self):
        g = star_graph(5)
        order = degree_ordering(g)
        degrees = [g.degree(v) for v in order]
        assert degrees == sorted(degrees)
        assert order[-1] == 0  # the hub comes last

    def test_vertex_ordering_dispatch(self):
        g = complete_graph(4)
        assert sorted(vertex_ordering(g, "degeneracy")) == [0, 1, 2, 3]
        assert sorted(vertex_ordering(g, "degree")) == [0, 1, 2, 3]

    def test_unknown_vertex_ordering(self):
        with pytest.raises(InvalidParameterError):
            vertex_ordering(complete_graph(3), "bogus")


class TestEdgeOrderings:
    @pytest.mark.parametrize("kind", ["truss", "degen-lex", "min-degree"])
    def test_permutation(self, kind):
        g = erdos_renyi_gnm(20, 90, seed=4)
        ordering = edge_ordering(g, kind)
        assert sorted(ordering.order) == sorted(g.edges())
        assert ordering.kind == kind

    def test_unknown_edge_ordering(self):
        with pytest.raises(InvalidParameterError):
            edge_ordering(complete_graph(3), "bogus")

    @pytest.mark.parametrize("kind", ["truss", "degen-lex", "min-degree"])
    def test_bit_graph_changes_nothing(self, kind):
        g = erdos_renyi_gnm(25, 120, seed=7)
        bg = BitGraph.from_graph(g, order="degeneracy")
        plain = edge_ordering(g, kind)
        packed = edge_ordering(g, kind, bit_graph=bg)
        assert packed.order == plain.order
        assert packed.tau == plain.tau

    def test_min_degree_keys_nondecreasing(self):
        g = erdos_renyi_gnm(20, 80, seed=5)
        ordering = min_degree_edge_ordering(g)
        keys = [min(g.degree(u), g.degree(v)) for u, v in ordering.order]
        assert keys == sorted(keys)

    def test_degen_lex_follows_positions(self):
        from repro.graph.coreness import core_decomposition

        g = erdos_renyi_gnm(20, 80, seed=6)
        position = core_decomposition(g).position
        ordering = degen_lex_edge_ordering(g)
        keys = [
            tuple(sorted((position[u], position[v])))
            for u, v in ordering.order
        ]
        assert keys == sorted(keys)

    @pytest.mark.parametrize("seed", range(3))
    def test_truss_bound_not_worse_than_alternatives(self, seed):
        """The truss order's instance bound is minimal among the three
        (that is the entire point of Table VI)."""
        g = erdos_renyi_gnm(30, 180, seed=seed)
        tau_truss = truss_edge_ordering(g).tau
        assert tau_truss <= degen_lex_edge_ordering(g).tau
        assert tau_truss <= min_degree_edge_ordering(g).tau
