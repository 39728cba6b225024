"""Unit tests for the core Graph structure."""

import pytest

from repro.exceptions import InvalidParameterError, InvalidVertexError
from repro.graph.adjacency import Graph, canonical_edge
from repro.graph.builders import complete_graph


class TestConstruction:
    def test_empty_graph(self):
        g = Graph(0)
        assert g.n == 0
        assert g.m == 0
        assert list(g.edges()) == []

    def test_negative_vertex_count_rejected(self):
        with pytest.raises(InvalidParameterError):
            Graph(-1)

    def test_add_vertex_returns_new_id(self):
        g = Graph(2)
        assert g.add_vertex() == 2
        assert g.n == 3

    def test_add_vertices(self):
        g = Graph(1)
        g.add_vertices(4)
        assert g.n == 5

    def test_add_vertices_negative_rejected(self):
        with pytest.raises(InvalidParameterError):
            Graph(1).add_vertices(-1)


class TestEdges:
    def test_add_edge_is_symmetric(self):
        g = Graph(3)
        assert g.add_edge(0, 2)
        assert g.has_edge(0, 2)
        assert g.has_edge(2, 0)
        assert g.m == 1

    def test_duplicate_edge_not_counted(self):
        g = Graph(3)
        assert g.add_edge(0, 1)
        assert not g.add_edge(1, 0)
        assert g.m == 1

    def test_self_loop_rejected(self):
        g = Graph(3)
        with pytest.raises(InvalidParameterError):
            g.add_edge(1, 1)

    def test_unknown_vertex_rejected(self):
        g = Graph(3)
        with pytest.raises(InvalidVertexError) as info:
            g.add_edge(0, 7)
        # Unquoted, although InvalidVertexError is a KeyError.
        assert str(info.value) == "vertex 7 is out of range for n=3"

    def test_remove_edge(self):
        g = Graph(3)
        g.add_edge(0, 1)
        assert g.remove_edge(0, 1)
        assert not g.remove_edge(0, 1)
        assert g.m == 0

    def test_edges_canonical_form(self):
        g = Graph(4)
        g.add_edge(3, 1)
        g.add_edge(2, 0)
        assert sorted(g.edges()) == [(0, 2), (1, 3)]

    def test_add_edges_bulk(self):
        g = Graph(4)
        added = g.add_edges([(0, 1), (1, 2), (0, 1)])
        assert added == 2
        assert g.m == 2

    def test_isolate_vertex(self):
        g = complete_graph(4)
        g.isolate_vertex(0)
        assert g.degree(0) == 0
        assert g.m == 3
        assert not g.has_edge(0, 1)


class TestQueries:
    def test_degrees(self):
        g = Graph(3)
        g.add_edge(0, 1)
        g.add_edge(0, 2)
        assert g.degrees() == [2, 1, 1]
        assert g.max_degree() == 2

    def test_common_neighbors(self):
        g = complete_graph(4)
        assert g.common_neighbors(0, 1) == {2, 3}

    def test_common_neighbors_of_set(self):
        g = complete_graph(5)
        assert g.common_neighbors_of_set([0, 1]) == {2, 3, 4}
        assert g.common_neighbors_of_set([]) == set(range(5))

    def test_common_neighbors_of_set_excludes_members(self):
        g = complete_graph(3)
        assert g.common_neighbors_of_set([0, 1, 2]) == set()

    def test_contains(self):
        g = Graph(3)
        assert 2 in g
        assert 3 not in g

    def test_is_clique(self):
        g = complete_graph(4)
        assert g.is_clique([0, 1, 2])
        g.remove_edge(1, 2)
        assert not g.is_clique([0, 1, 2])
        assert g.is_clique([0])
        assert g.is_clique([])

    def test_edge_count_within(self):
        g = complete_graph(5)
        assert g.edge_count_within([0, 1, 2]) == 3
        assert g.edge_count_within([0]) == 0

    def test_density(self):
        g = complete_graph(4)
        assert g.density() == pytest.approx(6 / 4)
        assert Graph(0).density() == 0.0


class TestDerived:
    def test_copy_is_independent(self):
        g = complete_graph(3)
        h = g.copy()
        h.remove_edge(0, 1)
        assert g.has_edge(0, 1)
        assert not h.has_edge(0, 1)

    def test_equality(self):
        assert complete_graph(3) == complete_graph(3)
        assert complete_graph(3) != complete_graph(4)

    def test_subgraph_adjacency(self):
        g = complete_graph(5)
        sub = g.subgraph_adjacency([0, 1, 2])
        assert sub == {0: {1, 2}, 1: {0, 2}, 2: {0, 1}}

    def test_induced_subgraph_relabels(self):
        g = complete_graph(5)
        sub, old_ids = g.induced_subgraph([1, 3, 4])
        assert sub.n == 3
        assert sub.m == 3
        assert old_ids == [1, 3, 4]

    def test_complement_within(self):
        g = Graph(4)
        g.add_edge(0, 1)
        comp = g.complement_within([0, 1, 2])
        assert comp == {0: {2}, 1: {2}, 2: {0, 1}}

    def test_canonical_edge(self):
        assert canonical_edge(3, 1) == (1, 3)
        assert canonical_edge(1, 3) == (1, 3)
