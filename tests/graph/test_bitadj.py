"""Unit tests for the bit-parallel adjacency view."""

import pytest

from repro.exceptions import InvalidParameterError, InvalidVertexError
from repro.graph.adjacency import Graph
from repro.graph.bitadj import (
    BitGraph,
    bits_to_tuple,
    iter_bits,
    mask_of,
    popcount,
)
from repro.graph.builders import complete_graph
from repro.graph.generators import erdos_renyi_gnm


class TestBitHelpers:
    def test_iter_bits_ascending(self):
        assert list(iter_bits(0b101101)) == [0, 2, 3, 5]

    def test_iter_bits_empty(self):
        assert list(iter_bits(0)) == []

    def test_round_trip(self):
        vertices = {0, 3, 17, 64, 200}
        assert set(bits_to_tuple(mask_of(vertices))) == vertices

    def test_popcount(self):
        assert popcount(mask_of(range(10))) == 10
        assert popcount(0) == 0


class TestBitGraph:
    def test_identity_mapping_matches_graph(self):
        g = erdos_renyi_gnm(30, 120, seed=5)
        bg = BitGraph.from_graph(g)
        for v in g.vertices():
            assert bits_to_tuple(bg.neighbors_mask(v)) == tuple(sorted(g.neighbors(v)))
            assert bg.degree(v) == g.degree(v)
        for u in g.vertices():
            for v in g.vertices():
                if u != v:
                    assert bg.has_edge(u, v) == g.has_edge(u, v)

    def test_common_neighbors(self):
        g = complete_graph(5)
        bg = BitGraph.from_graph(g)
        assert bits_to_tuple(bg.common_neighbors_mask(0, 1)) == (2, 3, 4)

    def test_vertex_mask(self):
        g = Graph(4)
        assert BitGraph.from_graph(g).vertex_mask == 0b1111

    def test_subgraph_masks(self):
        g = complete_graph(4)
        bg = BitGraph.from_graph(g)
        members = mask_of([0, 2, 3])
        sub = bg.subgraph_masks(members)
        assert set(sub) == {0, 2, 3}
        assert bits_to_tuple(sub[0]) == (2, 3)
        assert bits_to_tuple(sub[2]) == (0, 3)

    def test_custom_order_permutes_bits(self):
        g = Graph(3)
        g.add_edge(0, 1)
        bg = BitGraph.from_graph(g, order=[2, 1, 0])  # vertex 2 -> bit 0
        assert bg.to_vertex == [2, 1, 0]
        assert bg.bit_of[0] == 2 and bg.bit_of[2] == 0
        # Vertices 0 and 1 live in bits 2 and 1; the edge must follow them.
        assert bg.has_edge(2, 1) and bg.has_edge(1, 2)
        assert not bg.has_edge(0, 1)

    def test_bad_order_rejected(self):
        g = Graph(3)
        for bad in ([0, 0, 1], [0, 1, 2.0], [0, True, 2]):
            with pytest.raises(InvalidParameterError):
                BitGraph.from_graph(g, order=bad)

    def test_out_of_range_bit_rejected(self):
        bg = BitGraph.from_graph(Graph(2))
        with pytest.raises(InvalidVertexError) as excinfo:
            bg.neighbors_mask(5)
        assert str(excinfo.value) == "bit 5 is out of range for n=2"

    def test_empty_graph(self):
        bg = BitGraph.from_graph(Graph(0))
        assert bg.n == 0
        assert bg.vertex_mask == 0
