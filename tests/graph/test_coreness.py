"""Unit tests for core decomposition / degeneracy ordering."""

import pytest

from repro.graph.adjacency import Graph
from repro.graph.builders import complete_graph, cycle_graph, path_graph, star_graph
from repro.graph.coreness import (
    core_decomposition,
    degeneracy,
    degeneracy_ordering,
    k_core,
)
from repro.graph.generators import erdos_renyi_gnm, moon_moser


class TestDegeneracy:
    def test_empty(self):
        assert degeneracy(Graph(0)) == 0
        assert degeneracy(Graph(4)) == 0

    def test_complete_graph(self):
        assert degeneracy(complete_graph(6)) == 5

    def test_path(self):
        assert degeneracy(path_graph(10)) == 1

    def test_cycle(self):
        assert degeneracy(cycle_graph(10)) == 2

    def test_star(self):
        assert degeneracy(star_graph(9)) == 1

    def test_moon_moser(self):
        # K_{3,3,3} is 6-regular and 6-degenerate.
        assert degeneracy(moon_moser(3)) == 6


class TestOrderingProperty:
    @pytest.mark.parametrize("seed", range(5))
    def test_forward_degree_bounded_by_degeneracy(self, seed):
        """The defining property: each vertex has <= delta later neighbours."""
        g = erdos_renyi_gnm(40, 180, seed=seed)
        decomposition = core_decomposition(g)
        assert max(decomposition.forward_degree) <= decomposition.degeneracy

    def test_ordering_is_permutation(self):
        g = erdos_renyi_gnm(30, 100, seed=1)
        order = degeneracy_ordering(g)
        assert sorted(order) == list(range(30))

    def test_core_numbers_monotone_in_ordering(self):
        g = erdos_renyi_gnm(30, 150, seed=2)
        decomposition = core_decomposition(g)
        # Core numbers along the peel order never decrease.
        cores = [decomposition.core_number[v] for v in decomposition.order]
        assert all(a <= b for a, b in zip(cores, cores[1:]))


def _with_isolated_vertices():
    g = erdos_renyi_gnm(30, 70, seed=4)
    g.add_vertices(5)
    return g


FORWARD_GRAPHS = {
    **{f"er-{seed}": (lambda seed=seed: erdos_renyi_gnm(40, 180, seed=seed))
       for seed in range(5)},
    "empty": lambda: Graph(0),
    "edgeless": lambda: Graph(4),
    "isolated": _with_isolated_vertices,
    "k6": lambda: complete_graph(6),
}


class TestForwardDegree:
    @pytest.mark.parametrize("name", sorted(FORWARD_GRAPHS))
    def test_counts_later_neighbours(self, name):
        g = FORWARD_GRAPHS[name]()
        decomposition = core_decomposition(g)
        position = decomposition.position
        assert decomposition.forward_degree == [
            sum(1 for w in g.adj[v] if position[w] > position[v])
            for v in g.vertices()
        ]
        assert sum(decomposition.forward_degree) == g.m
        assert all(k <= decomposition.degeneracy
                   for k in decomposition.forward_degree)


class TestKCore:
    def test_k_core_of_clique_plus_pendant(self):
        g = complete_graph(4)
        v = g.add_vertex()
        g.add_edge(0, v)
        assert k_core(g, 3) == {0, 1, 2, 3}
        assert k_core(g, 1) == {0, 1, 2, 3, v}

    def test_k_core_empty_when_too_large(self):
        assert k_core(path_graph(5), 2) == set()

    def test_core_numbers_match_networkx(self):
        nx = pytest.importorskip("networkx")
        from repro.graph.builders import to_networkx

        g = erdos_renyi_gnm(50, 300, seed=3)
        ours = core_decomposition(g).core_number
        theirs = nx.core_number(to_networkx(g))
        assert ours == [theirs[v] for v in range(g.n)]
