"""Unit tests for the framework entry points (run_hybrid / run_vertex)."""

import pytest

from repro.core.frameworks import run_hybrid, run_vertex
from repro.core.result import CliqueCollector
from repro.exceptions import InvalidParameterError
from repro.graph.builders import complete_graph, disjoint_union, path_graph
from repro.graph.generators import erdos_renyi_gnm
from repro.verify import brute_force_maximal_cliques


def _canon(cliques):
    return sorted(tuple(sorted(c)) for c in cliques)


class TestRunHybrid:
    def test_counts_emitted(self):
        sink = CliqueCollector()
        counters = run_hybrid(complete_graph(4), sink)
        assert counters.emitted == 1
        assert len(sink) == 1

    def test_bad_edge_depth(self):
        with pytest.raises(InvalidParameterError):
            run_hybrid(complete_graph(3), lambda c: None, edge_depth=0)

    # Regression: these used to run as a neighbouring valid value
    # (1.5 as depth 2, True as depth 1 or t=1, "no" as reduction on).
    @pytest.mark.parametrize("knob, value", [
        ("edge_depth", 1.5), ("edge_depth", True), ("edge_depth", "1"),
        ("et_threshold", True), ("et_threshold", 1.0),
        ("et_threshold", False), ("graph_reduction", "no"),
        ("graph_reduction", 1), ("graph_reduction", None),
    ])
    def test_knob_types_are_exact(self, knob, value):
        emitted = []
        with pytest.raises(InvalidParameterError, match=knob):
            run_hybrid(complete_graph(3), emitted.append, **{knob: value})
        assert emitted == []  # rejected before reduction could emit

    @pytest.mark.parametrize("gr", [False, True])
    @pytest.mark.parametrize("et", [0, 3])
    def test_option_matrix(self, gr, et):
        g = erdos_renyi_gnm(14, 40, seed=2)
        sink = CliqueCollector()
        run_hybrid(g, sink, et_threshold=et, graph_reduction=gr)
        assert sink.sorted_cliques() == _canon(brute_force_maximal_cliques(g))

    def test_reduction_counters(self):
        g = disjoint_union(path_graph(5), complete_graph(4))
        sink = CliqueCollector()
        counters = run_hybrid(g, sink, graph_reduction=True)
        assert counters.reduction_removed > 0
        assert counters.reduction_emitted > 0
        assert sink.sorted_cliques() == _canon(brute_force_maximal_cliques(g))

    def test_counters_accumulate_into_given_instance(self):
        from repro.core.counters import Counters

        counters = Counters()
        run_hybrid(complete_graph(4), lambda c: None, counters=counters)
        first = counters.total_calls
        run_hybrid(complete_graph(4), lambda c: None, counters=counters)
        assert counters.total_calls > first


class TestRunVertex:
    @pytest.mark.parametrize("ordering", [None, "degeneracy", "degree"])
    def test_orderings(self, ordering):
        g = erdos_renyi_gnm(14, 45, seed=3)
        sink = CliqueCollector()
        run_vertex(g, sink, ordering_kind=ordering)
        assert sink.sorted_cliques() == _canon(brute_force_maximal_cliques(g))

    def test_isolated_vertices_reported(self):
        from repro.graph.adjacency import Graph

        g = Graph(3)
        g.add_edge(0, 1)
        sink = CliqueCollector()
        run_vertex(g, sink, ordering_kind="degeneracy")
        assert sink.sorted_cliques() == [(0, 1), (2,)]

    @pytest.mark.parametrize("knob, value", [
        ("et_threshold", True), ("et_threshold", 2.0),
        ("graph_reduction", "no"), ("graph_reduction", 0),
    ])
    def test_knob_types_are_exact(self, knob, value):
        with pytest.raises(InvalidParameterError, match=knob):
            run_vertex(complete_graph(3), lambda c: None, **{knob: value})

    def test_suppression_counter_with_reduction(self):
        # A triangle: reduction emits it, the engine gets an empty graph.
        sink = CliqueCollector()
        counters = run_vertex(complete_graph(3), sink, graph_reduction=True)
        assert sink.sorted_cliques() == [(0, 1, 2)]
        assert counters.emitted == 1
