"""Mirrored tests for the bitset branch backend.

Every behaviour tested here has a set-backend twin elsewhere in the suite;
these tests pin the bit implementations directly (phases, early
termination, edge engine) rather than only through the public API.
"""

import pytest

from repro.core.counters import Counters
from repro.core.frameworks import run_hybrid, run_vertex
from repro.core.phases import make_context
from repro.core.result import CliqueCollector
from repro.exceptions import InvalidParameterError
from repro.graph.adjacency import Graph
from repro.graph.bitadj import BitGraph, mask_of
from repro.graph.builders import complete_graph
from repro.graph.generators import erdos_renyi_gnm, random_3_plex


def _bit_run(g, *, vertex_strategy="tomita", et_threshold=0):
    collector = CliqueCollector()
    ctx = make_context(collector, et_threshold=et_threshold,
                       vertex_strategy=vertex_strategy, backend="bitset")
    bg = BitGraph.from_graph(g)
    ctx.phase([], bg.vertex_mask, 0, bg.masks, bg.masks, ctx)
    return collector.sorted_cliques(), ctx.counters


def _set_run(g, *, vertex_strategy="tomita", et_threshold=0):
    collector = CliqueCollector()
    ctx = make_context(collector, et_threshold=et_threshold,
                       vertex_strategy=vertex_strategy)
    adj = g.adj
    ctx.phase([], set(g.vertices()), set(), adj, adj, ctx)
    return collector.sorted_cliques(), ctx.counters


class TestBitPhases:
    @pytest.mark.parametrize("strategy", ["tomita", "ref", "none", "rcd", "fac"])
    @pytest.mark.parametrize("et", [0, 3])
    def test_matches_set_phase(self, strategy, et):
        g = erdos_renyi_gnm(28, 140, seed=13)
        bit_cliques, _ = _bit_run(g, vertex_strategy=strategy, et_threshold=et)
        set_cliques, _ = _set_run(g, vertex_strategy=strategy, et_threshold=et)
        assert bit_cliques == set_cliques

    def test_complete_graph_single_clique(self):
        cliques, counters = _bit_run(complete_graph(6))
        assert cliques == [tuple(range(6))]
        assert counters.emitted == 0  # raw context: no counting sink wrapped

    def test_empty_candidate_set_emits_s(self):
        collector = CliqueCollector()
        ctx = make_context(collector, backend="bitset")
        ctx.phase([4, 7], 0, 0, [], [], ctx)
        assert collector.cliques == [(4, 7)]

    def test_exclusion_vertex_blocks_emission(self):
        collector = CliqueCollector()
        ctx = make_context(collector, backend="bitset")
        ctx.phase([1], 0, mask_of([0]), [0, 0], [0, 0], ctx)
        assert collector.cliques == []

    def test_plex_early_termination_counts(self):
        g = random_3_plex(12, seed=3)
        bit_cliques, bit_counters = _bit_run(g, et_threshold=3)
        set_cliques, set_counters = _set_run(g, et_threshold=3)
        assert bit_cliques == set_cliques
        assert bit_counters.et_cliques == set_counters.et_cliques
        assert bit_counters.plex_terminable == set_counters.plex_terminable


class TestBitFrameworks:
    def test_run_hybrid_bitset_counts_match(self):
        g = erdos_renyi_gnm(40, 260, seed=21)
        set_sink, bit_sink = CliqueCollector(), CliqueCollector()
        set_counters = run_hybrid(g, set_sink, backend="set")
        bit_counters = run_hybrid(g, bit_sink, backend="bitset")
        assert set_sink.sorted_cliques() == bit_sink.sorted_cliques()
        assert set_counters.emitted == bit_counters.emitted
        assert set_counters.reduction_removed == bit_counters.reduction_removed

    @pytest.mark.parametrize("depth", [1, 2, None])
    def test_run_hybrid_bitset_edge_depths(self, depth):
        g = erdos_renyi_gnm(35, 220, seed=8)
        set_sink, bit_sink = CliqueCollector(), CliqueCollector()
        run_hybrid(g, set_sink, edge_depth=depth, graph_reduction=False,
                   backend="set")
        run_hybrid(g, bit_sink, edge_depth=depth, graph_reduction=False,
                   backend="bitset")
        assert set_sink.sorted_cliques() == bit_sink.sorted_cliques()

    @pytest.mark.parametrize("ordering", [None, "degeneracy", "degree"])
    def test_run_vertex_bitset_orderings(self, ordering):
        g = erdos_renyi_gnm(30, 180, seed=17)
        set_sink, bit_sink = CliqueCollector(), CliqueCollector()
        run_vertex(g, set_sink, ordering_kind=ordering, backend="set")
        run_vertex(g, bit_sink, ordering_kind=ordering, backend="bitset")
        assert set_sink.sorted_cliques() == bit_sink.sorted_cliques()

    def test_empty_graph(self):
        sink = CliqueCollector()
        counters = run_hybrid(Graph(0), sink, backend="bitset")
        assert sink.cliques == [] and counters.emitted == 0

    def test_isolated_vertices_are_singletons(self):
        g = Graph(3)
        g.add_edge(0, 1)
        sink = CliqueCollector()
        run_hybrid(g, sink, graph_reduction=False, backend="bitset")
        assert sink.sorted_cliques() == [(0, 1), (2,)]

    def test_unknown_backend_rejected(self):
        with pytest.raises(InvalidParameterError):
            run_hybrid(Graph(2), CliqueCollector(), backend="numpy")
        with pytest.raises(InvalidParameterError):
            run_vertex(Graph(2), CliqueCollector(), backend="numpy")

    def test_unknown_backend_rejected_in_make_context(self):
        with pytest.raises(InvalidParameterError):
            make_context(CliqueCollector(), backend="frozenset")
