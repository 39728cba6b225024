"""The rank-threshold fix: why the vertex phase must not re-induce from G.

Algorithm 4 as printed hands each edge branch to a VBBMC recursion whose
Eq. (1) re-induces candidate graphs from G *by vertex set*.  When two
candidates of a branch are joined by an edge ranked *before* the branch's
defining edge, that re-induction resurrects the pair and the clique
containing it is enumerated twice (once here, once in the earlier branch
that owns the pair).  Our engine keeps the rank threshold through the
vertex phase instead; `_candidate_view` detects affected branches in the
set engine, and `_bit_dual_view` (a graph edge inside the branch that the
rank peel already cleared) in the bitset engine.

These tests (a) take real graphs with such rank-inverted pairs (the
`pruned_pair_graphs` fixture of this directory's conftest), (b) show both
engines stay duplicate-free on them, and (c) demonstrate that ignoring the
threshold (the literal reading) produces duplicates in either engine.
"""

import pytest

import repro.core.bit_edge_engine as bit_edge_engine
import repro.core.edge_engine as edge_engine
from repro.core.bit_edge_engine import bit_run_edge_root
from repro.core.counters import Counters
from repro.core.edge_engine import run_edge_root
from repro.core.phases import make_context
from repro.graph.bitadj import BitGraph
from repro.graph.builders import to_networkx
from repro.graph.truss import truss_edge_ordering

BIT_ORDERS = ["input", "degeneracy"]


def _canon(cliques):
    return sorted(tuple(sorted(c)) for c in cliques)


def _reference(g):
    nx = pytest.importorskip("networkx")
    return _canon(nx.find_cliques(to_networkx(g)))


def _bit_cliques(g, bit_order, et_threshold):
    """HBBMC through the bitset root, cliques translated to vertex ids."""
    bg = BitGraph.from_graph(g, order=bit_order)
    to_vertex = bg.to_vertex
    out = []
    ctx = make_context(lambda bits: out.append([to_vertex[b] for b in bits]),
                       Counters(), et_threshold=et_threshold,
                       backend="bitset")
    bit_run_edge_root(g, bg, truss_edge_ordering(g), 1, ctx)
    return out


def _wrong(out, g):
    return _canon(out) != _reference(g) \
        or len(out) != len(set(map(frozenset, out)))


class TestCorrectSemantics:
    def test_no_duplicates_on_witness_graphs(self, pruned_pair_graphs):
        for g in pruned_pair_graphs:
            out = []
            ctx = make_context(out.append, Counters(), et_threshold=3)
            run_edge_root(g, truss_edge_ordering(g), 1, ctx)
            assert len(out) == len(set(map(frozenset, out)))
            assert _canon(out) == _reference(g)

    @pytest.mark.parametrize("bit_order", BIT_ORDERS)
    @pytest.mark.parametrize("et_threshold", [0, 3])
    def test_bitset_root_no_duplicates_on_witness_graphs(
            self, pruned_pair_graphs, bit_order, et_threshold):
        for g in pruned_pair_graphs:
            out = _bit_cliques(g, bit_order, et_threshold)
            assert len(out) == len(set(map(frozenset, out)))
            assert _canon(out) == _reference(g)


class TestLiteralReadingFails:
    def test_ignoring_threshold_double_counts(self, pruned_pair_graphs,
                                              monkeypatch):
        """Force every branch into 'same-view' mode (the paper's literal
        Eq. (1) re-induction): at least one witness graph must now emit a
        duplicate or wrong clique set."""
        monkeypatch.setattr(
            edge_engine, "_candidate_view",
            lambda members, parent_cand, adj, rank, n, threshold: None,
        )
        broken_somewhere = False
        for g in pruned_pair_graphs:
            out = []
            ctx = make_context(out.append, Counters(), et_threshold=0)
            run_edge_root(g, truss_edge_ordering(g), 1, ctx)
            expected = _reference(g)
            if _canon(out) != expected or len(out) != len(set(map(frozenset, out))):
                broken_somewhere = True
                break
        assert broken_somewhere, (
            "literal re-induction unexpectedly produced correct results on "
            "all witnesses — the fix would be unnecessary"
        )

    @pytest.mark.parametrize("bit_order", BIT_ORDERS)
    def test_bitset_prune_check_is_load_bearing(self, pruned_pair_graphs,
                                                monkeypatch, bit_order):
        """The bitset engine's prune check, forced to report 'nothing
        pruned', hands every branch the plain graph masks: the same literal
        re-induction, and it must go wrong on some witness."""
        monkeypatch.setattr(bit_edge_engine, "_bit_dual_view",
                            lambda C, alive, adj: None)
        assert any(_wrong(_bit_cliques(g, bit_order, 0), g)
                   for g in pruned_pair_graphs), (
            "forcing same-view mode left every witness correct — the "
            "bitset prune check would be unnecessary"
        )
