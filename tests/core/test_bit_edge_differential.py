"""Branch-for-branch differential: the bitset edge engine against the set one.

The set engine (:mod:`repro.core.edge_engine`) assembles its top-level
branches with a triangle pass and every candidate view with rank lookups;
the bitset engine (:mod:`repro.core.bit_edge_engine`) peels each edge from
an ``alive`` copy of the candidate masks instead.  Both must build the very
same branches in the very same order.  Each run here replaces the vertex
phase with a spy that records the handed-off ``(S, C, X, view-or-None)``
without recursing, and wraps each engine's edge phase to record every
deeper edge branch ``(S, C, X, cand)``; the bitset side is translated
through ``bg.to_vertex`` before the two logs are compared.
"""

import json
import pathlib

import pytest

import repro.core.bit_edge_engine as bit_edge_engine
import repro.core.edge_engine as edge_engine
from repro.core.counters import Counters
from repro.core.phases import make_context
from repro.graph.bitadj import BitGraph, iter_bits
from repro.graph.io import load_graph
from repro.graph.truss import truss_edge_ordering

FIXTURES_DIR = pathlib.Path(__file__).parent.parent / "fixtures"
GOLDEN = json.loads((FIXTURES_DIR / "golden.json").read_text())

DEPTHS = [1, 2, None]
BIT_ORDERS = ["input", "degeneracy"]


def _set_run(g, depth, et_threshold, monkeypatch):
    """The set engine's branch log, emitted cliques and counters."""
    adj = g.adj
    log = []

    def view_of(cand, members):
        return {w: frozenset(cand[w]) for w in members}

    def spy_phase(S, C, X, cand, full, ctx):
        view = None if cand is adj else view_of(cand, C)
        log.append(("vertex", frozenset(S), frozenset(C), frozenset(X),
                    view))

    real = edge_engine.edge_phase

    def spy_edge(S, C, X, cand, *rest):
        log.append(("edge", frozenset(S), frozenset(C), frozenset(X),
                    view_of(cand, C)))
        real(S, C, X, cand, *rest)

    monkeypatch.setattr(edge_engine, "edge_phase", spy_edge)
    out = []
    counters = Counters()
    ctx = make_context(out.append, counters, et_threshold=et_threshold)
    ctx.phase = spy_phase
    edge_engine.run_edge_root(g, truss_edge_ordering(g), depth, ctx)
    return log, sorted(tuple(sorted(c)) for c in out), counters


def _bit_run(g, bit_order, depth, et_threshold, monkeypatch):
    """The bitset engine's log, translated to vertex ids."""
    bg = BitGraph.from_graph(g, order=bit_order)
    adj = bg.masks
    to_vertex = bg.to_vertex
    log = []

    def vertices(mask):
        return frozenset(to_vertex[b] for b in iter_bits(mask))

    def view_of(cand, members):
        return {to_vertex[w]: vertices(cand[w]) for w in iter_bits(members)}

    def spy_phase(S, C, X, cand, full, ctx):
        view = None if cand is adj else view_of(cand, C)
        log.append(("vertex", vertices(sum(1 << b for b in S)), vertices(C),
                    vertices(X), view))

    real = bit_edge_engine.bit_edge_phase

    def spy_edge(S, C, X, cand, *rest):
        log.append(("edge", vertices(sum(1 << b for b in S)), vertices(C),
                    vertices(X), view_of(cand, C)))
        real(S, C, X, cand, *rest)

    monkeypatch.setattr(bit_edge_engine, "bit_edge_phase", spy_edge)
    out = []
    counters = Counters()
    ctx = make_context(lambda bits: out.append(
        tuple(sorted(to_vertex[b] for b in bits))), counters,
        et_threshold=et_threshold, backend="bitset")
    ctx.phase = spy_phase
    bit_edge_engine.bit_run_edge_root(g, bg, truss_edge_ordering(g), depth,
                                      ctx)
    return log, sorted(out), counters


def _assert_same_branches(g, bit_order, depth, et_threshold, monkeypatch):
    set_log, set_out, set_counters = _set_run(g, depth, et_threshold,
                                              monkeypatch)
    bit_log, bit_out, bit_counters = _bit_run(g, bit_order, depth,
                                              et_threshold, monkeypatch)
    assert len(bit_log) == len(set_log)
    for i, (want, got) in enumerate(zip(set_log, bit_log)):
        assert got == want, f"branch {i} differs"
    assert bit_out == set_out
    assert bit_counters.as_dict() == set_counters.as_dict()
    return set_log


@pytest.mark.parametrize("bit_order", BIT_ORDERS)
@pytest.mark.parametrize("depth", DEPTHS)
@pytest.mark.parametrize("et_threshold", [0, 3])
@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_fixtures(name, et_threshold, depth, bit_order, monkeypatch):
    g = load_graph(FIXTURES_DIR / GOLDEN[name]["file"])
    log = _assert_same_branches(g, bit_order, depth, et_threshold,
                                monkeypatch)
    assert log, "no branch was handed off"


@pytest.mark.parametrize("bit_order", BIT_ORDERS)
@pytest.mark.parametrize("depth", DEPTHS)
def test_rank_inversion_witnesses(pruned_pair_graphs, depth, bit_order,
                                  monkeypatch):
    views = 0
    for g in pruned_pair_graphs:
        log = _assert_same_branches(g, bit_order, depth, 0, monkeypatch)
        views += sum(1 for kind, *_, view in log
                     if kind == "vertex" and view is not None)
    if depth == 1:
        # The witnesses exist to exercise the dual view at the root: some
        # handoff must carry one, or the comparison proved nothing about it.
        assert views > 0
