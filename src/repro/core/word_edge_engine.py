"""Word-backend edge-oriented branching (``backend="words"``).

Edge-level state is small and irregular — a rank table and the ``alive``
candidate masks each edge level peels in rank order (the bit engine's peel
invariant) — and the bit engine already runs it on ``int`` masks with no
per-member set churn.  What the word backend changes is where the *time*
goes: the vertex phases below the edge levels.
So this module runs the literal bit edge engine
(:mod:`repro.core.bit_edge_engine`) with the word bridge installed as its
vertex phase: every same-view branch above the dispatch threshold is lifted
into the vectorised word kernels, everything else (dual-view candidate
views, small branches) stays on the bit twins.  Counters, emission order
and clique streams are therefore *identical* to the bitset backend — the
two differ only in how fast the big branches resolve.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.core.bit_edge_engine import (
    bit_edge_phase,
    bit_run_edge_root,
    bit_run_edge_root_with_x,
)
from repro.core.phases import EngineContext
from repro.core.word_phases import make_word_bridge
from repro.graph.adjacency import Graph
from repro.graph.wordadj import WordGraph, WordWorkspace
from repro.graph.truss import EdgeOrdering


def word_edge_phase(
    S: list[int],
    C: int,
    X: int,
    cand: Mapping[int, int],
    adj: Sequence[int],
    rank: dict[int, int],
    n: int,
    threshold: int,
    depth: int | None,
    ctx: EngineContext,
    wg: WordGraph | None = None,
    ws: WordWorkspace | None = None,
) -> None:
    """One edge-oriented branch under the words backend.

    ``(C, X)``, the views and the rank table keep the bit engine's ``int``
    conventions; ``ctx`` is the words context.  When ``wg`` is omitted a
    word view is packed from ``adj`` (identity order) — callers on the hot
    path pass their cached one.
    """
    if wg is None:
        wg = WordGraph.from_masks(adj, n)
    bit_edge_phase(S, C, X, cand, adj, rank, n, threshold, depth,
                   make_word_bridge(ctx, wg, ws))


def word_run_edge_root(
    g: Graph,
    wg: WordGraph,
    ordering: EdgeOrdering,
    depth: int | None,
    ctx: EngineContext,
) -> None:
    """The initial branch (S = {}, C = V) under the words backend.

    Word twin of :func:`repro.core.edge_engine.run_edge_root`: the bit
    engine's root — the whole edge ordering peeled from ``alive`` in rank
    order — runs verbatim on ``wg.bit``, with vertex handoffs crossing
    into word space through the bridge.
    """
    bit_run_edge_root(g, wg.bit, ordering, depth, make_word_bridge(ctx, wg))


def word_run_edge_root_with_x(
    g: Graph,
    wg: WordGraph,
    C: int,
    X: int,
    ordering: EdgeOrdering,
    depth: int | None,
    ctx: EngineContext,
) -> None:
    """The initial branch of a subproblem seeded with exclusion state.

    ``C``/``X`` are masks in ``wg``'s bit space, exactly as the bitset twin
    takes them; see :func:`repro.core.bit_edge_engine.bit_run_edge_root_with_x`.
    """
    bit_run_edge_root_with_x(g, wg.bit, C, X, ordering, depth,
                             make_word_bridge(ctx, wg))
