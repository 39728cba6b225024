"""Bit-parallel edge-oriented branching: the ``backend="bitset"`` edge engine.

Structural twin of :mod:`repro.core.edge_engine` — the same Eq. 2/3
semantics and rank invariant — with the branch state ``(C, X)``, the
candidate views and the graph adjacency all expressed as ``int`` bitmasks
(see :mod:`repro.graph.bitadj`).  Rank lookups keep the flat ``u * n + v``
key of the set engine; only the vertex *sets* change representation.

The peel invariant
------------------
Eq. 2 forms the i-th sub-branch of a branch from ``E(gC) \\ {e1..e(i-1)}``:
processed edges simply leave the candidate graph, the edge analogue of
Bron–Kerbosch's ``P.remove(v); X.add(v)``.  Both edge levels
(:func:`bit_run_edge_root` and :func:`bit_edge_phase`) therefore walk the
branch's candidate edges in rank order over ``alive``, a copy of the
branch's candidate masks, and clear each edge from ``alive`` once its
sub-branch is built.  When edge ``r = (a, b)`` comes up, ``alive`` holds
exactly the candidate pairs ranked at or after ``r``, so its sub-branch is

* candidates ``C = alive[a] & alive[b]`` — the common neighbours whose
  edges to ``a`` and ``b`` both rank after ``r``;
* exclusions ``X = adj[a] & adj[b] & ~C`` (below the root, within
  ``universe``) — every other common graph neighbour;
* a dual candidate view only when some ``w`` in ``C`` has a graph
  neighbour in ``C`` that is no longer alive for it (see
  :func:`_bit_dual_view`); the view is then ``{w: alive[w] & C}``.

Each is a handful of word-parallel operations per edge, and no rank
lookup happens inside the walk: the rank table is built only when a deeper
edge level must sort its edges.  Below the root a chain of ANDs starts
from the branch's own ``C`` or ``universe``: ``adj`` may hold the whole
graph's masks, ``n`` bits long, and a partial product of two of them
would be as long (the in-place subproblems of
:mod:`repro.parallel.decompose`).  The set engine keeps its triangle-pass
root as the independent reference.

Tiny root branches
------------------
Under HBBMC most root branches are far below the τ bound: on sparse
social and web graphs the majority have ``|C| <= 2``.  The tomita phase
answers such a branch with one or two mask tests and reads its candidate
view only for the one pair inside ``C``
(:func:`repro.core.bit_phases.bit_pivot_phase`).  ``alive`` agrees with
the view :func:`_bit_dual_view` would build on that pair, so with the
default tomita phase the root hands those branches ``alive`` and skips
the dual-view scan: it runs only on root branches with ``|C| >= 3``.
Other vertex strategies, and :func:`bit_edge_phase` below the root,
build the view for every branch.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.core.bit_phases import bit_pivot_phase, bit_try_early_termination
from repro.core.phases import EngineContext
from repro.graph.adjacency import Graph
from repro.graph.bitadj import BitGraph, iter_bits
# Unused here, but kept bound: perfbench/layers.py wraps this name.
from repro.graph.coreness import core_decomposition  # noqa: F401
from repro.graph.truss import EdgeOrdering

BitAdjacency = Mapping[int, int] | Sequence[int]


def _alive_masks(C: int, alive: BitAdjacency) -> dict[int, int]:
    """The masks of ``C``'s members over the pairs still alive in ``C``."""
    return {w: alive[w] & C for w in iter_bits(C)}


def _bit_dual_view(
    C: int, alive: BitAdjacency, adj: Sequence[int]
) -> dict[int, int] | None:
    """Candidate masks over ``C`` or ``None`` when nothing is pruned.

    A graph edge inside ``C`` that is not alive for its endpoint ranks at
    or before the branch's defining edge, or was pruned above this branch.
    ``None`` means there is no such edge: the candidate structure equals
    ``G[C]`` and the caller hands the plain graph masks to the vertex phase
    (the fast "same-view" mode).
    """
    rest = C
    while rest:
        low = rest & -rest
        rest ^= low
        w = low.bit_length() - 1
        if C & adj[w] & ~alive[w]:
            return _alive_masks(C, alive)
    return None


def bit_edge_phase(
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
) -> None:
    """One edge-oriented branch on bitmask state (mirrors ``edge_phase``).

    ``cand`` holds the candidate mask of every member of ``C``; every pair
    in it already ranks after ``threshold``, the rank of the branch's
    defining edge, so the walk itself never consults the threshold.
    """
    counters = ctx.counters
    counters.edge_calls += 1
    if not C:
        if not X:
            ctx.sink(tuple(S))
        return
    if ctx.et_threshold and bit_try_early_termination(S, C, X, cand, adj, ctx):
        return

    # Candidate edges of this branch, processed in global rank order.
    edges: list[tuple[int, int, int]] = []
    rest = C
    while rest:
        low = rest & -rest
        rest ^= low
        u = low.bit_length() - 1
        un = u * n
        above = cand[u] & (-1 << (u + 1))  # bits strictly greater than u
        while above:
            alow = above & -above
            above ^= alow
            v = alow.bit_length() - 1
            edges.append((rank[un + v], u, v))
    edges.sort()

    universe = C | X
    descend_edges = depth is None or depth > 1
    next_depth = None if depth is None else depth - 1
    vertex_phase = ctx.phase
    alive = dict(cand)

    for edge_rank, a, b in edges:
        new_c = alive[a] & alive[b]
        new_x = universe & adj[a] & adj[b] & ~new_c
        alive[a] ^= 1 << b
        alive[b] ^= 1 << a
        S.append(a)
        S.append(b)
        if descend_edges:
            bit_edge_phase(S, new_c, new_x, _alive_masks(new_c, alive), adj,
                           rank, n, edge_rank, next_depth, ctx)
        else:
            view = _bit_dual_view(new_c, alive, adj)
            vertex_phase(S, new_c, new_x, adj if view is None else view,
                         adj, ctx)
        S.pop()
        S.pop()

    # Eq. (3): vertices isolated in the candidate structure.
    rest = C
    while rest:
        low = rest & -rest
        rest ^= low
        v = low.bit_length() - 1
        if cand[v]:
            continue
        counters.singleton_branches += 1
        if not adj[v] & universe:
            S.append(v)
            ctx.sink(tuple(S))
            S.pop()


def _bit_edge_pairs(
    bg: BitGraph, ordering: EdgeOrdering
) -> list[tuple[int, int]]:
    """The ordering's edges translated to (low-bit, high-bit) pairs.

    The engines key their rank lookups as ``min * n + max`` over *bit*
    positions, so under a packed bit order the vertex-space edge ordering
    must be mapped through ``bg.bit_of`` first.  The identity mapping only
    normalises pair orientation (already ``u < v`` in every ordering).
    """
    if bg.is_identity:
        return ordering.order
    bit_of = bg.bit_of
    pairs: list[tuple[int, int]] = []
    for u, v in ordering.order:
        a, b = bit_of[u], bit_of[v]
        pairs.append((a, b) if a < b else (b, a))
    return pairs


def _rank_table(pairs: list[tuple[int, int]], n: int) -> dict[int, int]:
    """Flat ``u * n + v`` key of every (low-bit, high-bit) pair -> rank."""
    return {u * n + v: r for r, (u, v) in enumerate(pairs)}


def bit_run_edge_root_with_x(
    g: Graph,
    bg: BitGraph,
    C: int,
    X: int,
    ordering: EdgeOrdering,
    depth: int | None,
    ctx: EngineContext,
) -> None:
    """The initial branch of a subproblem seeded with exclusion state.

    Bitmask twin of :func:`repro.core.edge_engine.run_edge_root_with_x`:
    one :func:`bit_edge_phase` call at ``threshold = -1`` on the branch
    ``(S = {}, C, X)``.  ``bg`` is the bit view of ``g`` under any bit
    order (including the ``C``–``X`` edges); ``C``/``X`` are masks in
    ``bg``'s bit space and ``ordering`` only needs to rank the edges of
    ``G[C]`` (in vertex space — it is translated here).
    """
    adj = bg.masks
    n = g.n
    rank = _rank_table(_bit_edge_pairs(bg, ordering), n)
    bit_edge_phase([], C, X, _alive_masks(C, adj), adj, rank, n, -1, depth,
                   ctx)


def bit_run_edge_root(
    g: Graph,
    bg: BitGraph,
    ordering: EdgeOrdering,
    depth: int | None,
    ctx: EngineContext,
) -> None:
    """The initial branch on bitmasks (mirrors ``run_edge_root``).

    The branch ``(S = {}, C = V, X = {})`` peeled edge by edge in rank
    order: the ordering *is* the sorted candidate edge list, and ``alive``
    starts as the whole graph.  ``bg`` may use any bit order; the engine
    runs entirely in bit space (the edge ordering is translated through
    ``bg.bit_of`` and the branch stack ``S`` holds bit positions), so with
    a packed order the caller's sink must translate emitted bits back to
    vertex ids.
    """
    counters = ctx.counters
    counters.edge_calls += 1
    adj = bg.masks
    n = g.n
    if ctx.et_threshold and bit_try_early_termination(
        [], bg.vertex_mask, 0, adj, adj, ctx
    ):
        return

    pairs = _bit_edge_pairs(bg, ordering)
    descend_edges = depth is None or depth > 1
    next_depth = None if depth is None else depth - 1
    rank = _rank_table(pairs, n) if descend_edges else {}
    vertex_phase = ctx.phase
    tiny = vertex_phase is bit_pivot_phase  # the tomita rule's phase
    alive = list(adj)

    S: list[int] = []
    for edge_rank, (a, b) in enumerate(pairs):
        new_c = alive[a] & alive[b]
        new_x = adj[a] & adj[b] & ~new_c
        alive[a] ^= 1 << b
        alive[b] ^= 1 << a
        S.append(a)
        S.append(b)
        if descend_edges:
            bit_edge_phase(S, new_c, new_x, _alive_masks(new_c, alive), adj,
                           rank, n, edge_rank, next_depth, ctx)
        elif tiny and new_c.bit_count() <= 2:
            # The tomita phase reads this branch's view only for the one
            # pair in C, where ``alive`` agrees with _bit_dual_view's.
            vertex_phase(S, new_c, new_x, alive, adj, ctx)
        else:
            view = _bit_dual_view(new_c, alive, adj)
            vertex_phase(S, new_c, new_x, adj if view is None else view,
                         adj, ctx)
        S.pop()
        S.pop()

    # Eq. (3) at the root: vertices with no incident edge at all.
    for v in range(n):
        if adj[v]:
            continue
        counters.singleton_branches += 1
        ctx.sink((v,))
