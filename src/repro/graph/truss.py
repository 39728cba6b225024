"""Truss-based edge ordering (Section III-B of the paper).

The ordering is produced by a greedy peel: repeatedly remove from the
remaining graph the edge whose endpoints have the fewest common neighbours
(its *support*), appending it to the ordering.  Processing edges in this
order guarantees that, for every edge ``e = (a, b)``, the set

    C(e) = { w : (a, w) and (b, w) both come later in the ordering }

has at most ``tau`` vertices, where ``tau`` is the maximum support observed
at removal time.  ``tau`` is strictly smaller than the degeneracy ``delta``
on all non-degenerate graphs (Wang et al. 2024, the paper's reference [19]),
which is exactly why the hybrid framework branches on edges first.

The peel uses a lazy bucket queue over support values (supports only move
down by 1 per removed triangle, like the core-decomposition peel), so the
whole ordering costs O(m + #triangles) beyond the initial support
computation, in O(m) memory.  The initial supports are one set
intersection per edge (O(sum of min(deg u, deg v))), or, when the caller
already holds the graph's bitmask view, one AND and popcount per edge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.exceptions import InvalidParameterError
from repro.graph.adjacency import Edge, Graph, canonical_edge

if TYPE_CHECKING:
    from repro.graph.bitadj import BitGraph


@dataclass
class EdgeOrdering:
    """An edge ordering together with its rank map and instance bound.

    Attributes:
        order: edges in processing order (canonical (u, v) with u < v).
        rank: ``rank[e]`` is the position of ``e`` in ``order``.
        tau: the maximum size of a top-level candidate instance under this
            ordering, i.e. ``max_e |C(e)|`` (for the truss ordering this is
            the paper's tau).
        kind: human-readable name of the ordering strategy.
    """

    order: list[Edge]
    rank: dict[Edge, int] = field(repr=False)
    tau: int
    kind: str = "truss"


def truss_edge_ordering(g: Graph, *,
                        bit_graph: BitGraph | None = None) -> EdgeOrdering:
    """Greedy min-support peel; returns ordering, ranks and ``tau``.

    Edge ids are looked up through one ``{neighbour: edge id}`` map per
    vertex.  The peel iterates ``adj[u] & adj[v]`` over its shrinking set
    copies: that iteration order decides the LIFO buckets' tie-breaks, so
    it is what fixes the ordering edge for edge.

    ``bit_graph`` optionally supplies a bitmask view of ``g`` under any
    packing, already built by the caller: each initial support is then a
    popcount of two of its masks instead of a set intersection.  A support
    is a count, so the packing does not change it, and the ordering, ranks
    and ``tau`` are the same with or without the view.
    """
    adj = [set(nbrs) for nbrs in g.adj]  # mutable working copy
    edges = list(g.edges())
    edge_ids: list[dict[int, int]] = [{} for _ in range(g.n)]
    for i, (u, v) in enumerate(edges):
        edge_ids[u][v] = edge_ids[v][u] = i
    if bit_graph is None:
        support = [len(adj[u] & adj[v]) for u, v in edges]
    else:
        if bit_graph.n != g.n:
            raise InvalidParameterError(
                f"bit_graph must be a view of g: it has {bit_graph.n} "
                f"vertices, g has {g.n}"
            )
        masks = bit_graph.masks
        bit_of = bit_graph.bit_of
        support = [(masks[bit_of[u]] & masks[bit_of[v]]).bit_count()
                   for u, v in edges]

    max_support = max(support, default=0)
    buckets: list[list[int]] = [[] for _ in range(max_support + 1)]
    for i, s in enumerate(support):
        buckets[s].append(i)

    alive = [True] * len(edges)
    order: list[Edge] = []
    rank: dict[Edge, int] = {}
    tau = 0
    current = 0

    for _ in range(len(edges)):
        # Lazy bucket queue: entries go stale when supports drop; skip them.
        while True:
            while current <= max_support and not buckets[current]:
                current += 1
            i = buckets[current].pop()
            if alive[i] and support[i] == current:
                break
        alive[i] = False
        u, v = e = edges[i]
        if current > tau:
            tau = current
        rank[e] = len(order)
        order.append(e)
        # Removing (u, v) kills one triangle per remaining common neighbour,
        # lowering the support of the two other edges of each triangle.
        # Both are alive: a peeled edge has left the working adjacency.
        ids_u = edge_ids[u]
        ids_v = edge_ids[v]
        for w in adj[u] & adj[v]:
            j = ids_u[w]
            s = support[j] = support[j] - 1
            buckets[s].append(j)
            if s < current:
                current = s
            j = ids_v[w]
            s = support[j] = support[j] - 1
            buckets[s].append(j)
            if s < current:
                current = s
        adj[u].discard(v)
        adj[v].discard(u)

    return EdgeOrdering(order=order, rank=rank, tau=tau, kind="truss")


def candidate_size_bound(g: Graph, rank: dict[Edge, int]) -> int:
    """``max_e |C(e)|`` for an arbitrary edge ranking.

    C(e) for e = (a, b) counts common neighbours ``w`` whose connecting
    edges (a, w) and (b, w) are both ranked after e.  For the truss ordering
    this equals ``tau``; for the alternative orderings of Table VI it is the
    (larger) instance bound they actually achieve.
    """
    best = 0
    for (a, b), r in rank.items():
        size = 0
        for w in g.adj[a] & g.adj[b]:
            if (rank[canonical_edge(a, w)] > r
                    and rank[canonical_edge(b, w)] > r):
                size += 1
        best = max(best, size)
    return best


def truss_number(g: Graph) -> int:
    """The paper's ``tau`` alone (see :func:`truss_edge_ordering`)."""
    return truss_edge_ordering(g).tau
