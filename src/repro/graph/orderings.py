"""Vertex and edge orderings used at the initial branch.

The choice of ordering at the initial branch determines the worst-case size
of the sub-branch instances:

* vertex orderings — degeneracy (bound ``delta``, BK_Degen) and
  non-decreasing degree (bound ``h``, the h-index, BK_Degree);
* edge orderings — truss-based (bound ``tau``, the paper's default),
  degeneracy-lexicographic (``HBBMC-dgn``) and minimum-endpoint-degree
  (``HBBMC-mdg``), the two Table VI alternatives that do *not* achieve the
  ``tau`` bound.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.exceptions import InvalidParameterError
from repro.graph.adjacency import Edge, Graph
from repro.graph.coreness import core_decomposition
from repro.graph.truss import EdgeOrdering, truss_edge_ordering

if TYPE_CHECKING:
    from repro.graph.bitadj import BitGraph

VERTEX_ORDERINGS = ("degeneracy", "degree")
EDGE_ORDERINGS = ("truss", "degen-lex", "min-degree")


def degree_ordering(g: Graph) -> list[int]:
    """Vertices by non-decreasing degree (ties by id, deterministic)."""
    return sorted(g.vertices(), key=lambda v: (g.degree(v), v))


def vertex_ordering(g: Graph, kind: str = "degeneracy") -> list[int]:
    """Dispatch on the vertex ordering ``kind``."""
    if kind == "degeneracy":
        return core_decomposition(g).order
    if kind == "degree":
        return degree_ordering(g)
    raise InvalidParameterError(
        f"unknown vertex ordering {kind!r}; expected one of {VERTEX_ORDERINGS}"
    )


def _ordering_from_sorted_edges(g: Graph, order: list[Edge], kind: str) -> EdgeOrdering:
    from repro.graph.truss import candidate_size_bound

    rank = {e: i for i, e in enumerate(order)}
    tau = candidate_size_bound(g, rank)
    return EdgeOrdering(order=order, rank=rank, tau=tau, kind=kind)


def degen_lex_edge_ordering(g: Graph) -> EdgeOrdering:
    """Edges sorted lexicographically by degeneracy positions of endpoints.

    This is Table VI's ``HBBMC-dgn`` ordering: write every edge as
    (earlier endpoint, later endpoint) w.r.t. the degeneracy ordering and
    sort "alphabetically".
    """
    position = core_decomposition(g).position
    keyed = []
    for u, v in g.edges():
        pu, pv = position[u], position[v]
        if pu > pv:
            pu, pv = pv, pu
        keyed.append(((pu, pv), (u, v)))
    keyed.sort()
    return _ordering_from_sorted_edges(g, [e for _, e in keyed], "degen-lex")


def min_degree_edge_ordering(g: Graph) -> EdgeOrdering:
    """Edges by non-decreasing ``min(deg(u), deg(v))`` (``HBBMC-mdg``).

    The minimum endpoint degree upper-bounds the number of common
    neighbours, so this is the cheap static surrogate for support that the
    paper contrasts against the true truss peel.
    """
    keyed = []
    for u, v in g.edges():
        bound = min(g.degree(u), g.degree(v))
        keyed.append(((bound, u, v), (u, v)))
    keyed.sort()
    return _ordering_from_sorted_edges(g, [e for _, e in keyed], "min-degree")


def edge_ordering(g: Graph, kind: str = "truss", *,
                  bit_graph: BitGraph | None = None) -> EdgeOrdering:
    """Dispatch on the edge ordering ``kind``.

    ``bit_graph`` is an optional bitmask view of ``g`` the caller already
    holds; the truss peel reads its initial supports from it (see
    :func:`~repro.graph.truss.truss_edge_ordering`).  The other kinds do
    not count supports and ignore it.  The ordering is the same either way.
    """
    if kind == "truss":
        return truss_edge_ordering(g, bit_graph=bit_graph)
    if kind == "degen-lex":
        return degen_lex_edge_ordering(g)
    if kind == "min-degree":
        return min_degree_edge_ordering(g)
    raise InvalidParameterError(
        f"unknown edge ordering {kind!r}; expected one of {EDGE_ORDERINGS}"
    )
