"""Core decomposition and degeneracy ordering.

The degeneracy ``delta`` of a graph is the smallest k such that every
subgraph has a vertex of degree <= k.  The classic bucket-queue peeling
algorithm computes, in O(n + m):

* the *degeneracy ordering* (repeatedly remove a minimum-degree vertex),
* the *core number* of every vertex,
* every vertex's *forward degree*, its count of later neighbours in the
  ordering (its degree when peeled), and
* ``delta`` itself (the largest core number).

``BK_Degen`` (Eppstein–Löffler–Strash) uses the ordering at the initial
branch so each sub-branch's candidate graph has at most ``delta`` vertices —
the bound the paper's Section III repeatedly compares against ``tau``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.graph.adjacency import Graph


@dataclass(frozen=True)
class CoreDecomposition:
    """Result of a core decomposition.

    Attributes:
        order: degeneracy ordering (peel order, min-degree-first).
        position: ``position[v]`` is the index of ``v`` in ``order``.
        core_number: per-vertex core number.
        degeneracy: the graph degeneracy ``delta``.
        forward_degree: ``forward_degree[v]`` is the number of neighbours
            of ``v`` later in ``order``, at most ``degeneracy``.
    """

    order: list[int]
    position: list[int]
    core_number: list[int]
    degeneracy: int
    forward_degree: list[int]


def core_decomposition(g: Graph) -> CoreDecomposition:
    """Peel minimum-degree vertices with a bucket queue (O(n + m))."""
    n = g.n
    if n == 0:
        return CoreDecomposition([], [], [], 0, [])

    degree = g.degrees()
    max_deg = max(degree)
    buckets: list[list[int]] = [[] for _ in range(max_deg + 1)]
    for v, d in enumerate(degree):
        buckets[d].append(v)

    removed = [False] * n
    order: list[int] = []
    position = [0] * n
    core_number = [0] * n
    forward_degree = [0] * n
    degeneracy = 0
    current = 0  # lowest bucket that may be non-empty

    adj = g.adj
    for _ in range(n):
        while current <= max_deg and not buckets[current]:
            current += 1
        # Vertices are lazily deleted, so pop until we find a live one whose
        # recorded degree still matches its bucket.
        while True:
            v = buckets[current].pop()
            if not removed[v] and degree[v] == current:
                break
            while current <= max_deg and not buckets[current]:
                current += 1
        removed[v] = True
        degeneracy = max(degeneracy, current)
        core_number[v] = degeneracy
        forward_degree[v] = current  # the live neighbours: all later
        position[v] = len(order)
        order.append(v)
        for w in adj[v]:
            if not removed[w]:
                dw = degree[w] = degree[w] - 1
                buckets[dw].append(w)
                if dw < current:
                    current = dw
    return CoreDecomposition(order, position, core_number, degeneracy,
                             forward_degree)


def degeneracy_ordering(g: Graph) -> list[int]:
    """The degeneracy ordering alone (see :func:`core_decomposition`)."""
    return core_decomposition(g).order


def degeneracy(g: Graph) -> int:
    """The degeneracy ``delta`` of the graph."""
    return core_decomposition(g).degeneracy


def k_core(g: Graph, k: int) -> set[int]:
    """Vertices of the maximal subgraph with minimum degree >= k."""
    decomposition = core_decomposition(g)
    return {v for v in g.vertices() if decomposition.core_number[v] >= k}
