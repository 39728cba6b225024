"""Compact undirected simple graph used by every algorithm in this library.

The MCE engines spend almost all of their time intersecting neighbourhoods,
so the representation is a plain ``list`` of ``set`` objects indexed by a
contiguous integer vertex id.  Python sets give O(min(|A|,|B|)) intersection,
which is the work unit the paper's complexity analysis counts.

External callers with arbitrary hashable vertex labels should build graphs
through :mod:`repro.graph.builders`, which relabels to contiguous ids and
keeps the original labels around for reporting.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.exceptions import InvalidParameterError, InvalidVertexError

Edge = tuple[int, int]


def canonical_edge(u: int, v: int) -> Edge:
    """Return the canonical (min, max) form of an undirected edge."""
    return (u, v) if u < v else (v, u)


class Graph:
    """An undirected simple graph on vertices ``0 .. n-1``.

    Self-loops and parallel edges are rejected at insertion time, so every
    instance is guaranteed simple; the enumeration engines rely on that.

    The class is deliberately small: subgraph and complement helpers return
    plain data (vertex sets, adjacency dicts) instead of new ``Graph``
    instances when that is what the engines need, to avoid copying.
    """

    __slots__ = ("_adj", "_m")

    def __init__(self, n: int = 0) -> None:
        if n < 0:
            raise InvalidParameterError(f"vertex count must be >= 0, got {n}")
        self._adj: list[set[int]] = [set() for _ in range(n)]
        self._m = 0

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of vertices."""
        return len(self._adj)

    @property
    def m(self) -> int:
        """Number of edges."""
        return self._m

    @property
    def adj(self) -> list[set[int]]:
        """The adjacency structure itself (treat as read-only)."""
        return self._adj

    def __len__(self) -> int:
        return len(self._adj)

    def __contains__(self, v: int) -> bool:
        return 0 <= v < len(self._adj)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph(n={self.n}, m={self.m})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._adj == other._adj

    def __hash__(self) -> int:  # Graphs are mutable; identity hash only.
        return id(self)

    # ------------------------------------------------------------------
    # Construction / mutation
    # ------------------------------------------------------------------
    def add_vertex(self) -> int:
        """Append a fresh isolated vertex and return its id."""
        self._adj.append(set())
        return len(self._adj) - 1

    def add_vertices(self, count: int) -> None:
        """Append ``count`` isolated vertices."""
        if count < 0:
            raise InvalidParameterError(f"count must be >= 0, got {count}")
        self._adj.extend(set() for _ in range(count))

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < len(self._adj):
            raise InvalidVertexError(
                f"vertex {v} is out of range for n={len(self._adj)}"
            )

    def add_edge(self, u: int, v: int) -> bool:
        """Insert edge ``(u, v)``.

        Returns ``True`` if the edge is new, ``False`` if it already existed.
        Self-loops are rejected with :class:`InvalidParameterError` because a
        simple graph (the paper's Section II setting) has none.
        """
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            raise InvalidParameterError(f"self-loop at vertex {u} is not allowed")
        if v in self._adj[u]:
            return False
        self._adj[u].add(v)
        self._adj[v].add(u)
        self._m += 1
        return True

    def add_edges(self, edges: Iterable[tuple[int, int]]) -> int:
        """Insert each edge; return how many were new."""
        added = 0
        for u, v in edges:
            if self.add_edge(u, v):
                added += 1
        return added

    def remove_edge(self, u: int, v: int) -> bool:
        """Remove edge ``(u, v)``; return ``True`` if it was present."""
        self._check_vertex(u)
        self._check_vertex(v)
        if v not in self._adj[u]:
            return False
        self._adj[u].discard(v)
        self._adj[v].discard(u)
        self._m -= 1
        return True

    def isolate_vertex(self, v: int) -> None:
        """Delete every edge incident to ``v`` (the id itself remains valid).

        Used by graph reduction, which peels vertices without renumbering.
        """
        self._check_vertex(v)
        for w in self._adj[v]:
            self._adj[w].discard(v)
        self._m -= len(self._adj[v])
        self._adj[v].clear()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def has_edge(self, u: int, v: int) -> bool:
        """Whether edge ``(u, v)`` is present."""
        self._check_vertex(u)
        self._check_vertex(v)
        return v in self._adj[u]

    def neighbors(self, v: int) -> set[int]:
        """The neighbour set of ``v`` (the live set — do not mutate)."""
        self._check_vertex(v)
        return self._adj[v]

    def degree(self, v: int) -> int:
        """Number of neighbours of ``v``."""
        self._check_vertex(v)
        return len(self._adj[v])

    def degrees(self) -> list[int]:
        """Degree of every vertex, indexed by id."""
        return [len(nbrs) for nbrs in self._adj]

    def max_degree(self) -> int:
        """Largest degree (0 for the empty graph)."""
        return max((len(nbrs) for nbrs in self._adj), default=0)

    def vertices(self) -> range:
        """All vertex ids."""
        return range(len(self._adj))

    def edges(self) -> Iterator[Edge]:
        """Yield every edge once, in canonical ``u < v`` form."""
        for u, nbrs in enumerate(self._adj):
            for v in nbrs:
                if u < v:
                    yield (u, v)

    def common_neighbors(self, u: int, v: int) -> set[int]:
        """Vertices adjacent to both ``u`` and ``v``."""
        self._check_vertex(u)
        self._check_vertex(v)
        a, b = self._adj[u], self._adj[v]
        if len(a) > len(b):
            a, b = b, a
        return a & b

    def common_neighbors_of_set(self, vertices: Iterable[int]) -> set[int]:
        """Vertices adjacent to *every* vertex in ``vertices``.

        Matches the paper's ``N(V_sub, G)``.  For the empty set this is all
        vertices, consistent with the initial branch ``C = V``.
        """
        vs = list(vertices)
        if not vs:
            return set(self.vertices())
        vs.sort(key=lambda v: len(self._adj[v]))
        result = set(self._adj[vs[0]])
        for v in vs[1:]:
            result &= self._adj[v]
            if not result:
                break
        result.difference_update(vs)
        return result

    # ------------------------------------------------------------------
    # Derived structures
    # ------------------------------------------------------------------
    def copy(self) -> "Graph":
        """An independent deep copy."""
        g = Graph(self.n)
        g._adj = [set(nbrs) for nbrs in self._adj]
        g._m = self._m
        return g

    def subgraph_adjacency(self, vertices: Iterable[int]) -> dict[int, set[int]]:
        """Adjacency of the subgraph induced by ``vertices`` as a dict.

        Keeps original ids; intended for branch-local computation where
        renumbering would cost more than it saves.
        """
        keep = set(vertices)
        return {v: self._adj[v] & keep for v in keep}

    def induced_subgraph(self, vertices: Iterable[int]) -> tuple["Graph", list[int]]:
        """A new compact :class:`Graph` induced by ``vertices``.

        Returns ``(graph, old_ids)`` where ``old_ids[new_id]`` maps back to
        this graph's vertex ids.
        """
        keep = set(vertices)
        old_ids = sorted(keep)
        index = {old: new for new, old in enumerate(old_ids)}
        adj = self._adj
        sub = Graph()
        sub._adj = [{index[w] for w in adj[u] & keep} for u in old_ids]
        sub._m = sum(map(len, sub._adj)) // 2
        return sub, old_ids

    def complement_within(self, vertices: Iterable[int]) -> dict[int, set[int]]:
        """Adjacency of the complement of ``G[vertices]`` (no self-loops).

        This is the paper's inverse graph ``gC-bar`` used by the early
        termination technique: an edge joins two vertices iff they are
        *not* adjacent in this graph.
        """
        keep = set(vertices)
        return {
            v: keep - self._adj[v] - {v}
            for v in keep
        }

    def is_clique(self, vertices: Iterable[int]) -> bool:
        """Whether ``vertices`` induces a complete subgraph."""
        vs = list(set(vertices))
        for i, u in enumerate(vs):
            nbrs = self._adj[u]
            for v in vs[i + 1:]:
                if v not in nbrs:
                    return False
        return True

    def edge_count_within(self, vertices: Iterable[int]) -> int:
        """Number of edges of ``G[vertices]``."""
        keep = set(vertices)
        total = sum(len(self._adj[v] & keep) for v in keep)
        return total // 2

    def density(self) -> float:
        """Edge density ``rho = m / n`` as defined in the paper (0 if empty)."""
        return self._m / self.n if self.n else 0.0
