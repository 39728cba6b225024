"""Degeneracy-partitioned subproblem extraction (the ParMCE decomposition).

The root level of the maximal clique search decomposes exactly along a
degeneracy ordering: for each vertex ``v`` the *subproblem of v* asks for
the maximal cliques of ``G`` whose earliest member (in the ordering) is
``v``.  Every such clique is ``{v} | C`` where

* ``C`` is a maximal clique of ``G[later(v)]`` (the subgraph induced by
  the neighbours of ``v`` that come later in the ordering), and
* no *earlier* neighbour of ``v`` is adjacent to all of ``{v} | C``
  (otherwise the clique was already found from that earlier vertex and is
  not maximal with earliest member ``v``).

Because ``later(v)`` has at most ``delta`` vertices, each subproblem is a
small independent instance, which is what makes the decomposition the
natural unit of parallel work (Das et al., ParMCE).

This module extracts the subproblems, attaches a per-subproblem *cost
estimate* (``C(k, 2) + k + 1`` for ``k = |later(v)|``, read off the
degeneracy peel) used by :mod:`repro.parallel.scheduler` to pack
balanced chunks, and solves them.  :class:`InPlaceRunner` is the one
tier of every algorithm that can seed an exclusion set: it runs the
algorithm's engine below the root in place on the whole graph, one
engine context per chunk.  :func:`solve_subproblem` solves any one
subproblem.  The in-process caller and the worker processes execute the
same code.

Subproblems are *X-set-aware*: the earlier neighbours of ``v`` are
seeded into the engine's exclusion set, so branches owned by earlier
subproblems die inside the recursion instead of being enumerated and
filtered afterwards — the duplicated-branch work that made the naive
decomposition's total CPU 1.5–3× the serial run.  Only an algorithm that
cannot seed an exclusion set (``reverse-search``) still enumerates and
filters.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from repro.core.counters import Counters
from repro.core.edge_engine import edge_phase
from repro.core.result import CliqueCollector, CliqueCounter
from repro.graph.adjacency import Graph
from repro.graph.bitadj import DEFAULT_BIT_ORDER, BitGraph, iter_bits
from repro.graph.coreness import core_decomposition
from repro.graph.orderings import edge_ordering
from repro.parallel.aggregate import Payload, count_payload

@dataclass(frozen=True)
class Subproblem:
    """One root-level unit of work.

    Attributes:
        position: index of ``vertex`` in the degeneracy ordering.
        vertex: the subproblem's root vertex.
        cost: estimated enumeration cost (scheduler packing weight).
    """

    position: int
    vertex: int
    cost: float


@dataclass(frozen=True)
class Decomposition:
    """The full root-level partition of a graph.

    Attributes:
        order: degeneracy ordering of the vertices.
        position: ``position[v]`` is the index of ``v`` in ``order``.
        subproblems: one :class:`Subproblem` per vertex, in order.
        total_cost: sum of all subproblem costs.
    """

    order: list[int]
    position: list[int]
    subproblems: list[Subproblem]
    total_cost: float


def subproblem_sets(
    g: Graph, position: list[int], v: int
) -> tuple[set[int], set[int]]:
    """Split ``N(v)`` into (later, earlier) neighbours w.r.t. the ordering.

    ``later`` is the candidate set of the subproblem; ``earlier`` holds the
    maximality witnesses checked by :func:`solve_subproblem`.
    """
    pv = position[v]
    later = {w for w in g.adj[v] if position[w] > pv}
    earlier = g.adj[v] - later
    return later, earlier


def packs_by_position(bg: BitGraph, position: list[int]) -> bool:
    """Whether ``bg`` holds the vertex at position ``p`` in bit ``n - 1 - p``.

    That is the ``"degeneracy"`` packing of the order behind ``position``:
    a vertex's later neighbours are then the low bits of its own mask.
    """
    return bg.n == len(position) \
        and set(map(operator.add, bg.bit_of, position)) <= {bg.n - 1}


def decompose(g: Graph, *, core=None) -> Decomposition:
    """Partition the root level of the search into per-vertex subproblems.

    ``core`` optionally supplies an already-computed
    :func:`repro.graph.coreness.core_decomposition` of ``g`` — callers
    that hold one (the service registry peels once at registration) skip
    the re-peel *and* guarantee every consumer shares the same vertex
    order.

    Subproblem ``v`` costs ``k * (k - 1) / 2 + k + 1`` with
    ``k = |later(v)|``, read off the peel's ``forward_degree``: the edges
    of ``G[later(v)]`` taken as complete, plus the candidates and the
    root.  Nothing is intersected or counted per edge, and no bit view is
    read or built.
    """
    if core is None:
        core = core_decomposition(g)
    order, forward_degree = core.order, core.forward_degree
    subproblems = []
    total = 0.0
    for p, v in enumerate(order):
        k = forward_degree[v]
        cost = float(k * (k - 1) // 2 + k + 1)
        subproblems.append(Subproblem(position=p, vertex=v, cost=cost))
        total += cost
    return Decomposition(
        order=order,
        position=core.position,
        subproblems=subproblems,
        total_cost=total,
    )


def _payload(cliques: list[tuple[int, ...]], mode: str) -> Payload:
    """What a clique-building tier ships for ``cliques`` in ``mode``."""
    return count_payload(cliques) if mode == "count" else cliques


def _lone_root(v: int, earlier: object) -> list[tuple[int, ...]]:
    """A root with no later neighbour: ``{v}`` is maximal iff ``v`` has no
    earlier one either."""
    return [] if earlier else [(v,)]


def _edge_rank(g: Graph, members, kind: str,
               bit_of: list[int] | None) -> dict[int, int]:
    """The edge engines' rank table for the edges of ``G[members]``.

    The edges are ranked by the ``kind`` edge ordering of a compact graph
    over ``members`` alone (ids in vertex order, so the ranking does not
    depend on the packing), each keyed ``a * n + b`` with ``a < b`` over
    ``g``'s vertex ids, or over their ``bit_of`` bits.
    """
    sub, ids = g.induced_subgraph(members)
    if bit_of is not None:
        ids = [bit_of[u] for u in ids]
    n = g.n
    rank = {}
    for r, (a, b) in enumerate(edge_ordering(sub, kind).order):
        a, b = ids[a], ids[b]
        rank[a * n + b if a < b else b * n + a] = r
    return rank


class InPlaceRunner:
    """The one subproblem tier, set up once for many subproblems.

    One runner serves a whole chunk, static or steal: the sink, the
    :class:`Counters` and the engine context are built once, so each
    subproblem costs only its ``(C, X)`` derivation, the engine
    run itself (in place on the whole graph's adjacency, or its bitmask
    view) and the cut of its payload.  There is no relabelled graph and
    no per-subproblem reduction, peel or packing.

    The engine follows from the algorithm's option *values*
    (:meth:`repro.api.AlgorithmSpec.subproblem_options`), never from which
    options a request names:

    * ``edge_depth=None`` (``ebbmc``, ``ebbmc++``) runs the edge engine of
      Algorithm 3 on each branch, its candidate edges ranked by the
      request's ``edge_order_kind`` on a graph over ``C`` alone;
    * every other algorithm runs its vertex phase, with the request's
      ``vertex_strategy`` and ``et_threshold``.

    ``edge_depth``, ``edge_order_kind``, ``ordering_kind`` and
    ``graph_reduction`` otherwise shape only the serial top level, which
    the decomposition replaces; reduction is bypassed as the frameworks
    bypass it under a seeded exclusion set.

    Branch state uses the representation of the backend ``options``
    name: they are validated options (:meth:`repro.config.RunConfig.validate`
    writes the backend in), so the runner never decides one.  Under the
    degeneracy packing of ``position`` (:func:`packs_by_position`, the
    default bitset view) a root's candidates are the low bits of its own
    adjacency mask, so ``(C, X)`` comes from two ANDs.  Any other packing,
    and the set backend, split the neighbourhood by position.

    A payload is the canonical clique list in ``"collect"`` mode (each
    tuple ascending, list sorted).  In ``"count"`` mode the engine runs
    into a :class:`CliqueCounter` and the payload is its ``(count,
    max_size, total_vertices)`` triple: no clique is stored, translated
    to vertex ids or sorted.  ``counters`` accumulates over every call,
    with ``emitted`` the number of cliques the payloads carry.

    ``bit_graph`` is the caller's cached whole-graph view for a
    ``bitset`` request (see :meth:`repro.parallel.pool.GraphState.bit_graph`);
    without one the runner builds it.
    """

    def __init__(self, g: Graph, position: list[int], *, algorithm: str,
                 options: dict, bit_graph: BitGraph | None = None,
                 mode: str = "collect") -> None:
        from repro.api import get_algorithm  # deferred: api imports us lazily
        from repro.core.phases import make_context

        run = get_algorithm(algorithm).subproblem_options(options)
        backend = options["backend"]  # validated options name it
        self.counters = Counters()
        self._g = g
        self._position = position
        self._mode = mode
        self._counter = CliqueCounter() if mode == "count" else None
        self._found: list[tuple[int, ...]] = []
        self._ctx = make_context(
            self._counter if self._counter is not None
            else self._found.append,
            self.counters, backend=backend,
            vertex_strategy=run["vertex_strategy"],
            et_threshold=run["et_threshold"])
        #: the edge engine's ordering kind; ``None``: the vertex phase
        self._edge_order = run["edge_order_kind"] \
            if run.get("edge_depth", 1) is None else None
        self._bg: BitGraph | None = None
        #: the view again when it packs by position, for the mask fast path
        self._packed: BitGraph | None = None
        self._to_vertex: list[int] | None = None
        if backend == "bitset":
            if bit_graph is None:
                bit_order = options.get("bit_order")
                bit_graph = BitGraph.from_graph(
                    g, order=DEFAULT_BIT_ORDER if bit_order is None
                    else bit_order)
            self._bg = bit_graph
            if packs_by_position(bit_graph, position):
                self._packed = bit_graph
            if not bit_graph.is_identity:
                self._to_vertex = bit_graph.to_vertex

    def subproblem(self, v: int) -> Payload:
        """The maximal cliques of ``G`` whose earliest member is ``v``.

        The branch ``S = [v]``, ``C = later(v)``, ``X = earlier(v)``.
        """
        bg = self._packed
        if bg is not None:
            b = bg.bit_of[v]
            row = bg.masks[b]
            later = row & ((1 << b) - 1)
            if not later:
                return self._lone(v, row)
            return self._run([v], later, row ^ later)
        later_set, earlier = subproblem_sets(self._g, self._position, v)
        if not later_set:
            return self._lone(v, earlier)
        return self.branch([v], later_set, earlier)

    def branch(self, stem: list[int], candidates: set[int],
               exclusion: set[int]) -> Payload:
        """The branch ``(S=stem, C=candidates, X=exclusion)``, from vertex
        sets (left untouched)."""
        bg = self._bg
        if bg is None:
            return self._run(stem, set(candidates), set(exclusion))
        return self._run(stem, bg.mask_of_vertices(candidates),
                         bg.mask_of_vertices(exclusion))

    def _lone(self, v: int, earlier: object) -> Payload:
        cliques = _lone_root(v, earlier)
        self.counters.emitted += len(cliques)
        return _payload(cliques, self._mode)

    def _edge_branch(self, S: list[int], C, X, adj) -> None:
        """Algorithm 3 on the branch ``(S, C, X)``: the edge engine at
        threshold -1, with every edge of ``G[C]`` a candidate.  ``C``
        comes first in each AND: a whole-graph mask is ``n`` bits long."""
        bg = self._bg
        if bg is None:
            edge_phase(S, C, X, {w: C & adj[w] for w in C}, adj,
                       _edge_rank(self._g, C, self._edge_order, None),
                       len(adj), -1, None, self._ctx)
            return
        # Deferred: only the edge family loads the bit edge engine.
        from repro.core.bit_edge_engine import bit_edge_phase

        bits = list(iter_bits(C))
        to_vertex = bg.to_vertex
        rank = _edge_rank(self._g, [to_vertex[b] for b in bits],
                          self._edge_order, bg.bit_of)
        bit_edge_phase(S, C, X, {b: C & adj[b] for b in bits}, adj, rank,
                       len(adj), -1, None, self._ctx)

    def _run(self, stem: list[int], C, X) -> Payload:
        """Run the engine on fresh branch state and cut the payload."""
        ctx = self._ctx
        bg = self._bg
        if bg is None:
            S, adj = list(stem), self._g.adj
        else:
            S, adj = [bg.bit_of[u] for u in stem], bg.masks
        if self._edge_order is None:
            ctx.phase(S, C, X, adj, adj, ctx)
        else:
            self._edge_branch(S, C, X, adj)
        counter = self._counter
        if counter is not None:
            # Sizes survive the bit->vertex relabelling: nothing to
            # translate.
            triple = (counter.count, counter.max_size,
                      counter.total_vertices)
            counter.count = counter.max_size = counter.total_vertices = 0
            self.counters.emitted += triple[0]
            return triple
        found = self._found
        to_vertex = self._to_vertex
        if to_vertex is not None:
            # Branch state ran in bit space; map emitted bits back.
            translate = to_vertex.__getitem__
            cliques = [tuple(sorted(map(translate, clique)))
                       for clique in found]
        else:
            cliques = [tuple(sorted(clique)) for clique in found]
        cliques.sort()
        found.clear()
        self.counters.emitted += len(cliques)
        return cliques


def solve_subproblem(
    g: Graph,
    position: list[int],
    v: int,
    *,
    algorithm: str,
    options: dict,
    bit_graph: BitGraph | None = None,
    mode: str = "collect",
) -> tuple[Payload, Counters]:
    """Enumerate the maximal cliques of ``G`` whose earliest member is ``v``.

    Every algorithm that can seed an exclusion set
    (:attr:`repro.api.AlgorithmSpec.supports_initial_x`) runs on the one
    in-place tier: this call is a one-subproblem :class:`InPlaceRunner`
    on the branch ``([v], later(v), earlier(v))``, so branches that an
    earlier subproblem owns are pruned *inside* the recursion — no
    duplicated-branch work, nothing to filter afterwards.  The pool runs
    one runner per chunk instead.  ``bit_graph`` optionally supplies the
    whole-graph bitmask view for ``backend="bitset"`` (the pool's is
    built once, in the parent).

    ``reverse-search`` cannot seed an exclusion set: it enumerates all of
    ``G[later(v)]`` instead, and every candidate extendable by an earlier
    neighbour of ``v`` is dropped afterwards (those cliques belong to —
    and are found from — an earlier subproblem); the drops count under
    ``counters.suppressed_candidates``.

    Returns ``(payload, counters)``.  In ``"collect"`` mode the payload is
    the clique list, emitted canonically (each tuple ascending, list
    sorted) so the stream is deterministic regardless of backend scan
    order.  In ``"count"`` mode it is the ``(count, max_size,
    total_vertices)`` triple: the in-place tier counts without building a
    single clique, while the filter builds the subproblem's clique list
    (its cliques must be filtered) and compresses it with
    :func:`count_payload`.
    """
    from repro.api import enumerate_to_sink, get_algorithm  # deferred: api imports us lazily

    if get_algorithm(algorithm).supports_initial_x:
        runner = InPlaceRunner(g, position, algorithm=algorithm,
                               options=options, bit_graph=bit_graph,
                               mode=mode)
        return runner.subproblem(v), runner.counters

    later, earlier = subproblem_sets(g, position, v)
    if not later:
        cliques = _lone_root(v, earlier)
        return _payload(cliques, mode), Counters(emitted=len(cliques))

    sub, old_ids = g.induced_subgraph(later)
    collector = CliqueCollector()
    counters = enumerate_to_sink(sub, collector, algorithm=algorithm,
                                 **options)

    adj = g.adj
    cliques: list[tuple[int, ...]] = []
    for local in collector.cliques:
        members = [old_ids[u] for u in local]
        # {v} | members extends iff some earlier neighbour of v is adjacent
        # to every member: intersect the witness set down, bailing early.
        witnesses = earlier
        for u in members:
            witnesses = witnesses & adj[u]
            if not witnesses:
                break
        if witnesses:
            counters.suppressed_candidates += 1
            continue
        cliques.append(tuple(sorted([v, *members])))
    cliques.sort()

    # Counters keep their work meaning (calls done solving the subproblem)
    # but `emitted` is re-pointed at what this subproblem contributes to the
    # global answer; filtered candidates are accounted as suppressed, the
    # same bookkeeping graph reduction uses for its shadowed cliques.
    counters.emitted = len(cliques)
    return _payload(cliques, mode), counters
