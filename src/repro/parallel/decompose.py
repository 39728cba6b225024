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
small independent instance that any registered enumeration algorithm can
solve on a compact induced subgraph — which is what makes the
decomposition the natural unit of parallel work (Das et al., ParMCE).

This module extracts the subproblems, attaches a per-subproblem *cost
estimate* (``C(k, 2) + k + 1`` for ``k = |later(v)|``, read off the
degeneracy peel) used by :mod:`repro.parallel.scheduler` to pack
balanced chunks, and solves them: :class:`InPlaceRunner` runs the
in-place tier, one engine context per chunk, and
:func:`solve_subproblem` solves any one subproblem on any tier.  The
in-process fallback and the worker processes execute the same code.

Subproblems are *X-set-aware*: the earlier neighbours of ``v`` are
seeded into the engine's exclusion set (``initial_x``), so branches owned
by earlier subproblems die inside the recursion instead of being
enumerated and filtered afterwards — the duplicated-branch work that made
the naive decomposition's total CPU 1.5–3× the serial run.  Only an
algorithm that cannot seed an exclusion set (``reverse-search``) still
enumerates and filters.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass

from repro.core.counters import Counters
from repro.core.result import CliqueCollector, CliqueCounter
from repro.graph.adjacency import Graph
from repro.graph.bitadj import DEFAULT_BIT_ORDER, BitGraph, iter_bits
from repro.graph.coreness import core_decomposition
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


def _subproblem_graph(
    g: Graph, later: set[int], earlier: set[int]
) -> tuple[Graph, list[int], set[int]]:
    """Compact branch graph over ``N(v)`` for the X-aware subproblem.

    Returns ``(sub, old_ids, x_local)``: a graph on ``later | earlier``
    (compact ids, ``old_ids[new] -> old``) containing every
    candidate–candidate and candidate–exclusion edge, plus the local ids of
    ``earlier``.  Exclusion–exclusion edges are omitted — no engine ever
    reads the adjacency between two exclusion vertices (they only meet
    candidate sets), and on hub-heavy graphs those edges dominate the
    induced subgraph.
    """
    members = sorted(later | earlier)
    index = {old: new for new, old in enumerate(members)}
    sub = Graph(len(members))
    adj = g.adj
    keep = later | earlier
    for old_u in later:
        new_u = index[old_u]
        for old_v in adj[old_u] & keep:
            if old_v in later and old_v < old_u:
                continue  # later-later edges added once (from the low end)
            sub.add_edge(new_u, index[old_v])
    x_local = {index[w] for w in earlier}
    return sub, members, x_local


#: options the in-place phase path understands; anything else (a future
#: engine knob the phase cannot honour) routes to the full framework.
_IN_PLACE_OPTIONS = frozenset(
    {"backend", "et_threshold", "graph_reduction", "bit_order"}
)


def uses_in_place_phase(algorithm: str, options: dict) -> bool:
    """Whether X-aware solving will take the in-place vertex-phase tier.

    The pool checks this before materialising the whole-graph bitmask
    view — only the in-place tier consumes it.
    """
    from repro.api import get_algorithm  # deferred: api imports us lazily

    return get_algorithm(algorithm).subproblem_phase is not None \
        and set(options) <= _IN_PLACE_OPTIONS


def _subgraph_options(options: dict, old_ids: list[int]) -> dict:
    """``options`` for a run on the compact subgraph over ``old_ids``.

    An explicit ``bit_order`` permutes the whole graph's vertex ids, so the
    subgraph gets that packing restricted to its own members, in local ids.
    A named order is resolved on the subgraph itself.
    """
    order = options.get("bit_order")
    if order is None or isinstance(order, str):
        return options
    local = {old: new for new, old in enumerate(old_ids)}
    return {**options, "bit_order": [local[u] for u in order if u in local]}


def _payload(cliques: list[tuple[int, ...]], mode: str) -> Payload:
    """What a clique-building tier ships for ``cliques`` in ``mode``."""
    return count_payload(cliques) if mode == "count" else cliques


def _lone_root(v: int, earlier: object) -> list[tuple[int, ...]]:
    """A root with no later neighbour: ``{v}`` is maximal iff ``v`` has no
    earlier one either."""
    return [] if earlier else [(v,)]


class InPlaceRunner:
    """The in-place tier's engine, set up once for many subproblems.

    One runner serves a whole chunk, or one steal split task: the sink,
    the :class:`Counters` and the engine context are built once, so each
    subproblem or branch costs only its ``(C, X)`` derivation, the vertex
    phase itself (executed in place on the whole graph's adjacency, or its
    bitmask view) and the cut of its payload.  There is no subgraph, no
    relabelling and no per-subproblem ordering or reduction prologue;
    ``graph_reduction`` in ``options`` is ignored, matching the
    frameworks' reduction bypass under a seeded exclusion set.

    Branch state uses the representation of the backend ``options``
    name: they are validated options (:meth:`repro.config.RunConfig.validate`
    writes the backend in), so the runner never decides one.  Under the
    degeneracy packing of ``position`` (:func:`packs_by_position`, the
    default bitset view) a root's candidates are the low bits of its own
    adjacency mask, so ``(C, X)`` comes from two ANDs.  Any other packing,
    and the set backend, split the neighbourhood by position.

    A payload is the canonical clique list in ``"collect"`` mode (each
    tuple ascending, list sorted).  In ``"count"`` mode the phase runs
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

        kwargs = dict(get_algorithm(algorithm).subproblem_phase or {})
        if "et_threshold" in options:
            kwargs["et_threshold"] = options["et_threshold"]
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
            self.counters, backend=backend, **kwargs)
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

    def split(self, v: int, branches: Sequence[int]) -> list[Payload]:
        """Payloads of some root branches of ``v``'s subproblem.

        Branch ``i`` adds ``w_i`` to the stem, where ``w_0, w_1, ...`` are
        the later neighbours of ``v`` in position order: ``S = [v, w_i]``,
        ``C`` the common neighbours later than ``w_i`` and ``X`` the
        common neighbours earlier than it, which an earlier branch or an
        earlier subproblem owns.  So the branches of one root are disjoint
        and together cover its subproblem (the X-aware decomposition, one
        level down).  No pivot is applied at this level.
        """
        bg = self._packed
        if bg is not None:
            bv = bg.bit_of[v]
            row = bg.masks[bv]
            # Descending bits are ascending positions under this packing.
            cands = list(iter_bits(row & ((1 << bv) - 1)))[::-1]
            payloads = []
            for i in branches:
                bw = cands[i]
                common = row & bg.masks[bw]
                low = common & ((1 << bw) - 1)
                payloads.append(self._run([v, bg.to_vertex[bw]], low,
                                          common ^ low))
            return payloads
        position, adj = self._position, self._g.adj
        later, earlier = subproblem_sets(self._g, position, v)
        cands = sorted(later, key=position.__getitem__)
        payloads = []
        for i in branches:
            w = cands[i]
            pw = position[w]
            reach = later & adj[w]
            payloads.append(self.branch(
                [v, w], {u for u in reach if position[u] > pw},
                (earlier & adj[w]) | {u for u in reach if position[u] < pw}))
        return payloads

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

    def _run(self, stem: list[int], C, X) -> Payload:
        """Run the phase on fresh branch state and cut the payload."""
        ctx = self._ctx
        bg = self._bg
        if bg is None:
            adj = self._g.adj
            ctx.phase(list(stem), C, X, adj, adj, ctx)
        else:
            bit_of = bg.bit_of
            ctx.phase([bit_of[u] for u in stem], C, X, bg.masks, bg.masks,
                      ctx)
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


def solve_branch(
    g: Graph,
    position: list[int],
    stem: list[int],
    candidates: set[int],
    exclusion: set[int],
    *,
    algorithm: str,
    options: dict,
    bit_graph: BitGraph | None = None,
    mode: str = "collect",
) -> tuple[Payload, Counters]:
    """Run one branch ``(S=stem, C=candidates, X=exclusion)`` on ``g``.

    A one-call :class:`InPlaceRunner`: ``algorithm``'s vertex phase
    executed in place on the whole graph.  Stem ``[v]`` with ``v``'s
    later and earlier neighbours is the per-vertex subproblem, and stem
    ``[v, w]`` one branch of its work-stealing re-split: the same X-aware
    decomposition, applied one level apart.  The pool does not call this
    per branch; one runner serves a whole chunk or split task.

    Returns the branch's ``mode`` payload (see :class:`InPlaceRunner`)
    and counters, with ``emitted`` set to the clique count.
    """
    runner = InPlaceRunner(g, position, algorithm=algorithm, options=options,
                           bit_graph=bit_graph, mode=mode)
    return runner.branch(stem, candidates, exclusion), runner.counters


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

    The subproblem's exclusion set is seeded from ``earlier(v)``, so
    branches that an earlier subproblem owns are pruned *inside* the
    recursion — no duplicated-branch work, nothing to filter afterwards.
    Two such execution tiers exist:

    * algorithms declaring :attr:`AlgorithmSpec.subproblem_phase` (the
      whole hybrid/vertex family) run their vertex phase in place on the
      global adjacency — the branch ``([v], later, earlier)`` — which is
      their exact sub-root engine with none of the per-subproblem
      subgraph/ordering prologue.  This call is a one-subproblem
      :class:`InPlaceRunner`; the pool runs one runner per chunk instead.
      ``bit_graph`` optionally supplies the whole-graph bitmask view for
      ``backend="bitset"`` (the pool's is built once, in the parent);
    * the pure edge-oriented family runs the registered framework on a
      compact branch graph over ``N(v)`` with ``initial_x`` seeded, on
      the backend ``options`` name: validated options carry the whole
      graph's choice, so a subgraph never re-decides it.

    An algorithm that cannot seed an exclusion set (per
    ``AlgorithmSpec.supports_initial_x``: ``reverse-search``) enumerates
    all of ``G[later(v)]`` instead, and every candidate extendable by an
    earlier neighbour of ``v`` is dropped afterwards (those cliques belong
    to — and are found from — an earlier subproblem); the drops count
    under ``counters.suppressed_candidates``.

    Returns ``(payload, counters)``.  In ``"collect"`` mode the payload is
    the clique list, emitted canonically (each tuple ascending, list
    sorted) so the stream is deterministic regardless of backend scan
    order.  In ``"count"`` mode it is the ``(count, max_size,
    total_vertices)`` triple: the in-place tier counts without building a
    single clique, while the compact-graph tier and the filter still build
    the subproblem's clique list (their cliques must be relabelled or
    filtered) and compress it with :func:`count_payload`.
    """
    from repro.api import enumerate_to_sink, get_algorithm  # deferred: api imports us lazily

    later, earlier = subproblem_sets(g, position, v)
    if not later:
        cliques = _lone_root(v, earlier)
        return _payload(cliques, mode), Counters(emitted=len(cliques))

    if uses_in_place_phase(algorithm, options):
        runner = InPlaceRunner(g, position, algorithm=algorithm,
                               options=options, bit_graph=bit_graph,
                               mode=mode)
        return runner.subproblem(v), runner.counters

    if get_algorithm(algorithm).supports_initial_x:
        sub, old_ids, x_local = _subproblem_graph(g, later, earlier)
        collector = CliqueCollector()
        counters = enumerate_to_sink(sub, collector, algorithm=algorithm,
                                     initial_x=x_local,
                                     **_subgraph_options(options, old_ids))
        cliques = sorted(
            tuple(sorted([v, *(old_ids[u] for u in local)]))
            for local in collector.cliques
        )
        counters.emitted = len(cliques)
        return _payload(cliques, mode), counters

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
