"""Framework entry points: VBBMC, EBBMC and HBBMC (Algorithms 1, 3, 4).

These functions wire together the pieces — graph reduction, edge ordering,
the edge-oriented engine and a vertex-phase strategy — into the complete
enumeration frameworks the paper evaluates.  Both stream maximal cliques to
a caller-provided sink and return the run's :class:`Counters`.

Both entry points accept ``backend="set"`` (the default ``set``-based
branch state), ``backend="bitset"`` (``int`` bitmask branch state, see
:mod:`repro.graph.bitadj`) or ``backend="words"`` (NumPy ``uint64`` word
rows, see :mod:`repro.graph.wordadj`).  All backends enumerate identical
clique sets (and agree on ``Counters.emitted``); because pivot degree-ties
resolve in different scan orders, per-branch instrumentation counters may
differ by a few counts between the set backend and the mask backends.
The two mask backends execute the same decision sequence branch for
branch, so *their* counters agree exactly.

Both also accept ``initial_x``, a set of vertex ids seeded into the
exclusion set of the initial branch: the run then enumerates exactly the
maximal cliques of ``G[V \\ initial_x]`` that no ``initial_x`` vertex
extends.  This is the branch ``(S = {}, C = V \\ X, X)`` of the textbook
recursion, and it is what makes the parallel decomposition's subproblems
duplication-free (:mod:`repro.parallel.decompose`).  With a non-empty
``initial_x`` graph reduction is bypassed — its peel-and-emit step assumes
an empty exclusion context.
"""

from __future__ import annotations

from repro.core.counters import Counters
from repro.core.edge_engine import run_edge_root, run_edge_root_with_x
from repro.core.phases import BACKENDS, make_context
from repro.core.reduction import reduce_graph
from repro.core.result import CliqueSink, suppressing_sink
from repro.exceptions import InvalidParameterError
from repro.graph.adjacency import Graph
from repro.graph.orderings import edge_ordering, vertex_ordering


#: Backends whose branch state is bit-packed (and thus accept a
#: ``bit_order``): the ``int``-mask backend and the NumPy word backend.
_MASK_BACKENDS = ("bitset", "words")


def _counting(sink: CliqueSink, counters: Counters) -> CliqueSink:
    def wrapped(clique: tuple[int, ...]) -> None:
        counters.emitted += 1
        sink(clique)

    return wrapped


def _is_exact_int(value: object) -> bool:
    """``int`` but not ``bool``: ``1.0`` and ``True`` are not knob values."""
    return isinstance(value, int) and not isinstance(value, bool)


def _validate_run_options(et_threshold: int, backend: str,
                          bit_order=None, *, graph_reduction: bool = False,
                          edge_depth: int | None = 1) -> None:
    """Reject bad options at the API boundary, before any work starts.

    ``EngineContext`` re-validates ``et_threshold`` when it is built, but
    that happens after graph reduction has already run (and never happens
    at all for the empty graph), so an invalid value could silently pass
    or fail late with cliques already emitted.  The knob types are exact:
    ``edge_depth=1.5`` or ``et_threshold=True`` would otherwise run as
    some neighbouring integer, and a truthy ``graph_reduction="no"`` as
    reduction on.
    """
    if not _is_exact_int(et_threshold) or et_threshold not in (0, 1, 2, 3):
        raise InvalidParameterError(
            f"et_threshold must be 0 (off), 1, 2 or 3; got {et_threshold!r}"
        )
    if not isinstance(graph_reduction, bool):
        raise InvalidParameterError(
            f"graph_reduction must be a bool, got {graph_reduction!r}"
        )
    if edge_depth is not None and (not _is_exact_int(edge_depth)
                                   or edge_depth < 1):
        raise InvalidParameterError(
            f"edge_depth must be an integer >= 1 or None, got {edge_depth!r}"
        )
    if backend not in BACKENDS:
        raise InvalidParameterError(
            f"unknown backend {backend!r}; expected one of {BACKENDS}"
        )
    if bit_order is not None:
        from repro.graph.bitadj import BIT_ORDERS

        if backend not in _MASK_BACKENDS:
            raise InvalidParameterError(
                "bit_order selects the bitmask packing and requires a "
                "mask backend (backend='bitset' or backend='words'); "
                f"got backend={backend!r}"
            )
        if isinstance(bit_order, str) and bit_order not in BIT_ORDERS:
            raise InvalidParameterError(
                f"unknown bit_order {bit_order!r}; expected one of "
                f"{BIT_ORDERS} or an explicit vertex permutation"
            )


def _bit_view(work: Graph, bit_order, inner_sink: CliqueSink):
    """Build the run's :class:`BitGraph` and its sink-side translation.

    The bitset engines run entirely in bit space; under a non-identity
    packing every emitted clique is translated back to vertex ids *before*
    the suppression/counting wrappers see it, so graph-reduction filtering
    and user sinks keep operating on vertex ids.

    Returns ``(bg, sink, core)`` where ``core`` is the degeneracy
    decomposition computed to resolve the default packing (``None`` for
    other packings) — the vertex-root driver reuses it instead of peeling
    again.
    """
    from repro.graph.bitadj import (
        DEFAULT_BIT_ORDER,
        BitGraph,
        resolve_bit_order,
    )

    if bit_order is None:
        bit_order = DEFAULT_BIT_ORDER
    core = None
    if bit_order == "degeneracy":
        from repro.graph.coreness import core_decomposition

        core = core_decomposition(work)
    order = resolve_bit_order(
        work, bit_order,
        degeneracy_order=core.order if core is not None else None,
    )
    bg = BitGraph.from_graph(work, order=order)
    if bg.is_identity:
        return bg, inner_sink, core
    to_vertex = bg.to_vertex

    def translated(bits: tuple[int, ...]) -> None:
        inner_sink(tuple(to_vertex[b] for b in bits))

    return bg, translated, core


def _normalize_initial_x(g: Graph, initial_x) -> frozenset[int]:
    """Validate the seeded exclusion set against ``g``'s vertex range."""
    if initial_x is None:
        return frozenset()
    xs = frozenset(initial_x)
    for v in xs:
        if not _is_exact_int(v) or not 0 <= v < g.n:
            raise InvalidParameterError(
                f"initial_x must contain vertex ids of g (0..{g.n - 1}); "
                f"got {v!r}"
            )
    return xs


def _candidate_edge_graph(work: Graph, C: frozenset[int] | set[int]) -> Graph:
    """``G[C]`` on the same vertex ids — the edges the root may branch on."""
    cand_graph = Graph(work.n)
    adj = work.adj
    for u in C:
        for w in adj[u] & C:
            if u < w:
                cand_graph.add_edge(u, w)
    return cand_graph


def _apply_reduction(
    g: Graph,
    counted_sink: CliqueSink,
    counters: Counters,
    enabled: bool,
) -> tuple[Graph, CliqueSink]:
    """Optionally reduce ``g``; emit peeled cliques; wrap sink with filter."""
    if not enabled:
        return g, counted_sink
    reduction = reduce_graph(g)
    counters.reduction_removed = len(reduction.removed)
    counters.reduction_emitted = len(reduction.emitted)
    for clique in reduction.emitted:
        counted_sink(clique)

    def on_suppress() -> None:
        counters.suppressed_candidates += 1

    filtered = suppressing_sink(counted_sink, reduction.suppressed, on_suppress)
    return reduction.graph, filtered


def run_hybrid(
    g: Graph,
    sink: CliqueSink,
    *,
    et_threshold: int = 3,
    graph_reduction: bool = True,
    edge_depth: int | None = 1,
    edge_order_kind: str = "truss",
    vertex_strategy: str = "tomita",
    backend: str = "set",
    bit_order=None,
    initial_x: set[int] | frozenset[int] | None = None,
    counters: Counters | None = None,
) -> Counters:
    """HBBMC / EBBMC: edge-oriented branching at the top of the tree.

    Args:
        g: input graph.
        sink: receives each maximal clique as a tuple of vertex ids.
        et_threshold: t for early termination (0 disables, max 3).
        graph_reduction: peel low-degree vertices first (GR).  Bypassed
            when ``initial_x`` is non-empty.
        edge_depth: number of edge-branching levels (1 = HBBMC,
            ``None`` = pure EBBMC, 2/3 = the Table IV variants).
        edge_order_kind: "truss" (default), "degen-lex" or "min-degree".
        vertex_strategy: phase used below the edge levels — "tomita",
            "ref", "rcd", "fac" or "none".
        backend: branch-state representation, "set", "bitset" or "words".
        bit_order: bitmask packing for the mask backends — "degeneracy"
            (the default: dense core in the low words), "input" (identity)
            or an explicit vertex permutation.  Requires ``bitset`` or
            ``words``.
        initial_x: vertex ids seeded into the initial branch's exclusion
            set; the run then reports the maximal cliques of
            ``G[V \\ initial_x]`` that no ``initial_x`` vertex extends.
        counters: accumulate into an existing instance when given.

    Returns:
        The run's :class:`Counters`.
    """
    _validate_run_options(et_threshold, backend, bit_order,
                          graph_reduction=graph_reduction,
                          edge_depth=edge_depth)
    initial_x = _normalize_initial_x(g, initial_x)
    counters = counters if counters is not None else Counters()
    counted = _counting(sink, counters)
    work, inner_sink = _apply_reduction(
        g, counted, counters, graph_reduction and not initial_x
    )
    if work.n == 0:
        return counters  # the empty graph has no maximal cliques

    bg = wg = None
    if backend in _MASK_BACKENDS:
        bg, inner_sink, _ = _bit_view(work, bit_order, inner_sink)
    ctx = make_context(
        inner_sink,
        counters,
        et_threshold=et_threshold,
        vertex_strategy=vertex_strategy,
        backend=backend,
    )
    if backend == "words":
        from repro.graph.wordadj import WordGraph

        wg = WordGraph(bg)
    if initial_x:
        C = set(work.vertices()) - initial_x
        if not C:
            return counters  # every vertex excluded: nothing is maximal
        # Rank only the branchable (C-internal) edges; C-X edges stay in
        # `work` itself, feeding the exclusion sets.
        ordering = edge_ordering(_candidate_edge_graph(work, C),
                                 edge_order_kind)
        if backend == "words":
            from repro.core.word_edge_engine import word_run_edge_root_with_x

            word_run_edge_root_with_x(work, wg,
                                      bg.mask_of_vertices(C),
                                      bg.mask_of_vertices(initial_x),
                                      ordering, edge_depth, ctx)
        elif backend == "bitset":
            from repro.core.bit_edge_engine import bit_run_edge_root_with_x

            bit_run_edge_root_with_x(work, bg,
                                     bg.mask_of_vertices(C),
                                     bg.mask_of_vertices(initial_x),
                                     ordering, edge_depth, ctx)
        else:
            run_edge_root_with_x(work, C, set(initial_x), ordering,
                                 edge_depth, ctx)
        return counters

    ordering = edge_ordering(work, edge_order_kind)
    if backend == "words":
        from repro.core.word_edge_engine import word_run_edge_root

        word_run_edge_root(work, wg, ordering, edge_depth, ctx)
    elif backend == "bitset":
        from repro.core.bit_edge_engine import bit_run_edge_root

        bit_run_edge_root(work, bg, ordering, edge_depth, ctx)
    else:
        run_edge_root(work, ordering, edge_depth, ctx)
    return counters


def run_vertex(
    g: Graph,
    sink: CliqueSink,
    *,
    ordering_kind: str | None = "degeneracy",
    vertex_strategy: str = "tomita",
    et_threshold: int = 0,
    graph_reduction: bool = False,
    backend: str = "set",
    bit_order=None,
    initial_x: set[int] | frozenset[int] | None = None,
    counters: Counters | None = None,
) -> Counters:
    """VBBMC: vertex-oriented branching from the initial branch.

    Args:
        g: input graph.
        sink: receives each maximal clique as a tuple of vertex ids.
        ordering_kind: initial-branch vertex ordering — "degeneracy"
            (BK_Degen), "degree" (BK_Degree) or ``None`` to run the
            recursion on the whole graph at once (BK / BK_Pivot / BK_Rcd).
        vertex_strategy: "tomita", "ref", "rcd", "fac" or "none".
        et_threshold: t for early termination (0 disables, max 3).
        graph_reduction: peel low-degree vertices first (GR).  Bypassed
            when ``initial_x`` is non-empty.
        backend: branch-state representation, "set", "bitset" or "words".
        bit_order: bitmask packing for the mask backends — "degeneracy"
            (the default), "input" or an explicit vertex permutation.
        initial_x: vertex ids seeded into the initial branch's exclusion
            set; the run then reports the maximal cliques of
            ``G[V \\ initial_x]`` that no ``initial_x`` vertex extends.
        counters: accumulate into an existing instance when given.

    Returns:
        The run's :class:`Counters`.
    """
    _validate_run_options(et_threshold, backend, bit_order,
                          graph_reduction=graph_reduction)
    initial_x = _normalize_initial_x(g, initial_x)
    counters = counters if counters is not None else Counters()
    counted = _counting(sink, counters)
    work, inner_sink = _apply_reduction(
        g, counted, counters, graph_reduction and not initial_x
    )
    if work.n == 0:
        return counters  # the empty graph has no maximal cliques

    bg = core = None
    if backend in _MASK_BACKENDS:
        bg, inner_sink, core = _bit_view(work, bit_order, inner_sink)
    ctx = make_context(
        inner_sink,
        counters,
        et_threshold=et_threshold,
        vertex_strategy=vertex_strategy,
        backend=backend,
    )
    if backend == "words":
        # The word backend reuses the bitset root driver verbatim: the
        # bridge context lifts each root's mask branch into word space
        # (or keeps it on the bit twin below the dispatch threshold).
        from repro.core.word_phases import make_word_bridge
        from repro.graph.wordadj import WordGraph

        bridge = make_word_bridge(ctx, WordGraph(bg))
        return _run_vertex_bitset(work, ordering_kind, bridge, counters,
                                  initial_x, bg, core)
    if backend == "bitset":
        return _run_vertex_bitset(work, ordering_kind, ctx, counters,
                                  initial_x, bg, core)

    adj = work.adj
    if ordering_kind is None:
        ctx.phase([], set(work.vertices()) - initial_x, set(initial_x),
                  adj, adj, ctx)
        return counters

    order = vertex_ordering(work, ordering_kind)
    position = [0] * work.n
    for i, v in enumerate(order):
        position[v] = i
    if initial_x:
        # Root only at candidate vertices; each root's exclusion set is its
        # earlier candidate neighbours plus every initial_x neighbour.
        for v in order:
            if v in initial_x:
                continue
            pv = position[v]
            later = {w for w in adj[v]
                     if position[w] > pv and w not in initial_x}
            earlier = adj[v] - later
            ctx.phase([v], later, earlier, adj, adj, ctx)
        return counters
    for v in order:
        later = {w for w in adj[v] if position[w] > position[v]}
        earlier = adj[v] - later
        ctx.phase([v], later, earlier, adj, adj, ctx)
    return counters


def _run_vertex_bitset(
    work: Graph,
    ordering_kind: str | None,
    ctx,
    counters: Counters,
    initial_x: frozenset[int],
    bg,
    core=None,
) -> Counters:
    """Bitmask twin of the ``run_vertex`` initial branch.

    Runs entirely in ``bg``'s bit space — root vertices, candidate and
    exclusion masks are all bit positions; ``ctx.sink`` translates back to
    vertex ids when the packing is non-identity.  ``core`` is the
    degeneracy decomposition the bit view already computed (if any), so a
    "degeneracy" initial ordering needs no second peel.
    """
    masks = bg.masks
    bit_of = bg.bit_of
    x_mask = bg.mask_of_vertices(initial_x)
    if ordering_kind is None:
        ctx.phase([], bg.vertex_mask & ~x_mask, x_mask, masks, masks, ctx)
        return counters

    if ordering_kind == "degeneracy" and core is not None:
        order = core.order
    else:
        order = vertex_ordering(work, ordering_kind)
    position = [0] * work.n
    for i, v in enumerate(order):
        position[v] = i
    adj = work.adj
    for v in order:
        bv = bit_of[v]
        if x_mask >> bv & 1:
            continue
        later = 0
        pv = position[v]
        for w in adj[v]:
            bw = bit_of[w]
            if position[w] > pv and not x_mask >> bw & 1:
                later |= 1 << bw
        earlier = masks[bv] & ~later
        ctx.phase([bv], later, earlier, masks, masks, ctx)
    return counters
