"""Framework entry points: VBBMC, EBBMC and HBBMC (Algorithms 1, 3, 4).

These functions wire together the pieces — graph reduction, edge ordering,
the edge-oriented engine and a vertex-phase strategy — into the complete
enumeration frameworks the paper evaluates.  Both stream maximal cliques to
a caller-provided sink and return the run's :class:`Counters`.

Both entry points accept ``backend="set"`` (``set``-based branch state)
or ``backend="bitset"`` (``int`` bitmask branch state, see
:mod:`repro.graph.bitadj`).  A run that names none takes
:func:`default_backend` of its input graph: ``bitset`` unless the graph is
large and sparse, a bound that is far lower for :func:`run_vertex`.
Both backends enumerate identical clique sets (and agree on
``Counters.emitted``); because pivot degree-ties resolve in different
scan orders, per-branch instrumentation counters may differ by a few
counts between them.

Both also accept ``initial_x``, a set of vertex ids seeded into the
exclusion set of the initial branch: the run then enumerates exactly the
maximal cliques of ``G[V \\ initial_x]`` that no ``initial_x`` vertex
extends.  This is the branch ``(S = {}, C = V \\ X, X)`` of the textbook
recursion, and it is what makes the parallel decomposition's subproblems
duplication-free (:mod:`repro.parallel.decompose`).  With a non-empty
``initial_x`` graph reduction is bypassed — its peel-and-emit step assumes
an empty exclusion context.

A run whose sink is a plain :class:`CliqueCounter` counts without
enumerating: clique sizes survive the bit→vertex relabelling, so the
bitset backend hands its bit tuples untranslated to the counter.
"""

from __future__ import annotations

from repro.core.counters import Counters
from repro.core.edge_engine import run_edge_root, run_edge_root_with_x
from repro.core.phases import BACKENDS, VERTEX_STRATEGIES, make_context
from repro.core.reduction import reduce_graph
from repro.core.result import CliqueCounter, CliqueSink, suppressing_sink
from repro.exceptions import InvalidParameterError
from repro.graph.adjacency import Graph
from repro.graph.orderings import (
    EDGE_ORDERINGS,
    VERTEX_ORDERINGS,
    edge_ordering,
    vertex_ordering,
)


def _counts_only(sink: CliqueSink) -> bool:
    """Whether ``sink`` reads nothing but each clique's size.

    Exactly :class:`CliqueCounter`: a subclass may override ``__call__``.
    """
    return type(sink) is CliqueCounter


def _counting(sink: CliqueSink, counters: Counters) -> CliqueSink:
    def wrapped(clique: tuple[int, ...]) -> None:
        counters.emitted += 1
        sink(clique)

    return wrapped


#: The largest whole-graph mask table, in bits per edge (n² / m), on
#: which a run that names no backend takes ``bitset``.  Past it the table
#: is mostly zero words: every mask operation walks them while a ``set``
#: intersection stays O(few), and packing the table costs O(n²) memory.
#: Set from the bitset/set time ratios in README "Adjacency backends".
MAX_BITS_PER_EDGE = 800

#: The same bound for :func:`run_vertex`, the engine of the ``vertex``
#: family (VBBMC and the BK baselines): its bitset runs lose to ``set`` on
#: far denser graphs than the edge-rooted runs of :func:`run_hybrid` do.
#: Set from the vertex-family table in README "Adjacency backends".
MAX_VERTEX_BITS_PER_EDGE = 60


def default_backend(g: Graph, *, vertex_oriented: bool = False) -> str:
    """The backend a run on ``g`` takes when the caller names none.

    ``bitset`` unless ``g`` is large and sparse, that is unless its
    degeneracy-packed mask table (n² bits) would hold more than
    :data:`MAX_BITS_PER_EDGE` bits per edge, or more than
    :data:`MAX_VERTEX_BITS_PER_EDGE` for a ``vertex_oriented`` run
    (:func:`run_vertex`).  It reads ``n`` and ``m`` only, so it decides
    before anything is packed.
    """
    bound = MAX_VERTEX_BITS_PER_EDGE if vertex_oriented \
        else MAX_BITS_PER_EDGE
    return "set" if g.n * g.n > bound * g.m else "bitset"


def _is_exact_int(value: object) -> bool:
    """``int`` but not ``bool``: ``1.0`` and ``True`` are not knob values."""
    return isinstance(value, int) and not isinstance(value, bool)


def _validate_run_options(g: Graph, et_threshold: int, backend: str | None,
                          bit_order=None, *, graph_reduction: bool = False,
                          edge_depth: int | None = 1,
                          vertex_oriented: bool = False,
                          names: dict[str, tuple] | None = None) -> str:
    """Reject bad options at the API boundary, before any work starts.

    Returns the backend to run: ``backend``, or :func:`default_backend`
    of ``g`` (with ``vertex_oriented``) when it is ``None``.  A
    ``bit_order`` needs a named ``backend="bitset"``: the default may
    resolve to either side.  ``names`` maps each named choice (a vertex
    strategy, an ordering) to its value and the values allowed: a parallel
    subproblem may never read the knob, so it is checked here, where
    the dry run of :meth:`repro.config.RunConfig.validate` sees it.

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
    if backend is not None and backend not in BACKENDS:
        raise InvalidParameterError(
            f"unknown backend {backend!r}; expected one of {BACKENDS}"
        )
    for what, (value, allowed) in (names or {}).items():
        if value not in allowed:
            raise InvalidParameterError(
                f"unknown {what} {value!r}; expected one of {allowed}"
            )
    if bit_order is not None:
        from repro.graph.bitadj import BIT_ORDERS

        if backend != "bitset":
            got = "no backend was named" if backend is None \
                else f"got backend={backend!r}"
            raise InvalidParameterError(
                "bit_order selects the bitmask packing and requires "
                f"backend='bitset'; {got}"
            )
        if isinstance(bit_order, str) and bit_order not in BIT_ORDERS:
            raise InvalidParameterError(
                f"unknown bit_order {bit_order!r}; expected one of "
                f"{BIT_ORDERS} or an explicit vertex permutation"
            )
    if backend is None:
        return default_backend(g, vertex_oriented=vertex_oriented)
    return backend


def _bit_view(work: Graph, bit_order):
    """Build the run's :class:`BitGraph`.

    Returns ``(bg, core)`` where ``core`` is the degeneracy decomposition
    computed to resolve the default packing (``None`` for other packings)
    — the vertex-root loop reuses it instead of peeling again.
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
    return BitGraph.from_graph(work, order=order), core


def _engine_sink(sink: CliqueSink, counted: CliqueSink, counters: Counters,
                 suppressed: set[frozenset[int]], bg) -> CliqueSink:
    """The sink the engines call, in front of the run's ``counted`` sink.

    The bitset engines emit bit tuples.  Graph reduction's suppression
    filter runs in the engines' id space, so under a non-identity packing
    the suppressed sets are mapped through ``bg.bit_of`` once.  Surviving
    cliques are translated back to vertex ids only when the caller's sink
    reads them (:func:`_counts_only`).
    """
    engine_sink = counted
    relabelled = bg is not None and not bg.is_identity
    if relabelled and not _counts_only(sink):
        to_vertex = bg.to_vertex

        def translated(bits: tuple[int, ...]) -> None:
            counted(tuple(to_vertex[b] for b in bits))

        engine_sink = translated
    if suppressed:
        if relabelled:
            bit_of = bg.bit_of
            suppressed = {frozenset(bit_of[v] for v in members)
                          for members in suppressed}

        def on_suppress() -> None:
            counters.suppressed_candidates += 1

        engine_sink = suppressing_sink(engine_sink, suppressed, on_suppress)
    return engine_sink


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
) -> tuple[Graph, set[frozenset[int]]]:
    """Optionally reduce ``g`` and emit the peeled cliques.

    Returns the graph to enumerate and the vertex sets its run must
    suppress (see :mod:`repro.core.reduction`).
    """
    if not enabled:
        return g, set()
    reduction = reduce_graph(g)
    counters.reduction_removed += len(reduction.removed)
    counters.reduction_emitted += len(reduction.emitted)
    for clique in reduction.emitted:
        counted_sink(clique)
    return reduction.graph, reduction.suppressed


def run_hybrid(
    g: Graph,
    sink: CliqueSink,
    *,
    et_threshold: int = 3,
    graph_reduction: bool = True,
    edge_depth: int | None = 1,
    edge_order_kind: str = "truss",
    vertex_strategy: str = "tomita",
    backend: str | None = None,
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
        backend: branch-state representation, "set" or "bitset";
            ``None`` takes :func:`default_backend` of ``g``.
        bit_order: bitmask packing — "degeneracy" (the default: dense
            core in the low mask words), "input" (identity) or an explicit
            vertex permutation.  Requires a named ``backend="bitset"``.
        initial_x: vertex ids seeded into the initial branch's exclusion
            set; the run then reports the maximal cliques of
            ``G[V \\ initial_x]`` that no ``initial_x`` vertex extends.
        counters: accumulate into an existing instance when given.

    Returns:
        The run's :class:`Counters`.
    """
    backend = _validate_run_options(
        g, et_threshold, backend, bit_order, graph_reduction=graph_reduction,
        edge_depth=edge_depth,
        names={"vertex strategy": (vertex_strategy, VERTEX_STRATEGIES),
               "edge ordering": (edge_order_kind, EDGE_ORDERINGS)})
    initial_x = _normalize_initial_x(g, initial_x)
    counters = counters if counters is not None else Counters()
    counted = _counting(sink, counters)
    work, suppressed = _apply_reduction(
        g, counted, counters, graph_reduction and not initial_x
    )
    if work.n == 0:
        return counters  # the empty graph has no maximal cliques

    bg = None
    if backend == "bitset":
        bg, _ = _bit_view(work, bit_order)
    ctx = make_context(
        _engine_sink(sink, counted, counters, suppressed, bg),
        counters,
        et_threshold=et_threshold,
        vertex_strategy=vertex_strategy,
        backend=backend,
    )
    if initial_x:
        C = set(work.vertices()) - initial_x
        if not C:
            return counters  # every vertex excluded: nothing is maximal
        # Rank only the branchable (C-internal) edges; C-X edges stay in
        # `work` itself, feeding the exclusion sets.
        ordering = edge_ordering(_candidate_edge_graph(work, C),
                                 edge_order_kind)
        if backend == "bitset":
            from repro.core.bit_edge_engine import bit_run_edge_root_with_x

            bit_run_edge_root_with_x(work, bg,
                                     bg.mask_of_vertices(C),
                                     bg.mask_of_vertices(initial_x),
                                     ordering, edge_depth, ctx)
        else:
            run_edge_root_with_x(work, C, set(initial_x), ordering,
                                 edge_depth, ctx)
        return counters

    # A bitset run has packed `work` already: the truss peel reads its
    # initial supports from those masks.
    ordering = edge_ordering(work, edge_order_kind, bit_graph=bg)
    if backend == "bitset":
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
    backend: str | None = None,
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
        backend: branch-state representation, "set" or "bitset";
            ``None`` takes :func:`default_backend` of ``g`` under the
            vertex-oriented bound.
        bit_order: bitmask packing — "degeneracy" (the default), "input"
            or an explicit vertex permutation.  Requires a named
            ``backend="bitset"``.
        initial_x: vertex ids seeded into the initial branch's exclusion
            set; the run then reports the maximal cliques of
            ``G[V \\ initial_x]`` that no ``initial_x`` vertex extends.
        counters: accumulate into an existing instance when given.

    Returns:
        The run's :class:`Counters`.
    """
    backend = _validate_run_options(
        g, et_threshold, backend, bit_order, graph_reduction=graph_reduction,
        vertex_oriented=True,
        names={"vertex strategy": (vertex_strategy, VERTEX_STRATEGIES),
               "vertex ordering": (ordering_kind, (*VERTEX_ORDERINGS, None))})
    initial_x = _normalize_initial_x(g, initial_x)
    counters = counters if counters is not None else Counters()
    counted = _counting(sink, counters)
    work, suppressed = _apply_reduction(
        g, counted, counters, graph_reduction and not initial_x
    )
    if work.n == 0:
        return counters  # the empty graph has no maximal cliques

    bg = core = None
    if backend == "bitset":
        bg, core = _bit_view(work, bit_order)
    ctx = make_context(
        _engine_sink(sink, counted, counters, suppressed, bg),
        counters,
        et_threshold=et_threshold,
        vertex_strategy=vertex_strategy,
        backend=backend,
    )
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
    vertex ids when the packing is non-identity and the caller's sink
    reads them (see :func:`_engine_sink`).  ``core`` is the
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
