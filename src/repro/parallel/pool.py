"""Worker-pool driver for degeneracy-partitioned parallel enumeration.

Task encoding is deliberately pickling-lean and split by weight:

* :class:`GraphState` — the heavy per-graph payload (adjacency, degeneracy
  order, cached bitmask views).  It travels to each worker exactly once
  per graph: inherited through ``fork`` at pool creation, shipped through
  the pool initializer under ``spawn``, or broadcast once to a live pool
  (:meth:`WorkerPool.submit` with a new key) and cached worker-side.
* :class:`repro.config.RunConfig` — the light per-request knobs,
  validated in the parent.  A few bytes, shipped with each task next to
  the sink mode and the trace context.
* a task is then just ``(graph key, config, mode, trace context, Chunk)``
  and a result is one :class:`ChunkResult`.

:class:`WorkerPool` owns the pool lifecycle: create once, ``submit()``
many times (any mix of graphs and configs), explicit ``close()``.  The
long-running service mode (:mod:`repro.service`) keeps one warm instance
across requests so repeated queries skip the spin-up entirely;
:func:`run_parallel` wraps a one-shot instance so classic callers see a
single function call.  Both go through :func:`execute`, the one
decompose → pack → submit → merge pipeline.

``n_jobs=1`` runs the identical decomposition + chunk pipeline in-process
(no subprocesses), so the parallel path can be tested and profiled without
pool nondeterminism; ``n_jobs>=2`` fans the chunks out over a
``multiprocessing`` pool and streams results back as workers finish, with
the aggregator re-establishing deterministic order.
"""

from __future__ import annotations

import multiprocessing
import queue
import threading
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Protocol, cast

from repro.config import OptionValue, RunConfig, validate_n_jobs
from repro.core.counters import Counters
from repro.exceptions import InvalidParameterError, WorkerPoolError
from repro.graph.adjacency import Graph
from repro.obs.metrics import MetricsRegistry
from repro.obs.timeline import WorkerTimelineEvent
from repro.obs.trace import TraceContext, Tracer, maybe_span, span_record
from repro.parallel.aggregate import (
    Aggregator,
    ChunkResult,
    Payload,
    merge_payloads,
)
from repro.parallel.decompose import (
    DEFAULT_COST_MODEL,
    Decomposition,
    InPlaceRunner,
    Subproblem,
    decompose,
    solve_subproblem,
    subproblem_sets,
    uses_in_place_phase,
)
from repro.parallel.scheduler import (
    DEFAULT_CHUNK_STRATEGY,
    STEAL_CHUNK_FACTOR,
    Chunk,
    balance_ratio,
    chunk_summary,
    make_chunks,
    plan_steal,
    resplit_threshold,
    steal_chunk_count,
)

if TYPE_CHECKING:
    from multiprocessing.context import BaseContext
    from multiprocessing.pool import Pool as MpPool
    from multiprocessing.synchronize import Barrier as SyncBarrier

    from repro.graph.bitadj import BitGraph

#: worker-side barrier timeout for the graph broadcast rendezvous.  A
#: worker that dies between spin-up and the broadcast can never arrive,
#: so the survivors abandon the barrier after this long instead of
#: blocking the submit (and the service lock) forever.
_BROADCAST_TIMEOUT = 60.0

#: extra parent-side slack on top of the worker timeout before the
#: broadcast itself is declared failed (covers the case where the dead
#: worker consumed its install task, which is then lost for good and the
#: surviving workers' errors can never release the map).
_BROADCAST_GRACE = 15.0

#: a subproblem below this many root-level candidates is never re-split —
#: the per-branch dispatch overhead cannot pay for itself.
_MIN_RESPLIT_CANDIDATES = 4

@dataclass
class GraphState:
    """The heavy per-graph payload a worker caches across requests.

    Holds the adjacency, the degeneracy order/position from the
    decomposition, and whole-graph :class:`BitGraph` views keyed by their
    packing — everything that is a function of the *graph* rather than of
    one request, so a warm pool ships it once and reuses it for every
    subsequent request against the same graph.

    Views are built in the parent before any worker needs them: the
    service registry builds the ``"degeneracy"`` view at registration,
    and :func:`run_parallel` builds its request's view inside its
    ``decompose`` step.  Forked workers inherit them (spawned ones get
    them pickled with the state), so a worker never packs a graph; the
    in-place runners of every chunk and split task share the one view.
    """

    graph: Graph
    order: list[int]
    position: list[int]
    bit_graphs: dict[str | tuple[int, ...], BitGraph] = \
        field(default_factory=dict)

    def bit_graph(self, options: dict[str, OptionValue], *,
                  keep: bool = False) -> BitGraph:
        """Whole-graph :class:`BitGraph` for the request's ``bit_order``.

        The X-aware in-place path runs bitset subproblems on global
        masks; building them per subproblem would be O(m) each, so the
        view is materialised once per packing and cached.  The degeneracy
        packing reuses the decomposition's already-computed peel order
        instead of peeling again.

        Explicit permutations are unbounded in number: a long-running
        service would otherwise accumulate one O(n^2)-bit view per
        distinct client-supplied permutation, forever.  So their views are
        cached only with ``keep=True``, which a one-shot run passes: its
        state ends with the run.  The named orders, a closed set, are
        always cached.
        """
        from repro.graph.bitadj import (
            DEFAULT_BIT_ORDER,
            BitGraph,
            resolve_bit_order,
        )

        bit_order = options.get("bit_order")
        if bit_order is None:
            bit_order = DEFAULT_BIT_ORDER
        key = bit_order if isinstance(bit_order, str) \
            else tuple(cast(Sequence[int], bit_order))
        bg = self.bit_graphs.get(key)
        if bg is None:
            order = list(key) if isinstance(key, tuple) \
                else resolve_bit_order(self.graph, key,
                                       degeneracy_order=self.order)
            bg = BitGraph.from_graph(self.graph, order=order)
            if keep or isinstance(key, str):
                self.bit_graphs[key] = bg
        return bg


#: One pool task: graph key, config, sink mode (``"collect"`` or
#: ``"count"``), the parent's trace position (``None``: no worker spans;
#: timeline events are always recorded) and the chunk or split part.
Task = tuple[str, RunConfig, str, TraceContext | None, "Chunk | SplitTask"]


@dataclass
class ParallelStats:
    """Optional observability for one parallel run (used by the bench).

    Pass an instance via ``run_parallel(..., stats=...)``; it is filled in
    place.  ``chunk_cpu_seconds`` is worker-side ``process_time`` per chunk
    (time-sharing-proof): its maximum plus the decomposition prologue is
    the critical path (the wall clock of a host with enough free cores),
    its sum is the total partitioned CPU from which :meth:`work_ratio`
    derives the duplicated-work overhead versus the serial run.
    """

    n_jobs: int = 0
    n_subproblems: int = 0
    n_chunks: int = 0
    chunk_strategy: str = ""
    cost_model: str = ""
    start_method: str = ""
    x_aware: bool = True
    steal: bool = False
    #: tasks a worker pulled off the dynamic queue beyond the initial
    #: dispatch window (0 in static mode by definition).
    steals: int = 0
    #: subproblems re-split at their own root level, and the split tasks
    #: they produced.
    resplit_subproblems: int = 0
    resplit_tasks: int = 0
    decompose_seconds: float = 0.0
    balance_ratio: float = 1.0
    chunk_costs: list[float] = field(default_factory=list)
    chunk_sizes: list[int] = field(default_factory=list)
    chunk_cpu_seconds: dict[int, float] = field(default_factory=dict)
    #: per-chunk execution records (worker id, wall start/end, CPU,
    #: branch counters) — see :mod:`repro.obs.timeline`.
    timeline: list[WorkerTimelineEvent] = field(default_factory=list)

    @property
    def total_cpu_seconds(self) -> float:
        """Decomposition prologue plus every chunk's worker CPU time."""
        return self.decompose_seconds + sum(self.chunk_cpu_seconds.values())

    @property
    def critical_path_seconds(self) -> float:
        """Decomposition prologue plus the slowest chunk's CPU time."""
        chunk_cpu = self.chunk_cpu_seconds.values()
        return self.decompose_seconds + (max(chunk_cpu) if chunk_cpu else 0.0)

    def work_ratio(self, serial_seconds: float) -> float:
        """Total partitioned CPU over the monolithic serial wall time.

        1.0 means the partition did exactly the serial run's work; values
        above 1 measure duplicated branches plus per-subproblem prologues.
        A non-positive ``serial_seconds`` yields ``nan``: the ratio is
        *unknown*, and the old 0.0 sentinel read as "perfect" in reports
        (renderers show ``n/a`` instead).  This is the single source of
        truth the scaling benchmark records.
        """
        return self.total_cpu_seconds / serial_seconds \
            if serial_seconds > 0 else float("nan")


def parse_jobs(text: str) -> int:
    """CLI-side ``--jobs`` parsing with the library's error convention."""
    try:
        return validate_n_jobs(int(text))
    except ValueError:  # InvalidParameterError is one too
        raise InvalidParameterError(
            f"--jobs must be a positive integer, got {text!r}"
        ) from None


def _in_place(config: RunConfig) -> bool:
    """Whether a request's subproblems run on the in-place tier."""
    return config.x_aware is not False \
        and uses_in_place_phase(config.algorithm, config.options)


def _runner(graph_state: GraphState, config: RunConfig,
            mode: str) -> InPlaceRunner:
    """One in-place runner over the state's cached view (bitset requests)."""
    bit_graph = graph_state.bit_graph(config.options) \
        if config.options.get("backend") == "bitset" else None
    return InPlaceRunner(graph_state.graph, graph_state.position,
                         algorithm=config.algorithm, options=config.options,
                         bit_graph=bit_graph, mode=mode)


def _result(
    index: int, items: list[tuple[int, Payload]], counters: Counters,
    started: float, cpu_start: float, context: TraceContext | None,
    span: str, span_id: str, **attrs: object,
) -> ChunkResult:
    """A task's payload plus its telemetry, for chunks and split parts.

    Beyond the clique payload, every task ships its telemetry: wall
    start/end plus CPU time (the timeline event), a worker-side metrics
    registry snapshot (chunk CPU histogram labelled by worker, branch
    counters folded as ``mce_*_total``), and — given the request's trace
    ``context`` — a ``span`` record parented on the parent's enumerate
    span.  Per-task cost is a handful of clock reads and one small dict.
    The record's ``cpu_per_wall`` is CPU over wall seconds: well below 1,
    the worker was time-sliced off its core mid-task.

    Timestamps use ``time.monotonic()``: it cannot step backwards (an NTP
    adjustment mid-chunk made ``time.time()`` produce negative
    ``wall_seconds``) and on Linux it is system-wide, so stamps taken in
    different forked workers stay comparable on one timeline — and with
    the parent's trace spans, which use the same clock.
    """
    worker = multiprocessing.current_process().name
    cpu_seconds = time.process_time() - cpu_start
    finished = time.monotonic()
    registry = MetricsRegistry()
    registry.histogram("worker_chunk_cpu_seconds",
                       labels={"worker": worker}).observe(cpu_seconds)
    registry.counter("worker_chunks_total",
                     labels={"worker": worker}).inc()
    registry.fold_counters(counters)
    record = None
    if context is not None:
        wall = finished - started
        record = span_record(
            span, context=context, span_id=span_id,
            start=started, seconds=wall,
            worker_id=worker, chunk_id=index, cpu_seconds=cpu_seconds,
            cpu_per_wall=cpu_seconds / wall if wall > 0 else 0.0,
            counters=counters.as_dict(), **attrs,
        )
    return ChunkResult(
        chunk_index=index,
        items=items,
        counters=counters.as_dict(),
        cpu_seconds=cpu_seconds,
        worker=worker,
        started=started,
        finished=finished,
        metrics=registry.as_dict(),
        span=record,
    )


def _solve_chunk(
    graph_state: GraphState, config: RunConfig, chunk: Chunk, mode: str,
    context: TraceContext | None = None,
) -> ChunkResult:
    """Run every subproblem of one chunk; shared by workers and inline mode.

    On the in-place tier one :class:`InPlaceRunner` serves the whole
    chunk: its sink, counters and engine context are built once, and it
    reads the whole-graph view the parent built into ``graph_state``.
    The other tiers solve each subproblem with :func:`solve_subproblem`.
    """
    started = time.monotonic()
    cpu_start = time.process_time()
    order = graph_state.order
    if _in_place(config):
        runner = _runner(graph_state, config, mode)
        items = [(p, runner.subproblem(order[p])) for p in chunk.positions]
        counters = runner.counters
    else:
        items = []
        counters = Counters()
        for p in chunk.positions:
            payload, sub_counters, _ = solve_subproblem(
                graph_state.graph, graph_state.position, order[p],
                algorithm=config.algorithm, options=config.options,
                x_aware=config.x_aware is not False, mode=mode,
            )
            counters.merge(sub_counters)
            items.append((p, payload))
    return _result(chunk.index, items, counters, started, cpu_start,
                   context, "chunk", f"chunk{chunk.index}",
                   subproblems=len(chunk.positions))


# ---------------------------------------------------------------------------
# Worker-process plumbing
# ---------------------------------------------------------------------------

#: Per-process graph cache: key -> GraphState.  Survives across tasks, so
#: a warm pool pays the ship cost once per (worker, graph), not per request.
_WORKER_GRAPHS: dict[str, GraphState] = {}

_WORKER_BARRIER: SyncBarrier | None = None


# The initializer is the one audited global write: it runs exactly once per
# worker (and again on respawn, by design — see the docstring).
# repro-lint: allow[boundaries] — audited pool-initializer global
def _init_worker(barrier: SyncBarrier,
                 states: dict[str, GraphState]) -> None:
    """Pool initializer: install the broadcast barrier and known graphs.

    ``states`` is the parent pool's *live* registry of every shipped
    graph.  Under ``fork`` it arrives through the process snapshot (zero
    pickling); under ``spawn`` it is pickled once per worker — exactly
    the cost profile of the previous one-shot design.  Because
    ``multiprocessing.Pool`` re-runs the initializer with the same
    arguments whenever it replaces a dead worker, a respawned worker
    recovers every graph shipped so far (the snapshot/pickle happens at
    respawn time, when the parent's dict is current) instead of crashing
    the next chunk routed to it.
    """
    global _WORKER_BARRIER
    _WORKER_BARRIER = barrier
    _WORKER_GRAPHS.clear()
    _WORKER_GRAPHS.update(states)


def _install_graph(task: tuple[str, GraphState]) -> str:
    """Broadcast task: cache one graph state, then rendezvous.

    The barrier (sized to the pool) guarantees each worker executes exactly
    one install per broadcast — a worker that grabbed its copy blocks until
    every other worker has grabbed one too, so none can steal a second.

    The wait is bounded: a worker that died between spin-up and the
    broadcast can never arrive, and an unbounded barrier would park the
    survivors — and through them ``submit()`` and the service lock —
    forever.  On timeout the barrier breaks, every survivor raises
    :class:`WorkerPoolError`, and the parent surfaces one clean error.
    """
    key, graph_state = task
    _WORKER_GRAPHS[key] = graph_state
    if _WORKER_BARRIER is not None:
        try:
            _WORKER_BARRIER.wait(timeout=_BROADCAST_TIMEOUT)
        except threading.BrokenBarrierError:
            raise WorkerPoolError(
                "graph broadcast barrier broke: a worker died before the "
                f"rendezvous (waited {_BROADCAST_TIMEOUT:.0f}s)"
            ) from None
    return key


def _run_task(task: Task) -> ChunkResult:
    """Pool task: resolve the cached graph state, solve the chunk or part."""
    key, config, mode, context, work = task
    graph_state = _WORKER_GRAPHS.get(key)
    if graph_state is None:  # pragma: no cover - defensive
        raise RuntimeError(f"worker never received graph state {key!r}")
    if isinstance(work, SplitTask):
        return _solve_split(graph_state, config, work, mode, context)
    return _solve_chunk(graph_state, config, work, mode, context)


# ---------------------------------------------------------------------------
# Root-level re-splitting (steal mode)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SplitTask:
    """One part of a re-split subproblem.

    A cost-model outlier is split at its own root level: for root ``v``
    with candidates ``w_0 < w_1 < ...`` (degeneracy-position order), the
    branch of ``w_i`` is the X-aware subproblem one level down —
    ``S = {v, w_i}``, candidates the later co-neighbours, exclusion the
    earlier ones (recursive application of the PR-3 decomposition, so the
    branches are disjoint and together exactly cover the subproblem).
    ``branches`` lists the candidate indices this part owns; ``part`` /
    ``parts`` let the parent-side merger recognise the last arrival.
    ``index`` shares the chunk index namespace (unique across both).
    """

    index: int
    position: int
    branches: tuple[int, ...]
    part: int
    parts: int
    cost: float


def mark_resplit(g: Graph, decomposition: Decomposition) -> list[int]:
    """Subproblem positions steal mode re-splits at their own root.

    Marking is pure cost-model arithmetic — deterministic across
    ``n_jobs`` and repeats by construction.  Subproblems with fewer than
    ``_MIN_RESPLIT_CANDIDATES`` root candidates are left alone.  The
    caller decides *eligibility* (re-splitting needs the in-place X-aware
    tier, :meth:`InPlaceRunner.split`); this function only applies the
    cost rule.
    """
    threshold = resplit_threshold([s.cost for s in decomposition.subproblems])
    marked: list[int] = []
    for sub in decomposition.subproblems:
        if sub.cost <= threshold:
            continue
        later, _ = subproblem_sets(g, decomposition.position,
                                   decomposition.order[sub.position])
        if len(later) >= _MIN_RESPLIT_CANDIDATES:
            marked.append(sub.position)
    return marked


def _plan_splits(
    g: Graph, decomposition: Decomposition, positions: tuple[int, ...],
    n_jobs: int, start_index: int,
) -> list[SplitTask]:
    """Cut each marked subproblem's root branches into balanced parts.

    Per-branch cost is ``|C_w| + 1`` (the branch's own candidate count):
    the same linear proxy as the ``candidates`` cost model, cheap enough
    to compute for every branch of every outlier.  Branches pack LPT into
    up to ``n_jobs * STEAL_CHUNK_FACTOR`` parts per subproblem, and the
    resulting tasks are ordered largest-first — they go to the *front* of
    the dispatch queue, ahead of the ordinary chunks.
    """
    position, order, adj = decomposition.position, decomposition.order, g.adj
    splits: list[SplitTask] = []
    next_index = start_index
    for p in positions:
        v = order[p]
        later, _ = subproblem_sets(g, position, v)
        cands = sorted(later, key=lambda u: position[u])
        branch_subs = [
            Subproblem(
                position=i, vertex=w,
                cost=float(sum(1 for u in later & adj[w]
                               if position[u] > position[w]) + 1),
            )
            for i, w in enumerate(cands)
        ]
        parts = min(len(cands), max(2, n_jobs * STEAL_CHUNK_FACTOR))
        packed = sorted(make_chunks(branch_subs, parts, strategy="greedy"),
                        key=lambda c: (-c.cost, c.index))
        for part, chunk in enumerate(packed):
            splits.append(SplitTask(
                index=next_index, position=p, branches=chunk.positions,
                part=part, parts=len(packed), cost=chunk.cost,
            ))
            next_index += 1
    splits.sort(key=lambda t: (-t.cost, t.index))
    return splits


def plan_steal_schedule(
    g: Graph, decomposition: Decomposition, n_jobs: int,
    chunks_per_worker: int, *, strategy: str = DEFAULT_CHUNK_STRATEGY,
    resplit_ok: bool = True,
) -> tuple[list[Chunk], list[SplitTask], int]:
    """The full steal-mode schedule for one decomposition.

    Marks cost outliers (when ``resplit_ok`` — the request must be routed
    to the in-place X-aware tier), packs the rest into small chunks in
    dispatch order, and cuts the marked subproblems into split tasks.
    Returns ``(chunks, splits, requested)`` where ``requested`` is the
    chunk count the packing aimed for (the :func:`balance_ratio`
    denominator).  Pure function of its inputs, so the service registry
    caches the result per (graph, knobs) pair.
    """
    resplit = mark_resplit(g, decomposition) if resplit_ok else []
    plan = plan_steal(
        decomposition.subproblems, n_jobs, chunks_per_worker,
        strategy=strategy, resplit=resplit,
    )
    splits = _plan_splits(g, decomposition, plan.resplit, n_jobs,
                          len(plan.chunks))
    requested = steal_chunk_count(
        len(decomposition.subproblems) - len(plan.resplit),
        n_jobs, chunks_per_worker,
    )
    return plan.chunks, splits, requested


def _solve_split(
    graph_state: GraphState, config: RunConfig, task: SplitTask, mode: str,
    context: TraceContext | None = None,
) -> ChunkResult:
    """Run one part of a re-split subproblem; telemetry mirrors a chunk.

    One :class:`InPlaceRunner` solves every branch of the part
    (:meth:`InPlaceRunner.split`): stem ``[v, w]``, candidates the later
    co-neighbours of ``w`` within ``later(v)``, the exclusion set
    everything adjacent to both that an earlier branch or an earlier
    subproblem owns.  No pivot is applied *at* the re-split level —
    every candidate gets a branch, so parts are independently computable
    — which trades a little duplicated fan-out (bounded: only outliers
    are split) for per-branch parallelism.
    """
    started = time.monotonic()
    cpu_start = time.process_time()
    runner = _runner(graph_state, config, mode)
    payload = merge_payloads(
        runner.split(graph_state.order[task.position], task.branches), mode)
    return _result(task.index, [(task.position, payload)], runner.counters,
                   started, cpu_start, context, "split",
                   f"split{task.position}.{task.part}",
                   position=task.position, part=task.part, parts=task.parts,
                   branches=len(task.branches))


class _SplitMerger:
    """Parent-side accumulator folding split parts back into one item.

    The aggregators key strictly on subproblem position —
    ``CollectAggregator`` *replaces* per position and ``received`` counts
    one per item — so partial payloads must never reach them as items.
    Earlier parts ship their telemetry with ``items=[]``; the merged
    payload rides the final part's :class:`ChunkResult`.  Aggregator
    semantics (and the completeness audit) are untouched by construction.
    """

    def __init__(self, splits: list[SplitTask], mode: str) -> None:
        self._mode = mode
        self._tasks = {t.index: t for t in splits}
        self._payloads: dict[int, list[Payload]] = {}
        self._remaining = {t.position: t.parts for t in splits}

    def owns(self, index: int) -> bool:
        return index in self._tasks

    def fold(self, result: ChunkResult) -> ChunkResult:
        task = self._tasks[result.chunk_index]
        parts = self._payloads.setdefault(task.position, [])
        parts.append(result.items[0][1])
        self._remaining[task.position] -= 1
        if self._remaining[task.position]:
            result.items = []
        else:
            result.items = [(task.position,
                             merge_payloads(parts, self._mode))]
        return result


@dataclass
class SubmitReport:
    """What one :meth:`WorkerPool.submit` did beyond the results.

    ``steals`` counts tasks dispatched dynamically — pulled by a worker
    that finished its share while other tasks were still queued (always 0
    when the task count fits the initial window).  ``steals_by_worker``
    attributes them to the worker that returned each stolen task.
    """

    steals: int = 0
    steals_by_worker: dict[str, int] = field(default_factory=dict)


def _pool_context() -> tuple[BaseContext, str]:
    """Prefer ``fork`` (zero-copy state inheritance), fall back to spawn."""
    methods = multiprocessing.get_all_start_methods()
    method = "fork" if "fork" in methods else methods[0]
    return multiprocessing.get_context(method), method


class WorkerPool:
    """A reusable worker pool: create once, ``submit()`` many, ``close()``.

    The pool is lazy — worker processes spin up on the first submit that
    needs them — and sticky: once live, every later submit reuses the same
    processes, and graph states already shipped (tracked per key) are
    never re-sent.  ``warm=True`` sizes the pool at ``n_jobs`` regardless
    of the first request's chunk count and routes even single-chunk
    requests through the live pool (the service profile); ``warm=False``
    keeps the one-shot economics — pool sized to the work, single-chunk
    runs solved inline, and the first graph inherited through the spawn
    instead of broadcast (the :func:`run_parallel` profile).

    Observability for the service layer: :attr:`spinups` counts
    ``multiprocessing`` pool creations (0 or 1 over a pool's life) and
    :attr:`graph_ships` counts graph-state broadcasts to a live pool —
    both flat across warm repeat requests.
    """

    def __init__(self, n_jobs: int, *, warm: bool = False) -> None:
        self.n_jobs = n_jobs
        self.warm = warm
        # The pool is shared by the service's connection threads; every
        # mutation of the state below happens under this lock (an RLock
        # so a locked path may call close()).
        self._lock = threading.RLock()
        self._pool: MpPool | None = None
        self._workers = 0
        # Every graph state the workers are expected to hold, by key.
        # This exact dict object is the pool initializer's argument, so
        # respawned workers re-read it (fork snapshot / fresh pickle) and
        # recover all states shipped up to that moment.
        self._states: dict[str, GraphState] = {}
        self._closed = False
        self.start_method = "inline"
        self.spinups = 0
        self.graph_ships = 0

    @property
    def is_live(self) -> bool:
        """Whether worker processes currently exist."""
        return self._pool is not None

    def _ensure_pool(self, n_chunks: int) -> MpPool:
        with self._lock:
            if self._pool is not None:
                return self._pool
            ctx, method = _pool_context()
            workers = self.n_jobs if self.warm \
                else min(self.n_jobs, n_chunks)
            barrier = ctx.Barrier(workers)
            self._pool = ctx.Pool(
                processes=workers,
                initializer=_init_worker,
                initargs=(barrier, self._states),
            )
            self._workers = workers
            self.start_method = method
            self.spinups += 1
            return self._pool

    def submit(
        self,
        key: str,
        graph_state: GraphState,
        config: RunConfig,
        chunks: list[Chunk],
        accept: Callable[[ChunkResult], None],
        *,
        mode: str,
        tracer: Tracer | None = None,
        splits: list[SplitTask] | None = None,
    ) -> SubmitReport:
        """Solve ``chunks`` (and ``splits``) against ``graph_state``.

        ``accept`` is called with each :class:`ChunkResult` in arrival
        order (an :class:`repro.parallel.aggregate.Aggregator` re-orders);
        ``mode`` is that aggregator's payload mode.
        ``key`` identifies the graph state for the worker-side cache: the
        state is shipped only the first time a key is seen, so repeat
        submits with the same key are pure compute.

        Execution is a dynamic shared queue, not a one-shot fan-out: at
        most one task per worker is in flight, and each completion
        dispatches the next task off the front of the list.  Task order
        is therefore the schedule — steal mode passes chunks pre-sorted
        largest-first with ``splits`` (parts of re-split outliers) ahead
        of them, so the expensive work starts immediately and the small
        chunks level the tail.  Every task dispatched beyond the initial
        window counts as a *steal*, attributed to the worker that
        returns it; the counts come back in the :class:`SubmitReport`.

        With a ``tracer`` the submit contributes a ``ship`` span (always
        present so traces have one shape; ``shipped`` records whether a
        broadcast actually happened) and an ``execute`` span wrapping the
        fan-out — worker chunk spans are parented on the *caller's*
        current span, not on these.
        """
        if self._closed:
            raise RuntimeError("WorkerPool is closed")
        splits = list(splits or [])
        report = SubmitReport()
        if not chunks and not splits:
            return report
        context = tracer.current if tracer is not None else None
        merger = _SplitMerger(splits, mode)
        n_tasks = len(chunks) + len(splits)
        if self.n_jobs == 1 \
                or (self._pool is None and not self.warm and n_tasks == 1):
            # In-process path: no subprocesses, no shipping, same pipeline.
            with maybe_span(tracer, "ship", transport="inline",
                            shipped=False):
                pass
            with maybe_span(tracer, "execute", transport="inline",
                            n_chunks=len(chunks), n_splits=len(splits),
                            steal=config.steal):
                for split in splits:
                    accept(merger.fold(_solve_split(
                        graph_state, config, split, mode, context)))
                for chunk in chunks:
                    accept(_solve_chunk(graph_state, config, chunk, mode,
                                        context))
            return report
        if self._pool is None and not self.warm:
            # One-shot profile: the first graph rides the spawn (the fork
            # snapshot, or the initializer pickle) rather than a broadcast.
            with self._lock:
                self._states.setdefault(key, graph_state)
        pool = self._ensure_pool(n_tasks)
        ship_needed = key not in self._states
        with maybe_span(tracer, "ship", transport=self.start_method,
                        shipped=ship_needed, workers=self._workers):
            if ship_needed:
                # Barrier broadcast to the live workers: exactly one
                # install per worker.  Recording the state afterwards
                # keeps any later-respawned worker consistent (see
                # _init_worker).  The bounded get() pairs with the
                # worker-side barrier timeout: a worker that died *after*
                # consuming its install task took it to the grave — the
                # map can then never complete, survivors' barrier errors
                # notwithstanding — so the parent gives up shortly after
                # the workers would have and surfaces one clean error
                # instead of hanging the service lock forever.
                broadcast = pool.map_async(
                    _install_graph,
                    [(key, graph_state)] * self._workers, chunksize=1,
                )
                try:
                    broadcast.get(
                        timeout=_BROADCAST_TIMEOUT + _BROADCAST_GRACE)
                except multiprocessing.TimeoutError:
                    self.close()
                    raise WorkerPoolError(
                        "graph broadcast did not complete within "
                        f"{_BROADCAST_TIMEOUT + _BROADCAST_GRACE:.0f}s; a "
                        "worker likely died before the rendezvous"
                    ) from None
                except WorkerPoolError:
                    self.close()
                    raise
                with self._lock:
                    self._states[key] = graph_state
                    self.graph_ships += 1
        work: list[Chunk | SplitTask] = [*splits, *chunks]
        tasks: list[Task] = [(key, config, mode, context, w) for w in work]
        with maybe_span(tracer, "execute", transport=self.start_method,
                        n_chunks=len(chunks), n_splits=len(splits),
                        steal=config.steal) as execute_span:
            self._dispatch(pool, tasks, merger, accept, report)
            if tracer is not None:
                execute_span.attrs.update(steals=report.steals)
        return report

    def _dispatch(self, pool: MpPool, tasks: list[Task],
                  merger: _SplitMerger,
                  accept: Callable[[ChunkResult], None],
                  report: SubmitReport) -> None:
        """Shared dynamic queue: one task per worker in flight, pull on
        completion.

        ``apply_async`` callbacks (which run on the pool's result-handler
        thread) feed a local queue the submitting thread drains; each
        arrival dispatches the next task in list order.  Tasks sent after
        the initial window are marked, and on return counted as steals of
        the worker that executed them.  A traced task's span gets
        ``queue_wait_s``, from its dispatch here to its start in the
        worker, both on ``time.monotonic()``.
        """
        results: queue.SimpleQueue[tuple[str, Any]] = queue.SimpleQueue()
        sent: dict[int, float] = {}

        def _send(i: int, dynamic: bool) -> None:
            index = tasks[i][4].index
            if dynamic:
                dynamic_indices.add(index)
            sent[index] = time.monotonic()
            pool.apply_async(
                _run_task, (tasks[i],),
                callback=lambda r: results.put(("ok", r)),
                error_callback=lambda e: results.put(("err", e)),
            )

        dynamic_indices: set[int] = set()
        window = min(self._workers, len(tasks))
        for i in range(window):
            _send(i, False)
        next_task = window
        completed = 0
        while completed < len(tasks):
            status, payload = results.get()
            if status == "err":
                raise payload
            completed += 1
            if next_task < len(tasks):
                _send(next_task, True)
                next_task += 1
            result = payload
            if result.span is not None:
                result.span["attrs"]["queue_wait_s"] = \
                    result.started - sent[result.chunk_index]
            if result.chunk_index in dynamic_indices:
                report.steals += 1
                report.steals_by_worker[result.worker] = \
                    report.steals_by_worker.get(result.worker, 0) + 1
            if merger.owns(result.chunk_index):
                result = merger.fold(result)
            accept(result)

    def close(self) -> None:
        """Shut the workers down; idempotent, pool unusable afterwards."""
        with self._lock:
            if self._pool is not None:
                self._pool.terminate()
                self._pool.join()
                self._pool = None
            self._closed = True

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class Plans(Protocol):
    """Where :func:`execute` gets a run's graph state and its schedule:
    computed for one run (:class:`_OneShot`) or the service's caches."""

    key: str

    def decomposition(self, cost_model: str
                      ) -> tuple[GraphState, Decomposition]: ...

    def chunks(self, decomposition: Decomposition, cost_model: str,
               strategy: str, n_chunks: int) -> list[Chunk]: ...

    def steal_plan(
        self, decomposition: Decomposition, cost_model: str, strategy: str,
        n_jobs: int, chunks_per_worker: int, resplit_ok: bool,
    ) -> tuple[list[Chunk], list[SplitTask], int]: ...


class _OneShot:
    """:func:`run_parallel`'s plans: computed for the one run, not cached."""

    key = "oneshot"

    def __init__(self, g: Graph, config: RunConfig) -> None:
        self.g = g
        self.config = config

    def decomposition(self, cost_model: str
                      ) -> tuple[GraphState, Decomposition]:
        # Looked up at call time, so a profiler wrapping
        # coreness.core_decomposition sees this peel as it sees others.
        from repro.graph.coreness import core_decomposition

        core = core_decomposition(self.g)
        graph_state = GraphState(graph=self.g, order=core.order,
                                 position=core.position)
        if _in_place(self.config) \
                and self.config.options.get("backend") == "bitset":
            # Pack once, here: the pool forks after this, so every worker
            # inherits the view instead of rebuilding it.
            graph_state.bit_graph(self.config.options, keep=True)
        return graph_state, decompose(
            self.g, cost_model=cost_model, core=core,
            bit_graph=graph_state.bit_graphs.get("degeneracy"))

    def chunks(self, decomposition: Decomposition, cost_model: str,
               strategy: str, n_chunks: int) -> list[Chunk]:
        return make_chunks(decomposition.subproblems, n_chunks,
                           strategy=strategy)

    def steal_plan(
        self, decomposition: Decomposition, cost_model: str, strategy: str,
        n_jobs: int, chunks_per_worker: int, resplit_ok: bool,
    ) -> tuple[list[Chunk], list[SplitTask], int]:
        return plan_steal_schedule(
            self.g, decomposition, n_jobs, chunks_per_worker,
            strategy=strategy, resplit_ok=resplit_ok,
        )


def execute(
    config: RunConfig,
    aggregator: Aggregator,
    plans: Plans,
    pool: WorkerPool,
    *,
    trace: Tracer | None = None,
) -> ParallelStats:
    """Run one validated parallel config: decompose, pack, submit.

    The one pipeline behind :func:`run_parallel` (a transient pool, a
    fresh decomposition) and :class:`repro.service.CliqueService` (its
    warm pool and registry caches).  Results stream into ``aggregator``;
    its merge (``finish()``) stays with the caller.

    With a ``trace`` the run contributes ``decompose``/``pack``/``ship``/
    ``execute`` spans plus one grafted ``chunk`` span per chunk (and a
    ``split`` span per re-split part), and the folded paper counters land
    on the trace root as the ``counters`` attribute.
    """
    strategy, cost_model = config.chunk_strategy, config.cost_model
    per_worker, steal = config.chunks_per_worker, config.steal is True
    assert strategy and cost_model and per_worker, "validate() the config"
    n_jobs = pool.n_jobs
    with maybe_span(trace, "decompose", cost_model=cost_model):
        start = time.perf_counter()
        graph_state, decomposition = plans.decomposition(cost_model)
        decompose_seconds = time.perf_counter() - start
    with maybe_span(trace, "pack", strategy=strategy,
                    steal=steal) as pack_span:
        splits: list[SplitTask] = []
        if steal:
            chunks, splits, requested = plans.steal_plan(
                decomposition, cost_model, strategy, n_jobs, per_worker,
                _in_place(config),
            )
        else:
            chunks = plans.chunks(decomposition, cost_model, strategy,
                                  n_jobs * per_worker)
            requested = min(n_jobs * per_worker,
                            len(decomposition.subproblems))
        resplit = len({t.position for t in splits})
        if trace is not None:
            pack_span.attrs.update(chunk_summary(chunks, requested))
            if steal:
                pack_span.attrs.update(resplit_subproblems=resplit,
                                       split_tasks=len(splits))

    aggregator.start(len(decomposition.subproblems))
    report = pool.submit(plans.key, graph_state, config, chunks,
                         aggregator.accept, mode=aggregator.mode,
                         tracer=trace, splits=splits)
    for worker, n in sorted(report.steals_by_worker.items()):
        aggregator.metrics.counter("worker_steals_total",
                                   labels={"worker": worker}).inc(n)

    if trace is not None:
        for record in aggregator.spans:
            trace.attach(record)
        trace.annotate(counters=aggregator.counters.as_dict())

    return ParallelStats(
        n_jobs=n_jobs,
        n_subproblems=len(decomposition.subproblems),
        n_chunks=len(chunks),
        chunk_strategy=strategy,
        cost_model=cost_model,
        start_method=pool.start_method,
        x_aware=config.x_aware is not False,
        steal=steal,
        steals=report.steals,
        resplit_subproblems=resplit,
        resplit_tasks=len(splits),
        decompose_seconds=decompose_seconds,
        balance_ratio=balance_ratio(chunks, requested),
        chunk_costs=[c.cost for c in chunks],
        chunk_sizes=[len(c.positions) for c in chunks],
        chunk_cpu_seconds=dict(aggregator.chunk_cpu_seconds),
        timeline=list(aggregator.timeline),
    )


def run_parallel(
    g: Graph,
    aggregator: Aggregator,
    *,
    algorithm: str,
    n_jobs: int,
    chunk_strategy: str = DEFAULT_CHUNK_STRATEGY,
    cost_model: str = DEFAULT_COST_MODEL,
    chunks_per_worker: int = 1,
    x_aware: bool = True,
    steal: bool = False,
    stats: ParallelStats | None = None,
    trace: Tracer | None = None,
    **options: Any,
) -> Counters:
    """Enumerate ``g``'s maximal cliques across a one-shot worker pool.

    The root level is partitioned per-vertex in degeneracy order, packed
    into ``n_jobs * chunks_per_worker`` cost-balanced chunks, and solved by
    ``algorithm`` (any registered name, any backend) on induced
    subproblems.  Results stream into ``aggregator`` with a deterministic
    merge; the returned :class:`Counters` sum the per-worker counters
    (``emitted`` equals the true clique count).

    The knobs form one :class:`repro.config.RunConfig`, validated before
    any worker starts, and :func:`execute` runs it on a pool of its own,
    torn down before returning.  Long-running callers that issue many
    requests should hold a warm :class:`WorkerPool` (or use
    :class:`repro.service.CliqueService`, which also caches the per-graph
    decomposition artifacts) instead of paying the spin-up every time.

    ``x_aware=True`` (the default) seeds each subproblem's exclusion set
    from the degeneracy order so duplicated branches are pruned inside the
    engines; ``x_aware=False`` restores the enumerate-then-filter
    decomposition (duplicates counted under ``suppressed_candidates``),
    kept as an escape hatch and as the baseline the work-ratio regression
    tests compare against.

    ``steal=True`` switches the scheduler to work-stealing mode: many
    small chunks are packed (``STEAL_CHUNK_FACTOR`` times the static
    count) and dispatched dynamically largest-first, and cost-model
    outliers are re-split at their own root level so a single hub
    subproblem no longer sets the critical path.  The enumerated cliques
    and their fingerprint are identical to the static schedule by
    construction (the re-split is the same X-aware decomposition one
    level down — disjoint, complete, deterministic).

    ``stats`` (a :class:`ParallelStats`) is filled in place; ``trace=``
    takes a :class:`repro.obs.trace.Tracer` (see :func:`execute`).
    """
    config = RunConfig(algorithm, options, n_jobs, chunk_strategy,
                       cost_model, chunks_per_worker, x_aware,
                       steal).validate(g)
    with WorkerPool(n_jobs) as pool:
        run_stats = execute(config, aggregator, _OneShot(g, config), pool,
                            trace=trace)
    if stats is not None:
        vars(stats).update(vars(run_stats))
    return aggregator.counters
