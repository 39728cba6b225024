"""Worker-pool driver for degeneracy-partitioned parallel enumeration.

Task encoding is deliberately pickling-lean and split by weight:

* :class:`GraphState` — the heavy per-graph payload (adjacency, degeneracy
  order, cached bitmask views).  It reaches each worker once per graph:
  inherited through ``fork`` when the worker starts (pickled with the
  worker's arguments under ``spawn``), or sent down each live worker's
  pipe the first time a live pool sees its key, and cached worker-side.
* :class:`repro.config.RunConfig` — the light per-request knobs,
  validated in the parent.  A few bytes, shipped with each task next to
  the sink mode and the trace context.
* a task is then just ``(graph key, config, mode, trace context, Chunk)``
  and a result is one :class:`ChunkResult`.

:class:`WorkerPool` owns the worker processes: create once, ``submit()``
many times (any mix of graphs and configs), explicit ``close()``.  The
long-running service mode (:mod:`repro.service`) keeps one warm instance
across requests so repeated queries skip the spin-up entirely;
:func:`run_parallel` wraps a one-shot instance so classic callers see a
single function call.  Both go through :func:`execute`, the one
decompose → pack → submit → merge pipeline.

``n_jobs=1`` runs the identical decomposition + chunk pipeline in-process
(no subprocesses), so the parallel path can be tested and profiled without
pool nondeterminism; ``n_jobs>=2`` fans the chunks out over worker
processes, one duplex pipe each, and the calling thread reads the results
back as workers finish, with the aggregator re-establishing deterministic
order.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from collections import deque
from collections.abc import Callable, Sequence
from contextlib import suppress
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
    from multiprocessing.connection import Connection
    from multiprocessing.context import ForkContext, SpawnContext
    from multiprocessing.process import BaseProcess

    from repro.graph.bitadj import BitGraph

#: how long ``close`` waits for a stopped worker to exit before killing it.
_STOP_GRACE = 5.0

#: a subproblem below this many root-level candidates is never re-split —
#: the per-branch dispatch overhead cannot pay for itself.
_MIN_RESPLIT_CANDIDATES = 4

@dataclass
class GraphState:
    """The heavy per-graph payload a worker caches across requests.

    Holds the adjacency, the degeneracy order/position from the
    decomposition, and whole-graph :class:`BitGraph` views keyed by their
    packing — everything that is a function of the *graph* rather than of
    one request.  A worker gets it once, at its start or down its pipe
    (:class:`WorkerPool`), and reuses it for every subsequent request
    against the same graph.

    Views are built in the parent (the service registry's
    ``"degeneracy"`` view at registration, :func:`run_parallel`'s in its
    ``decompose`` step) and reach the workers inside the state, so a
    worker never packs a graph; all its in-place runners share the view.
    """

    graph: Graph
    order: list[int]
    position: list[int]
    bit_graphs: dict[str | tuple[int, ...], BitGraph] = \
        field(default_factory=dict)

    def bit_graph(self, options: dict[str, OptionValue], *,
                  keep: bool = False) -> BitGraph:
        """Whole-graph :class:`BitGraph` for the request's ``bit_order``.

        Built once per packing and cached (per subproblem it would cost
        O(m) each); the degeneracy packing reuses the decomposition's peel
        order.  Explicit permutations are unbounded in number, so a
        long-running service caches none of their O(n^2)-bit views: only
        ``keep=True``, which a one-shot run passes, caches one.  The named
        orders, a closed set, are always cached.
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
    place.  ``chunk_cpu_seconds`` is worker-side ``process_time`` per
    chunk: its maximum plus the decomposition prologue is the critical
    path, its sum the total CPU that :meth:`work_ratio` compares.
    """

    n_jobs: int = 0
    n_subproblems: int = 0
    n_chunks: int = 0
    chunk_strategy: str = ""
    cost_model: str = ""
    start_method: str = ""
    x_aware: bool = True
    steal: bool = False
    #: tasks sent past the initial dispatch window.
    steals: int = 0
    #: subproblems re-split at their own root, and their split tasks.
    resplit_subproblems: int = 0
    resplit_tasks: int = 0
    decompose_seconds: float = 0.0
    balance_ratio: float = 1.0
    chunk_costs: list[float] = field(default_factory=list)
    chunk_sizes: list[int] = field(default_factory=list)
    chunk_cpu_seconds: dict[int, float] = field(default_factory=dict)
    #: per-chunk execution records (see :mod:`repro.obs.timeline`).
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

        1.0 means the partition did exactly the serial run's work; above 1
        measures duplicated branches plus per-subproblem prologues.  A
        non-positive ``serial_seconds`` gives ``nan`` (unknown; renderers
        show ``n/a``).  The scaling benchmark records this figure.
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

    The telemetry: wall start/end plus CPU time (the timeline event), a
    worker-side metrics snapshot (chunk CPU histogram by worker, branch
    counters as ``mce_*_total``) and, given the request's trace
    ``context``, a ``span`` record parented on the caller's span, whose
    ``cpu_per_wall`` well below 1 means the worker was time-sliced.
    Stamps use ``time.monotonic()``: it never steps back (``time.time()``
    gave negative ``wall_seconds`` under NTP) and is system-wide on
    Linux, so every worker's stamps share the parent's trace clock.
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

    On the in-place tier one :class:`InPlaceRunner` (sink, counters and
    engine context built once, on the parent-built view) serves the whole
    chunk; the other tiers call :func:`solve_subproblem` per subproblem.
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


def _worker_loop(conn: Connection, graphs: dict[str, GraphState],
                 inherited: list[Connection]) -> None:
    """A worker's life: answer the messages on its pipe until stopped.

    ``graphs`` is the pool's state cache as the worker started (the fork
    snapshot, or its pickle under spawn).  ``("graph", (key, state))``
    adds a state, acked ``(True, None)``; ``("task", task)`` is answered
    ``(True, result)`` or ``(False, exception)`` (traceback as a note).
    A forked child closes its copies of the pool's parent ends
    (``inherited``), so a pipe reads EOF once either side is gone.  Each
    reply is dropped once sent; ``None`` or EOF ends it with ``os._exit``.
    """
    for other in inherited:
        other.close()
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            os._exit(0)
        if message is None:
            os._exit(0)
        kind, body = message
        try:
            if kind == "graph":
                graphs[body[0]] = body[1]
                reply: tuple[bool, Any] = (True, None)
            elif isinstance(body[4], SplitTask):
                reply = (True, _solve_split(graphs[body[0]], body[1],
                                            body[4], body[2], body[3]))
            else:
                reply = (True, _solve_chunk(graphs[body[0]], body[1],
                                            body[4], body[2], body[3]))
        except Exception as exc:  # re-raised in the parent, with this note
            import traceback
            exc.add_note("".join(traceback.format_exception(exc)).rstrip())
            reply = (False, exc)
        try:
            conn.send(reply)
        except OSError:  # the parent is gone
            os._exit(0)
        except Exception as exc:  # an unpicklable result or exception
            conn.send((False, WorkerPoolError(
                f"worker reply could not be pickled: {exc!r}")))
        del reply


@dataclass(eq=False)
class _Worker:
    """One owned worker process and the parent's end of its pipe."""

    process: BaseProcess
    conn: Connection


def _ready(workers: list[_Worker]) -> list[_Worker]:
    """Block until some ``workers`` reply or die (pipe or sentinel)."""
    from multiprocessing.connection import wait  # not needed before a pool
    handles: list[Connection | int] = []
    owner: dict[object, _Worker] = {}
    for w in workers:
        handles += (w.conn, w.process.sentinel)
        owner[w.conn] = owner[w.process.sentinel] = w
    return list(dict.fromkeys(owner[h] for h in wait(handles)))


def _receive(worker: _Worker) -> tuple[bool, Any] | None:
    """A ready worker's reply, or ``None`` if it died instead."""
    with suppress(EOFError, OSError):
        if worker.conn.poll():
            return cast("tuple[bool, Any]", worker.conn.recv())
    return None


def _reap(worker: _Worker) -> None:
    """Close the parent's pipe end and wait for the process to end."""
    worker.conn.close()
    worker.process.join(_STOP_GRACE)
    if worker.process.exitcode is None:
        worker.process.kill()
        worker.process.join()
    worker.process.close()


# ---------------------------------------------------------------------------
# Root-level re-splitting (steal mode)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SplitTask:
    """One part of a re-split subproblem.

    A cost-model outlier is split at its own root level: for root ``v``
    with candidates ``w_0 < w_1 < ...`` (degeneracy-position order), the
    branch of ``w_i`` is the X-aware subproblem one level down (``S = {v,
    w_i}``, the later co-neighbours as candidates, the earlier ones as
    exclusion), so the branches are disjoint and cover the subproblem.
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

    Pure cost-model arithmetic, deterministic across ``n_jobs`` and
    repeats; fewer than ``_MIN_RESPLIT_CANDIDATES`` root candidates are
    never split.  Eligibility (the in-place X-aware tier) is the caller's.
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

    Per-branch cost is ``|C_w| + 1`` (the ``candidates`` cost model's
    linear proxy).  Branches pack LPT into up to ``n_jobs *
    STEAL_CHUNK_FACTOR`` parts per subproblem, ordered largest-first for
    the *front* of the dispatch queue, ahead of the ordinary chunks.
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

    Marks cost outliers (when ``resplit_ok``: the in-place X-aware tier),
    packs the rest into small chunks in dispatch order, and cuts the
    marked subproblems into split tasks.  Returns ``(chunks, splits,
    requested)``, ``requested`` being the chunk count the packing aimed
    for (the :func:`balance_ratio` denominator).  A pure function, so the
    service registry caches it per (graph, knobs) pair.
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
    (:meth:`InPlaceRunner.split`).  No pivot is applied *at* the re-split
    level — every candidate gets a branch, so parts are independently
    computable — which trades a little duplicated fan-out (bounded: only
    outliers are split) for per-branch parallelism.
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

    The aggregators key on subproblem position (``CollectAggregator``
    *replaces* per position, ``received`` counts one per item), so
    earlier parts pass their telemetry on with ``items=[]`` and the
    merged payload rides the final part's :class:`ChunkResult`.
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

    ``steals`` counts tasks sent past the initial window (0 when the task
    count fits it); ``steals_by_worker`` attributes each to the worker
    that returned it.
    """

    steals: int = 0
    steals_by_worker: dict[str, int] = field(default_factory=dict)


def _pool_context() -> tuple[ForkContext | SpawnContext, str]:
    """Prefer ``fork`` (zero-copy state inheritance), fall back to spawn."""
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork"), "fork"
    return multiprocessing.get_context("spawn"), "spawn"


class WorkerPool:
    """Owned worker processes: create once, ``submit()`` many, ``close()``.

    The pool is lazy (workers start on the first submit that needs them)
    and sticky: later submits reuse the processes, and a state already
    shipped is never re-sent.  ``warm=True`` sizes the pool at ``n_jobs``
    and routes even single-chunk requests through it (the service
    profile); ``warm=False`` sizes it to the work, solves single-chunk
    runs inline, and lets the first graph ride the fork instead of a ship
    (the :func:`run_parallel` profile).

    Each worker is a ``multiprocessing`` process (``fork`` where
    available, else ``spawn``) running :func:`_worker_loop` on its own
    duplex pipe; the submitting thread sends the tasks and reads the
    results itself.  A worker that dies mid-task is replaced and its task
    rerun once; a second loss of that task, or a death while a state
    ships, closes the pool with :class:`WorkerPoolError`.  There is no
    deadline yet: a hung worker holds its submit.

    Observability: :attr:`spinups` counts pool starts (0 or 1 over a
    pool's life), :attr:`graph_ships` states sent to a live pool — both
    flat across warm repeats — and :attr:`respawns` replaced workers.
    """

    def __init__(self, n_jobs: int, *, warm: bool = False) -> None:
        self.n_jobs = n_jobs
        self.warm = warm
        # Shared by the service's connection threads: every mutation of
        # the state below is under this lock (an RLock: close() nests).
        self._lock = threading.RLock()
        self._workers: list[_Worker] = []
        # Every graph state the workers hold, by key: a respawned worker
        # starts with all of them.
        self._states: dict[str, GraphState] = {}
        self._closed = False
        self.start_method = "inline"
        self.spinups = 0
        self.graph_ships = 0
        self.respawns = 0

    @property
    def is_live(self) -> bool:
        """Whether worker processes currently exist."""
        return bool(self._workers)

    def _spawn(self) -> _Worker:
        """Start one worker on a new pipe (lock held).  A forked child
        must close its copies of every parent end, its own included, or
        it holds its own pipe open past the parent's close."""
        ctx, method = _pool_context()
        parent, child = ctx.Pipe()
        inherited = [w.conn for w in self._workers] + [parent] \
            if method == "fork" else []
        worker = _Worker(ctx.Process(
            target=_worker_loop, args=(child, self._states, inherited),
            daemon=True), parent)
        try:
            worker.process.start()
        finally:
            child.close()
        return worker

    def _ensure_pool(self, n_chunks: int) -> list[_Worker]:
        """Start the workers on first use; replace any that died idle."""
        with self._lock:
            if not self._workers:
                self.start_method = _pool_context()[1]
                n = self.n_jobs if self.warm else min(self.n_jobs, n_chunks)
                for _ in range(n):
                    self._workers.append(self._spawn())
                self.spinups += 1
            for w in self._workers:
                if w.process.exitcode is not None:
                    self._respawn(w)
            return self._workers

    def _respawn(self, worker: _Worker) -> _Worker:
        """Replace a dead worker by a fresh one holding every state."""
        with self._lock:
            _reap(worker)
            fresh = self._spawn()
            self._workers[self._workers.index(worker)] = fresh
            self.respawns += 1
            return fresh

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

        ``accept`` is called on the calling thread with each
        :class:`ChunkResult` in arrival order (an
        :class:`repro.parallel.aggregate.Aggregator` re-orders); ``mode``
        is that aggregator's payload mode.  ``key`` names the state in the
        worker-side cache: a live pool is sent each key's state once, so
        repeat submits with the same key are pure compute.

        Execution is a dynamic shared queue: at most one task per worker
        is in flight, and each completion dispatches the next task off
        the front of the list.  Task order is therefore the schedule —
        steal mode passes chunks pre-sorted largest-first with ``splits``
        (parts of re-split outliers) ahead of them.  Every task sent
        beyond the initial window counts as a *steal* of the worker that
        returns it (:class:`SubmitReport`).  A task that raises is
        re-raised here with its type, and the pool stays usable.

        With a ``tracer`` the submit contributes a ``ship`` span (always
        present so traces have one shape; ``shipped`` records whether a
        state was sent) and an ``execute`` span wrapping the fan-out —
        worker chunk spans are parented on the *caller's* current span.
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
                or (not self._workers and not self.warm and n_tasks == 1):
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
        if not self._workers and not self.warm:
            # One-shot profile: the first graph rides the fork, not a ship.
            with self._lock:
                self._states.setdefault(key, graph_state)
        workers = self._ensure_pool(n_tasks)
        ship_needed = key not in self._states
        with maybe_span(tracer, "ship", transport=self.start_method,
                        shipped=ship_needed, workers=len(workers)):
            if ship_needed:
                self._ship(key, graph_state)
        work: list[Chunk | SplitTask] = [*splits, *chunks]
        tasks: list[Task] = [(key, config, mode, context, w) for w in work]
        with maybe_span(tracer, "execute", transport=self.start_method,
                        n_chunks=len(chunks), n_splits=len(splits),
                        steal=config.steal) as execute_span:
            self._dispatch(tasks, merger, accept, report)
            if tracer is not None:
                execute_span.attrs.update(steals=report.steals)
        return report

    def _ship(self, key: str, graph_state: GraphState) -> None:
        """Send a new graph state down every worker's pipe; await the acks.
        A death here may be the state's doing, so the pool closes with
        :class:`WorkerPoolError` instead of retrying."""
        waiting = list(self._workers)
        try:
            for w in waiting:
                w.conn.send(("graph", (key, graph_state)))
            while waiting:
                for w in _ready(waiting):
                    waiting.remove(w)
                    if _receive(w) is None:
                        raise OSError(f"{w.process.name} died")
        except BaseException as exc:
            self.close()
            if isinstance(exc, OSError):
                raise WorkerPoolError(f"a worker died while graph state "
                                      f"{key!r} shipped") from exc
            raise
        with self._lock:
            self._states[key] = graph_state
            self.graph_ships += 1

    def _dispatch(self, tasks: list[Task], merger: _SplitMerger,
                  accept: Callable[[ChunkResult], None],
                  report: SubmitReport) -> None:
        """One task per busy worker; each reply, unpickled here on the
        calling thread, frees its worker for the next task.

        ``queue_wait_s`` on a traced task's span runs from its send here
        to its start in the worker (both ``time.monotonic()``).  A dead
        worker's task is rerun once on a fresh worker: tasks are
        deterministic and results keyed by position, so nothing doubles.
        A task that raised is re-raised once the tasks in flight are
        back, leaving no stale reply in a pipe; any other failure kills
        the busy workers and closes the pool.
        """
        queue = deque(range(len(tasks)))
        window = min(len(self._workers), len(tasks))
        busy: dict[_Worker, int] = {}
        sent: dict[int, float] = {}
        lost: set[int] = set()
        failure: BaseException | None = None

        def send(worker: _Worker) -> None:
            i = busy[worker] = queue.popleft()
            sent[i] = time.monotonic()
            with suppress(OSError):  # died idle: its EOF reports the loss
                worker.conn.send(("task", tasks[i]))

        try:
            for w in self._workers[:window]:
                send(w)
            while busy:
                for w in _ready(list(busy)):
                    i = busy.pop(w)
                    reply = _receive(w)
                    if reply is None:
                        if i in lost:
                            raise WorkerPoolError(
                                f"task {tasks[i][4].index} was lost to "
                                "two worker deaths")
                        lost.add(i)
                        w = self._respawn(w)
                        if failure is None:
                            queue.appendleft(i)
                    if queue and failure is None:
                        send(w)
                    if reply is None or failure is not None:
                        continue
                    ok, result = reply
                    if not ok:
                        failure = result
                        queue.clear()
                        continue
                    if result.span is not None:
                        result.span["attrs"]["queue_wait_s"] = \
                            result.started - sent[i]
                    if i >= window:
                        report.steals += 1
                        report.steals_by_worker[result.worker] = \
                            report.steals_by_worker.get(result.worker, 0) + 1
                    if merger.owns(result.chunk_index):
                        result = merger.fold(result)
                    accept(result)
        except BaseException:
            for w in busy:
                w.process.kill()
            self.close()
            raise
        if failure is not None:
            raise failure

    def close(self) -> None:
        """Stop the workers; idempotent, pool unusable afterwards."""
        with self._lock:
            workers, self._workers = self._workers, []
            self._closed = True
            for w in workers:
                with suppress(OSError):
                    w.conn.send(None)
            for w in workers:
                _reap(w)

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
    its merge (``finish()``) stays with the caller.  With a ``trace`` the
    run adds ``decompose``/``pack``/``ship``/``execute`` spans, a grafted
    ``chunk`` (or ``split``) span per task, and the folded counters as
    the trace root's ``counters`` attribute.
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
    any worker starts; :func:`execute` runs it on a pool of its own, torn
    down before returning.  Callers with many requests should hold a warm
    :class:`WorkerPool` or a :class:`repro.service.CliqueService`.

    ``x_aware=True`` (the default) seeds each subproblem's exclusion set
    from the degeneracy order so duplicated branches are pruned inside the
    engines; ``x_aware=False`` restores the enumerate-then-filter
    decomposition (duplicates counted under ``suppressed_candidates``).

    ``steal=True`` switches to work stealing: ``STEAL_CHUNK_FACTOR`` times
    as many chunks, dispatched dynamically largest-first, and cost-model
    outliers re-split at their own root level so no hub subproblem sets
    the critical path.  The cliques and their fingerprint are those of
    the static schedule by construction.

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
