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
* a task is then just ``(graph key, config, Chunk, mode, trace context)``
  and a result is one :class:`ChunkResult`.

:class:`WorkerPool` owns the worker processes: create once, ``submit()``
many times (any mix of graphs and configs), explicit ``close()``.  The
long-running service mode (:mod:`repro.service`) keeps one warm instance
across requests so repeated queries skip the spin-up entirely;
:func:`run_parallel` wraps a one-shot instance so classic callers see a
single function call.  Both go through :func:`execute`, the one
decompose → pack → submit → merge pipeline.

A one-shot run's calling process is one of its ``n_jobs`` workers
(:class:`WorkerPool`), so ``n_jobs=1`` and single-task runs start no
process and run the identical decomposition + chunk pipeline in-process:
the parallel path can be tested and profiled without pool
nondeterminism.  Worker processes, one duplex pipe each, report to the
calling thread, and the aggregator re-establishes deterministic order.
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
from repro.parallel.aggregate import Aggregator, ChunkResult
from repro.parallel.decompose import (
    Decomposition,
    InPlaceRunner,
    decompose,
    solve_subproblem,
)
from repro.parallel.scheduler import (
    Chunk,
    balance_ratio,
    chunk_summary,
    make_chunks,
    plan_steal_schedule,
    steal_chunk_count,
)

if TYPE_CHECKING:
    from multiprocessing.connection import Connection
    from multiprocessing.context import ForkContext, SpawnContext
    from multiprocessing.process import BaseProcess

    from repro.graph.bitadj import BitGraph

#: how long ``close`` waits for a stopped worker to exit before killing it.
_STOP_GRACE = 5.0


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
    ``"degeneracy"`` view at registration, for a graph that
    :func:`repro.core.frameworks.default_backend` sends to ``bitset``;
    :func:`run_parallel`'s in its ``decompose`` step) and reach the
    workers inside the state, so a worker packs no graph a request's
    default runs on; all its in-place runners share the view.  An explicit
    bitset request on a registered large sparse graph, which has no view,
    packs it on first use in each process that runs it.
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


#: One pool task: graph key, config, the chunk, sink mode (``"collect"``
#: or ``"count"``) and the parent's trace position (``None``: no worker
#: spans; timeline events are always recorded).
Task = tuple[str, RunConfig, Chunk, str, TraceContext | None]


@dataclass
class ParallelStats:
    """Optional observability for one parallel run (used by the bench).

    Pass an instance via ``run_parallel(..., stats=...)``; it is filled in
    place.  ``chunk_cpu_seconds`` is the ``process_time`` of each chunk
    in the process that solved it, a worker process or the one-shot
    caller: its maximum plus the decomposition prologue is the critical
    path, its sum the total CPU that :meth:`work_ratio` compares.
    """

    n_jobs: int = 0
    n_subproblems: int = 0
    n_chunks: int = 0
    start_method: str = ""
    steal: bool = False
    #: tasks handed out past each worker's first.
    steals: int = 0
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
    """Whether a request's subproblems run on the in-place tier: those of
    every algorithm that can seed an exclusion set."""
    from repro.api import get_algorithm  # deferred: api imports us lazily

    return get_algorithm(config.algorithm).supports_initial_x


def _runner(graph_state: GraphState, config: RunConfig,
            mode: str) -> InPlaceRunner:
    """One in-place runner over the state's cached view (bitset requests)."""
    bit_graph = graph_state.bit_graph(config.options) \
        if config.options.get("backend") == "bitset" else None
    return InPlaceRunner(graph_state.graph, graph_state.position,
                         algorithm=config.algorithm, options=config.options,
                         bit_graph=bit_graph, mode=mode)


def _solve_chunk(
    graph_state: GraphState, config: RunConfig, chunk: Chunk, mode: str,
    context: TraceContext | None = None,
) -> ChunkResult:
    """Run every subproblem of one chunk, in a worker or in the caller.

    On the in-place tier one :class:`InPlaceRunner` (sink, counters and
    engine context built once, on the parent-built view) serves the whole
    chunk; ``reverse-search``'s filter calls :func:`solve_subproblem` per
    subproblem.

    The payloads come back with the chunk's telemetry: wall start/end
    plus CPU time (the timeline event), a worker-side metrics snapshot
    (chunk CPU histogram by worker, branch counters as ``mce_*_total``)
    and, given the request's trace ``context``, a ``chunk`` span record
    parented on the caller's span, whose ``cpu_per_wall`` well below 1
    means the worker was time-sliced.  Stamps use ``time.monotonic()``:
    it never steps back (``time.time()`` gave negative ``wall_seconds``
    under NTP) and is system-wide on Linux, so every worker's stamps
    share the parent's trace clock.
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
            payload, sub_counters = solve_subproblem(
                graph_state.graph, graph_state.position, order[p],
                algorithm=config.algorithm, options=config.options,
                mode=mode,
            )
            counters.merge(sub_counters)
            items.append((p, payload))
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
            "chunk", context=context, span_id=f"chunk{chunk.index}",
            start=started, seconds=wall,
            worker_id=worker, chunk_id=chunk.index, cpu_seconds=cpu_seconds,
            cpu_per_wall=cpu_seconds / wall if wall > 0 else 0.0,
            counters=counters.as_dict(), subproblems=len(chunk.positions),
        )
    return ChunkResult(
        chunk_index=chunk.index,
        items=items,
        counters=counters.as_dict(),
        cpu_seconds=cpu_seconds,
        worker=worker,
        started=started,
        finished=finished,
        metrics=registry.as_dict(),
        span=record,
    )


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
            else:
                reply = (True, _solve_chunk(graphs[body[0]], *body[1:]))
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


def _ready(workers: list[_Worker],
           timeout: float | None = None) -> list[_Worker]:
    """The ``workers`` that replied or died (pipe or sentinel), waiting
    for one at most ``timeout`` seconds (``None``: until one does)."""
    from multiprocessing.connection import wait  # not needed before a pool
    handles: list[Connection | int] = []
    owner: dict[object, _Worker] = {}
    for w in workers:
        handles += (w.conn, w.process.sentinel)
        owner[w.conn] = owner[w.process.sentinel] = w
    return list(dict.fromkeys(owner[h] for h in wait(handles, timeout)))


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


@dataclass
class SubmitReport:
    """What one :meth:`WorkerPool.submit` did beyond the results.

    ``steals`` counts tasks handed out past each worker's first (0 when
    the task count fits the workers, or the caller works alone);
    ``steals_by_worker`` attributes each to the worker that returned it.
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
    shipped is never re-sent.  ``warm=True`` (the service profile) keeps
    ``n_jobs`` worker processes and an idle submitting thread, so the
    service's connection threads keep answering ``ping`` and ``stats``
    while a request runs.  ``warm=False`` (the :func:`run_parallel`
    profile) counts the calling process as one of its ``n_jobs``
    workers: it starts ``min(n_jobs, tasks) - 1`` processes, sized to the
    first submit's work, lets the first graph ride the fork instead of a
    ship, and solves tasks itself (:meth:`_dispatch`).  ``n_jobs=1``,
    warm or not, starts no process at all.

    Each worker is a ``multiprocessing`` process (``fork`` where
    available, else ``spawn``) running :func:`_worker_loop` on its own
    duplex pipe; the submitting thread sends the tasks and reads the
    results itself.  A worker that dies mid-task is replaced and its task
    rerun once; a second loss of that task, or a death while a state
    ships, ends the submit with :class:`WorkerPoolError` and stops every
    worker.  The pool stays usable: the next submit starts fresh workers
    holding every state shipped so far.  Only :meth:`close` is terminal.
    There is no deadline yet: a hung worker holds its submit, and a task
    the caller runs cannot be killed at all.

    Observability: :attr:`spinups` counts the pool starts that started a
    process (one, plus one per submit after a :class:`WorkerPoolError`),
    :attr:`graph_ships` states sent to a live pool — both flat across
    warm repeats — and :attr:`respawns` replaced workers.
    :attr:`start_method` stays ``"inline"`` until a process starts.
    """

    def __init__(self, n_jobs: int, *, warm: bool = False) -> None:
        self.n_jobs = n_jobs
        self.warm = warm
        # A warm pool's caller stays free for the service's other
        # threads; a one-shot caller is one of its n_jobs workers.
        self._caller_works = not warm or n_jobs == 1
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

    def _ensure_pool(self, n_tasks: int) -> list[_Worker]:
        """Start the workers on first use; replace any that died idle.
        A one-shot caller is a worker itself, so it starts one process
        fewer than it has workers, and none for a single task."""
        with self._lock:
            if not self._workers:
                n = min(self.n_jobs, n_tasks) - 1 if self._caller_works \
                    else self.n_jobs
                if n > 0:
                    self.start_method = _pool_context()[1]
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
    ) -> SubmitReport:
        """Solve ``chunks`` against ``graph_state``.

        ``accept`` is called on the calling thread with each
        :class:`ChunkResult` in arrival order (an
        :class:`repro.parallel.aggregate.Aggregator` re-orders); ``mode``
        is that aggregator's payload mode.  ``key`` names the state in the
        worker-side cache: a live pool is sent each key's state once, so
        repeat submits with the same key are pure compute.

        Execution is a dynamic shared queue (:meth:`_dispatch`): at most
        one task per worker process is in flight, and each completion
        dispatches the next task off the front of the list, while a
        one-shot caller solves tasks off its back.  Task order is
        therefore the schedule — steal mode passes its chunks pre-sorted
        largest-first.  Every task handed out beyond each worker's first counts
        as a *steal* of the worker that returns it (:class:`SubmitReport`).
        A task that raises is re-raised here with its type, and the pool
        stays usable.

        With a ``tracer`` the submit contributes a ``ship`` span (always
        present so traces have one shape; ``shipped`` records whether a
        state was sent) and an ``execute`` span wrapping the fan-out —
        chunk spans, the caller's and the workers', are parented on the
        *caller's* current span.
        """
        if self._closed:
            raise RuntimeError("WorkerPool is closed")
        report = SubmitReport()
        if not chunks:
            return report
        context = tracer.current if tracer is not None else None
        tasks: list[Task] = [(key, config, chunk, mode, context)
                             for chunk in chunks]
        if not self._workers and not self.warm:
            # One-shot profile: the first graph rides the fork, not a ship.
            with self._lock:
                self._states.setdefault(key, graph_state)
        workers = self._ensure_pool(len(tasks))
        ship_needed = bool(workers) and key not in self._states
        with maybe_span(tracer, "ship", transport=self.start_method,
                        shipped=ship_needed, workers=len(workers)):
            if ship_needed:
                self._ship(key, graph_state)
        with maybe_span(tracer, "execute", transport=self.start_method,
                        n_chunks=len(chunks),
                        steal=config.steal) as execute_span:
            self._dispatch(graph_state, tasks, accept, report)
            if tracer is not None:
                execute_span.attrs.update(steals=report.steals)
        return report

    def _ship(self, key: str, graph_state: GraphState) -> None:
        """Send a new graph state down every worker's pipe; await the acks.
        A death here may be the state's doing, so the workers stop with
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
            self._stop()
            if isinstance(exc, OSError):
                raise WorkerPoolError(f"a worker died while graph state "
                                      f"{key!r} shipped") from exc
            raise
        with self._lock:
            self._states[key] = graph_state
            self.graph_ships += 1

    def _dispatch(self, graph_state: GraphState, tasks: list[Task],
                  accept: Callable[[ChunkResult], None],
                  report: SubmitReport) -> None:
        """One task per busy worker, fed from the front of the queue; each
        reply, unpickled here on the calling thread, frees its worker for
        the next task.  A one-shot caller works too: whenever no reply is
        waiting it solves a queued task in-process — the *last* while
        worker processes share the queue (the smallest under steal's
        largest-first order, so no process waits on the caller for more
        than one small task), else the first.

        ``queue_wait_s`` on a traced task's span runs to the task's start
        from its send, or, for the caller's own task, from the start of
        this loop (all ``time.monotonic()``).  Each worker's first task
        is its share and every later one a steal; a caller alone steals
        nothing.  A dead worker's task is rerun once on a fresh worker:
        tasks are deterministic and results keyed by position, so nothing
        doubles.  A task that raised, in a worker or in the caller, is
        re-raised once the tasks in flight are back, leaving no stale
        reply in a pipe; any other failure kills the busy workers and
        stops the rest.
        """
        queue = deque(range(len(tasks)))
        caller = self._caller_works
        window = len(self._workers) + (1 if caller else 0) \
            if self._workers else len(tasks)
        busy: dict[_Worker, int] = {}
        # A send to a worker restamps its task; the caller's wait from here.
        sent = dict.fromkeys(queue, time.monotonic())
        handed = 0
        stolen: set[int] = set()
        lost: set[int] = set()
        failure: BaseException | None = None

        def take(last: bool = False) -> int:
            nonlocal handed
            i = queue.pop() if last else queue.popleft()
            if handed >= window:
                stolen.add(i)
            handed += 1
            return i

        def send(worker: _Worker) -> None:
            i = busy[worker] = take()
            sent[i] = time.monotonic()
            with suppress(OSError):  # died idle: its EOF reports the loss
                worker.conn.send(("task", tasks[i]))

        def finish(i: int, result: ChunkResult) -> None:
            if result.span is not None:
                result.span["attrs"]["queue_wait_s"] = \
                    result.started - sent[i]
            if i in stolen:
                report.steals += 1
                report.steals_by_worker[result.worker] = \
                    report.steals_by_worker.get(result.worker, 0) + 1
            accept(result)

        try:
            for w in self._workers[:len(tasks)]:
                send(w)
            while busy or queue:
                ready = _ready(list(busy), 0 if caller and queue else None) \
                    if busy else []
                if not ready:  # the caller's turn
                    i = take(last=bool(self._workers))
                    try:
                        own = _solve_chunk(graph_state, *tasks[i][1:])
                    except Exception as exc:  # raised as a worker's would be
                        failure = exc
                        queue.clear()
                        continue
                    finish(i, own)
                    continue
                for w in ready:
                    i = busy.pop(w)
                    reply = _receive(w)
                    if reply is None:
                        if i in lost:
                            raise WorkerPoolError(
                                f"task {tasks[i][2].index} was lost to "
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
                    finish(i, result)
        except BaseException:
            for w in busy:
                w.process.kill()
            self._stop()
            raise
        if failure is not None:
            raise failure

    def _stop(self) -> None:
        """Stop and reap every worker; a later submit starts new ones."""
        with self._lock:
            workers, self._workers = self._workers, []
            for w in workers:
                with suppress(OSError):
                    w.conn.send(None)
            for w in workers:
                _reap(w)

    def close(self) -> None:
        """Stop the workers; idempotent, pool unusable afterwards."""
        with self._lock:
            self._closed = True
            self._stop()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class Plans(Protocol):
    """Where :func:`execute` gets a run's graph state and its schedule:
    computed for one run (:class:`_OneShot`) or the service's caches."""

    key: str

    def decomposition(self) -> tuple[GraphState, Decomposition]: ...

    def chunks(self, decomposition: Decomposition,
               n_chunks: int) -> list[Chunk]: ...

    def steal_plan(self, decomposition: Decomposition,
                   n_jobs: int) -> list[Chunk]: ...


class _OneShot:
    """:func:`run_parallel`'s plans: computed for the one run, not cached."""

    key = "oneshot"

    def __init__(self, g: Graph, config: RunConfig) -> None:
        self.g = g
        self.config = config

    def decomposition(self) -> tuple[GraphState, Decomposition]:
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
        return graph_state, decompose(self.g, core=core)

    def chunks(self, decomposition: Decomposition,
               n_chunks: int) -> list[Chunk]:
        return make_chunks(decomposition.subproblems, n_chunks)

    def steal_plan(self, decomposition: Decomposition,
                   n_jobs: int) -> list[Chunk]:
        return plan_steal_schedule(decomposition.subproblems, n_jobs)


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
    ``chunk`` span per task, and the folded counters and
    the run's backend as the trace root's ``counters`` and ``backend``
    attributes.
    """
    steal = config.steal is True
    n_jobs = pool.n_jobs
    with maybe_span(trace, "decompose"):
        start = time.perf_counter()
        graph_state, decomposition = plans.decomposition()
        decompose_seconds = time.perf_counter() - start
    with maybe_span(trace, "pack", steal=steal) as pack_span:
        n_subproblems = len(decomposition.subproblems)
        if steal:
            chunks = plans.steal_plan(decomposition, n_jobs)
            requested = steal_chunk_count(n_subproblems, n_jobs)
        else:
            chunks = plans.chunks(decomposition, n_jobs)
            requested = min(n_jobs, n_subproblems)
        if trace is not None:
            pack_span.attrs.update(chunk_summary(chunks, requested))

    aggregator.start(n_subproblems)
    report = pool.submit(plans.key, graph_state, config, chunks,
                         aggregator.accept, mode=aggregator.mode,
                         tracer=trace)
    for worker, n in sorted(report.steals_by_worker.items()):
        aggregator.metrics.counter("worker_steals_total",
                                   labels={"worker": worker}).inc(n)

    if trace is not None:
        for record in aggregator.spans:
            trace.attach(record)
        trace.annotate(counters=aggregator.counters.as_dict(),
                       backend=config.options.get("backend"))

    return ParallelStats(
        n_jobs=n_jobs,
        n_subproblems=n_subproblems,
        n_chunks=len(chunks),
        start_method=pool.start_method,
        steal=steal,
        steals=report.steals,
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
    steal: bool = False,
    stats: ParallelStats | None = None,
    trace: Tracer | None = None,
    **options: Any,
) -> Counters:
    """Enumerate ``g``'s maximal cliques across a one-shot worker pool.

    The root level is partitioned per-vertex in degeneracy order into
    X-aware subproblems, packed LPT by a cost read off the degeneracy
    peel into one chunk per worker, and solved by ``algorithm`` (any
    registered name, any backend).  Results stream into ``aggregator`` with a deterministic
    merge; the returned :class:`Counters` sum the per-worker counters
    (``emitted`` equals the true clique count).

    The knobs form one :class:`repro.config.RunConfig`, validated before
    any worker starts; :func:`execute` runs it on a one-shot pool of its
    own, torn down before returning.  The calling process is one of the
    ``n_jobs`` workers: the run starts ``min(n_jobs, tasks) - 1`` worker
    processes (none for ``n_jobs=1`` or a single chunk) and solves its
    share of the tasks itself.  Callers with many requests should hold a
    warm :class:`WorkerPool` or a :class:`repro.service.CliqueService`.

    ``steal=True`` switches to work stealing: ``STEAL_CHUNK_FACTOR`` times
    as many chunks, dispatched dynamically largest-first.  It changes
    only where and when each subproblem runs: the cliques, their
    fingerprint and the counters are those of the static schedule.

    ``stats`` (a :class:`ParallelStats`) is filled in place; ``trace=``
    takes a :class:`repro.obs.trace.Tracer` (see :func:`execute`).
    """
    config = RunConfig(algorithm, options, n_jobs, steal).validate(g)
    with WorkerPool(n_jobs) as pool:
        run_stats = execute(config, aggregator, _OneShot(g, config), pool,
                            trace=trace)
    if stats is not None:
        vars(stats).update(vars(run_stats))
    return aggregator.counters
