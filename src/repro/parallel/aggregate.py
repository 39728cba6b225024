"""Result aggregation: merge worker chunk results deterministically.

Workers finish in whatever order the OS schedules them, but the subsystem
promises output that is *independent of scheduling*: cliques are delivered
in degeneracy-position order of their subproblem (and canonically sorted
within each subproblem).  The aggregators below reassemble the unordered
chunk stream into that order.

Three sinks cover the API surface:

* :class:`CountAggregator` — O(1) memory; workers ship per-subproblem
  ``(count, max_size, total_vertices)`` triples only.  On the in-place
  tier (every algorithm but ``reverse-search``) the workers never build
  the cliques either; ``reverse-search``'s filter builds each
  subproblem's list worker-side and compresses it with
  :func:`count_payload`.
* :class:`CollectAggregator` — keeps one list per position and returns
  the merged list at the end, in position order or canonical (one sort
  over the workers' sorted runs).
* :class:`CallbackAggregator` — streams cliques into a caller sink as soon
  as their position's turn comes (TCP-style in-order release: results that
  arrive early wait in a bounded reorder buffer).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.core.counters import Counters
from repro.core.result import CliqueSink
from repro.obs.metrics import MetricsRegistry
from repro.obs.timeline import WorkerTimelineEvent

#: what a worker ships back per subproblem: the clique list (collect
#: mode) or the ``(count, max_size, total_vertices)`` triple (count
#: mode).  A plain alias, not a union of aggregator-specific classes, so
#: the picklesafety checker can verify the process boundary end to end.
Payload = list[tuple[int, ...]] | tuple[int, int, int]


@dataclass
class ChunkResult:
    """What one worker sends back for one chunk.

    ``items`` maps subproblem position -> payload, where the payload is a
    list of cliques (collect mode) or a ``(count, max_size, total_vertices)``
    triple (count mode).  ``cpu_seconds`` is the worker-side
    ``time.process_time`` spent on the chunk — immune to time-sharing, it
    feeds the benchmark's critical-path accounting.  ``worker``/``started``
    /``finished`` locate the execution on the shared wall-clock axis (the
    timeline), ``metrics`` is the worker-side registry snapshot folded
    into the parent, and ``span`` is the pre-built trace span record when
    the request shipped a trace context.
    """

    chunk_index: int
    items: list[tuple[int, Payload]]
    counters: dict = field(default_factory=dict)
    cpu_seconds: float = 0.0
    worker: str = ""
    started: float = 0.0
    finished: float = 0.0
    metrics: dict | None = None
    span: dict | None = None


class Aggregator:
    """Base: accumulates counters, timing and telemetry for every sink."""

    #: payload the workers should produce: "collect" or "count"
    mode = "collect"

    def __init__(self) -> None:
        self.counters = Counters()
        self.chunk_cpu_seconds: dict[int, float] = {}
        self.timeline: list[WorkerTimelineEvent] = []
        self.spans: list[dict] = []
        self.metrics = MetricsRegistry()
        self.expected = 0
        self.received = 0

    def start(self, n_subproblems: int) -> None:
        """Called once before any chunk result arrives."""
        self.expected = n_subproblems
        self.received = 0

    def accept(self, result: ChunkResult) -> None:
        """Fold one chunk result in (called in arrival order)."""
        self.chunk_cpu_seconds[result.chunk_index] = result.cpu_seconds
        self.timeline.append(WorkerTimelineEvent(
            worker_id=result.worker,
            chunk_id=result.chunk_index,
            start=result.started,
            end=result.finished,
            cpu_seconds=result.cpu_seconds,
            counters=dict(result.counters),
        ))
        if result.metrics is not None:
            self.metrics.merge_dict(result.metrics)
        if result.span is not None:
            self.spans.append(result.span)
        if result.counters:
            self.counters.merge(Counters(**result.counters))
        for position, payload in result.items:
            self.received += 1
            self._accept_item(position, payload)

    def _accept_item(self, position: int, payload) -> None:
        raise NotImplementedError

    def _check_complete(self) -> None:
        if self.received != self.expected:
            raise RuntimeError(
                f"aggregation incomplete: {self.received} of "
                f"{self.expected} subproblem results arrived"
            )

    def finish(self):
        """Called after every chunk arrived; returns the aggregate value."""
        raise NotImplementedError


class CountAggregator(Aggregator):
    """Counts cliques without materialising them (order-insensitive)."""

    mode = "count"

    def __init__(self) -> None:
        super().__init__()
        self.count = 0
        self.max_size = 0
        self.total_vertices = 0

    def _accept_item(self, position: int, payload) -> None:
        count, max_size, total_vertices = payload
        self.count += count
        self.total_vertices += total_vertices
        if max_size > self.max_size:
            self.max_size = max_size

    def finish(self) -> int:
        self._check_complete()
        return self.count


class CollectAggregator(Aggregator):
    """Gathers all cliques; ``finish`` returns them in position order.

    Every tier ships a position's cliques canonical (each tuple
    ascending, the list sorted), so the position-order concatenation is
    a sequence of sorted runs.  ``finish(canonical=True)`` sorts it once:
    timsort finds the runs and merges them, and no clique is rebuilt.
    """

    def __init__(self) -> None:
        super().__init__()
        self._by_position: dict[int, list[tuple[int, ...]]] = {}

    def _accept_item(self, position: int, payload) -> None:
        self._by_position[position] = payload

    def finish(self, *, canonical: bool = False) -> list[tuple[int, ...]]:
        """The cliques in position order, or sorted when ``canonical``."""
        self._check_complete()
        merged: list[tuple[int, ...]] = []
        for position in sorted(self._by_position):
            merged.extend(self._by_position[position])
        if canonical:
            merged.sort()
        return merged


class CallbackAggregator(Aggregator):
    """Streams cliques to ``sink`` in deterministic position order.

    A subproblem's cliques are released the moment every earlier position
    has been released — so downstream consumers see one fixed stream no
    matter how the OS interleaved the workers.
    """

    def __init__(self, sink: CliqueSink) -> None:
        super().__init__()
        self._sink = sink
        self._buffer: dict[int, list[tuple[int, ...]]] = {}
        self._next = 0

    def _accept_item(self, position: int, payload) -> None:
        self._buffer[position] = payload
        while self._next in self._buffer:
            for clique in self._buffer.pop(self._next):
                self._sink(clique)
            self._next += 1

    def finish(self) -> None:
        # Every position was released in-order during accept().
        self._check_complete()
        if self._buffer:  # pragma: no cover - defensive
            raise RuntimeError(
                f"unreleased positions remain: {sorted(self._buffer)[:5]}"
            )
        return None


def count_payload(cliques: Iterable[tuple[int, ...]]) -> tuple[int, int, int]:
    """Compress a subproblem's cliques into the count-mode triple.

    Only a tier that must build a subproblem's cliques anyway uses this:
    ``reverse-search``'s filter (and a lone root).
    """
    count = 0
    max_size = 0
    total_vertices = 0
    for clique in cliques:
        count += 1
        size = len(clique)
        total_vertices += size
        if size > max_size:
            max_size = size
    return count, max_size, total_vertices
