"""Per-chunk worker timelines: who ran what, when, and at what CPU cost.

Every chunk a worker solves produces one :class:`WorkerTimelineEvent` —
worker identity, chunk id, wall-clock start/end (``time.monotonic``
seconds — a system-wide clock on Linux, so events from different
processes on one host line up on a shared axis and never jump under NTP
slews) and the
worker-side ``process_time`` actually burned, plus the branch counters
for that chunk.  The events ride back on the chunk results, land in
``ParallelStats.timeline`` and surface through the service's trace
payload — the raw material for proving (or disproving) load skew, which
is what a choice between the static schedule and steal mode's small
dynamic chunks must be measured by.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class WorkerTimelineEvent:
    """One chunk execution on one worker."""

    worker_id: str
    chunk_id: int
    start: float
    end: float
    cpu_seconds: float
    counters: dict = field(default_factory=dict)

    @property
    def wall_seconds(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {
            "worker_id": self.worker_id,
            "chunk_id": self.chunk_id,
            "start": self.start,
            "end": self.end,
            "wall_seconds": self.wall_seconds,
            "cpu_seconds": self.cpu_seconds,
            "counters": dict(self.counters),
        }


def timeline_summary(events: list[WorkerTimelineEvent]) -> dict:
    """Per-worker totals plus the skew headline.

    ``cpu_skew`` is max-over-mean per-worker CPU (1.0 = perfectly even);
    an empty timeline reports zero workers and skew 0.0 rather than
    faking balance.
    """
    per_worker: dict[str, dict] = {}
    for event in events:
        row = per_worker.setdefault(
            event.worker_id,
            {"chunks": 0, "cpu_seconds": 0.0, "wall_seconds": 0.0},
        )
        row["chunks"] += 1
        row["cpu_seconds"] += event.cpu_seconds
        row["wall_seconds"] += event.wall_seconds
    if not per_worker:
        return {"workers": {}, "n_workers": 0, "cpu_skew": 0.0}
    loads = [row["cpu_seconds"] for row in per_worker.values()]
    mean = sum(loads) / len(loads)
    return {
        "workers": per_worker,
        "n_workers": len(per_worker),
        "cpu_skew": (max(loads) / mean) if mean > 0 else 0.0,
    }
