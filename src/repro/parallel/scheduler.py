"""Chunk packing: cost-balanced chunks of subproblems.

A *chunk* is the unit of work shipped to a worker process.  Chunks should
be (a) few enough that per-task IPC overhead stays negligible, (b) balanced
enough that no worker becomes the straggler — the scaling ceiling of the
whole subsystem is ``total_cost / max(chunk_cost)``.

Packing is LPT list scheduling: subproblems sorted by estimated cost
(descending) are assigned to the currently lightest chunk, kept on a
heap.  It is deterministic: ties break on subproblem position and chunk
index, never on hash order.

Steal mode (:func:`plan_steal_schedule`) packs the same way but changes
the economics: instead of one chunk per worker it cuts
``STEAL_CHUNK_FACTOR`` times as many *small* chunks and orders them by
cost (largest first), so the pool can hand them out dynamically — a
worker that finishes early pulls the next chunk off the shared queue
instead of idling behind a straggler.  No subproblem is ever split: a
single subproblem larger than a worker's fair share still sets the
critical path.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from repro.exceptions import InvalidParameterError
from repro.parallel.decompose import Subproblem

#: steal mode cuts this many times more chunks than worker slots, so the
#: dynamic queue has enough granularity to level uneven finish times.
STEAL_CHUNK_FACTOR = 4


@dataclass(frozen=True)
class Chunk:
    """A scheduled batch of subproblems (identified by their positions)."""

    index: int
    positions: tuple[int, ...]
    cost: float


def make_chunks(subproblems: list[Subproblem], n_chunks: int) -> list[Chunk]:
    """Pack ``subproblems`` into at most ``n_chunks`` non-empty chunks.

    LPT: in order of cost (descending, then position), each subproblem
    joins the currently lightest chunk (the lowest index on a tie).  The
    chunks sit in a heap of ``(load, index)``, so the lightest is its top.
    """
    if n_chunks < 1:
        raise InvalidParameterError(f"n_chunks must be >= 1, got {n_chunks}")
    k = min(n_chunks, len(subproblems))
    lightest: list[tuple[float, int]] = [(0.0, i) for i in range(k)]
    members: list[list[int]] = [[] for _ in range(k)]
    for sub in sorted(subproblems, key=lambda s: (-s.cost, s.position)):
        load, target = lightest[0]
        heapq.heapreplace(lightest, (load + sub.cost, target))
        members[target].append(sub.position)
    cost_of = {s.position: s.cost for s in subproblems}
    chunks: list[Chunk] = []
    for raw in members:
        if not raw:  # zero costs raise no load, so a chunk can stay empty
            continue
        positions = tuple(sorted(raw))
        chunks.append(Chunk(
            index=len(chunks),
            positions=positions,
            cost=sum(cost_of[p] for p in positions),
        ))
    return chunks


def balance_ratio(chunks: list[Chunk], requested: int | None = None) -> float:
    """Scheduling quality: ideal over actual makespan, in (0, 1].

    ``(total / k) / max`` — 1.0 means perfectly even chunks; the reciprocal
    bounds the achievable parallel speedup with ``k`` workers.

    ``k`` is the *requested* chunk count when given, not the number of
    non-empty chunks produced: a packing that answers a four-way split
    with one loaded chunk and three empties delivered makespan
    ``max``, not ``total / 1`` — dividing by the non-empty count scored
    that schedule a perfect 1.0.  ``requested`` below the delivered count
    is clamped up (the ideal makespan can never beat the delivered
    partition's own mean).
    """
    if not chunks:
        return 1.0
    k = len(chunks) if requested is None else max(requested, len(chunks))
    total = sum(c.cost for c in chunks)
    worst = max(c.cost for c in chunks)
    if worst <= 0.0:
        return 1.0
    return (total / k) / worst


def chunk_summary(chunks: list[Chunk],
                  requested: int | None = None) -> dict[str, object]:
    """Compact description of one packing (the ``pack`` span's attributes).

    Everything a trace reader needs to judge the schedule without the
    full chunk list: how many chunks, how many subproblems they cover,
    the balance ratio (against ``requested`` chunks, when given) and the
    cost spread.
    """
    if not chunks:
        return {"n_chunks": 0, "subproblems": 0, "balance_ratio": 1.0,
                "total_cost": 0.0, "max_cost": 0.0}
    return {
        "n_chunks": len(chunks),
        "subproblems": sum(len(c.positions) for c in chunks),
        "balance_ratio": round(balance_ratio(chunks, requested), 4),
        "total_cost": sum(c.cost for c in chunks),
        "max_cost": max(c.cost for c in chunks),
    }


# ---------------------------------------------------------------------------
# Steal mode: oversubscribed packing
# ---------------------------------------------------------------------------


def steal_chunk_count(n_subproblems: int, n_jobs: int) -> int:
    """How many chunks steal mode cuts for a given pool size."""
    return min(n_subproblems, max(1, n_jobs * STEAL_CHUNK_FACTOR))


def plan_steal_schedule(subproblems: list[Subproblem],
                        n_jobs: int) -> list[Chunk]:
    """Pack a steal-mode schedule: many small chunks, biggest first.

    The subproblems are packed LPT into :func:`steal_chunk_count` chunks,
    re-indexed by descending cost, which is the dispatch order (LPT on
    the dynamic queue).  A pure function of its arguments, so the service
    registry caches it per graph and pool size.
    """
    if not subproblems:
        return []
    packed = make_chunks(subproblems, steal_chunk_count(len(subproblems),
                                                        n_jobs))
    ordered = sorted(packed, key=lambda c: (-c.cost, c.index))
    return [Chunk(index=i, positions=c.positions, cost=c.cost)
            for i, c in enumerate(ordered)]
