"""Chunk packing: cost-balanced chunks of subproblems.

A *chunk* is the unit of work shipped to a worker process.  Chunks should
be (a) few enough that per-task IPC overhead stays negligible, (b) balanced
enough that no worker becomes the straggler — the scaling ceiling of the
whole subsystem is ``total_cost / max(chunk_cost)``.

Packing is LPT list scheduling: subproblems sorted by estimated cost
(descending) are assigned to the currently lightest chunk, kept on a
heap.  It is deterministic: ties break on subproblem position and chunk
index, never on hash order.

Steal mode (:func:`plan_steal`) packs the same way but changes the
economics: instead of one chunk per worker it cuts
``STEAL_CHUNK_FACTOR`` times as many *small* chunks and orders them by
cost (largest first), so the pool can hand them out dynamically — a
worker that finishes early pulls the next chunk off the shared queue
instead of idling behind a straggler.  Cost outliers
(:func:`resplit_threshold`) are additionally marked for root-level
re-splitting by the pool, which is the only cure when a *single*
subproblem exceeds a worker's fair share.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Collection, Sequence

from repro.exceptions import InvalidParameterError
from repro.parallel.decompose import Subproblem

#: steal mode cuts this many times more chunks than worker slots, so the
#: dynamic queue has enough granularity to level uneven finish times.
STEAL_CHUNK_FACTOR = 4

#: a subproblem whose model cost exceeds this multiple of the median
#: subproblem cost is marked for root-level re-splitting.  The rule is a
#: robust outlier test: on near-uniform families the median and the
#: maximum are close and nothing is marked (re-splitting has overhead),
#: while a power-law hub sits orders of magnitude above the median no
#: matter how the rest of the distribution moves.
RESPLIT_COST_MULTIPLE = 16.0


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
# Steal mode: oversubscribed packing + re-split marking
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StealPlan:
    """A steal-mode schedule: small chunks in dispatch order plus markers.

    ``chunks`` are ordered largest-cost-first — the dynamic dispatcher
    hands them out in list order, so expensive work starts earliest and
    the small chunks level the tail.  ``resplit`` names the subproblem
    positions excluded from the chunks because the pool will re-split
    them at their own root level; ``threshold`` records the model-cost
    cut that marked them (telemetry, not control flow).
    """

    chunks: list[Chunk]
    resplit: tuple[int, ...]
    threshold: float


def resplit_threshold(costs: Sequence[float]) -> float:
    """Model-cost threshold above which a subproblem is re-split.

    ``RESPLIT_COST_MULTIPLE`` times the median positive cost.  The median
    is deterministic and robust: marking must not depend on run-to-run
    timing (determinism across ``n_jobs`` and repeats), and a handful of
    hubs cannot drag the reference point the way they drag the mean.
    Returns ``inf`` when there is nothing to compare against, so nothing
    is ever marked on empty or all-zero-cost decompositions.
    """
    positive = sorted(c for c in costs if c > 0.0)
    if not positive:
        return float("inf")
    mid = len(positive) // 2
    median = positive[mid] if len(positive) % 2 \
        else (positive[mid - 1] + positive[mid]) / 2.0
    return RESPLIT_COST_MULTIPLE * median


def steal_chunk_count(n_subproblems: int, n_jobs: int) -> int:
    """How many chunks steal mode cuts for a given pool size."""
    return min(n_subproblems, max(1, n_jobs * STEAL_CHUNK_FACTOR))


def plan_steal(
    subproblems: list[Subproblem],
    n_jobs: int,
    *,
    resplit: Collection[int] = (),
) -> StealPlan:
    """Pack a steal-mode schedule: many small chunks, biggest first.

    ``resplit`` lists the positions the pool re-splits at their own root
    (cost outliers it confirmed eligible); they are excluded from the
    chunk packing entirely — their work arrives as separate split tasks.
    Everything else is packed into :func:`steal_chunk_count` chunks and
    re-ordered by descending cost, which is the dispatch order (LPT on
    the dynamic queue).
    """
    marked = frozenset(resplit)
    rest = [s for s in subproblems if s.position not in marked]
    threshold = resplit_threshold([s.cost for s in subproblems])
    if not rest:
        return StealPlan(chunks=[], resplit=tuple(sorted(marked)),
                         threshold=threshold)
    n_chunks = steal_chunk_count(len(rest), n_jobs)
    packed = make_chunks(rest, n_chunks)
    ordered = sorted(packed, key=lambda c: (-c.cost, c.index))
    chunks = [Chunk(index=i, positions=c.positions, cost=c.cost)
              for i, c in enumerate(ordered)]
    return StealPlan(chunks=chunks, resplit=tuple(sorted(marked)),
                     threshold=threshold)
