"""Parallel enumeration: degeneracy-partitioned worker pool.

The root level of the clique search splits exactly into per-vertex
subproblems along a degeneracy ordering (:mod:`repro.parallel.decompose`),
each carrying both its candidate set (later neighbours) and its seeded
exclusion set (earlier neighbours) so the per-subproblem clique streams
are pairwise disjoint and no branch is explored twice across workers;
LPT packing by a cost read off the degeneracy peel (``C(k, 2) + k + 1``
for ``k`` later neighbours) cuts one balanced chunk per worker
(:mod:`repro.parallel.scheduler`); owned worker processes, one pipe
each, and a one-shot run's calling process solve the chunks with any
registered algorithm/backend (:mod:`repro.parallel.pool`), every
algorithm that can seed an exclusion set on one in-place tier
(:class:`repro.parallel.decompose.InPlaceRunner`); and pluggable
aggregators merge the streams back deterministically
(:mod:`repro.parallel.aggregate`).

``steal=True`` swaps the one-shot fan-out for a work-stealing schedule:
many small chunks dispatched dynamically, largest first, as workers free
up.  It changes only where and when each subproblem runs, never what it
enumerates or counts.

Most callers never import this package directly — pass ``n_jobs=`` to
:func:`repro.api.maximal_cliques`, :func:`repro.api.count_maximal_cliques`
or :func:`repro.api.enumerate_to_sink` (CLI: ``--jobs``).
"""

from repro.config import validate_n_jobs
from repro.parallel.aggregate import (
    Aggregator,
    CallbackAggregator,
    ChunkResult,
    CollectAggregator,
    CountAggregator,
)
from repro.parallel.decompose import (
    Decomposition,
    Subproblem,
    decompose,
    solve_subproblem,
)
from repro.parallel.pool import (
    GraphState,
    ParallelStats,
    SubmitReport,
    WorkerPool,
    parse_jobs,
    run_parallel,
)
from repro.parallel.scheduler import (
    Chunk,
    balance_ratio,
    chunk_summary,
    make_chunks,
    plan_steal_schedule,
    steal_chunk_count,
)

__all__ = [
    "Aggregator",
    "CallbackAggregator",
    "ChunkResult",
    "CollectAggregator",
    "CountAggregator",
    "Decomposition",
    "Subproblem",
    "decompose",
    "solve_subproblem",
    "GraphState",
    "ParallelStats",
    "SubmitReport",
    "WorkerPool",
    "parse_jobs",
    "run_parallel",
    "validate_n_jobs",
    "Chunk",
    "balance_ratio",
    "chunk_summary",
    "make_chunks",
    "plan_steal_schedule",
    "steal_chunk_count",
]
