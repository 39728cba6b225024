"""Parallel enumeration: degeneracy-partitioned worker pool.

The root level of the clique search splits exactly into per-vertex
subproblems along a degeneracy ordering (:mod:`repro.parallel.decompose`),
each carrying both its candidate set (later neighbours) and its seeded
exclusion set (earlier neighbours) so the per-subproblem clique streams
are pairwise disjoint and no branch is explored twice across workers;
a cost model packs them into balanced chunks
(:mod:`repro.parallel.scheduler`); owned worker processes, one pipe
each, solve each chunk with any registered algorithm/backend
(:mod:`repro.parallel.pool`); and pluggable aggregators merge the streams
back deterministically (:mod:`repro.parallel.aggregate`).

``steal=True`` swaps the one-shot fan-out for a work-stealing schedule:
many small chunks dispatched dynamically as workers free up, with
cost-outlier subproblems re-split at their own root level so no single
chunk can dominate the critical path on skewed graphs.

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
    COST_MODELS,
    DEFAULT_COST_MODEL,
    Decomposition,
    Subproblem,
    decompose,
    solve_subproblem,
)
from repro.parallel.pool import (
    GraphState,
    ParallelStats,
    SplitTask,
    SubmitReport,
    WorkerPool,
    mark_resplit,
    parse_jobs,
    plan_steal_schedule,
    run_parallel,
)
from repro.parallel.scheduler import (
    CHUNK_STRATEGIES,
    DEFAULT_CHUNK_STRATEGY,
    Chunk,
    StealPlan,
    balance_ratio,
    chunk_summary,
    make_chunks,
    plan_steal,
    resplit_threshold,
    steal_chunk_count,
)

__all__ = [
    "Aggregator",
    "CallbackAggregator",
    "ChunkResult",
    "CollectAggregator",
    "CountAggregator",
    "COST_MODELS",
    "DEFAULT_COST_MODEL",
    "Decomposition",
    "Subproblem",
    "decompose",
    "solve_subproblem",
    "GraphState",
    "ParallelStats",
    "SplitTask",
    "SubmitReport",
    "WorkerPool",
    "mark_resplit",
    "parse_jobs",
    "plan_steal_schedule",
    "run_parallel",
    "validate_n_jobs",
    "CHUNK_STRATEGIES",
    "DEFAULT_CHUNK_STRATEGY",
    "Chunk",
    "StealPlan",
    "balance_ratio",
    "chunk_summary",
    "make_chunks",
    "plan_steal",
    "resplit_threshold",
    "steal_chunk_count",
]
