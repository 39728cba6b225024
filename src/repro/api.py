"""Top-level public API: one call to enumerate maximal cliques.

Typical usage::

    from repro import maximal_cliques
    from repro.graph.generators import erdos_renyi_gnm

    g = erdos_renyi_gnm(200, 1200, seed=7)
    cliques = maximal_cliques(g)                       # default: HBBMC++
    count = count_maximal_cliques(g, algorithm="rdegen")

Every algorithm evaluated in the paper is registered under the name used
there (lower-cased): ``hbbmc++``, ``hbbmc+``, ``hbbmc``, ``ebbmc``,
``ebbmc++``, ``ref++``, ``rcd++``, ``fac++``, ``vbbmc-dgn``,
``hbbmc-dgn``, ``hbbmc-mdg``, ``rref``, ``rdegen``, ``rrcd``, ``rfac``,
the plain BK family (``bk``, ``bk-pivot``, ``bk-ref``, ``bk-degen``,
``bk-degree``, ``bk-rcd``, ``bk-fac``) and the ``reverse-search`` oracle.
(``tests/test_api.py`` asserts this roster matches ``ALGORITHMS`` so the
two cannot drift.)

Every branch-and-bound algorithm additionally accepts
``backend="set" | "bitset"`` selecting the branch-state representation:
Python sets or ``int`` bitmasks (:mod:`repro.graph.bitadj`).  Both
backends emit identical clique sets.  A request that names no backend
runs on :func:`repro.core.frameworks.default_backend` of its graph —
``bitset`` unless the graph is large and sparse, with a far lower bound
for the vertex family (``vbbmc-dgn``, the R* and BK baselines) — except
``reverse-search``, which has no bitmask engine and runs on ``set``.  A
named backend always wins.  The bitset backend also accepts
``bit_order="degeneracy" | "input"`` (or an explicit vertex permutation)
selecting the vertex→bit packing: ``"degeneracy"`` — the default — packs
the high-core vertices into the low mask words so deep-branch masks stay
short, ``"input"`` is the identity mapping.  ``bit_order`` needs a named
``backend="bitset"``.  Early termination on the bitset backend is
bit-native end to end (:mod:`repro.core.bit_plex`): plex branches are
decomposed and their cliques assembled directly on the masks.

``maximal_cliques``, ``count_maximal_cliques``, ``enumerate_to_sink``
and ``run_with_report`` also accept ``n_jobs=N`` to fan the enumeration
out over the
degeneracy-partitioned worker pool (:mod:`repro.parallel`): the root level
splits into per-vertex subproblems packed into one cost-balanced chunk
per worker (``steal=True``: many small chunks handed out dynamically),
each solved by the selected algorithm/backend in one of N - 1 worker
processes or in the calling process, which is the N-th worker.
Subproblems are X-set-aware — each worker seeds its engine's exclusion
set from the degeneracy order so no branch is explored twice across
workers.  Results merge deterministically, so every ``n_jobs`` value
yields the identical clique stream; ``n_jobs=1`` runs the same
partitioned pipeline in-process and ``n_jobs=None`` (the default) is the
classic single-process path.

Each entry point turns its keywords into one :class:`repro.config.RunConfig`
for the same serial/parallel branch, and :meth:`RunConfig.validate` checks
it before any work: :class:`UnknownAlgorithmError` for an unregistered
algorithm, :class:`InvalidParameterError` for any other bad knob — an
option the runner does not take (``et_threshold`` on ``reverse-search``),
a wrong type or range, ``steal`` without ``n_jobs``.
"""

from __future__ import annotations

import inspect
import time
from dataclasses import dataclass, replace
from functools import cached_property, partial
from typing import Any, Callable

from repro.baselines import (
    bk,
    bk_degen,
    bk_degree,
    bk_fac,
    bk_pivot,
    bk_rcd,
    bk_ref,
    rdegen,
    rfac,
    rrcd,
    rref,
    reverse_search,
)
from repro.config import RunConfig
from repro.core.counters import Counters, RunReport
from repro.core.frameworks import default_backend, run_hybrid, run_vertex
from repro.core.result import CliqueCollector, CliqueCounter, CliqueSink
from repro.exceptions import InvalidParameterError, UnknownAlgorithmError
from repro.graph.adjacency import Graph
from repro.obs import Tracer, maybe_span

AlgorithmFn = Callable[..., Counters]


@dataclass(frozen=True)
class AlgorithmSpec:
    """Registry entry: a runnable algorithm plus its description.

    ``subproblem_phase`` names the vertex-phase keywords
    (``vertex_strategy``, ``et_threshold``) that the runner fixes in its
    body, where its signature cannot show them: the BK baselines' pivot
    rule, and the R* baselines' disabled early termination.  Every other
    registered value is a keyword default of the runner.  Under ``n_jobs``
    an X-aware subproblem runs with :meth:`subproblem_options`, in place on
    the whole graph (:class:`repro.parallel.decompose.InPlaceRunner`).
    """

    name: str
    runner: AlgorithmFn
    description: str
    family: str  # "hybrid", "vertex", "edge" or "reverse-search"
    subproblem_phase: dict | None = None

    @cached_property
    def defaults(self) -> dict[str, Any]:
        """The options ``runner`` takes, its parameters after ``g, sink``,
        at their registered values."""
        params = list(inspect.signature(self.runner).parameters.values())
        return {p.name: p.default for p in params[2:]}

    @cached_property
    def option_names(self) -> frozenset[str]:
        """The options ``runner`` takes."""
        return frozenset(self.defaults)

    def subproblem_options(self, options: dict) -> dict[str, Any]:
        """Every option value a parallel subproblem runs with: the
        request's ``options`` over the registered ones."""
        return {**self.defaults, **(self.subproblem_phase or {}), **options}

    def backend_for(self, g: Graph) -> str | None:
        """The backend a request that names none runs on ``g``.

        A runner whose ``backend`` parameter defaults to a name keeps it
        (``reverse-search``: ``"set"``); one that defaults to ``None``
        takes :func:`repro.core.frameworks.default_backend` of ``g``, under
        the vertex-oriented bound for the ``vertex`` family (whose runners
        are :func:`repro.core.frameworks.run_vertex`).  ``None`` when the
        runner takes no ``backend``.
        """
        if "backend" not in self.option_names:
            return None
        return self.defaults["backend"] or default_backend(
            g, vertex_oriented=self.family == "vertex")

    @property
    def supports_initial_x(self) -> bool:
        """Whether the runner can seed an exclusion set (reverse search
        cannot: the X-aware decomposition filters its subproblems)."""
        return "initial_x" in self.option_names


_spec = AlgorithmSpec  # short name for the registry table below


ALGORITHMS: dict[str, AlgorithmSpec] = {
    spec.name: spec
    for spec in [
        # --- the paper's contribution ------------------------------------
        _spec("hbbmc++", partial(run_hybrid, et_threshold=3, graph_reduction=True),
              "HBBMC + early termination (t=3) + graph reduction (full version)",
              "hybrid"),
        _spec("hbbmc+", partial(run_hybrid, et_threshold=0, graph_reduction=True),
              "HBBMC + graph reduction, without early termination", "hybrid"),
        _spec("hbbmc", partial(run_hybrid, et_threshold=0, graph_reduction=False),
              "plain hybrid framework (Algorithm 4)", "hybrid"),
        _spec("ebbmc", partial(run_hybrid, edge_depth=None, et_threshold=0,
                               graph_reduction=False),
              "pure edge-oriented framework (Algorithm 3)", "edge"),
        _spec("ebbmc++", partial(run_hybrid, edge_depth=None, et_threshold=3,
                                 graph_reduction=True),
              "EBBMC + early termination + graph reduction", "edge"),
        # --- hybrid with alternative vertex phases (Table III) -----------
        _spec("ref++", partial(run_hybrid, vertex_strategy="ref",
                               et_threshold=3, graph_reduction=True),
              "hybrid top + BK_Ref phase + ET + GR", "hybrid"),
        _spec("rcd++", partial(run_hybrid, vertex_strategy="rcd",
                               et_threshold=3, graph_reduction=True),
              "hybrid top + BK_Rcd phase + ET + GR", "hybrid"),
        _spec("fac++", partial(run_hybrid, vertex_strategy="fac",
                               et_threshold=3, graph_reduction=True),
              "hybrid top + BK_Fac phase + ET + GR", "hybrid"),
        # --- alternative initial orderings (Table VI) ---------------------
        _spec("vbbmc-dgn", partial(run_vertex, ordering_kind="degeneracy",
                                   vertex_strategy="tomita", et_threshold=3,
                                   graph_reduction=True),
              "vertex-oriented initial branch (degeneracy) + ET + GR",
              "vertex"),
        _spec("hbbmc-dgn", partial(run_hybrid, edge_order_kind="degen-lex",
                                   et_threshold=3, graph_reduction=True),
              "hybrid with degeneracy-lexicographic edge order", "hybrid"),
        _spec("hbbmc-mdg", partial(run_hybrid, edge_order_kind="min-degree",
                                   et_threshold=3, graph_reduction=True),
              "hybrid with min-endpoint-degree edge order", "hybrid"),
        # --- the paper's four baselines (Table II) ------------------------
        _spec("rref", rref, "BK_Ref + graph reduction (Deng et al.)", "vertex",
              subproblem_phase={"vertex_strategy": "ref", "et_threshold": 0}),
        _spec("rdegen", rdegen, "BK_Degen + graph reduction (Deng et al.)", "vertex",
              subproblem_phase={"vertex_strategy": "tomita", "et_threshold": 0}),
        _spec("rrcd", rrcd, "BK_Rcd + graph reduction (Deng et al.)", "vertex",
              subproblem_phase={"vertex_strategy": "rcd", "et_threshold": 0}),
        _spec("rfac", rfac, "BK_Fac + graph reduction (Deng et al.)", "vertex",
              subproblem_phase={"vertex_strategy": "fac", "et_threshold": 0}),
        # --- classic family (Appendix A) ----------------------------------
        _spec("bk", bk, "original Bron-Kerbosch, no pivot", "vertex",
              subproblem_phase={"vertex_strategy": "none"}),
        _spec("bk-pivot", bk_pivot, "Tomita pivoting", "vertex",
              subproblem_phase={"vertex_strategy": "tomita"}),
        _spec("bk-ref", bk_ref, "Naudé refined pivoting", "vertex",
              subproblem_phase={"vertex_strategy": "ref"}),
        _spec("bk-degen", bk_degen, "degeneracy-ordered initial branch", "vertex",
              subproblem_phase={"vertex_strategy": "tomita"}),
        _spec("bk-degree", bk_degree, "degree-ordered initial branch", "vertex",
              subproblem_phase={"vertex_strategy": "tomita"}),
        _spec("bk-rcd", bk_rcd, "top-down min-degree peeling", "vertex",
              subproblem_phase={"vertex_strategy": "rcd"}),
        _spec("bk-fac", bk_fac, "adaptive pivot refinement", "vertex",
              subproblem_phase={"vertex_strategy": "fac"}),
        # --- related work ---------------------------------------------------
        _spec("reverse-search", reverse_search,
              "output-sensitive lexicographic reverse search",
              "reverse-search"),
    ]
}

DEFAULT_ALGORITHM = "hbbmc++"


def get_algorithm(name: str) -> AlgorithmSpec:
    """Look up a registered algorithm (case-insensitive)."""
    if not isinstance(name, str):
        raise UnknownAlgorithmError(
            f"algorithm name must be a string, got {name!r}"
        )
    spec = ALGORITHMS.get(name.lower())
    if spec is None:
        raise UnknownAlgorithmError(
            f"unknown algorithm {name!r}; available: {', '.join(sorted(ALGORITHMS))}"
        )
    return spec


def enumerate_to_sink(
    g: Graph,
    sink: CliqueSink,
    *,
    algorithm: str = DEFAULT_ALGORITHM,
    n_jobs: int | None = None,
    steal: bool | None = None,
    trace: Tracer | None = None,
    **options,
) -> Counters:
    """Stream all maximal cliques of ``g`` into ``sink``.

    ``options`` are forwarded to the underlying framework (e.g.
    ``et_threshold=2`` or ``backend="bitset"`` for registered
    branch-and-bound variants).  With ``n_jobs=N`` the run is partitioned
    across N workers, the calling process and N - 1 worker processes
    (see :mod:`repro.parallel`); the stream
    order is deterministic — degeneracy-position order of the subproblem,
    canonical within each subproblem — independent of worker scheduling.

    ``trace=`` takes a :class:`repro.obs.Tracer`: the run contributes its
    spans (serial — one ``enumerate`` span; parallel — the full
    decompose/pack/ship/chunk/merge pipeline) and the paper counters land
    on the trace root.
    """
    config = RunConfig(algorithm, options, n_jobs, steal)
    return _run(g, config, trace, sink, "callback")[0]


def _run(g: Graph, config: RunConfig, trace: Tracer | None, sink: CliqueSink,
         mode: str, **finish) -> tuple[Counters, Any]:
    """The one serial/parallel branch behind the four entry points.

    A serial run streams into ``sink`` and returns ``(counters, None)``.
    With ``n_jobs`` the run goes through
    :func:`repro.parallel.run_parallel` into a ``mode`` aggregator
    (``"callback"`` forwards every clique to ``sink``), and the second
    item is what the aggregator's merge step returns.

    A caller's ``counters`` object accumulates the run's counters either
    way.  The runner adds to it serially; under ``n_jobs`` it stays here,
    out of the config that is validated and shipped, and takes the
    workers' folded counters once they are back.
    """
    if trace is not None and not isinstance(trace, Tracer):
        raise InvalidParameterError(
            f"trace must be a repro.obs.Tracer or None, got {trace!r}"
        )
    if config.n_jobs is None:
        config = config.validate(g)
        runner = get_algorithm(config.algorithm).runner
        if config.options:
            runner = partial(runner, **config.options)
        if trace is None:
            return runner(g, sink), None
        with trace.span("enumerate", algorithm=config.algorithm,
                        backend=config.options.get("backend")):
            counters = runner(g, sink)
        trace.annotate(counters=counters.as_dict())
        return counters, None
    from repro import parallel  # deferred: serial runs never load the pool

    options = dict(config.options)
    into = options.pop("counters", None)
    config = replace(config, options=options)
    if mode == "callback":
        aggregator = parallel.CallbackAggregator(sink)
    elif mode == "collect":
        aggregator = parallel.CollectAggregator()
    else:
        aggregator = parallel.CountAggregator()
    counters = parallel.run_parallel(g, aggregator, trace=trace,
                                     **config.keywords())
    if into is not None:
        into.merge(counters)
        counters = into
    with maybe_span(trace, "merge", mode=aggregator.mode):
        return counters, aggregator.finish(**finish)


def maximal_cliques(
    g: Graph,
    *,
    algorithm: str = DEFAULT_ALGORITHM,
    sort: bool = True,
    n_jobs: int | None = None,
    steal: bool | None = None,
    trace: Tracer | None = None,
    **options,
) -> list[tuple[int, ...]]:
    """All maximal cliques of ``g`` as a list of vertex tuples.

    With ``sort=True`` (default) each clique is sorted and the list is in
    lexicographic order, giving a canonical result independent of the
    algorithm used.  ``n_jobs=N`` distributes the run over the calling
    process and N - 1 worker processes; with ``sort=False`` the parallel
    order is still deterministic (subproblems in degeneracy order).

    The workers already ship each subproblem's cliques canonical, so the
    parallel path never re-sorts a clique: the ``merge`` step
    concatenates the per-subproblem runs and, with ``sort=True``, merges
    them with one sort of the list.
    """
    config = RunConfig(algorithm, options, n_jobs, steal)
    collector = CliqueCollector()
    _, merged = _run(g, config, trace, collector, "collect", canonical=sort)
    if merged is None:
        return collector.sorted_cliques() if sort else collector.cliques
    # The result lands in the caller's collector in one step, as on the
    # serial path, so sink-level accounting sees it either way.
    collector.cliques = merged
    return collector.cliques


def count_maximal_cliques(
    g: Graph,
    *,
    algorithm: str = DEFAULT_ALGORITHM,
    n_jobs: int | None = None,
    steal: bool | None = None,
    trace: Tracer | None = None,
    **options,
) -> int:
    """Number of maximal cliques of ``g`` (O(1) memory beyond the run).

    No clique is built on the way.  A serial run counts emissions as the
    engines make them (the bitset backend's bit tuples are never translated
    back to vertex ids).  With ``n_jobs=N`` the in-place tier — every
    algorithm that can seed an exclusion set, on every backend — counts
    inside the workers, which ship one ``(count, max_size,
    total_vertices)`` triple per subproblem.  Only ``reverse-search``,
    which cannot seed one and filters instead, builds each subproblem's
    clique list worker-side before compressing it.  Only the triples
    cross the process boundary either way.
    """
    config = RunConfig(algorithm, options, n_jobs, steal)
    return _count(g, config, trace)[1]


def _count(g: Graph, config: RunConfig,
           trace: Tracer | None) -> tuple[Counters, int]:
    counter = CliqueCounter()
    counters, merged = _run(g, config, trace, counter, "count")
    return counters, counter.count if merged is None else merged


def run_with_report(
    g: Graph,
    *,
    algorithm: str = DEFAULT_ALGORITHM,
    n_jobs: int | None = None,
    steal: bool | None = None,
    trace: Tracer | None = None,
    **options,
) -> RunReport:
    """Run an algorithm and return timing + counters (benchmark building block).

    Only the clique count is needed, so the parallel path uses the
    count-mode aggregator: workers ship per-subproblem count summaries,
    never the cliques themselves.
    """
    start = time.perf_counter()
    config = RunConfig(algorithm, options, n_jobs, steal)
    counters, count = _count(g, config, trace)
    return RunReport(
        algorithm=algorithm,
        clique_count=count,
        seconds=time.perf_counter() - start,
        counters=counters,
    )
