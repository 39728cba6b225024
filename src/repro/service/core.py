"""The warm-pool enumeration service.

:class:`CliqueService` is the long-running counterpart of the one-shot
API: it owns a :class:`repro.parallel.pool.WorkerPool` that outlives any
single request and a :class:`repro.service.registry.GraphRegistry` that
caches every per-graph prologue artifact (degeneracy decomposition, cost
model, chunk packing, degeneracy-packed bitmask view).  The first request
against a graph pays the prologue and ships the graph state to the
workers once; every later request — any registered algorithm, backend or
bit order — is pure enumeration compute.

Thread safety: one internal lock serialises requests, so a service
instance can sit behind a threaded TCP server
(:mod:`repro.service.server`) without interleaving pool traffic.
"""

from __future__ import annotations

import threading
import time

from repro.api import DEFAULT_ALGORITHM
from repro.exceptions import InvalidParameterError
from repro.graph.adjacency import Graph
from repro.graph.generators import load_dataset
from repro.graph.io import load_graph
from repro.obs import MetricsRegistry, Tracer, maybe_span, render_text
from repro.parallel.aggregate import CollectAggregator, CountAggregator
from repro.parallel.decompose import (
    COST_MODELS,
    DEFAULT_COST_MODEL,
    uses_in_place_phase,
)
from repro.parallel.pool import (
    ParallelStats,
    RequestConfig,
    WorkerPool,
    record_steal_metrics,
    validate_n_jobs,
    validate_parallel_options,
)
from repro.parallel.scheduler import (
    CHUNK_STRATEGIES,
    DEFAULT_CHUNK_STRATEGY,
    chunk_summary,
)
from repro.service.registry import GraphRegistry
from repro.verify import canonical_fingerprint


class CliqueService:
    """Long-lived enumeration service over a warm pool and artifact cache.

    Usage::

        with CliqueService(n_jobs=4) as service:
            info = service.register(g, name="web")
            cold = service.count("web")                 # pays the prologue
            warm = service.count("web", backend="bitset")  # pure compute
            assert warm["warm"] and not cold["warm"]

    Every request accepts any registered algorithm plus the
    branch-and-bound knobs (``backend=``, ``bit_order=``,
    ``et_threshold=``, ...) — the cached artifacts are knob-independent,
    so switching algorithms between requests stays warm.
    """

    def __init__(
        self,
        *,
        n_jobs: int = 1,
        chunk_strategy: str = DEFAULT_CHUNK_STRATEGY,
        cost_model: str = DEFAULT_COST_MODEL,
        chunks_per_worker: int = 1,
    ) -> None:
        self.n_jobs = validate_n_jobs(n_jobs)
        if isinstance(chunks_per_worker, bool) \
                or not isinstance(chunks_per_worker, int) \
                or chunks_per_worker < 1:
            raise InvalidParameterError(
                f"chunks_per_worker must be a positive integer, "
                f"got {chunks_per_worker!r}"
            )
        if chunk_strategy not in CHUNK_STRATEGIES:
            raise InvalidParameterError(
                f"unknown chunk strategy {chunk_strategy!r}; "
                f"expected one of {CHUNK_STRATEGIES}"
            )
        if cost_model not in COST_MODELS:
            raise InvalidParameterError(
                f"unknown cost model {cost_model!r}; "
                f"expected one of {COST_MODELS}"
            )
        self.chunk_strategy = chunk_strategy
        self.cost_model = cost_model
        self.chunks_per_worker = chunks_per_worker
        self.registry = GraphRegistry()
        self._pool = WorkerPool(self.n_jobs, warm=True)
        self._lock = threading.RLock()
        self._closed = False
        # Monotonic clock: uptime must never jump with NTP slews or
        # operator clock changes (the old time.time() baseline could even
        # go negative).
        self._started_at = time.monotonic()
        self._requests = 0
        self._warm_requests = 0
        self._requests_by_op: dict[str, int] = {}
        #: Service-lifetime telemetry: request counters and latency
        #: histograms land here, and every request folds its workers'
        #: registries (chunk CPU, ``mce_*`` branch counters) in.
        self.metrics = MetricsRegistry()

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(self, g: Graph, *, name: str | None = None) -> dict:
        """Register a graph object; returns its entry info (idempotent)."""
        with self._lock:
            self._check_open()
            before = len(self.registry)
            entry = self.registry.register(g, name=name)
            info = entry.info()
            info["new"] = len(self.registry) > before
            return info

    def register_file(self, path, *, fmt: str | None = None,
                      name: str | None = None) -> dict:
        """Load a graph file (any supported format) and register it."""
        from pathlib import Path

        g = load_graph(path, fmt=fmt)
        return self.register(g, name=name or Path(path).stem)

    def register_dataset(self, code: str, *, name: str | None = None) -> dict:
        """Register one of the bundled proxy datasets under its code."""
        return self.register(load_dataset(code), name=name or code)

    def graphs(self) -> list[dict]:
        """Info for every registered graph, oldest first."""
        with self._lock:
            return [entry.info() for entry in self.registry.entries()]

    # ------------------------------------------------------------------
    # Requests
    # ------------------------------------------------------------------
    def count(self, graph: str, *, algorithm: str = DEFAULT_ALGORITHM,
              x_aware: bool = True, steal: bool = False, trace: bool = False,
              **options) -> dict:
        """Count the maximal cliques of a registered graph.

        ``trace=True`` adds a ``"trace"`` span tree (decompose → pack →
        ship → per-chunk enumerate → merge) plus the per-chunk worker
        timeline to the response.
        """
        aggregator = CountAggregator()

        def finalize(result: dict, tracer: Tracer | None) -> None:
            with maybe_span(tracer, "merge", mode=aggregator.mode):
                result["count"] = aggregator.finish()
            result["max_clique_size"] = aggregator.max_size

        result, tracer = self._execute("count", graph, aggregator, algorithm,
                                       x_aware, steal, trace, options,
                                       finalize)
        return self._attach_trace(result, tracer)

    def enumerate(self, graph: str, *, algorithm: str = DEFAULT_ALGORITHM,
                  limit: int | None = None, x_aware: bool = True,
                  steal: bool = False, trace: bool = False,
                  **options) -> dict:
        """Enumerate the maximal cliques of a registered graph.

        ``cliques`` comes in subproblem-position order (the degeneracy
        order of each clique's earliest member), canonical within each
        subproblem: every clique ascending, each subproblem's cliques
        sorted.  That is the ``enumerate_to_sink(n_jobs=...)`` stream, not
        the sorted list :func:`repro.api.maximal_cliques` returns: on
        ``Graph(2)`` the response lists ``[1]`` before ``[0]``.

        ``limit`` truncates the returned list in that order (the
        enumeration itself is complete, so ``count`` is always the true
        total); negative limits are rejected — a silent ``[:-k]`` would
        drop cliques from the end.
        """
        if limit is not None:
            if isinstance(limit, bool) or not isinstance(limit, int) \
                    or limit < 0:
                raise InvalidParameterError(
                    f"limit must be a non-negative integer, got {limit!r}"
                )
        aggregator = CollectAggregator()

        def finalize(result: dict, tracer: Tracer | None) -> None:
            with maybe_span(tracer, "merge", mode=aggregator.mode):
                cliques = aggregator.finish()
            result["count"] = len(cliques)
            shown = cliques if limit is None else cliques[:limit]
            result["cliques"] = [list(c) for c in shown]
            result["truncated"] = len(shown) < len(cliques)

        result, tracer = self._execute("enumerate", graph, aggregator,
                                       algorithm, x_aware, steal, trace,
                                       options, finalize)
        return self._attach_trace(result, tracer)

    def fingerprint(self, graph: str, *, algorithm: str = DEFAULT_ALGORITHM,
                    x_aware: bool = True, steal: bool = False,
                    trace: bool = False, **options) -> dict:
        """SHA256 fingerprint of the canonical clique list.

        Byte-identical to ``clique_fingerprint(maximal_cliques(g, ...))``
        on the direct path — the golden-oracle check, served warm.  The
        merge sorts the workers' canonical runs once and the digest reads
        that list as it is, so no clique is re-sorted.
        """
        aggregator = CollectAggregator()

        def finalize(result: dict, tracer: Tracer | None) -> None:
            with maybe_span(tracer, "merge", mode=aggregator.mode):
                cliques = aggregator.finish(canonical=True)
                sha256 = canonical_fingerprint(cliques)
            result["count"] = len(cliques)
            result["sha256"] = sha256

        result, tracer = self._execute("fingerprint", graph, aggregator,
                                       algorithm, x_aware, steal, trace,
                                       options, finalize)
        return self._attach_trace(result, tracer)

    @staticmethod
    def _attach_trace(result: dict, tracer: Tracer | None) -> dict:
        """Close the request's tracer and embed the span tree, if any."""
        if tracer is not None:
            tracer.finish()
            result["trace"] = tracer.to_dict()
        return result

    def _execute(self, op: str, graph: str, aggregator, algorithm: str,
                 x_aware, steal, trace, options: dict,
                 finalize) -> tuple[dict, Tracer | None]:
        """Run one request end to end under the service lock.

        ``finalize`` is the operation's merge step (``aggregator.finish``
        plus whatever digest the op derives from it); it runs *inside*
        the observed duration, so ``service_request_seconds`` and the
        response's ``seconds`` cover the full request — decompose through
        merge — not just the fan-out.  (The old shape finished the
        aggregator after the clock stopped, under-reporting
        enumerate/fingerprint latency by the whole merge phase.)
        """
        with self._lock:
            self._check_open()
            if not isinstance(x_aware, bool):
                raise InvalidParameterError(
                    f"x_aware must be a bool, got {x_aware!r}"
                )
            if not isinstance(steal, bool):
                raise InvalidParameterError(
                    f"steal must be a bool, got {steal!r}"
                )
            if not isinstance(trace, bool):
                raise InvalidParameterError(
                    f"trace must be a bool, got {trace!r}"
                )
            if "initial_x" in options:
                raise InvalidParameterError(
                    "initial_x cannot be combined with the service path; "
                    "the decomposition seeds it per subproblem"
                )
            entry = self.registry.resolve(graph)
            validate_parallel_options(entry.graph, algorithm, options)

            tracer = Tracer(
                op, graph=entry.fingerprint, graph_name=entry.name,
                algorithm=algorithm, n_jobs=self.n_jobs,
            ) if trace else None

            spinups = self._pool.spinups
            ships = self._pool.graph_ships
            decomposes = self.registry.stats.decompose_calls

            start = time.perf_counter()
            with maybe_span(tracer, "decompose", cost_model=self.cost_model):
                decomposition = self.registry.decomposition(
                    entry, self.cost_model)
            decompose_seconds = time.perf_counter() - start
            with maybe_span(tracer, "pack", strategy=self.chunk_strategy,
                            steal=steal) as pack_span:
                splits = []
                if steal:
                    resplit_ok = x_aware and uses_in_place_phase(
                        algorithm, options)
                    chunks, splits, requested = self.registry.steal_plan(
                        entry, self.cost_model, self.chunk_strategy,
                        self.n_jobs, self.chunks_per_worker, resplit_ok,
                    )
                else:
                    chunks = self.registry.chunks(
                        entry, self.cost_model, self.chunk_strategy,
                        self.n_jobs * self.chunks_per_worker,
                    )
                    requested = min(self.n_jobs * self.chunks_per_worker,
                                    len(decomposition.subproblems))
                if tracer is not None:
                    pack_span.attrs.update(chunk_summary(chunks, requested))
            config = RequestConfig(
                algorithm=algorithm, options=options,
                mode=aggregator.mode, x_aware=x_aware, steal=steal,
                trace=tracer.current if tracer is not None else None,
            )
            aggregator.start(len(decomposition.subproblems))
            report = self._pool.submit(entry.fingerprint, entry.graph_state,
                                       config, chunks, aggregator.accept,
                                       tracer=tracer, splits=splits)
            record_steal_metrics(aggregator.metrics, report)

            warm = (self._pool.spinups == spinups
                    and self._pool.graph_ships == ships
                    and self.registry.stats.decompose_calls == decomposes)

            result = {
                "graph": entry.fingerprint,
                "name": entry.name,
                "algorithm": algorithm,
                "n_jobs": self.n_jobs,
                "warm": warm,
            }
            # The merge phase belongs to the request: run it before the
            # duration is captured so the committed latency covers it.
            finalize(result, tracer)
            seconds = time.perf_counter() - start
            result["seconds"] = seconds

            self._requests += 1
            if warm:
                self._warm_requests += 1
            self._requests_by_op[op] = self._requests_by_op.get(op, 0) + 1

            # Registry-side accounting.  The aggregator's registry already
            # carries each worker's fold (chunk CPU histograms, mce_*
            # branch counters, steal counts), so the merge — not a
            # re-fold — keeps the totals single-counted.
            self.metrics.counter("service_requests_total",
                                 labels={"op": op}).inc()
            if warm:
                self.metrics.counter("service_warm_requests_total").inc()
            self.metrics.histogram("service_request_seconds",
                                   labels={"op": op}).observe(seconds)
            self.metrics.merge(aggregator.metrics)

            if tracer is not None:
                for record in aggregator.spans:
                    tracer.attach(record)
                tracer.annotate(counters=aggregator.counters.as_dict())

            if tracer is not None:
                stats = ParallelStats(
                    n_jobs=self.n_jobs,
                    n_subproblems=len(decomposition.subproblems),
                    n_chunks=len(chunks),
                    chunk_strategy=self.chunk_strategy,
                    cost_model=self.cost_model,
                    start_method=self._pool.start_method,
                    x_aware=x_aware,
                    steal=steal,
                    steals=report.steals,
                    resplit_subproblems=report.resplit_subproblems,
                    resplit_tasks=report.resplit_tasks,
                    decompose_seconds=decompose_seconds,
                    chunk_cpu_seconds=dict(aggregator.chunk_cpu_seconds),
                    timeline=list(aggregator.timeline),
                )
                result["timeline"] = [e.as_dict() for e in stats.timeline]
                result["parallel"] = {
                    "n_chunks": stats.n_chunks,
                    "steal": stats.steal,
                    "steals": stats.steals,
                    "resplit_subproblems": stats.resplit_subproblems,
                    "resplit_tasks": stats.resplit_tasks,
                    "decompose_seconds": stats.decompose_seconds,
                    "total_cpu_seconds": stats.total_cpu_seconds,
                    "critical_path_seconds": stats.critical_path_seconds,
                }
            return result, tracer

    # ------------------------------------------------------------------
    # Observability / lifecycle
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Service-level counters: the warm-path audit trail.

        A fully warm steady state shows ``requests`` growing while
        ``decompose_calls``, ``pool_spinups`` and ``graph_ships`` stay
        flat — exactly the assertion the service tests make.
        """
        with self._lock:
            reg = self.registry.stats
            return {
                "uptime_seconds": time.monotonic() - self._started_at,
                "request_seconds": self.metrics.summary(
                    "service_request_seconds"),
                "requests": self._requests,
                "requests_by_op": dict(self._requests_by_op),
                "warm_requests": self._warm_requests,
                "graphs_registered": len(self.registry),
                "decompose_calls": reg.decompose_calls,
                "decompose_cache_hits": reg.decompose_cache_hits,
                "chunk_builds": reg.chunk_builds,
                "chunk_cache_hits": reg.chunk_cache_hits,
                "steal_plan_builds": reg.steal_plan_builds,
                "steal_plan_cache_hits": reg.steal_plan_cache_hits,
                "pool_spinups": self._pool.spinups,
                "graph_ships": self._pool.graph_ships,
                "pool_live": self._pool.is_live,
                "start_method": self._pool.start_method,
                "n_jobs": self.n_jobs,
                "chunk_strategy": self.chunk_strategy,
                "cost_model": self.cost_model,
            }

    def metrics_snapshot(self) -> dict:
        """JSON snapshot of the service registry (gauges refreshed first)."""
        with self._lock:
            self._refresh_gauges()
            return self.metrics.as_dict()

    def metrics_text(self) -> str:
        """Prometheus text exposition of the service registry."""
        with self._lock:
            self._refresh_gauges()
            return render_text(self.metrics)

    def _refresh_gauges(self) -> None:
        """Point-in-time gauges, read from their authoritative sources.

        These are *set* at scrape time rather than maintained on every
        request, so the request hot path pays only its own counters.
        """
        m = self.metrics
        reg = self.registry.stats
        m.gauge("service_uptime_seconds").set(
            time.monotonic() - self._started_at)
        m.gauge("service_graphs_registered").set(len(self.registry))
        m.gauge("service_pool_live").set(1.0 if self._pool.is_live else 0.0)
        m.gauge("service_pool_spinups").set(self._pool.spinups)
        m.gauge("service_graph_ships").set(self._pool.graph_ships)
        m.gauge("service_decompose_calls").set(reg.decompose_calls)
        m.gauge("service_decompose_cache_hits").set(reg.decompose_cache_hits)
        m.gauge("service_chunk_builds").set(reg.chunk_builds)
        m.gauge("service_chunk_cache_hits").set(reg.chunk_cache_hits)

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Tear the worker pool down; idempotent."""
        with self._lock:
            self._pool.close()
            self._closed = True

    def _check_open(self) -> None:
        if self._closed:
            raise InvalidParameterError("service is closed")

    def __enter__(self) -> "CliqueService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
