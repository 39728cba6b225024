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
(:mod:`repro.service.server`) without interleaving pool traffic.  The
request counters and the metrics registry sit behind a second, short
lock, so ``stats`` and ``metrics`` never wait for a running request.
"""

from __future__ import annotations

import threading
import time
from dataclasses import replace

from repro.api import DEFAULT_ALGORITHM
from repro.config import RunConfig
from repro.exceptions import InvalidParameterError
from repro.graph.adjacency import Graph
from repro.graph.generators import load_dataset
from repro.graph.io import load_graph
from repro.obs import MetricsRegistry, Tracer, maybe_span, render_text
from repro.parallel.aggregate import CollectAggregator, CountAggregator
from repro.parallel.decompose import DEFAULT_COST_MODEL
from repro.parallel.pool import WorkerPool, execute
from repro.parallel.scheduler import DEFAULT_CHUNK_STRATEGY
from repro.service.registry import GraphEntry, GraphRegistry
from repro.verify import canonical_fingerprint


class _Cached:
    """:func:`repro.parallel.pool.execute`'s plans for a registered graph:
    the registry's per-graph caches, so a warm request computes nothing.
    """

    def __init__(self, registry: GraphRegistry, entry: GraphEntry) -> None:
        self.registry = registry
        self.entry = entry
        self.key = entry.fingerprint

    def decomposition(self, cost_model):
        return self.entry.graph_state, \
            self.registry.decomposition(self.entry, cost_model)

    def chunks(self, decomposition, *knobs):
        return self.registry.chunks(self.entry, *knobs)

    def steal_plan(self, decomposition, *knobs):
        return self.registry.steal_plan(self.entry, *knobs)


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
    ``et_threshold=``, ...) and ``x_aware``/``steal`` — the cached
    artifacts are knob-independent, so switching algorithms between
    requests stays warm.  The schedule is fixed at construction; each
    request's :class:`repro.config.RunConfig` inherits it.
    """

    def __init__(
        self,
        *,
        n_jobs: int = 1,
        chunk_strategy: str = DEFAULT_CHUNK_STRATEGY,
        cost_model: str = DEFAULT_COST_MODEL,
        chunks_per_worker: int = 1,
    ) -> None:
        self.config = RunConfig(
            DEFAULT_ALGORITHM, n_jobs=n_jobs, chunk_strategy=chunk_strategy,
            cost_model=cost_model, chunks_per_worker=chunks_per_worker,
        ).validate(Graph(0))
        self.n_jobs = self.config.n_jobs
        self.registry = GraphRegistry()
        self._pool = WorkerPool(self.n_jobs, warm=True)
        # _lock: one request (or registration, or close) at a time.
        # _stats_lock: the counters below and self.metrics (not
        # thread-safe), held only to read or fold them.
        self._lock = threading.RLock()
        self._stats_lock = threading.Lock()
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

        return self._execute("count", graph, aggregator, algorithm, x_aware,
                             steal, trace, options, finalize)

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

        return self._execute("enumerate", graph, aggregator, algorithm,
                             x_aware, steal, trace, options, finalize)

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

        return self._execute("fingerprint", graph, aggregator, algorithm,
                             x_aware, steal, trace, options, finalize)

    def _execute(self, op: str, graph: str, aggregator, algorithm: str,
                 x_aware, steal, trace, options: dict, finalize) -> dict:
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
            if not isinstance(trace, bool):
                raise InvalidParameterError(
                    f"trace must be a bool, got {trace!r}"
                )
            entry = self.registry.resolve(graph)
            config = replace(self.config, algorithm=algorithm,
                             options=options, x_aware=x_aware,
                             steal=steal).validate(entry.graph)

            tracer = Tracer(
                op, graph=entry.fingerprint, graph_name=entry.name,
                algorithm=algorithm, n_jobs=self.n_jobs,
            ) if trace else None

            spinups = self._pool.spinups
            ships = self._pool.graph_ships
            decomposes = self.registry.stats.decompose_calls

            start = time.perf_counter()
            stats = execute(config, aggregator,
                            _Cached(self.registry, entry), self._pool,
                            trace=tracer)

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

            # Registry-side accounting.  The aggregator's registry already
            # carries each worker's fold (chunk CPU histograms, mce_*
            # branch counters, steal counts), so the merge — not a
            # re-fold — keeps the totals single-counted.
            with self._stats_lock:
                self._requests += 1
                if warm:
                    self._warm_requests += 1
                self._requests_by_op[op] = \
                    self._requests_by_op.get(op, 0) + 1
                self.metrics.counter("service_requests_total",
                                     labels={"op": op}).inc()
                if warm:
                    self.metrics.counter("service_warm_requests_total").inc()
                self.metrics.histogram("service_request_seconds",
                                       labels={"op": op}).observe(seconds)
                self.metrics.merge(aggregator.metrics)

            if tracer is not None:
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
        if tracer is not None:
            tracer.finish()
            result["trace"] = tracer.to_dict()
        return result

    # ------------------------------------------------------------------
    # Observability / lifecycle
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Service-level counters: the warm-path audit trail.

        A fully warm steady state shows ``requests`` growing while
        ``decompose_calls``, ``pool_spinups`` and ``graph_ships`` stay
        flat — exactly the assertion the service tests make.
        ``pool_respawns`` counts workers replaced after a death; a request
        whose task was rerun on one takes about twice as long.
        """
        with self._stats_lock:
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
                "pool_respawns": self._pool.respawns,
                "pool_live": self._pool.is_live,
                "start_method": self._pool.start_method,
                "n_jobs": self.n_jobs,
                "chunk_strategy": self.config.chunk_strategy,
                "cost_model": self.config.cost_model,
            }

    def metrics_snapshot(self) -> dict:
        """JSON snapshot of the service registry (gauges refreshed first)."""
        with self._stats_lock:
            self._refresh_gauges()
            return self.metrics.as_dict()

    def metrics_text(self) -> str:
        """Prometheus text exposition of the service registry."""
        with self._stats_lock:
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
        m.gauge("service_pool_respawns").set(self._pool.respawns)
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
