"""The layer map: which program functions are wrapped, and the metrics.

Each target is a function the program calls across a layer boundary,
wrapped at the name its caller binds (``module.attr`` or ``Class.attr``).
Span names are the layer metric prefixes.  Nothing here edits the
program; :func:`install` returns the :class:`~spans.Patches` that undo it.
"""

from __future__ import annotations

import importlib
import json as _json
import statistics
import types
from typing import Any

from spans import EmitMeter, Patches, Recorder, Span, layer_totals, \
    span_wrapper

# (span name, module, owner attribute or None, function attribute)
_SPAN_TARGETS: list[tuple[str, str, str | None, str]] = [
    ("graph.order", "repro.core.frameworks", None, "edge_ordering"),
    ("graph.order", "repro.core.frameworks", None, "vertex_ordering"),
    ("graph.reduce", "repro.core.frameworks", None, "reduce_graph"),
    ("graph.core", "repro.graph.coreness", None, "core_decomposition"),
    ("graph.core", "repro.core.bit_edge_engine", None, "core_decomposition"),
    ("graph.core", "repro.parallel.decompose", None, "core_decomposition"),
    ("graph.core", "repro.service.registry", None, "core_decomposition"),
    ("graph.bitpack", "repro.graph.bitadj", "BitGraph", "from_graph"),
    ("core.engine", "repro.core.bit_edge_engine", None, "bit_run_edge_root"),
    ("core.engine", "repro.core.bit_edge_engine", None,
     "bit_run_edge_root_with_x"),
    ("core.engine", "repro.core.frameworks", None, "run_edge_root"),
    ("core.engine", "repro.core.frameworks", None, "run_edge_root_with_x"),
    ("core.engine", "repro.core.frameworks", None, "_run_vertex_bitset"),
    ("emit.sort", "repro.core.result", "CliqueCollector", "sorted_cliques"),
    ("parallel.run", "repro.parallel", None, "run_parallel"),
    ("decompose", "repro.parallel.pool", None, "decompose"),
    ("decompose", "repro.service.registry", None, "decompose"),
    ("pack", "repro.parallel.pool", None, "make_chunks"),
    ("pack", "repro.parallel.pool", None, "plan_steal_schedule"),
    ("pack", "repro.service.registry", None, "make_chunks"),
    ("pack", "repro.service.registry", None, "plan_steal_schedule"),
    ("pool.submit", "repro.parallel.pool", "WorkerPool", "submit"),
    ("pool.close", "repro.parallel.pool", "WorkerPool", "close"),
    ("merge.accept", "repro.parallel.aggregate", "Aggregator", "accept"),
    ("merge.finish", "repro.parallel.aggregate", "CountAggregator", "finish"),
    ("merge.finish", "repro.parallel.aggregate", "CollectAggregator",
     "finish"),
    ("merge.finish", "repro.parallel.aggregate", "CallbackAggregator",
     "finish"),
    ("registry.register", "repro.service.registry", "GraphRegistry",
     "register"),
    ("registry.lookup", "repro.service.registry", "GraphRegistry",
     "decomposition"),
    ("registry.lookup", "repro.service.registry", "GraphRegistry", "chunks"),
    ("registry.lookup", "repro.service.registry", "GraphRegistry",
     "steal_plan"),
    ("service.request", "repro.service.core", "CliqueService", "count"),
    ("service.request", "repro.service.core", "CliqueService", "enumerate"),
    ("service.request", "repro.service.core", "CliqueService",
     "fingerprint"),
    ("service.register", "repro.service.core", "CliqueService", "register"),
    ("transport.server", "repro.service.server", None, "handle_line"),
    ("transport.client", "repro.service.client", "ServiceClient", "request"),
]

#: spans the server-side launcher installs: everything that runs in the
#: server process itself.  Engine and sink wrappers would only be
#: inherited by the forked workers, whose spans never come back.
SERVER_SPANS = frozenset({
    "graph.core", "graph.bitpack", "decompose", "pack", "pool.submit",
    "pool.close", "merge.accept", "merge.finish", "registry.register",
    "registry.lookup", "service.request", "service.register",
    "transport.server",
})


def _hooks() -> dict[str, tuple[Any, Any]]:
    """``span name -> (before, after)`` attribute extractors."""
    from repro.parallel.scheduler import balance_ratio

    def decompose_after(span: Span, args, kwargs, result, state) -> None:
        span.attrs["subproblems"] = len(result.subproblems)

    def pack_after(span: Span, args, kwargs, result, state) -> None:
        if isinstance(result, tuple):  # steal schedule
            chunks, splits, requested = result
            span.attrs["chunks"] = len(chunks) + len(splits)
        else:
            chunks = result
            requested = min(args[1], len(args[0]))
            span.attrs["chunks"] = len(chunks)
        span.attrs["balance"] = balance_ratio(chunks, requested)

    def submit_before(args, kwargs) -> tuple[int, int]:
        pool = args[0]
        return pool.spinups, pool.graph_ships

    def submit_after(span: Span, args, kwargs, result, state) -> None:
        pool = args[0]
        chunks = args[4] if len(args) > 4 else kwargs["chunks"]
        splits = kwargs.get("splits") or []
        span.attrs.update(
            tasks=len(chunks) + len(splits), steals=result.steals,
            spinups=pool.spinups - state[0],
            graph_ships=pool.graph_ships - state[1])

    def accept_after(span: Span, args, kwargs, result, state) -> None:
        chunk = args[1]
        span.attrs.update(items=len(chunk.items), cpu=chunk.cpu_seconds,
                          worker=chunk.worker)

    def run_after(span: Span, args, kwargs, result, state) -> None:
        span.attrs["counters"] = result.as_dict()

    def server_before(args, kwargs) -> None:
        try:
            return _json.loads(args[1]).get("id")
        except (ValueError, AttributeError):
            return None

    def server_after(span: Span, args, kwargs, result, state) -> None:
        span.attrs["client_id"] = state

    def client_after(span: Span, args, kwargs, result, state) -> None:
        span.attrs["op"] = args[1].get("op")
        if "seconds" in result:
            span.attrs["server_s"] = result["seconds"]

    return {
        "decompose": (None, decompose_after),
        "pack": (None, pack_after),
        "pool.submit": (submit_before, submit_after),
        "merge.accept": (None, accept_after),
        "parallel.run": (None, run_after),
        "transport.server": (server_before, server_after),
        "transport.client": (None, client_after),
    }


def install(recorder: Recorder, meter: EmitMeter,
            names: frozenset[str] | None = None) -> Patches:
    """Wrap every target (or those whose span name is in ``names``)."""
    patches = Patches()
    hooks = _hooks()
    try:
        for name, module_name, owner_name, attr in _SPAN_TARGETS:
            if names is not None and name not in names:
                continue
            module = importlib.import_module(module_name)
            owner = getattr(module, owner_name) if owner_name else module
            before, after = hooks.get(name, (None, None))
            raw = owner.__dict__[attr] if owner_name else getattr(owner, attr)
            if isinstance(raw, classmethod):
                wrapped = classmethod(span_wrapper(
                    recorder, name, raw.__func__, before, after))
            else:
                wrapped = span_wrapper(recorder, name, raw, before, after)
            patches.set(owner, attr, wrapped)
        if names is None:
            _install_sinks(recorder, meter, patches)
    except BaseException:
        patches.restore()
        raise
    return patches


def _install_sinks(recorder: Recorder, meter: EmitMeter,
                   patches: Patches) -> None:
    """Emission metering, counter and sink capture, client byte counting.

    Only the sink the engines call and the collector the parallel merge
    feeds are timed: a wrapper per clique on every sink of the chain would
    cost more than the sinks themselves.  Cliques delivered are read from
    the caller's sink objects after the request instead of counted per
    call.  Graph reduction's few direct emissions are not timed and stay
    in the request's own self time.
    """
    from repro.core import frameworks, result
    from repro.service import client

    counting = frameworks._counting
    make_context = frameworks.make_context

    def counting_wrapper(sink, counters):
        _remember(recorder, "engine_counters", counters)
        return counting(sink, counters)

    def make_context_wrapper(sink, counters, **kwargs):
        return make_context(meter.timed(sink), counters, **kwargs)

    patches.set(frameworks, "_counting", counting_wrapper)
    patches.set(frameworks, "make_context", make_context_wrapper)
    collector = result.CliqueCollector
    patches.set(collector, "__call__",
                meter.timed(collector.__dict__["__call__"]))
    for cls in (result.CliqueCounter, result.CliqueCollector):
        patches.set(cls, "__init__", _remembered(recorder,
                                                  cls.__dict__["__init__"]))

    real = client.json

    def dumps(obj, *args, **kwargs):
        text = real.dumps(obj, *args, **kwargs)
        recorder.add("request_bytes", len(text.encode("utf-8")) + 1)
        return text

    def loads(text, *args, **kwargs):
        recorder.add("response_bytes", len(text.encode("utf-8")))
        return real.loads(text, *args, **kwargs)

    # The client calls ``json.dumps``/``json.loads`` through its module
    # global ``json``; a stand-in with both counts the bytes on the wire.
    patches.set(client, "json", types.SimpleNamespace(dumps=dumps,
                                                      loads=loads))


def _remember(recorder: Recorder, key: str, obj: Any) -> None:
    """Keep ``obj`` on the request's root span until the request ends."""
    root = recorder.root()
    if root is not None:
        root.attrs.setdefault(key, []).append(obj)


def _remembered(recorder: Recorder, init):
    def wrapped(self, *args, **kwargs):
        init(self, *args, **kwargs)
        _remember(recorder, "sinks", self)

    return wrapped


def delivered(sinks: list) -> tuple[int, int]:
    """Cliques, and their vertices, that the caller's sinks received."""
    from repro.core.result import CliqueCounter

    cliques = vertices = 0
    for sink in sinks:
        if isinstance(sink, CliqueCounter):
            cliques += sink.count
            vertices += sink.total_vertices
        else:
            cliques += len(sink.cliques)
            vertices += sum(map(len, sink.cliques))
    return cliques, vertices


# ---------------------------------------------------------------------------
# Metric derivation
# ---------------------------------------------------------------------------

#: every per-layer metric: name -> unit.  Times ending in ``_s`` are mean
#: seconds per traced request unless the README says otherwise.
PER_LAYER: dict[str, str] = {
    "graph.order_s": "s", "graph.reduce_s": "s", "graph.core_s": "s",
    "graph.bitpack_s": "s", "graph.prep_share": "ratio",
    "core.engine_self_s": "s", "core.branch_calls": "count",
    "core.edge_calls": "count", "core.vertex_calls": "count",
    "core.et_hits": "count", "core.et_ratio": "ratio",
    "core.et_clique_share": "ratio",
    "emit.sink_s": "s", "emit.sort_s": "s", "emit.cliques": "count",
    "emit.clique_vertices": "count",
    "decompose.s": "s", "decompose.subproblems": "count", "pack.s": "s",
    "pack.chunks": "count", "pack.balance_ratio": "ratio",
    "pool.submit_s": "s", "pool.overhead_s": "s", "pool.close_s": "s",
    "pool.chunk_cpu_s": "s", "pool.cpu_per_wall": "ratio",
    "pool.cpu_skew": "ratio", "pool.tasks": "count", "pool.steals": "count",
    "pool.spinups": "count", "pool.graph_ships": "count",
    "merge.accept_s": "s", "merge.finish_s": "s", "merge.items": "count",
    "parallel.run_s": "s",
    "registry.register_s": "s", "registry.lookup_s": "s",
    "registry.decompose_calls": "count",
    "registry.cache_hit_ratio": "ratio", "service.request_s": "s",
    "service.warm_ratio": "ratio", "service.self_s": "s",
    "transport.server_s": "s", "transport.overhead_s": "s",
    "transport.overhead_count_s": "s",
    "transport.overhead_enumerate_s": "s",
    "transport.overhead_fingerprint_s": "s",
    "transport.request_bytes": "B", "transport.response_bytes": "B",
    "request.self_s": "s",
    "trace.latency_p50_s": "s", "trace.untraced_latency_p50_s": "s",
    "trace.overhead_ratio": "ratio",
}

#: counters that must repeat bit for bit at a fixed seed (measured over
#: the first cycle of each workload's request sequence).
EXACT_COUNTERS = ("core.branch_calls", "core.edge_calls", "core.vertex_calls",
                  "core.et_hits", "core.et_ratio", "core.et_clique_share",
                  "emit.cliques", "emit.clique_vertices", "pool.tasks",
                  "decompose.subproblems", "pack.chunks",
                  "registry.decompose_calls")


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def engine_counters(roots: list[Span], spans: list[Span]) -> dict[str, int]:
    """Paper counters summed over the requests under ``roots``."""
    total: dict[str, int] = {}
    wanted = {r.id for r in roots}

    def add(counters: dict[str, int]) -> None:
        for key, value in counters.items():
            total[key] = total.get(key, 0) + value

    for r in roots:
        for counters in r.attrs.get("engine_counters", []):
            add(counters)
    for s in spans:
        if s.name == "parallel.run" and s.request in wanted:
            add(s.attrs["counters"])
    return total


def counter_metrics(counters: dict[str, int],
                    roots: list[Span]) -> dict[str, float]:
    plex = counters.get("plex_branches", 0)
    emitted = counters.get("emitted", 0)
    return {
        "core.branch_calls": counters.get("vertex_calls", 0)
        + counters.get("edge_calls", 0),
        "core.edge_calls": counters.get("edge_calls", 0),
        "core.vertex_calls": counters.get("vertex_calls", 0),
        "core.et_hits": counters.get("et_hits", 0),
        "core.et_ratio": counters.get("plex_terminable", 0) / plex
        if plex else 0.0,
        "core.et_clique_share": counters.get("et_cliques", 0) / emitted
        if emitted else 0.0,
        "emit.cliques": sum(r.attrs["delivered"][0] for r in roots),
        "emit.clique_vertices": sum(r.attrs["delivered"][1] for r in roots),
    }


def structure_counts(spans: list[Span], requests: set[int]) -> dict[str, int]:
    """Deterministic structural counts over the given request ids."""
    mine = [s for s in spans if s.request in requests]
    names = {s.id: s.name for s in mine}
    return {
        "pool.tasks": sum(s.attrs.get("tasks", 0) for s in mine
                          if s.name == "pool.submit"),
        "decompose.subproblems": sum(s.attrs.get("subproblems", 0)
                                     for s in mine if s.name == "decompose"),
        "pack.chunks": sum(s.attrs.get("chunks", 0) for s in mine
                           if s.name == "pack"),
        "registry.decompose_calls": sum(
            1 for s in mine if s.name == "decompose"
            and names.get(s.parent) == "registry.lookup"),
    }


def time_metrics(spans: list[Span], n_requests: int) -> dict[str, float]:
    """Per-request mean self time of each layer, plus pool/merge figures."""
    per = max(n_requests, 1)
    totals = layer_totals(spans)

    def mean_s(*names: str) -> float:
        return sum(totals.get(n, 0) for n in names) / per / 1e9

    out = {
        "graph.order_s": mean_s("graph.order"),
        "graph.reduce_s": mean_s("graph.reduce"),
        "graph.core_s": mean_s("graph.core"),
        "graph.bitpack_s": mean_s("graph.bitpack"),
        "core.engine_self_s": mean_s("core.engine"),
        "emit.sink_s": mean_s("emit.sink"),
        "emit.sort_s": mean_s("emit.sort"),
        "decompose.s": mean_s("decompose"),
        "pack.s": mean_s("pack"),
        "pool.submit_s": mean_s("pool.submit"),
        "pool.close_s": mean_s("pool.close"),
        "merge.accept_s": mean_s("merge.accept"),
        "merge.finish_s": mean_s("merge.finish"),
        "request.self_s": mean_s("request"),
        "parallel.run_s": mean_s("parallel.run"),
        "registry.lookup_s": mean_s("registry.lookup"),
        "service.self_s": mean_s("service.request", "service.register"),
        "transport.server_s": mean_s("transport.server"),
    }
    roots = [s for s in spans if s.name == "request"]
    wall = sum(r.duration for r in roots)
    prep = sum(totals.get(n, 0) for n in
               ("graph.order", "graph.reduce", "graph.core", "graph.bitpack"))
    out["graph.prep_share"] = prep / wall if wall else 0.0

    submits = [s for s in spans if s.name == "pool.submit"]
    accepts = [s for s in spans if s.name == "merge.accept"]
    out.update(pool_metrics(submits, accepts, per))
    balances = [s.attrs["balance"] for s in spans if s.name == "pack"]
    out["pack.balance_ratio"] = _median(balances)
    out["merge.items"] = sum(s.attrs.get("items", 0) for s in accepts) / per
    return out


def pool_metrics(submits: list[Span], accepts: list[Span],
                 per: int) -> dict[str, float]:
    """Chunk CPU, critical path and skew of every submit."""
    by_parent: dict[int, list[Span]] = {}
    for a in accepts:
        by_parent.setdefault(a.parent, []).append(a)
    cpu_total = overhead = wall_total = 0.0
    skews: list[float] = []
    for s in submits:
        loads: dict[str, float] = {}
        for a in by_parent.get(s.id, []):
            loads[a.attrs["worker"]] = loads.get(a.attrs["worker"], 0.0) \
                + a.attrs["cpu"]
        wall = s.duration / 1e9
        wall_total += wall
        cpu = sum(loads.values())
        cpu_total += cpu
        overhead += wall - (max(loads.values()) if loads else 0.0)
        if len(loads) > 1 and cpu > 0:
            skews.append(max(loads.values()) / (cpu / len(loads)))
    return {
        "pool.overhead_s": overhead / per,
        "pool.chunk_cpu_s": cpu_total / per,
        "pool.cpu_per_wall": cpu_total / wall_total if wall_total else 0.0,
        "pool.cpu_skew": _median(skews),
        "pool.steals": sum(s.attrs.get("steals", 0) for s in submits) / per,
        "pool.spinups": sum(s.attrs.get("spinups", 0) for s in submits) / per,
        "pool.graph_ships": sum(s.attrs.get("graph_ships", 0)
                                for s in submits) / per,
    }


def server_metrics(spans: list[Span]) -> dict[str, float]:
    """Registry and service figures from the server process's spans.

    A registry lookup with no child span was served from the cache; one
    that opened a ``decompose`` or ``pack`` child built its artifact.
    """
    registers = [s for s in spans if s.name == "registry.register"]
    lookups = [s for s in spans if s.name == "registry.lookup"]
    parents = {s.parent for s in spans}
    hits = sum(1 for s in lookups if s.id not in parents)
    requests = [s for s in spans if s.name == "service.request"]
    return {
        "registry.register_s": _median([s.duration / 1e9
                                        for s in registers]),
        "registry.cache_hit_ratio": hits / len(lookups) if lookups else 0.0,
        "service.request_s": _median([s.duration / 1e9 for s in requests]),
    }


def transport_metrics(spans: list[Span]) -> dict[str, float]:
    """Client round trip minus the server-reported seconds, per op."""
    calls = [s for s in spans if s.name == "transport.client"]
    by_op: dict[str, list[float]] = {}
    for s in calls:
        if "server_s" in s.attrs:
            by_op.setdefault(s.attrs["op"], []).append(
                s.duration / 1e9 - s.attrs["server_s"])
    every = [v for values in by_op.values() for v in values]
    n = max(len(calls), 1)
    return {
        "transport.overhead_s": _median(every),
        "transport.overhead_count_s": _median(by_op.get("count", [])),
        "transport.overhead_enumerate_s": _median(by_op.get("enumerate", [])),
        "transport.overhead_fingerprint_s": _median(
            by_op.get("fingerprint", [])),
        "transport.request_bytes": sum(s.attrs.get("request_bytes", 0)
                                       for s in calls) / n,
        "transport.response_bytes": sum(s.attrs.get("response_bytes", 0)
                                        for s in calls) / n,
    }
