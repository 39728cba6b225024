"""Repository benchmark: one workload per invocation, one JSON result line.

    python3 perfbench/run.py --workload serial-count --seed 1 \\
        --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from its
``src/`` directory and nowhere else.  ``--trace 0`` measures the
end-to-end metrics with no instrumentation installed; ``--trace 1``
wraps the program's layer boundaries (see ``layers.py``) and reports the
per-layer metrics, the exact paper counters and the tracing overhead.
End-to-end times are host-adjusted: each is scaled by the time of a fixed
reference computation measured around it (``host.speed_probe``), and
the unadjusted wall figures are printed on a ``#`` line.  The last line of standard output is the result object; the lines before
it are the host header and notes.  Exit status is 0 only when every
result matched its reference.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

SETUP_REPEATS = {"serial-count": 5, "parallel-enumerate": 5,
                 "service-mixed": 3}

END_TO_END = {
    "latency_p50_s": "s", "latency_tail_s": "s", "throughput_rps": "1/s",
    "cliques_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB",
}


def import_program() -> None:
    """Put the checkout's ``src`` first and refuse any other ``repro``."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise SystemExit(f"error: no program sources at {SRC}")
    sys.path.insert(0, SRC)
    import repro

    where = os.path.realpath(repro.__file__)
    if not where.startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit(f"error: repro imported from {where}, not {SRC}")


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile, samples)``; with fewer than eleven
    samples the maximum is all there is (percentile 100).
    """
    ordered = sorted(latencies)
    n = len(ordered)
    k = n - 11
    if k < 0:
        return ordered[-1], 100.0, n
    return ordered[k], math.floor(1000.0 * (k + 1) / n) / 10.0, n


def setup_probe(workload: str) -> None:
    """Child-process body: import the program and make the first call."""
    start = time.perf_counter()
    import_program()
    sys.path.insert(0, HERE)
    import workloads

    workloads.setup_probe(workload)
    print(json.dumps({"setup_s": time.perf_counter() - start}))


def measure_setup_inproc(workload: str) -> list[tuple[float, float]]:
    """``(set-up seconds, speed-probe seconds around it)`` of each
    fresh-process set-up."""
    from host import speed_probe

    values = []
    for _ in range(SETUP_REPEATS[workload]):
        before = speed_probe()
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             workload], cwd=ROOT, capture_output=True, text=True,
            timeout=120, check=True)
        speed = (before + speed_probe()) / 2
        values.append((json.loads(out.stdout.strip().splitlines()[-1])
                       ["setup_s"], speed))
    return values


def adjusted(seconds: float, speed: float) -> float:
    """Seconds on the reference host: scaled by the speed probe's time
    around the measurement over its nominal time."""
    from host import REFERENCE_SECONDS

    return seconds * REFERENCE_SECONDS / speed


class Loop:
    """Runs whole cycles of requests until the time is up."""

    def __init__(self, workload, seconds: float, trace: bool) -> None:
        self.workload = workload
        self.seconds = seconds
        self.trace = trace
        self.records: list[dict] = []
        self.failures: list[str] = []
        if trace:
            from spans import EmitMeter, Recorder

            self.recorder = Recorder()
            self.meter = EmitMeter(self.recorder)

    def traced(self, cycle: int, position: int) -> bool:
        """First cycle: all traced.  Then alternate, flipping per cycle,
        so every input is traced and untraced equally often."""
        return self.trace and (cycle == 0 or (position + cycle) % 2 == 0)

    def run(self) -> None:
        from host import speed_probe
        from workloads import WrongAnswer

        # Untraced runs time the speed reference between requests; each
        # request's host speed is the mean of the probes either side.
        probe = None if self.trace else speed_probe()
        start = time.perf_counter()
        cycle = 0
        while True:
            for position, request in enumerate(self.workload.cycle(cycle)):
                traced = self.traced(cycle, position)
                record = {"cycle": cycle, "position": position,
                          "label": request.label, "traced": traced}
                try:
                    result, seconds, root = self._call(request, traced,
                                                       cycle, position)
                except Exception as exc:  # noqa: BLE001 - counted, reported
                    self.failures.append(f"{request.label}: "
                                         f"{type(exc).__name__}: {exc}")
                    record["ok"] = False
                    self.records.append(record)
                    if isinstance(exc, OSError):
                        # Transport lost or timed out: the run cannot go on.
                        raise
                    continue
                record.update(seconds=seconds, root=root)
                if probe is not None:
                    after = speed_probe()
                    record["speed"] = (probe + after) / 2
                    probe = after
                if isinstance(result, dict) and "warm" in result:
                    record["warm"] = result["warm"]
                try:
                    record["cliques"] = request.check(result)
                    record["ok"] = True
                except WrongAnswer as exc:
                    self.failures.append(str(exc))
                    record["ok"] = False
                self.records.append(record)
            cycle += 1
            if time.perf_counter() - start >= self.seconds and cycle >= 2:
                return

    def _call(self, request, traced: bool, cycle: int, position: int):
        if not traced:
            t0 = time.perf_counter_ns()
            result = request.call()
            return result, (time.perf_counter_ns() - t0) / 1e9, None
        import layers

        patches = layers.install(self.recorder, self.meter)
        root = self.recorder.open("request", label=request.label,
                                  cycle=cycle, position=position)
        try:
            result = request.call()
        finally:
            self.recorder.close(root)
            patches.restore()
        counters = root.attrs.pop("engine_counters", [])
        root.attrs["engine_counters"] = [c.as_dict() for c in counters]
        root.attrs["delivered"] = layers.delivered(
            root.attrs.pop("sinks", []))
        client = getattr(self.workload, "client", None)
        if client is not None:
            root.attrs["client_id"] = client._next_id
        return result, root.duration / 1e9, root


def timings(done: list[dict], latencies: list[float],
            setup: list[float]) -> dict[str, float]:
    busy = sum(latencies)
    return {
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": tail(latencies)[0],
        "throughput_rps": len(done) / busy,
        "cliques_per_s": sum(r["cliques"] for r in done) / busy,
        "setup_s": statistics.median(setup),
    }


def end_to_end(loop: Loop, setup: list[tuple[float, float]]) \
        -> dict[str, float]:
    from host import peak_rss_mb

    done = [r for r in loop.records if r["ok"]]
    wall = [r["seconds"] for r in done]
    latencies = [adjusted(r["seconds"], r["speed"]) for r in done]
    speeds = [r["speed"] for r in done] + [s for _, s in setup]
    _, pct, n = tail(latencies)
    by_label: dict[str, list[float]] = {}
    for r, seconds in zip(done, latencies):
        by_label.setdefault(r["label"], []).append(seconds)
    print("# p50 by input: " + ", ".join(
        f"{label} {statistics.median(v):.4g}"
        for label, v in sorted(by_label.items(),
                               key=lambda kv: statistics.median(kv[1]))))
    print(f"# latency_tail_s is p{pct:g} of {n} samples; setup_s is the "
          f"median of {len(setup)} set-ups "
          f"{[round(adjusted(*s), 4) for s in setup]}")
    print(f"# speed probe ms: median {1e3 * statistics.median(speeds):.2f}, "
          f"min {1e3 * min(speeds):.2f}, max {1e3 * max(speeds):.2f}")
    raw = timings(done, wall, [s for s, _ in setup])
    print("# unadjusted wall: " + json.dumps(raw))
    out = timings(done, latencies, [adjusted(*s) for s in setup])
    out["peak_rss_mb"] = peak_rss_mb()
    return out


def per_layer(loop: Loop, server_spans: list) -> dict[str, float]:
    import layers
    from spans import nesting_problems

    spans = loop.recorder.spans
    problems = nesting_problems(spans) + nesting_problems(server_spans)
    if problems:
        raise RuntimeError("spans do not nest: " + "; ".join(problems[:5]))
    traced = [r for r in loop.records if r["traced"] and r["ok"]]
    roots = [r["root"] for r in traced]
    first = [r["root"] for r in traced if r["cycle"] == 0]
    first_ids = {r.id for r in first}
    out = {name: 0.0 for name in layers.PER_LAYER}
    out.update(layers.time_metrics(spans, len(roots)))
    out.update(layers.counter_metrics(
        layers.engine_counters(first, spans), first))
    out.update(layers.structure_counts(spans, first_ids))
    if server_spans:
        loop_ids = {r.attrs["client_id"] for r in roots}
        first_client = {r.attrs["client_id"] for r in first}
        server_roots = [s for s in server_spans
                        if s.name == "transport.server"
                        and s.attrs.get("client_id") in loop_ids]
        keep = {s.id for s in server_roots}
        mine = [s for s in server_spans if s.request in keep]
        server_times = layers.time_metrics(mine, len(server_roots))
        for key in ("decompose.s", "pack.s", "pack.balance_ratio",
                    "pool.submit_s", "pool.overhead_s", "pool.chunk_cpu_s",
                    "pool.cpu_per_wall", "pool.cpu_skew", "pool.steals",
                    "pool.spinups", "pool.graph_ships", "merge.accept_s",
                    "merge.finish_s", "merge.items", "graph.core_s",
                    "graph.bitpack_s", "registry.lookup_s", "service.self_s",
                    "transport.server_s"):
            out[key] = server_times[key]
        first_server = {s.id for s in server_roots
                        if s.attrs["client_id"] in first_client}
        counts = layers.structure_counts(server_spans, first_server)
        out.update(counts)
        out.update(layers.server_metrics(mine))
        out.update(layers.transport_metrics(spans))
        warm = [r["warm"] for r in loop.records if "warm" in r]
        out["service.warm_ratio"] = sum(warm) / len(warm) if warm else 0.0
    # Tracing overhead: the alternating cycles only, where every input
    # was timed both ways.
    later = [r for r in loop.records if r["ok"] and r["cycle"] > 0]
    on = [r["seconds"] for r in later if r["traced"]]
    off = [r["seconds"] for r in later if not r["traced"]]
    out["trace.latency_p50_s"] = statistics.median(on)
    out["trace.untraced_latency_p50_s"] = statistics.median(off)
    out["trace.overhead_ratio"] = out["trace.latency_p50_s"] \
        / out["trace.untraced_latency_p50_s"]
    return out


def write_trace(path: str, loop: Loop, server_spans: list) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"spans": [s.as_dict() for s in loop.recorder.spans],
                   "server_spans": [s.as_dict() for s in server_spans]}, fh)


def load_spans(path: str) -> list:
    from spans import Span

    with open(path, encoding="utf-8") as fh:
        return [Span(**d) for d in json.load(fh)]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="WORKLOAD",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.setup_probe)
        return 0
    import_program()
    sys.path.insert(0, HERE)
    import host
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    print("# host " + json.dumps(host.probe()), flush=True)
    name, trace = args.workload, bool(args.trace)
    tag = f"{name}-seed{args.seed}"
    server_path = os.path.join(OUT, f"{tag}-server-spans.json")
    workload = WORKLOADS[name](args.seed)
    print(f"# inputs sha256 {workload.digest()}", flush=True)
    loop = Loop(workload, args.seconds, trace)
    setup: list[tuple[float, float]] = []
    server_spans: list = []
    aborted = None
    try:
        if name == "service-mixed":
            os.makedirs(OUT, exist_ok=True)
            if os.path.exists(server_path):
                os.remove(server_path)  # never read an older run's spans
            repeats = 1 if trace else SETUP_REPEATS[name]
            for i in range(repeats):
                before = host.speed_probe()
                seconds = workload.open(ROOT, server_path if trace else None)
                setup.append((seconds, (before + host.speed_probe()) / 2))
                if i + 1 < repeats:
                    workload.close()
        else:
            if not trace:
                setup = measure_setup_inproc(name)
            workload.start()
        loop.run()
    except OSError as exc:
        aborted = f"run abandoned: {type(exc).__name__}: {exc}"
    finally:
        workload.close()
    if trace and name == "service-mixed" and os.path.exists(server_path):
        server_spans = load_spans(server_path)

    attempted = len(loop.records)
    failed = sum(not r["ok"] for r in loop.records)
    for line in loop.failures[:20]:
        print(f"# FAILED {line}")
    if aborted:
        print(f"# {aborted}")
    correct = failed == 0 and aborted is None
    print(f"# failed_ratio {failed / max(attempted, 1):g} "
          f"({failed} of {attempted})")
    metrics: dict[str, float] = {}
    if correct:
        if trace:
            metrics = per_layer(loop, server_spans)
            write_trace(os.path.join(OUT, f"{tag}-trace.json"), loop,
                        server_spans)
            import layers

            units = layers.PER_LAYER
        else:
            metrics = end_to_end(loop, setup)
            units = END_TO_END
    result = {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()} if metrics else {},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
