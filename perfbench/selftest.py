"""Self-tests of the benchmark itself (not of the program).

    python3 perfbench/selftest.py            # all workloads, ~5 minutes
    python3 perfbench/selftest.py serial-count

Checks, at a fixed seed, that the exact counters repeat bit for bit
across two traced runs; that another seed changes the inputs while every
correctness check still passes; and that the traced spans nest properly
and their self times add up to each request's wall time.  Exits non-zero
on the first failure.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from layers import EXACT_COUNTERS  # noqa: E402
from spans import Span, covered, layer_totals, nesting_problems, \
    self_times  # noqa: E402

SEED, OTHER_SEED = 7, 8
WORKLOADS = ("serial-count", "parallel-enumerate", "service-mixed")


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"FAIL {message}")


def test_span_arithmetic() -> None:
    root = Span(1, "request", None, 1, 0, 100)
    a = Span(2, "a", 1, 1, 10, 40, folded={"emit.sink": 5})
    b = Span(3, "b", 1, 1, 30, 60)  # overlaps a: union is 10..60
    c = Span(4, "c", 2, 1, 12, 20)
    spans = [root, a, b, c]
    check(covered([a, b]) == 50, "covered() must take the union")
    selfs = self_times(spans)
    check(selfs == {1: 50, 2: 17, 3: 30, 4: 8}, f"self times {selfs}")
    check(nesting_problems(spans) == [], "well-formed tree flagged")
    bad = [root, Span(5, "x", 1, 1, 90, 120), Span(6, "y", 1, 1, 50, 40)]
    problems = nesting_problems(bad)
    check(any("outside parent" in p for p in problems), "escape missed")
    check(any("negative" in p for p in problems), "negative missed")
    print("ok span arithmetic")


def traced_run(workload: str, seed: int) -> tuple[dict, dict, str]:
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = out.stdout.strip().splitlines()
    check(out.returncode == 0 and bool(lines),
          f"{workload} seed {seed} exited {out.returncode}: "
          f"{out.stdout[-800:]} {out.stderr[-800:]}")
    result = json.loads(lines[-1])
    digest = next(line.split()[-1] for line in lines
                  if line.startswith("# inputs sha256 "))
    check(result["correct"] and result["failed"] == 0,
          f"{workload} seed {seed} reported failures")
    path = os.path.join(ROOT, ".perfbench_out",
                        f"{workload}-seed{seed}-trace.json")
    with open(path, encoding="utf-8") as fh:
        trace = json.load(fh)
    return ({k: v["value"] for k, v in result["metrics"].items()}, trace,
            digest)


def check_spans(workload: str, trace: dict) -> None:
    for key, root_name in (("spans", "request"),
                           ("server_spans", "transport.server")):
        spans = [Span(**d) for d in trace[key]]
        if not spans:
            continue
        problems = nesting_problems(spans)
        check(not problems, f"{workload} {key}: {problems[:3]}")
        roots = [s for s in spans if s.name == root_name]
        check(bool(roots), f"{workload} {key}: no {root_name} roots")
        by_request: dict[int, list[Span]] = {}
        for s in spans:
            by_request.setdefault(s.request, []).append(s)
        for r in roots:
            total = sum(layer_totals(by_request[r.id]).values())
            check(total == r.duration,
                  f"{workload} {key}: layer self times {total} != "
                  f"request wall {r.duration} for span {r.id}")
    print(f"ok {workload}: spans nest, self times sum to request wall")


def test_workload(workload: str) -> None:
    first, trace, digest = traced_run(workload, SEED)
    again, _, same_digest = traced_run(workload, SEED)
    other, _, other_digest = traced_run(workload, OTHER_SEED)
    exact = {k: first[k] for k in EXACT_COUNTERS}
    repeat = {k: again[k] for k in EXACT_COUNTERS}
    check(exact == repeat,
          f"{workload}: counters differ at one seed: {exact} vs {repeat}")
    check(digest == same_digest, f"{workload}: inputs differ at one seed")
    check(digest != other_digest,
          f"{workload}: seed {OTHER_SEED} made the same inputs")
    moved = [k for k in EXACT_COUNTERS if other[k] != first[k]]
    print(f"ok {workload}: counters repeat at seed {SEED}; seed "
          f"{OTHER_SEED} changes the inputs (and {len(moved)} counters) "
          "and passes every check")
    check_spans(workload, trace)


def main(argv: list[str]) -> int:
    test_span_arithmetic()
    for workload in argv or WORKLOADS:
        test_workload(workload)
    print("all self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
