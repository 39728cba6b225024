"""Set vs bitset backend comparison across the generator suite.

Times every (workload, algorithm) cell under both branch-state backends and
records the speedup ``set_seconds / bitset_seconds``.  Dense candidate
subgraphs are where word-parallel AND/popcount pays off, so the suite spans
the density range: high-density Erdős–Rényi (the bitset sweet spot),
medium-density G(n, m), preferential attachment, planted cliques and a
structured ring-of-cliques (the sparse end, where sets can win).

Usage::

    PYTHONPATH=src python benchmarks/bench_backend_comparison.py
    PYTHONPATH=src python benchmarks/bench_backend_comparison.py --quick

The full run writes ``BENCH_backend.json`` at the repository root (the
committed perf baseline); ``--quick`` is the CI smoke mode — tiny graphs,
one repeat, results to a scratch path by default.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import sys

_SRC = pathlib.Path(__file__).parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.bench.runner import measure
from repro.core.phases import BACKENDS
from repro.graph.generators import (
    barabasi_albert,
    erdos_renyi_gnm,
    planted_cliques,
    ring_of_cliques,
)

ALGORITHMS = ("hbbmc++", "ebbmc++", "bk-pivot")


def workloads(quick: bool):
    """(name, graph) pairs ordered dense -> sparse."""
    if quick:
        return [
            ("erdos-renyi-dense", erdos_renyi_gnm(40, 500, seed=11)),
            ("barabasi-albert", barabasi_albert(50, 5, seed=5)),
            ("ring-of-cliques", ring_of_cliques(4, 4)),
        ]
    return [
        ("erdos-renyi-dense", erdos_renyi_gnm(150, 5600, seed=11)),
        ("erdos-renyi-medium", erdos_renyi_gnm(400, 8000, seed=11)),
        ("barabasi-albert", barabasi_albert(500, 10, seed=5)),
        ("planted-cliques", planted_cliques(120, 6, 12, 400, seed=2)),
        ("ring-of-cliques", ring_of_cliques(40, 8)),
    ]


def run(quick: bool, repeats: int) -> dict:
    cells = []
    for name, g in workloads(quick):
        density = g.m / g.n if g.n else 0.0
        for algorithm in ALGORITHMS:
            timings = {}
            cliques = None
            for backend in BACKENDS:
                m = measure(g, algorithm, repeats=repeats, backend=backend)
                timings[backend] = m.seconds
                if cliques is None:
                    cliques = m.cliques
                elif cliques != m.cliques:
                    raise AssertionError(
                        f"{algorithm} on {name}: backends disagree "
                        f"({cliques} vs {m.cliques} cliques)"
                    )
            speedup = timings["set"] / timings["bitset"] if timings["bitset"] else 0.0
            cells.append({
                "workload": name,
                "n": g.n,
                "m": g.m,
                "density": round(density, 2),
                "algorithm": algorithm,
                "cliques": cliques,
                "set_seconds": round(timings["set"], 6),
                "bitset_seconds": round(timings["bitset"], 6),
                "bitset_speedup": round(speedup, 3),
            })
            print(f"{name:20s} {algorithm:9s} set={timings['set']:8.3f}s  "
                  f"bitset={timings['bitset']:8.3f}s  speedup={speedup:5.2f}x")
    return {
        "experiment": "backend-comparison",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "quick": quick,
        "repeats": repeats,
        "cells": cells,
        "max_bitset_speedup": max(c["bitset_speedup"] for c in cells),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="tiny graphs, one repeat (CI smoke mode)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="timing repeats per cell (keep the fastest)")
    parser.add_argument("--out", default=None,
                        help="output JSON path (default: BENCH_backend.json "
                             "at the repo root; /tmp scratch in --quick mode)")
    args = parser.parse_args(argv)

    repeats = args.repeats if args.repeats is not None else (1 if args.quick else 3)
    results = run(args.quick, repeats)

    if args.out:
        out = pathlib.Path(args.out)
    elif args.quick:
        out = pathlib.Path("/tmp/BENCH_backend_quick.json")
    else:
        out = pathlib.Path(__file__).parent.parent / "BENCH_backend.json"
    out.write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {out} (max bitset speedup "
          f"{results['max_bitset_speedup']:.2f}x)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
