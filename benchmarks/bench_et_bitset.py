"""Early-termination path comparison: set vs bitset vs bit-native ET.

Three configurations per (family, algorithm) cell, timed end to end:

* ``set`` — the set backend (its ET construction is the audited
  :func:`repro.core.early_termination.fire_plex` oracle);
* ``bitset-roundtrip`` — the bitset backend with the pre-bit-native ET
  path restored via :func:`repro.core.bit_plex.et_implementation`: every
  fired branch converts its surviving masks back to Python sets and
  delegates to the oracle;
* ``bitset-native`` — the current default: decomposition, plex checks and
  clique assembly run directly on the masks
  (:func:`repro.core.bit_plex.bit_fire_plex`), under the default
  degeneracy-packed bit order.

A fourth cell, ``bitset-native-input``, re-times the bit-native path under
``bit_order="input"`` so the degeneracy-packing contribution is recorded
separately from the ET rewrite.

The family list leans ET-heavy on purpose: ``plex-caveman``
(:func:`repro.graph.generators.plex_caveman`, communities that resolve
entirely by Algorithm 5/8 construction), the Moon–Moser worst case (one
root-level 3-plex fire producing every clique), dense Erdős–Rényi (high
t-plex incidence deep in the tree) and a collaboration-style
near-clique-community model.

Usage::

    PYTHONPATH=src python benchmarks/bench_et_bitset.py
    PYTHONPATH=src python benchmarks/bench_et_bitset.py --smoke

The full run writes ``BENCH_et_bitset.json`` at the repository root (the
committed perf baseline); ``--smoke`` is the CI mode — tiny graphs, one
repeat, results to a scratch path by default.
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
from repro.core.bit_plex import bit_fire_plex_roundtrip, et_implementation
from repro.graph.bitadj import DEFAULT_BIT_ORDER
from repro.graph.generators import (
    erdos_renyi_gnm,
    erdos_renyi_gnp,
    moon_moser,
    overlapping_communities,
    plex_caveman,
)

CONFIGS = ("set", "bitset-roundtrip", "bitset-native", "bitset-native-input")


def workloads(smoke: bool):
    """(family, graph, algorithms) triples, most ET-dominated first."""
    if smoke:
        return [
            ("plex-caveman", plex_caveman(6, 18, 3, seed=3),
             ("vbbmc-dgn", "hbbmc++")),
            ("moon-moser", moon_moser(5), ("hbbmc++", "ebbmc++")),
            ("er-dense", erdos_renyi_gnm(40, 500, seed=11), ("hbbmc++",)),
        ]
    return [
        # 12 communities of 84 vertices, each a clique minus 4 matched
        # pairs: branches resolve by 2-plex construction, so the ET path
        # dominates the runtime (the headline bit-native comparison) and
        # the roundtrip's per-fire set conversion is quadratic in the
        # community size.
        ("plex-caveman", plex_caveman(12, 84, 4, seed=3), ("vbbmc-dgn",)),
        ("moon-moser", moon_moser(10), ("hbbmc++", "ebbmc++")),
        ("er-dense", erdos_renyi_gnm(150, 5600, seed=11), ("hbbmc++",)),
        ("er-gnp-dense", erdos_renyi_gnp(100, 0.55, seed=3),
         ("hbbmc++", "ebbmc++")),
        ("collab-communities",
         overlapping_communities(300, 24, 26, 1.6, 0.95, 150, seed=5),
         ("hbbmc++", "vbbmc-dgn")),
    ]


def _measure_config(g, algorithm: str, config: str, repeats: int):
    if config == "set":
        return measure(g, algorithm, repeats=repeats, backend="set")
    if config == "bitset-roundtrip":
        with et_implementation(bit_fire_plex_roundtrip):
            return measure(g, algorithm, repeats=repeats, backend="bitset")
    if config == "bitset-native":
        return measure(g, algorithm, repeats=repeats, backend="bitset")
    return measure(g, algorithm, repeats=repeats, backend="bitset",
                   bit_order="input")


def run(smoke: bool, repeats: int) -> dict:
    cells = []
    for family, g, algorithms in workloads(smoke):
        for algorithm in algorithms:
            seconds = {}
            cliques = None
            et_hits = None
            for config in CONFIGS:
                m = _measure_config(g, algorithm, config, repeats)
                seconds[config] = m.seconds
                if config == "bitset-native":
                    et_hits = m.counters.et_hits
                if cliques is None:
                    cliques = m.cliques
                elif cliques != m.cliques:
                    raise AssertionError(
                        f"{algorithm} on {family}: configs disagree "
                        f"({cliques} vs {m.cliques} cliques under {config})"
                    )
            native = seconds["bitset-native"]
            vs_roundtrip = seconds["bitset-roundtrip"] / native if native else 0.0
            vs_set = seconds["set"] / native if native else 0.0
            cells.append({
                "family": family,
                "n": g.n,
                "m": g.m,
                "algorithm": algorithm,
                "cliques": cliques,
                "et_hits": et_hits,
                "set_seconds": round(seconds["set"], 6),
                "bitset_roundtrip_seconds": round(seconds["bitset-roundtrip"], 6),
                "bitset_native_seconds": round(native, 6),
                "bitset_native_input_order_seconds":
                    round(seconds["bitset-native-input"], 6),
                "native_vs_roundtrip": round(vs_roundtrip, 3),
                "native_vs_set": round(vs_set, 3),
            })
            print(f"{family:18s} {algorithm:10s} set={seconds['set']:8.3f}s  "
                  f"rt={seconds['bitset-roundtrip']:8.3f}s  "
                  f"native={native:8.3f}s  vs-rt={vs_roundtrip:5.2f}x  "
                  f"vs-set={vs_set:5.2f}x")
    return {
        "experiment": "et-bitset",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "smoke": smoke,
        "repeats": repeats,
        "default_bit_order": DEFAULT_BIT_ORDER,
        "cells": cells,
        "max_native_vs_roundtrip": max(c["native_vs_roundtrip"] for c in cells),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="tiny graphs, one repeat (CI smoke mode)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="timing repeats per cell (keep the fastest)")
    parser.add_argument("--out", default=None,
                        help="output JSON path (default: BENCH_et_bitset.json "
                             "at the repo root; /tmp scratch in --smoke mode)")
    args = parser.parse_args(argv)

    repeats = args.repeats if args.repeats is not None else (1 if args.smoke else 5)
    results = run(args.smoke, repeats)

    if args.out:
        out = pathlib.Path(args.out)
    elif args.smoke:
        out = pathlib.Path("/tmp/BENCH_et_bitset_smoke.json")
    else:
        out = pathlib.Path(__file__).parent.parent / "BENCH_et_bitset.json"
    out.write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {out} (max bit-native vs roundtrip "
          f"{results['max_native_vs_roundtrip']:.2f}x)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
