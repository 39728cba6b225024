"""One function per paper table/figure (see DESIGN.md section 5).

Every function accepts ``quick=True`` to run a reduced sweep (a subset of
datasets / algorithms) so the pytest-benchmark suite stays fast; the full
runs back EXPERIMENTS.md.

Every timed run of a table names :data:`BACKEND`, and the table's title
says so: a request that names no backend runs on a per-graph default, so
a table left to it would compare representations as well as algorithms.
"""

from __future__ import annotations

from typing import Callable

from repro.bench.reporting import ExperimentResult
from repro.bench.runner import Measurement, measure
from repro.graph.generators import (
    DATASET_NAMES,
    barabasi_albert,
    erdos_renyi_gnm,
    load_dataset,
    paper_stats,
)
from repro.graph.metrics import graph_stats, theoretical_complexities

QUICK_DATASETS = ("NA", "WE", "DB", "YO", "SK", "SO")
TABLE2_ALGORITHMS = ("hbbmc++", "rref", "rdegen", "rrcd", "rfac")
TABLE3_ALGORITHMS = ("hbbmc++", "hbbmc+", "rdegen", "ref++", "rcd++", "fac++")
TABLE6_ALGORITHMS = ("hbbmc++", "vbbmc-dgn", "hbbmc-dgn", "hbbmc-mdg")
FIGURE5_ALGORITHMS = ("hbbmc++", "rref", "rdegen", "rrcd", "rfac")

#: The one backend every timed run of a table takes.  ``set`` serves
#: every registered algorithm (``reverse-search`` has no bitmask engine)
#: and is the representation these tables were first measured on.
BACKEND = "set"


def _timed_title(title: str) -> str:
    """A timed table's title, naming the backend its runs take."""
    return f"{title} [backend={BACKEND}]"


def _datasets(quick: bool) -> tuple[str, ...]:
    return QUICK_DATASETS if quick else DATASET_NAMES


def table1(quick: bool = False) -> ExperimentResult:
    """Table I: dataset statistics, paper vs proxy."""
    result = ExperimentResult(
        "table1", "Dataset statistics (proxy vs paper)",
        ["Graph", "|V|", "|E|", "delta", "tau", "rho", "cond",
         "paper |V|", "paper |E|", "paper d", "paper tau", "paper rho"],
    )
    for name in _datasets(quick):
        g = load_dataset(name)
        s = graph_stats(g)
        p = paper_stats(name)
        result.add_row(
            name, s.n, s.m, s.degeneracy, s.tau, s.density,
            "Y" if s.satisfies_condition else "-",
            p.n, p.m, p.degeneracy, p.tau, p.density,
        )
    result.add_note(
        "cond = delta >= max(3, tau + 3 ln(rho)/ln 3) (Theorem 2); the paper "
        "reports 14/16 graphs satisfying it, with WE and DB failing — the "
        "proxies mirror that pattern."
    )
    return result


def _runtime_table(
    experiment_id: str,
    title: str,
    algorithms: tuple[str, ...],
    quick: bool,
) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id, _timed_title(title),
        ["Graph"] + list(algorithms) + ["#cliques", "winner"],
    )
    for name in _datasets(quick):
        g = load_dataset(name)
        runs = [measure(g, algo, backend=BACKEND) for algo in algorithms]
        counts = {r.cliques for r in runs}
        assert len(counts) == 1, f"algorithms disagree on {name}: {counts}"
        winner = min(runs, key=lambda r: r.seconds).algorithm
        result.add_row(name, *[r.seconds for r in runs], runs[0].cliques, winner)
    return result


def table2(quick: bool = False) -> ExperimentResult:
    """Table II: HBBMC++ vs the four graph-reduced baselines (seconds)."""
    result = _runtime_table(
        "table2", "Comparison with baselines (seconds)",
        TABLE2_ALGORITHMS, quick,
    )
    result.add_note(
        "Paper shape: HBBMC++ fastest on all 16 datasets (up to 4.4x). "
        "Under CPython the truss ordering and edge-branch setup carry a "
        "~5 us/edge interpreter cost that C++ amortises, so wall-clock "
        "margins shrink at proxy scale; the #Calls shapes (Tables IV/V) are "
        "the machine-independent check."
    )
    return result


def table3(quick: bool = False) -> ExperimentResult:
    """Table III: ablation and alternative hybrid implementations."""
    result = _runtime_table(
        "table3", "Ablation: full / no-ET / baselines / hybrid variants",
        TABLE3_ALGORITHMS, quick,
    )
    result.add_note(
        "HBBMC+ (no ET) isolates the hybrid framework contribution; "
        "Ref++/Rcd++/Fac++ swap the vertex phase below the edge level."
    )
    return result


def table4(quick: bool = False) -> ExperimentResult:
    """Table IV: depth d at which branching switches edge -> vertex."""
    result = ExperimentResult(
        "table4", _timed_title("Hybrid switch depth (time and #Calls)"),
        ["Graph", "d=1 time", "d=1 #calls", "d=2 time", "d=2 #calls",
         "d=3 time", "d=3 #calls"],
    )
    for name in _datasets(quick):
        g = load_dataset(name)
        cells: list = [name]
        for depth in (1, 2, 3):
            run = measure(g, "hbbmc++", edge_depth=depth, backend=BACKEND)
            cells.extend([run.seconds, run.counters.total_calls])
        result.add_row(*cells)
    result.add_note(
        "Paper shape: d = 1 minimises both time and calls; deeper edge "
        "branching loses pivot-based pruning and inflates both."
    )
    return result


def table5(quick: bool = False) -> ExperimentResult:
    """Table V: early-termination threshold t in {0, 1, 2, 3}."""
    result = ExperimentResult(
        "table5", _timed_title("Early termination: varying t"),
        ["Graph",
         "t=0 time", "t=0 #calls",
         "t=1 time", "t=1 #calls", "t=1 ratio",
         "t=2 time", "t=2 #calls", "t=2 ratio",
         "t=3 time", "t=3 #calls", "t=3 ratio"],
    )
    for name in _datasets(quick):
        g = load_dataset(name)
        cells: list = [name]
        for t in (0, 1, 2, 3):
            run = measure(g, "hbbmc++", et_threshold=t, backend=BACKEND)
            cells.extend([run.seconds, run.counters.vertex_calls])
            if t:
                cells.append(run.counters.et_ratio)
        result.add_row(*cells)
    result.add_note(
        "ratio = b0 / b: plex branches with empty exclusion over all plex "
        "branches (paper Table V); #calls are vertex-phase calls and drop "
        "monotonically with t."
    )
    return result


def table6(quick: bool = False) -> ExperimentResult:
    """Table VI: initial-branch orderings (truss vs degeneracy/min-degree)."""
    result = _runtime_table(
        "table6", "Effect of truss-based edge ordering (seconds)",
        TABLE6_ALGORITHMS, quick,
    )
    result.add_note(
        "HBBMC-dgn / HBBMC-mdg replace the truss order; VBBMC-dgn abandons "
        "edge branching entirely.  The truss order gives the smallest "
        "top-level instances (tau bound)."
    )
    return result


def table7(quick: bool = False) -> ExperimentResult:
    """Table VII: worst-case complexity terms per framework (log10)."""
    result = ExperimentResult(
        "table7", "Worst-case bounds evaluated on each dataset (log10 ops)",
        ["Graph", "BK", "BK_Pivot", "BK_Degree", "BK_Degen", "BK_Rcd",
         "BK_Fac", "EBBMC", "HBBMC"],
    )
    for name in _datasets(quick):
        stats = graph_stats(load_dataset(name))
        bounds = theoretical_complexities(stats)
        result.add_row(
            name,
            *[bounds[k] for k in ("BK", "BK_Pivot", "BK_Degree", "BK_Degen",
                                  "BK_Rcd", "BK_Fac", "EBBMC", "HBBMC")],
        )
    result.add_note(
        "Columns are log10 of the dominant worst-case term instantiated "
        "with each proxy's n, m, delta, tau, h; HBBMC's bound is the "
        "smallest wherever Theorem 2's condition holds."
    )
    return result


def figure5(
    variant: str,
    quick: bool = False,
    algorithms: tuple[str, ...] = FIGURE5_ALGORITHMS,
) -> ExperimentResult:
    """Figure 5: synthetic scalability (a/b: n sweep, c/d: density sweep)."""
    if variant not in ("a", "b", "c", "d"):
        raise ValueError(f"figure5 variant must be a/b/c/d, got {variant!r}")
    model = "ER" if variant in ("a", "c") else "BA"
    sweep_n = variant in ("a", "b")
    if sweep_n:
        points = [(n, 8) for n in ((1000, 4000) if quick
                                   else (1000, 2000, 4000, 8000))]
        label = "n"
    else:
        base_n = 1500 if quick else 2500
        points = [(base_n, rho) for rho in ((4, 12) if quick
                                            else (2, 4, 8, 12))]
        label = "rho"

    result = ExperimentResult(
        f"figure5{variant}",
        _timed_title(f"Figure 5({variant}): {model} model, varying {label}"),
        [label] + list(algorithms),
    )
    for n, rho in points:
        if model == "ER":
            g = erdos_renyi_gnm(n, rho * n, seed=42 + n + rho)
        else:
            g = barabasi_albert(n, max(1, rho), seed=42 + n + rho)
        runs = [measure(g, algo, backend=BACKEND) for algo in algorithms]
        counts = {r.cliques for r in runs}
        assert len(counts) == 1, f"disagreement at {label} point {(n, rho)}"
        result.add_row(n if sweep_n else rho, *[r.seconds for r in runs])
    result.add_note(
        f"Paper scale: n up to 10M, rho up to 40 (C++); proxy scale chosen "
        f"for CPython.  Shape checks: runtime grows with {label}; BA runs "
        "slower than ER at equal parameters (larger cliques)."
    )
    return result


EXPERIMENTS: dict[str, Callable[..., ExperimentResult]] = {
    "table1": table1,
    "table2": table2,
    "table3": table3,
    "table4": table4,
    "table5": table5,
    "table6": table6,
    "table7": table7,
    "figure5a": lambda quick=False: figure5("a", quick),
    "figure5b": lambda quick=False: figure5("b", quick),
    "figure5c": lambda quick=False: figure5("c", quick),
    "figure5d": lambda quick=False: figure5("d", quick),
}


def run_experiment(name: str, quick: bool = False) -> ExperimentResult:
    """Run one registered experiment by id (e.g. ``table2``)."""
    try:
        fn = EXPERIMENTS[name]
    except KeyError:
        raise KeyError(
            f"unknown experiment {name!r}; available: {', '.join(EXPERIMENTS)}"
        ) from None
    return fn(quick=quick)
