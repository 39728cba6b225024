"""Helpers shared by the pytest-benchmark files."""

from __future__ import annotations

import pathlib
import sys

_SRC = pathlib.Path(__file__).parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.bench.experiments import BACKEND
from repro.bench.runner import measure
from repro.graph.generators import load_dataset


def run_cell(benchmark, dataset: str, algorithm: str, **options):
    """Benchmark one table cell on the tables' one backend; returns the
    measurement for assertions."""
    g = load_dataset(dataset)
    result = {}

    def once():
        result["m"] = measure(g, algorithm, backend=BACKEND, **options)

    benchmark.pedantic(once, rounds=1, iterations=1)
    return result["m"]


def check_count(expected_counts: dict, dataset: str, measurement) -> None:
    """All algorithms must agree on the number of maximal cliques."""
    previous = expected_counts.setdefault(dataset, measurement.cliques)
    assert previous == measurement.cliques, (
        f"{measurement.algorithm} found {measurement.cliques} cliques on "
        f"{dataset}, expected {previous}"
    )
