"""Property tests: the set and bitset backends are observationally equal.

For every generator family and every algorithm both backends must emit
*identical* sorted clique lists and agree on ``Counters.emitted`` — the
bitset backend is a pure representation change, never an algorithmic one.
"""

import pytest

from repro.api import enumerate_to_sink, maximal_cliques
from repro.core.result import CliqueCollector
from repro.graph.generators import (
    barabasi_albert,
    erdos_renyi_gnm,
    erdos_renyi_gnp,
    planted_cliques,
    ring_of_cliques,
)

ALGORITHMS_UNDER_TEST = ["hbbmc++", "ebbmc++", "bk-pivot"]

#: bitset options by test id: "bitset" packs in its default (degeneracy)
#: order, "bitset-input" in the identity order.
MASK_OPTIONS = {
    "bitset": {"backend": "bitset"},
    "bitset-input": {"backend": "bitset", "bit_order": "input"},
}
MASK_BACKENDS = list(MASK_OPTIONS)


def _generator_cases():
    cases = []
    for seed in (1, 2, 3):
        cases.append((f"erdos-renyi-gnm-{seed}",
                      erdos_renyi_gnm(60, 700, seed=seed)))
        cases.append((f"erdos-renyi-gnp-{seed}",
                      erdos_renyi_gnp(50, 0.3, seed=seed)))
        cases.append((f"barabasi-albert-{seed}",
                      barabasi_albert(70, 6, seed=seed)))
        cases.append((f"planted-cliques-{seed}",
                      planted_cliques(45, 3, 7, 90, seed=seed)))
    cases.append(("ring-of-cliques", ring_of_cliques(7, 5)))
    return cases


GENERATOR_CASES = _generator_cases()


@pytest.mark.parametrize("algorithm", ALGORITHMS_UNDER_TEST)
@pytest.mark.parametrize(
    "graph", [g for _, g in GENERATOR_CASES],
    ids=[name for name, _ in GENERATOR_CASES],
)
def test_backends_emit_identical_cliques(graph, algorithm):
    set_collector = CliqueCollector()
    set_counters = enumerate_to_sink(
        graph, set_collector, algorithm=algorithm, backend="set"
    )
    assert set_counters.emitted == len(set_collector.cliques)
    for backend in MASK_BACKENDS:
        collector = CliqueCollector()
        counters = enumerate_to_sink(
            graph, collector, algorithm=algorithm, **MASK_OPTIONS[backend]
        )
        assert collector.sorted_cliques() == set_collector.sorted_cliques()
        assert counters.emitted == set_counters.emitted
        assert counters.emitted == len(collector.cliques)


@pytest.mark.parametrize("backend", MASK_BACKENDS)
@pytest.mark.parametrize("algorithm", ALGORITHMS_UNDER_TEST)
def test_backends_match_on_edge_depth_sweep(algorithm, backend):
    """Deeper edge branching exercises the recursive mask edge engines."""
    g = erdos_renyi_gnm(45, 350, seed=9)
    options = MASK_OPTIONS[backend]
    reference = maximal_cliques(g, algorithm=algorithm, backend="set")
    assert maximal_cliques(g, algorithm=algorithm, **options) == reference
    if algorithm.startswith("hbbmc"):
        for depth in (2, 3, None):
            assert maximal_cliques(
                g, algorithm=algorithm, **options, edge_depth=depth
            ) == reference


@pytest.mark.parametrize("backend", MASK_BACKENDS)
@pytest.mark.parametrize("et_threshold", [0, 1, 2, 3])
def test_backends_match_across_et_thresholds(et_threshold, backend):
    g = erdos_renyi_gnm(50, 450, seed=4)
    a = maximal_cliques(g, algorithm="hbbmc++", backend="set",
                        et_threshold=et_threshold)
    b = maximal_cliques(g, algorithm="hbbmc++", **MASK_OPTIONS[backend],
                        et_threshold=et_threshold)
    assert a == b
