"""Property tests: counting agrees with enumerating, on every path.

A count never builds the cliques it counts.  A serial run into a plain
:class:`CliqueCounter` hands the mask engines' bit tuples untranslated to
the counter, with graph reduction's suppression filter mapped into bit
space; a count-mode worker folds each in-place subproblem into a
``(count, max_size, total_vertices)`` triple.  Collect mode still builds,
translates and sorts every clique.  So for every registered algorithm,
backend, bit order (named or an explicit permutation), ``n_jobs`` and
steal setting the two modes must agree: on the count, on the serial run's
counters, and through the service.
"""

import random

import pytest

from repro.api import (
    ALGORITHMS,
    count_maximal_cliques,
    enumerate_to_sink,
    maximal_cliques,
)
from repro.core.result import CliqueCollector, CliqueCounter
from repro.graph import disjoint_union
from repro.graph.coreness import core_decomposition
from repro.graph.generators import erdos_renyi_gnm
from repro.service import CliqueService


def _graph():
    """A sparse part graph reduction peels, next to a dense ET-prone part.

    After reduction the sparse part still holds the edge (8, 11): the
    engine reports it as maximal and the suppression filter drops it, so
    under the degeneracy packing the bit-space filter is what decides.
    """
    return disjoint_union(erdos_renyi_gnm(16, 30, seed=12),
                          erdos_renyi_gnm(14, 70, seed=3))


GRAPH = _graph()

REFERENCE = maximal_cliques(GRAPH, algorithm="bk-pivot", backend="set")

#: Explicit permutations next to the two named packings: the peel order
#: itself (the dense core in the high bits, the reverse of "degeneracy")
#: and a seeded shuffle.  Under them bit ids and vertex ids disagree in
#: ways neither named order produces, and the bit-space suppression filter
#: and the untranslated count must still come out right.
PACKINGS = {
    "peel": list(core_decomposition(GRAPH).order),
    "shuffled": random.Random(5).sample(range(GRAPH.n), GRAPH.n),
}


def _configs(algorithm: str) -> list[dict]:
    if ALGORITHMS[algorithm].family == "reverse-search":
        return [{}]
    return [
        {"backend": "set"},
        {"backend": "bitset", "bit_order": "input"},
        {"backend": "bitset", "bit_order": "degeneracy"},
    ] + [{"backend": "bitset", "bit_order": order}
         for order in PACKINGS.values()]


def _label(value) -> str:
    """An option value's test id; an explicit packing goes by its name."""
    for name, order in PACKINGS.items():
        if value is order:
            return name
    return str(value)


CELLS = [(algorithm, options) for algorithm in sorted(ALGORITHMS)
         for options in _configs(algorithm)]
CELL_IDS = [f"{a}-{'-'.join(map(_label, o.values())) or 'default'}"
            for a, o in CELLS]

SCHEDULES = [{}, {"n_jobs": 1}, {"n_jobs": 2}, {"n_jobs": 2, "steal": True}]
SCHEDULE_IDS = ["serial", "jobs1", "jobs2", "jobs2-steal"]


@pytest.mark.parametrize("schedule", SCHEDULES, ids=SCHEDULE_IDS)
@pytest.mark.parametrize("algorithm, options", CELLS, ids=CELL_IDS)
def test_count_equals_len_of_collect(algorithm, options, schedule):
    cliques = maximal_cliques(GRAPH, algorithm=algorithm, **options,
                              **schedule)
    assert cliques == REFERENCE
    assert count_maximal_cliques(GRAPH, algorithm=algorithm, **options,
                                 **schedule) == len(cliques)


@pytest.mark.parametrize("algorithm, options", CELLS, ids=CELL_IDS)
def test_serial_counters_match(algorithm, options):
    counter = CliqueCounter()
    counted = enumerate_to_sink(GRAPH, counter, algorithm=algorithm,
                                **options)
    collector = CliqueCollector()
    collected = enumerate_to_sink(GRAPH, collector, algorithm=algorithm,
                                  **options)
    assert counted.as_dict() == collected.as_dict()
    assert counter.count == len(collector.cliques) == len(REFERENCE)
    assert counter.total_vertices == sum(map(len, collector.cliques))
    assert counter.max_size == max(map(len, collector.cliques))


@pytest.mark.parametrize("options", _configs("hbbmc++"),
                         ids=[f"{o['backend']}-{_label(o.get('bit_order', ''))}"
                              for o in _configs("hbbmc++")])
@pytest.mark.parametrize("algorithm", ["hbbmc++", "vbbmc-dgn"])
def test_reduction_suppresses_inside_the_engine(algorithm, options):
    counters = enumerate_to_sink(GRAPH, CliqueCounter(),
                                 algorithm=algorithm, **options)
    assert counters.suppressed_candidates > 0
    assert counters.emitted == len(REFERENCE)


@pytest.fixture(scope="module")
def service():
    with CliqueService(n_jobs=2) as svc:
        svc.register(GRAPH, name="g")
        yield svc


@pytest.mark.parametrize("steal", [False, True], ids=["static", "steal"])
@pytest.mark.parametrize("algorithm, options", CELLS, ids=CELL_IDS)
def test_service_count_equals_fingerprint_count(service, algorithm, options,
                                                steal):
    count = service.count("g", algorithm=algorithm, steal=steal, **options)
    fingerprint = service.fingerprint("g", algorithm=algorithm, steal=steal,
                                      **options)
    assert count["count"] == fingerprint["count"] == len(REFERENCE)
    assert count["max_clique_size"] == max(map(len, REFERENCE))
