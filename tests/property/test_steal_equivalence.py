"""Property tests: the work-stealing schedule is observationally inert.

Steal mode changes *when and where* subproblems run — many small chunks,
dynamic dispatch, cost outliers re-split at their own root — but never
*what* is enumerated: for every backend and worker count the canonical
clique stream (and therefore the fingerprint) must match the static
schedule and the serial run exactly, on the one family built to trigger
re-splitting (``ba_heavy_hub``: a single hub subproblem owns a planted
Moon-Moser pocket's entire clique stream).

Counter parity is asserted at the granularity the design guarantees:

* ``emitted`` is identical everywhere — every mode emits each clique
  exactly once.
* The *full* counter set is identical across ``n_jobs`` within a fixed
  steal setting — scheduling is deterministic, so moving work between
  workers cannot change what was explored.
* Across steal on/off the full counters legitimately differ once a
  re-split fires: the split level fans out every root candidate where
  the pivoted search would prune, trading bounded duplicate fan-out for
  per-branch parallelism.
"""

import pytest

from repro.api import maximal_cliques
from repro.graph.generators import ba_heavy_hub
from repro.parallel import CollectAggregator, ParallelStats, run_parallel
from repro.verify import clique_fingerprint

ALGORITHM = "hbbmc++"
#: engine options by grid key: "bitset" packs in its default (degeneracy)
#: order, "bitset-input" in the identity order.
BACKEND_OPTIONS = {
    "set": {"backend": "set"},
    "bitset": {"backend": "bitset"},
    "bitset-input": {"backend": "bitset", "bit_order": "input"},
}
BACKENDS = list(BACKEND_OPTIONS)
N_JOBS = [1, 2, 4]


@pytest.fixture(scope="module")
def hub():
    return ba_heavy_hub(200, 3, hub_parts=4, hub_part_size=3, seed=7)


@pytest.fixture(scope="module")
def runs(hub):
    """(backend, steal, n_jobs) -> (cliques, counters, stats) for the grid."""
    out = {}
    for backend in BACKENDS:
        for steal in (False, True):
            for n_jobs in N_JOBS:
                aggregator = CollectAggregator()
                stats = ParallelStats()
                counters = run_parallel(
                    hub, aggregator, algorithm=ALGORITHM, n_jobs=n_jobs,
                    steal=steal, stats=stats, **BACKEND_OPTIONS[backend],
                )
                out[(backend, steal, n_jobs)] = (
                    sorted(aggregator.finish()), counters, stats)
    return out


def test_resplit_actually_fires(runs):
    # The family exists to exercise the re-split path; if marking ever
    # stops firing here the rest of this module tests nothing.
    for backend in BACKENDS:
        for n_jobs in N_JOBS:
            stats = runs[(backend, True, n_jobs)][2]
            assert stats.resplit_subproblems >= 1
            assert stats.resplit_tasks > stats.resplit_subproblems


def test_fingerprints_identical_across_the_grid(hub, runs):
    reference = maximal_cliques(hub)
    want = clique_fingerprint(reference)
    for key, (cliques, _, _) in runs.items():
        assert cliques == reference, key
        assert clique_fingerprint(cliques) == want, key


def test_emitted_identical_across_the_grid(runs):
    emitted = {counters.emitted for _, counters, _ in runs.values()}
    assert len(emitted) == 1


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("steal", [False, True])
def test_counters_deterministic_across_n_jobs(runs, backend, steal):
    baseline = runs[(backend, steal, 1)][1].as_dict()
    for n_jobs in N_JOBS[1:]:
        assert runs[(backend, steal, n_jobs)][1].as_dict() == baseline
