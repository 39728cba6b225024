"""Property tests: the work-stealing schedule is observationally inert.

Steal mode changes *when and where* subproblems run — many small chunks,
dispatched dynamically, largest first — but never *what* is enumerated:
for every backend and worker count the canonical clique stream (and
therefore the fingerprint) must match the static schedule and the serial
run exactly, on a family with one dominant subproblem
(``ba_heavy_hub``: a single hub subproblem owns a planted Moon-Moser
pocket's entire clique stream).

Every subproblem is solved whole, by the same in-place runner, under
either schedule, so the counters must match too:

* the *full* counter set is identical across ``n_jobs`` within a fixed
  steal setting — scheduling is deterministic, so moving work between
  workers cannot change what was explored;
* the full counter set of a steal run equals the static run's at the
  same ``n_jobs``, on every backend, for counts and collects alike.
"""

import pytest

from repro.api import maximal_cliques
from repro.graph.generators import ba_heavy_hub
from repro.parallel import (
    CollectAggregator,
    CountAggregator,
    ParallelStats,
    run_parallel,
)
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
MODES = {"collect": CollectAggregator, "count": CountAggregator}


@pytest.fixture(scope="module")
def hub():
    return ba_heavy_hub(200, 3, hub_parts=4, hub_part_size=3, seed=7)


@pytest.fixture(scope="module")
def runs(hub):
    """(mode, backend, steal, n_jobs) -> (result, counters, stats) for the
    grid; a collect result is the sorted clique list, a count the count."""
    out = {}
    for mode, make_aggregator in MODES.items():
        for backend in BACKENDS:
            for steal in (False, True):
                for n_jobs in N_JOBS:
                    aggregator = make_aggregator()
                    stats = ParallelStats()
                    counters = run_parallel(
                        hub, aggregator, algorithm=ALGORITHM, n_jobs=n_jobs,
                        steal=steal, stats=stats, **BACKEND_OPTIONS[backend],
                    )
                    result = aggregator.finish()
                    if mode == "collect":
                        result = sorted(result)
                    out[(mode, backend, steal, n_jobs)] = (
                        result, counters, stats)
    return out


def test_fingerprints_identical_across_the_grid(hub, runs):
    reference = maximal_cliques(hub, backend="set")
    want = clique_fingerprint(reference)
    for key, (result, _, _) in runs.items():
        if key[0] == "count":
            assert result == len(reference), key
            continue
        assert result == reference, key
        assert clique_fingerprint(result) == want, key


def test_emitted_identical_across_the_grid(runs):
    emitted = {counters.emitted for _, counters, _ in runs.values()}
    assert len(emitted) == 1


def test_steal_cuts_more_chunks_than_static(runs):
    # The equalities below compare two schedules only while steal packs
    # the subproblems differently from static.
    for (mode, backend, steal, n_jobs), (_, _, stats) in runs.items():
        if steal:
            static = runs[(mode, backend, False, n_jobs)][2]
            assert stats.n_chunks == 4 * n_jobs > static.n_chunks


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("steal", [False, True])
def test_counters_deterministic_across_n_jobs(runs, backend, steal):
    baseline = runs[("collect", backend, steal, 1)][1].as_dict()
    for n_jobs in N_JOBS[1:]:
        assert runs[("collect", backend, steal, n_jobs)][1].as_dict() \
            == baseline


@pytest.mark.parametrize("n_jobs", N_JOBS)
@pytest.mark.parametrize("mode", list(MODES))
@pytest.mark.parametrize("backend", BACKENDS)
def test_steal_counters_equal_static(runs, backend, mode, n_jobs):
    static = runs[(mode, backend, False, n_jobs)][1]
    steal = runs[(mode, backend, True, n_jobs)][1]
    assert steal.as_dict() == static.as_dict()
    assert static.vertex_calls > 0
