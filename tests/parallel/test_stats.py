"""ParallelStats work accounting: per-chunk CPU, work_ratio, regression.

``work_ratio`` lives on :class:`ParallelStats` (one tested implementation;
``benchmarks/bench_parallel_scaling.py`` reuses it instead of recomputing
from cell dicts) — these tests pin its arithmetic, the per-chunk CPU
bookkeeping it is derived from, and where duplicates go: the X-aware
subproblems prune them inside the recursion, while ``reverse-search``,
which cannot seed an exclusion set, filters them afterwards.
"""

import math

import pytest

from repro.graph.generators import erdos_renyi_gnm
from repro.parallel import CountAggregator, ParallelStats, run_parallel


def _run(g, *, n_jobs=1, algorithm="hbbmc++", **options):
    aggregator = CountAggregator()
    stats = ParallelStats()
    counters = run_parallel(g, aggregator, algorithm=algorithm,
                            n_jobs=n_jobs, stats=stats, **options)
    return aggregator.finish(), counters, stats


class TestPerChunkCpuAccounting:
    def test_every_chunk_records_cpu(self):
        g = erdos_renyi_gnm(40, 300, seed=3)
        _count, _counters, stats = _run(g, n_jobs=1, steal=True)
        assert stats.n_chunks >= 2
        assert sorted(stats.chunk_cpu_seconds) == list(range(stats.n_chunks))
        assert all(cpu >= 0.0 for cpu in stats.chunk_cpu_seconds.values())

    def test_totals_derive_from_chunks(self):
        g = erdos_renyi_gnm(40, 300, seed=3)
        _count, _counters, stats = _run(g, n_jobs=1, steal=True)
        chunk_cpu = stats.chunk_cpu_seconds.values()
        assert stats.total_cpu_seconds == pytest.approx(
            stats.decompose_seconds + sum(chunk_cpu))
        assert stats.critical_path_seconds == pytest.approx(
            stats.decompose_seconds + max(chunk_cpu))
        assert stats.critical_path_seconds <= stats.total_cpu_seconds


class TestWorkRatio:
    def test_ratio_arithmetic(self):
        stats = ParallelStats(decompose_seconds=0.5,
                              chunk_cpu_seconds={0: 1.0, 1: 1.5})
        assert stats.total_cpu_seconds == pytest.approx(3.0)
        assert stats.work_ratio(2.0) == pytest.approx(1.5)
        assert stats.work_ratio(3.0) == pytest.approx(1.0)

    def test_non_positive_serial_time_is_nan(self):
        # A non-positive serial baseline means the ratio is undefined —
        # nan (not a fake 0.0) so downstream reports render it as n/a
        # instead of an impossibly perfect overhead figure.
        stats = ParallelStats(chunk_cpu_seconds={0: 1.0})
        assert math.isnan(stats.work_ratio(0.0))
        assert math.isnan(stats.work_ratio(-1.0))

    def test_empty_run_is_zero_cpu(self):
        stats = ParallelStats()
        assert stats.total_cpu_seconds == 0.0
        assert stats.critical_path_seconds == 0.0
        assert stats.work_ratio(1.0) == 0.0


class TestTimeline:
    def test_run_records_one_event_per_chunk(self):
        g = erdos_renyi_gnm(30, 200, seed=5)
        _count, _counters, stats = _run(g, n_jobs=2)
        assert len(stats.timeline) == stats.n_chunks
        assert {e.chunk_id for e in stats.timeline} == \
            set(range(stats.n_chunks))
        for event in stats.timeline:
            assert event.worker_id
            assert event.end >= event.start
            assert event.cpu_seconds == pytest.approx(
                stats.chunk_cpu_seconds[event.chunk_id])
            assert event.counters["emitted"] >= 0


class TestDuplicateAccounting:
    """Where the decomposition's duplicated candidates are accounted.

    Pinned on the dense fixed-seed workload the decomposition targets
    (duplication there is what motivated the X threading).
    """

    GRAPH = erdos_renyi_gnm(60, 900, seed=7)

    @pytest.mark.parametrize("backend", ["set", "bitset"])
    @pytest.mark.parametrize("algorithm", ["hbbmc++", "bk-pivot"])
    def test_x_aware_never_suppresses_candidates(self, algorithm, backend):
        _count, counters, _ = _run(self.GRAPH, algorithm=algorithm,
                                   backend=backend)
        assert counters.suppressed_candidates == 0

    def test_filtering_path_suppresses_duplicates(self):
        count, counters, _ = _run(self.GRAPH, algorithm="reverse-search")
        assert counters.suppressed_candidates > 0
        assert count == _run(self.GRAPH)[0]
