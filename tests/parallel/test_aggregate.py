"""Unit tests for the deterministic result aggregators."""

import pytest

from repro.parallel.aggregate import (
    CallbackAggregator,
    ChunkResult,
    CollectAggregator,
    CountAggregator,
    count_payload,
)


def _collect_result(chunk_index, items, counters=None):
    return ChunkResult(chunk_index=chunk_index, items=items,
                       counters=counters or {}, cpu_seconds=0.5)


CLIQUES = {
    0: [(0, 1)],
    1: [(1, 2), (1, 3)],
    2: [],
    3: [(3, 4, 5)],
}


def _chunked(assignment):
    """Build chunk results from {chunk_index: [positions]}."""
    return [
        _collect_result(ci, [(p, CLIQUES[p]) for p in positions])
        for ci, positions in assignment.items()
    ]


class TestCallbackAggregator:
    @pytest.mark.parametrize("arrival", [
        [0, 1],      # in order
        [1, 0],      # reversed
    ])
    def test_stream_order_independent_of_arrival(self, arrival):
        results = _chunked({0: [0, 2], 1: [1, 3]})
        seen = []
        agg = CallbackAggregator(seen.append)
        agg.start(n_subproblems=4)
        for i in arrival:
            agg.accept(results[i])
        agg.finish()
        assert seen == [(0, 1), (1, 2), (1, 3), (3, 4, 5)]

    def test_streams_prefix_eagerly(self):
        seen = []
        agg = CallbackAggregator(seen.append)
        agg.start(n_subproblems=4)
        agg.accept(_collect_result(1, [(2, CLIQUES[2]), (3, CLIQUES[3])]))
        assert seen == []  # positions 0..1 still outstanding
        agg.accept(_collect_result(0, [(0, CLIQUES[0]), (1, CLIQUES[1])]))
        assert seen == [(0, 1), (1, 2), (1, 3), (3, 4, 5)]


class TestCollectAggregator:
    def test_merges_in_position_order(self):
        agg = CollectAggregator()
        agg.start(n_subproblems=4)
        for r in reversed(_chunked({0: [0, 3], 1: [1, 2]})):
            agg.accept(r)
        assert agg.finish() == [(0, 1), (1, 2), (1, 3), (3, 4, 5)]

    def test_canonical_finish_merges_the_sorted_runs(self):
        # Runs sorted within each position but interleaved across them.
        runs = {0: [(2, 3), (4, 6)], 1: [(0, 5)], 2: [(1, 4), (3, 7)]}
        agg = CollectAggregator()
        agg.start(n_subproblems=3)
        agg.accept(_collect_result(0, [(2, runs[2]), (0, runs[0])]))
        agg.accept(_collect_result(1, [(1, runs[1])]))
        assert agg.finish() == [(2, 3), (4, 6), (0, 5), (1, 4), (3, 7)]
        assert agg.finish(canonical=True) == \
            [(0, 5), (1, 4), (2, 3), (3, 7), (4, 6)]

    def test_counters_merged(self):
        agg = CollectAggregator()
        agg.start(n_subproblems=2)
        agg.accept(_collect_result(0, [(0, [])], {"vertex_calls": 3}))
        agg.accept(_collect_result(1, [(1, [])], {"vertex_calls": 4}))
        agg.finish()
        assert agg.counters.vertex_calls == 7
        assert agg.chunk_cpu_seconds == {0: 0.5, 1: 0.5}


class TestCountAggregator:
    def test_counts_without_cliques(self):
        agg = CountAggregator()
        agg.start(n_subproblems=4)
        for position, cliques in CLIQUES.items():
            agg.accept(ChunkResult(
                chunk_index=position,
                items=[(position, count_payload(cliques))],
            ))
        assert agg.finish() == 4
        assert agg.max_size == 3
        assert agg.total_vertices == 9

    def test_mode_flag(self):
        assert CountAggregator.mode == "count"
        assert CollectAggregator.mode == "collect"


class TestCompleteness:
    def test_finish_raises_on_missing_results(self):
        agg = CollectAggregator()
        agg.start(n_subproblems=3)
        agg.accept(_collect_result(0, [(0, [])]))
        with pytest.raises(RuntimeError, match="1 of 3"):
            agg.finish()

    def test_finish_passes_when_complete(self):
        agg = CountAggregator()
        agg.start(n_subproblems=1)
        agg.accept(ChunkResult(chunk_index=0, items=[(0, (2, 2, 4))]))
        assert agg.finish() == 2


class TestCountPayload:
    def test_triple(self):
        assert count_payload([(1, 2), (3, 4, 5)]) == (2, 3, 5)
        assert count_payload([]) == (0, 0, 0)
