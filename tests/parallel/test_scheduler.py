"""Unit tests for the LPT chunk packing and the steal-mode plan."""

import random

import pytest

from repro.exceptions import InvalidParameterError
from repro.parallel.decompose import Subproblem
from repro.parallel.scheduler import (
    STEAL_CHUNK_FACTOR,
    Chunk,
    balance_ratio,
    chunk_summary,
    make_chunks,
    plan_steal_schedule,
    steal_chunk_count,
)


def _subs(costs):
    return [Subproblem(position=i, vertex=i, cost=c)
            for i, c in enumerate(costs)]


def _linear_scan_chunks(subproblems, n_chunks):
    """Reference LPT packing: a linear scan for the lightest chunk."""
    k = min(n_chunks, len(subproblems))
    loads = [0.0] * k
    members = [[] for _ in range(k)]
    for sub in sorted(subproblems, key=lambda s: (-s.cost, s.position)):
        target = min(range(k), key=lambda i: (loads[i], i))
        loads[target] += sub.cost
        members[target].append(sub.position)
    cost_of = {s.position: s.cost for s in subproblems}
    chunks = []
    for raw in members:
        if not raw:
            continue
        positions = tuple(sorted(raw))
        chunks.append(Chunk(index=len(chunks), positions=positions,
                            cost=sum(cost_of[p] for p in positions)))
    return chunks


class TestMakeChunks:
    @pytest.mark.parametrize("n_chunks", range(1, 9))
    def test_matches_linear_scan(self, n_chunks):
        # Ties (small integer costs), zero costs, fractional costs, and
        # fewer subproblems than chunks: 40 packings per chunk count.
        rng = random.Random(n_chunks)
        for _ in range(40):
            costs = [rng.choice((0.0, 0.0, 1.0, 1.0, 3.0, 4.0, 7.0))
                     if rng.random() < 0.7 else rng.uniform(0.0, 10.0)
                     for _ in range(rng.randrange(12))]
            subs = _subs(costs)
            assert make_chunks(subs, n_chunks) == \
                _linear_scan_chunks(subs, n_chunks)

    def test_exact_cover(self):
        subs = _subs([5, 1, 3, 2, 8, 1, 1, 4])
        chunks = make_chunks(subs, 3)
        covered = [p for c in chunks for p in c.positions]
        assert sorted(covered) == list(range(len(subs)))
        assert len(covered) == len(set(covered))
        assert all(c.positions == tuple(sorted(c.positions)) for c in chunks)
        assert [c.index for c in chunks] == list(range(len(chunks)))

    def test_deterministic(self):
        subs = _subs([3, 3, 3, 1, 1, 9])
        a = make_chunks(subs, 4)
        b = make_chunks(subs, 4)
        assert a == b

    def test_greedy_balances_skewed_costs(self):
        # One giant + many small: LPT must isolate the giant.
        subs = _subs([100] + [1] * 100)
        chunks = make_chunks(subs, 2)
        assert balance_ratio(chunks) == pytest.approx(1.0)

    def test_more_chunks_than_subproblems(self):
        subs = _subs([1, 2])
        chunks = make_chunks(subs, 8)
        assert 1 <= len(chunks) <= 2
        assert sorted(p for c in chunks for p in c.positions) == [0, 1]

    def test_zero_costs_leave_no_empty_chunk(self):
        chunks = make_chunks(_subs([0, 0, 0]), 3)
        assert [c.positions for c in chunks] == [(0, 1, 2)]

    def test_empty_input(self):
        assert make_chunks([], 4) == []

    def test_bad_chunk_count(self):
        with pytest.raises(InvalidParameterError):
            make_chunks(_subs([1]), 0)


class TestBalanceRatio:
    def test_empty_is_perfect(self):
        assert balance_ratio([]) == 1.0

    def test_even_chunks_are_perfect(self):
        chunks = make_chunks(_subs([2, 2, 2, 2]), 2)
        assert balance_ratio(chunks) == pytest.approx(1.0)

    def test_requested_count_is_the_denominator(self):
        # A two-way split delivered as one loaded chunk: scoring against
        # the *delivered* count would call that perfect.  Against the
        # requested count the schedule is what it is: ideal makespan
        # 101/2 over actual 101.
        chunks = [Chunk(index=0, positions=(0, 1), cost=101.0)]
        assert balance_ratio(chunks) == pytest.approx(1.0)
        assert balance_ratio(chunks, requested=2) == pytest.approx(
            (101 / 2) / 101)

    def test_requested_below_delivered_clamps_up(self):
        chunks = make_chunks(_subs([2, 2, 2, 2]), 4)
        assert balance_ratio(chunks, requested=1) == pytest.approx(
            balance_ratio(chunks))

    def test_chunk_summary_uses_requested(self):
        chunks = [Chunk(index=0, positions=(0, 1), cost=101.0)]
        summary = chunk_summary(chunks, requested=2)
        assert summary["balance_ratio"] == pytest.approx(
            round(balance_ratio(chunks, requested=2), 4))


class TestStealChunkCount:
    def test_oversubscribes_by_the_factor(self):
        assert steal_chunk_count(1000, 4) == 4 * STEAL_CHUNK_FACTOR

    def test_capped_by_subproblem_count(self):
        assert steal_chunk_count(3, 4) == 3

    def test_at_least_one(self):
        assert steal_chunk_count(1, 1) == 1


class TestPlanSteal:
    def test_covers_everything_once_biggest_first(self):
        subs = _subs([5, 1, 3, 2, 8, 1, 1, 4])
        chunks = plan_steal_schedule(subs, 2)
        covered = sorted(p for c in chunks for p in c.positions)
        assert covered == list(range(len(subs)))
        costs = [c.cost for c in chunks]
        assert costs == sorted(costs, reverse=True)
        assert [c.index for c in chunks] == list(range(len(chunks)))

    def test_packs_the_static_chunks_of_its_count(self):
        subs = _subs([random.Random(3).randint(1, 50) for _ in range(40)])
        chunks = plan_steal_schedule(subs, 2)
        assert len(chunks) == steal_chunk_count(len(subs), 2)
        assert sorted(c.positions for c in chunks) == sorted(
            c.positions for c in make_chunks(subs, len(chunks)))

    def test_no_subproblems_no_chunks(self):
        assert plan_steal_schedule([], 2) == []

    def test_deterministic(self):
        subs = _subs([3, 3, 3, 1, 1, 9, 2, 2])
        assert plan_steal_schedule(subs, 4) == plan_steal_schedule(subs, 4)
