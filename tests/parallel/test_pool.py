"""Unit tests for the worker-pool driver and its validation surface."""

import multiprocessing
import os
import time

import pytest

from repro.api import count_maximal_cliques, enumerate_to_sink, maximal_cliques
from repro.config import RunConfig
from repro.core import phases
from repro.core.counters import Counters
from repro.core.result import CliqueCollector
from repro.exceptions import InvalidParameterError
from repro.graph.adjacency import Graph
from repro.graph.bitadj import BitGraph
from repro.graph.generators import ba_heavy_hub, erdos_renyi_gnm
from repro.obs import Tracer
from repro.parallel import (
    CollectAggregator,
    CountAggregator,
    GraphState,
    ParallelStats,
    WorkerPool,
    parse_jobs,
    run_parallel,
    validate_n_jobs,
)
from repro.parallel.decompose import decompose, solve_subproblem
from repro.parallel.pool import _solve_chunk
from repro.parallel.scheduler import STEAL_CHUNK_FACTOR, make_chunks
from repro.service import CliqueService


@pytest.fixture(scope="module")
def graph():
    return erdos_renyi_gnm(50, 400, seed=6)


@pytest.fixture(scope="module")
def reference(graph):
    return maximal_cliques(graph, backend="set")


class TestValidation:
    @pytest.mark.parametrize("bad", [0, -1, -7, 2.5, "3", None, True, False])
    def test_validate_n_jobs_rejects(self, bad):
        with pytest.raises(InvalidParameterError):
            validate_n_jobs(bad)

    def test_validate_n_jobs_accepts(self):
        assert validate_n_jobs(1) == 1
        assert validate_n_jobs(8) == 8

    @pytest.mark.parametrize("bad", ["0", "-2", "two", "", "1.5"])
    def test_parse_jobs_rejects(self, bad):
        with pytest.raises(InvalidParameterError) as excinfo:
            parse_jobs(bad)
        assert "--jobs" in str(excinfo.value)

    def test_parse_jobs_accepts(self):
        assert parse_jobs("4") == 4

    def test_bad_algorithm_fails_before_pool(self, graph):
        with pytest.raises(Exception) as excinfo:
            maximal_cliques(graph, algorithm="nope", n_jobs=2)
        assert "nope" in str(excinfo.value)

    def test_bad_backend_fails_before_pool(self, graph):
        for backend in ("nope", "words"):
            with pytest.raises(InvalidParameterError):
                maximal_cliques(graph, n_jobs=2, backend=backend)

    def test_bad_et_threshold_fails_before_pool(self, graph):
        with pytest.raises(InvalidParameterError):
            maximal_cliques(graph, n_jobs=2, et_threshold=9)

    def test_steal_requires_n_jobs(self, graph):
        with pytest.raises(InvalidParameterError, match="requires n_jobs"):
            maximal_cliques(graph, steal=True)
        with pytest.raises(InvalidParameterError, match="requires n_jobs"):
            count_maximal_cliques(graph, steal=False)

    def test_explicit_bit_order_permutation_accepted(self, graph, reference):
        # Regression: the option dry run used to bind the permutation to
        # its empty dry-run graph, spuriously rejecting every valid one.
        permutation = list(reversed(range(graph.n)))
        assert maximal_cliques(graph, n_jobs=2, backend="bitset",
                               bit_order=permutation) == reference

    def test_invalid_bit_order_permutation_fails_before_pool(self, graph):
        with pytest.raises(InvalidParameterError):
            maximal_cliques(graph, n_jobs=2, backend="bitset",
                            bit_order=[0, 1])  # wrong length
        with pytest.raises(InvalidParameterError):
            maximal_cliques(graph, n_jobs=2, backend="bitset",
                            bit_order=[0] * graph.n)  # not a permutation
        with pytest.raises(InvalidParameterError):
            maximal_cliques(graph, n_jobs=2, backend="bitset",
                            bit_order=["a", "b"])  # not vertex ids
        # 5.0 == 5 and True == 1 pass a sorted-equals-range test, and a
        # non-iterable or mixed-type order used to raise a raw TypeError
        # on the serial path; all are rejected, serially and in the pool.
        last = graph.n - 1
        for bad in (list(range(last)) + [float(last)],
                    [0, True] + list(range(2, graph.n)),
                    5, ["a"] + list(range(1, graph.n))):
            for n_jobs in (None, 1, 2):
                with pytest.raises(InvalidParameterError):
                    maximal_cliques(graph, n_jobs=n_jobs, backend="bitset",
                                    bit_order=bad)

    def test_bit_order_permutation_still_needs_bitset(self, graph):
        with pytest.raises(InvalidParameterError):
            maximal_cliques(graph, n_jobs=2, backend="set",
                            bit_order=list(range(graph.n)))


class TestRunParallel:
    def test_counters_account_for_every_clique(self, graph, reference):
        agg = CollectAggregator()
        counters = run_parallel(graph, agg, algorithm="hbbmc++", n_jobs=2)
        cliques = agg.finish()
        assert counters.emitted == len(cliques) == len(reference)
        assert counters.total_calls > 0

    def test_inline_and_pool_agree(self, graph, reference):
        for n_jobs in (1, 3):
            agg = CollectAggregator()
            run_parallel(graph, agg, algorithm="hbbmc++", n_jobs=n_jobs)
            assert sorted(agg.finish()) == reference

    def test_steal_oversubscription(self, graph, reference):
        agg = CollectAggregator()
        stats = ParallelStats()
        run_parallel(graph, agg, algorithm="hbbmc++", n_jobs=2,
                     steal=True, stats=stats)
        assert sorted(agg.finish()) == reference
        assert stats.n_chunks == 2 * STEAL_CHUNK_FACTOR

    def test_stats_filled(self, graph):
        stats = ParallelStats()
        run_parallel(graph, CountAggregator(), algorithm="hbbmc++",
                     n_jobs=2, stats=stats)
        assert stats.n_jobs == 2
        assert stats.n_subproblems == graph.n
        assert stats.n_chunks == 2
        assert 0.0 < stats.balance_ratio <= 1.0
        assert len(stats.chunk_cpu_seconds) == 2
        assert sum(stats.chunk_sizes) == graph.n
        assert stats.start_method in ("fork", "spawn", "forkserver")


def _graph_state(graph):
    decomposition = decompose(graph)
    state = GraphState(graph=graph, order=decomposition.order,
                       position=decomposition.position)
    return state, decomposition


class TestWorkerPool:
    """The reusable pool: ship once, submit many, close once."""

    def _submit(self, pool, key, state, chunks, mode="count"):
        config = RunConfig(algorithm="hbbmc++", options={"backend": "set"})
        aggregator = CountAggregator()
        aggregator.start(sum(len(c.positions) for c in chunks))
        pool.submit(key, state, config, chunks, aggregator.accept, mode=mode)
        return aggregator.finish()

    def test_warm_pool_ships_each_graph_once(self, graph, reference):
        state, decomposition = _graph_state(graph)
        chunks = make_chunks(decomposition.subproblems, 4)
        with WorkerPool(2, warm=True) as pool:
            counts = [self._submit(pool, "g", state, chunks)
                      for _ in range(3)]
            assert counts == [len(reference)] * 3
            assert pool.spinups == 1
            assert pool.graph_ships == 1
            assert pool.is_live

    def test_second_graph_broadcasts_without_respawn(self, graph):
        state, decomposition = _graph_state(graph)
        chunks = make_chunks(decomposition.subproblems, 4)
        other = erdos_renyi_gnm(20, 60, seed=3)
        other_state, other_decomposition = _graph_state(other)
        other_chunks = make_chunks(other_decomposition.subproblems, 4)
        with WorkerPool(2, warm=True) as pool:
            self._submit(pool, "a", state, chunks)
            count = self._submit(pool, "b", other_state, other_chunks)
            assert count == len(maximal_cliques(other))
            assert pool.spinups == 1
            assert pool.graph_ships == 2

    def test_inline_pool_never_spawns(self, graph, reference):
        state, decomposition = _graph_state(graph)
        chunks = make_chunks(decomposition.subproblems, 4)
        with WorkerPool(1, warm=True) as pool:
            assert self._submit(pool, "g", state, chunks) == len(reference)
            assert pool.spinups == 0
            assert not pool.is_live
            assert pool.start_method == "inline"

    def test_one_shot_single_chunk_stays_inline(self, graph, reference):
        state, decomposition = _graph_state(graph)
        chunks = make_chunks(decomposition.subproblems, 1)
        with WorkerPool(2) as pool:
            assert self._submit(pool, "g", state, chunks) == len(reference)
            assert pool.spinups == 0

    def test_empty_chunks_is_a_no_op(self, graph):
        state, _ = _graph_state(graph)
        with WorkerPool(2, warm=True) as pool:
            assert self._submit(pool, "g", state, []) == 0
            assert pool.spinups == 0

    def test_shipped_states_recorded_for_respawned_workers(self, graph):
        # A worker respawned after a crash starts from the pool's state
        # dict (the fork snapshot, or its pickle) and so holds every graph
        # shipped so far: the dict must track each ship.
        state, decomposition = _graph_state(graph)
        chunks = make_chunks(decomposition.subproblems, 4)
        other = erdos_renyi_gnm(20, 60, seed=3)
        other_state, other_decomposition = _graph_state(other)
        other_chunks = make_chunks(other_decomposition.subproblems, 4)
        with WorkerPool(2, warm=True) as pool:
            self._submit(pool, "a", state, chunks)
            self._submit(pool, "b", other_state, other_chunks)
            assert set(pool._states) == {"a", "b"}

    def test_explicit_permutation_views_are_not_cached(self, graph,
                                                       reference):
        # A long-running service must not retain one BitGraph per
        # client-supplied permutation; only named orders are cached.
        state, _ = _graph_state(graph)
        permutation = list(reversed(range(graph.n)))
        state.bit_graph({"backend": "bitset", "bit_order": permutation})
        state.bit_graph({"backend": "bitset", "bit_order": "degeneracy"})
        assert list(state.bit_graphs) == ["degeneracy"]
        assert maximal_cliques(graph, n_jobs=2, backend="bitset",
                               bit_order=permutation) == reference

    def test_submit_after_close_raises(self, graph):
        state, decomposition = _graph_state(graph)
        chunks = make_chunks(decomposition.subproblems, 4)
        pool = WorkerPool(2, warm=True)
        pool.close()
        pool.close()  # idempotent
        with pytest.raises(RuntimeError):
            self._submit(pool, "g", state, chunks)


@pytest.fixture(scope="module")
def hub():
    return ba_heavy_hub(200, 3, hub_parts=4, hub_part_size=3, seed=7)


@pytest.fixture
def bit_packings(monkeypatch, tmp_path):
    """A function listing every ``BitGraph.from_graph`` call so far, as
    the packed graph's size.

    Forked workers inherit the wrapper and log their calls to a file, so
    the list covers every process: a worker must find the view the
    parent built, never pack the graph itself.
    """
    parent = os.getpid()
    log = tmp_path / "worker-packings"
    log.touch()
    real = BitGraph.from_graph
    calls = []

    def counting(cls, g, order=None):
        if os.getpid() == parent:
            calls.append(g.n)
        else:
            with open(log, "a") as f:
                f.write(f"{g.n}\n")
        return real(g, order)

    monkeypatch.setattr(BitGraph, "from_graph", classmethod(counting))
    return lambda: calls + [int(n) for n in log.read_text().split()]


class TestSetupCounts:
    """Setup runs per chunk and per run, not per subproblem."""

    @pytest.mark.parametrize("backend", ["set", "bitset"])
    @pytest.mark.parametrize("steal", [False, True])
    def test_one_engine_context_per_chunk(self, hub, monkeypatch, backend,
                                          steal):
        real = phases.make_context
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(phases, "make_context", counting)
        stats = ParallelStats()
        run_parallel(hub, CountAggregator(), algorithm="hbbmc++", n_jobs=1,
                     steal=steal, stats=stats, backend=backend)
        assert stats.n_subproblems > stats.n_chunks
        assert stats.n_chunks == (4 if steal else 1)
        assert len(calls) == stats.n_chunks

    @pytest.mark.parametrize("n_jobs", [1, 2])
    @pytest.mark.parametrize("steal", [False, True])
    def test_bit_view_packed_once_in_the_parent(self, hub, bit_packings,
                                                n_jobs, steal):
        count_maximal_cliques(hub, n_jobs=n_jobs, steal=steal,
                              backend="bitset")
        assert bit_packings() == [hub.n]

    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_explicit_bit_order_packed_once(self, hub, bit_packings,
                                            n_jobs):
        # Regression: client permutations are not cached on the state, so
        # every chunk used to rebuild the view.
        permutation = list(reversed(range(hub.n)))
        assert count_maximal_cliques(
            hub, n_jobs=n_jobs, steal=True, backend="bitset",
            bit_order=permutation) == count_maximal_cliques(hub,
                                                            backend="set")
        assert bit_packings() == [hub.n]

    def test_set_backend_never_packs(self, hub, bit_packings):
        for n_jobs in (1, 2):
            count_maximal_cliques(hub, n_jobs=n_jobs, steal=True,
                                  backend="set")
        assert bit_packings() == []


class TestRunnerCounters:
    """A chunk's counters are the sum of its subproblems' counters."""

    @pytest.mark.parametrize("mode", ["collect", "count"])
    @pytest.mark.parametrize("options", [
        {"backend": "set"},
        {"backend": "bitset"},
        {"backend": "bitset", "bit_order": "input"},
    ], ids=["set", "bitset", "bitset-input"])
    def test_chunk_counters_sum_subproblem_counters(self, graph, options,
                                                    mode):
        state, decomposition = _graph_state(graph)
        config = RunConfig(algorithm="hbbmc++", options=options)
        for chunk in make_chunks(decomposition.subproblems, 3):
            result = _solve_chunk(state, config, chunk, mode)
            total = Counters()
            for p, payload in result.items:
                alone, counters = solve_subproblem(
                    graph, state.position, state.order[p],
                    algorithm="hbbmc++", options=options, mode=mode)
                assert payload == alone
                total.merge(counters)
            assert result.counters == total.as_dict()
            assert total.emitted > 0


class TestMonotonicStamps:
    def test_solve_chunk_wall_survives_wall_clock_step(self, graph,
                                                       monkeypatch):
        # Regression: chunk stamps come from time.monotonic(); an NTP
        # step moving time.time() backwards mid-chunk used to yield
        # negative wall_seconds on the timeline.
        real = time.time()
        ticks = iter([real, real - 3600.0])
        monkeypatch.setattr(time, "time",
                            lambda: next(ticks, real - 3600.0))
        state, decomposition = _graph_state(graph)
        chunks = make_chunks(decomposition.subproblems, 1)
        config = RunConfig(algorithm="hbbmc++", options={"backend": "set"})
        result = _solve_chunk(state, config, chunks[0], "count")
        assert result.finished >= result.started

    def test_timeline_events_have_nonnegative_wall(self, graph):
        stats = ParallelStats()
        run_parallel(graph, CountAggregator(), algorithm="hbbmc++",
                     n_jobs=2, stats=stats)
        assert stats.timeline
        assert all(e.wall_seconds >= 0.0 for e in stats.timeline)


class TestStealMode:
    @pytest.fixture(scope="class")
    def hub_reference(self, hub):
        return maximal_cliques(hub, backend="set")

    def test_steal_matches_static(self, hub, hub_reference):
        agg = CollectAggregator()
        stats = ParallelStats()
        run_parallel(hub, agg, algorithm="hbbmc++", n_jobs=2, steal=True,
                     stats=stats)
        assert sorted(agg.finish()) == hub_reference
        assert stats.steal is True
        assert stats.steals > 0  # many small chunks, window of 2

    def test_steal_inline_matches(self, hub, hub_reference):
        agg = CollectAggregator()
        stats = ParallelStats()
        run_parallel(hub, agg, algorithm="hbbmc++", n_jobs=1, steal=True,
                     stats=stats)
        assert sorted(agg.finish()) == hub_reference
        assert stats.steals == 0  # inline path dispatches nothing

    def test_steal_count_mode(self, hub, hub_reference):
        agg = CountAggregator()
        run_parallel(hub, agg, algorithm="hbbmc++", n_jobs=2, steal=True)
        assert agg.finish() == len(hub_reference)

    @pytest.mark.parametrize("n_jobs", [1, 2])
    @pytest.mark.parametrize("entry", [count_maximal_cliques,
                                       maximal_cliques],
                             ids=["count", "collect"])
    def test_every_task_is_one_packed_chunk(self, hub, entry, n_jobs):
        tracer = Tracer("steal")
        entry(hub, n_jobs=n_jobs, steal=True, trace=tracer)
        children = tracer.to_dict()["children"]
        (pack,) = [c for c in children if c["name"] == "pack"]
        n_chunks = pack["attrs"]["n_chunks"]
        assert 0 < n_chunks <= STEAL_CHUNK_FACTOR * n_jobs
        tasks = [c for c in children if c["name"] not in
                 ("decompose", "pack", "ship", "execute", "merge")]
        assert [t["name"] for t in tasks] == ["chunk"] * n_chunks
        assert sorted(t["attrs"]["chunk_id"] for t in tasks) == \
            list(range(n_chunks))

    def test_steal_rejects_non_bool(self, hub):
        with pytest.raises(InvalidParameterError):
            run_parallel(hub, CountAggregator(), algorithm="hbbmc++",
                         n_jobs=2, steal="yes")

    def test_api_steal_requires_n_jobs(self, graph):
        with pytest.raises(InvalidParameterError):
            maximal_cliques(graph, steal=True)

    def test_api_steal_roundtrip(self, graph, reference):
        assert maximal_cliques(graph, n_jobs=2, steal=True) == reference
        assert count_maximal_cliques(graph, n_jobs=2,
                                     steal=True) == len(reference)

    def test_dynamic_dispatch_counts_steals(self, graph, reference):
        state, decomposition = _graph_state(graph)
        chunks = make_chunks(decomposition.subproblems, 8)
        config = RunConfig(algorithm="hbbmc++", options={"backend": "set"})
        with WorkerPool(2, warm=True) as pool:
            agg = CountAggregator()
            agg.start(sum(len(c.positions) for c in chunks))
            report = pool.submit("g", state, config, chunks, agg.accept,
                                 mode="count")
            assert agg.finish() == len(reference)
            # Window of 2 in flight; the other 6 are dynamic pulls.
            assert report.steals == len(chunks) - 2
            assert sum(report.steals_by_worker.values()) == report.steals


class TestApiIntegration:
    def test_enumerate_to_sink_streams_deterministically(self, graph):
        streams = []
        for _ in range(2):
            collector = CliqueCollector()
            enumerate_to_sink(graph, collector, n_jobs=2)
            streams.append(list(collector.cliques))
        assert streams[0] == streams[1]
        # Same stream as the in-process partitioned run.
        collector = CliqueCollector()
        enumerate_to_sink(graph, collector, n_jobs=1)
        assert collector.cliques == streams[0]

    def test_count_matches_collect(self, graph, reference):
        assert count_maximal_cliques(graph, n_jobs=2) == len(reference)

    def test_unsorted_output_is_position_ordered(self, graph):
        a = maximal_cliques(graph, sort=False, n_jobs=2)
        b = maximal_cliques(graph, sort=False, n_jobs=3)
        assert a == b

    def test_empty_graph(self):
        assert maximal_cliques(Graph(0), n_jobs=2) == []
        assert count_maximal_cliques(Graph(0), n_jobs=2) == 0

    def test_single_vertex(self):
        assert maximal_cliques(Graph(1), n_jobs=2) == [(0,)]
        assert count_maximal_cliques(Graph(1), n_jobs=2) == 1


class TestPoolThreadSafety:
    """Pinned regression for the unlocked WorkerPool spin-up.

    Before WorkerPool carried its own RLock, concurrent submits could
    both see ``_pool is None`` and spawn two process pools, leaking one.
    """

    def test_concurrent_ensure_pool_spins_up_once(self):
        import threading

        pool = WorkerPool(2, warm=True)
        try:
            n_threads = 4
            barrier = threading.Barrier(n_threads)
            seen, errors = [], []

            def work():
                try:
                    barrier.wait(timeout=10)
                    seen.append(pool._ensure_pool(2))
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            threads = [threading.Thread(target=work)
                       for _ in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(30)
            assert errors == []
            assert pool.spinups == 1
            assert len({id(p) for p in seen}) == 1
        finally:
            pool.close()


class TestProcessCount:
    """A one-shot caller is one of its n_jobs workers; a warm pool's
    caller is not."""

    @pytest.mark.parametrize("steal", [False, True])
    @pytest.mark.parametrize("n_jobs", [2, 3])
    def test_one_shot_starts_one_process_fewer_than_workers(
            self, graph, reference, spawns, n_jobs, steal):
        # min(n_jobs, tasks) - 1: this graph's runs have n_jobs tasks
        # (static) or more (steal).
        assert maximal_cliques(graph, n_jobs=n_jobs,
                               steal=steal) == reference
        assert len(spawns) == n_jobs - 1
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("n_jobs, steal, g", [
        (1, False, "graph"), (1, True, "graph"), (2, False, "single"),
        (3, True, "single"),
    ])
    def test_single_worker_runs_start_none(self, graph, spawns, n_jobs,
                                           steal, g):
        g = graph if g == "graph" else Graph(1)
        stats = ParallelStats()
        agg = CollectAggregator()
        run_parallel(g, agg, algorithm="hbbmc++", n_jobs=n_jobs,
                     steal=steal, stats=stats)
        assert sorted(agg.finish()) == maximal_cliques(g, backend="set")
        assert spawns == []
        assert stats.start_method == "inline"
        assert stats.steals == 0

    def test_warm_service_keeps_n_jobs_processes(self, graph, reference,
                                                 spawns):
        with CliqueService(n_jobs=2) as service:
            service.register(graph, name="g")
            assert service.count("g")["count"] == len(reference)
            assert len(spawns) == 2
            assert len(multiprocessing.active_children()) == 2
            stats = service.stats()
            assert stats["pool_spinups"] == 1
            assert stats["start_method"] in ("fork", "spawn")
        assert multiprocessing.active_children() == []
