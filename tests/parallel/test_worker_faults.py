"""Fault injection for the worker pool: every case ends, and cleanly.

Each case, and each cleanup, runs on a helper thread joined with a
timeout (no test-timeout plugin is assumed), so a regression to a
hanging pool fails the case instead of stalling the suite.  A case must end in the reference result
or in :class:`WorkerPoolError`, and leave no child process behind once
the pool is closed.  A :class:`WorkerPoolError` ends its request only:
the next one runs on fresh workers.

Faults are injected deterministically: a patched ``_solve_chunk`` (the
workers fork from this process, so they inherit the patch) or a
poisoned graph state acts in a worker process, or in a
one-shot caller's own task, and only while it can claim a flag file
(``"x"`` mode is the atomic claim), so the number of faults is exact
however the tasks land on the workers.
"""

import io
import json
import multiprocessing
import os
import signal
import threading
import time

import pytest

from repro.api import count_maximal_cliques, maximal_cliques
from repro.config import RunConfig
from repro.exceptions import WorkerPoolError
from repro.graph.generators import ba_heavy_hub, erdos_renyi_gnm
from repro.parallel import CountAggregator, GraphState, WorkerPool, decompose
from repro.parallel import pool as pool_module
from repro.parallel.scheduler import make_chunks
from repro.service import CliqueService, serve_stdio

#: every case must end within this many seconds.
BOUND = 30.0

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="faults are injected through state inherited by fork",
)


@pytest.fixture(scope="module")
def graph():
    return erdos_renyi_gnm(60, 800, seed=11)


@pytest.fixture(scope="module")
def reference(graph):
    return maximal_cliques(graph, backend="set")


def bounded(fn, seconds=BOUND):
    """Run ``fn`` on a helper thread; its result, or its exception."""
    box = {}

    def run():
        try:
            box["value"] = fn()
        except BaseException as exc:  # re-raised on the calling thread
            box["error"] = exc

    thread = threading.Thread(target=run, daemon=True)
    start = time.monotonic()
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"still running after {seconds:.0f}s"
    assert time.monotonic() - start < seconds
    if "error" in box:
        raise box["error"]
    return box.get("value")


def wait_until(condition, seconds=BOUND):
    """Poll ``condition`` until it holds or ``seconds`` have passed."""
    deadline = time.monotonic() + seconds
    while not condition() and time.monotonic() < deadline:
        time.sleep(0.005)


def claim(flag):
    """Whether this call is the first to claim ``flag``."""
    try:
        open(flag, "x").close()
    except FileExistsError:
        return False
    return True


@pytest.fixture
def inject(monkeypatch, tmp_path):
    """Patch ``_solve_chunk`` to fault in a worker on chunk 0.

    ``inject(kills=k)`` SIGKILLs the worker starting chunk 0, the first
    ``k`` times; ``inject(raises=True)`` raises ``ValueError`` there
    once.  ``inject(kills=k, steal=True)`` fires on chunk 0 of a steal
    request only, its largest chunk.  The calling process's own calls
    are never touched: a one-shot caller solves tasks too, and a fault
    aimed at a task it takes never fires.  Returns a function telling how
    many faults fired.
    """
    parent = os.getpid()

    def install(kills=0, raises=False, steal=False):
        flags = [tmp_path / f"kill{i}" for i in range(kills)]
        real = pool_module._solve_chunk

        def solve(graph_state, config, chunk, mode, context=None):
            if os.getpid() != parent and chunk.index == 0 \
                    and (config.steal or not steal):
                if any(claim(flag) for flag in flags):
                    os.kill(os.getpid(), signal.SIGKILL)
                if raises and claim(tmp_path / "raised"):
                    raise ValueError("injected worker failure")
            return real(graph_state, config, chunk, mode, context)

        monkeypatch.setattr(pool_module, "_solve_chunk", solve)
        return lambda: sum(f.exists() for f in tmp_path.iterdir())

    return install


def assert_no_children():
    assert multiprocessing.active_children() == []


class TestWorkerKilledMidChunk:
    def test_warm_service_count_reruns_the_lost_task(self, graph, reference,
                                                     inject):
        fired = inject(kills=1)
        service = CliqueService(n_jobs=2)
        try:
            service.register(graph, name="g")
            first = bounded(lambda: service.count("g", backend="bitset"))
            assert first["count"] == len(reference)
            assert fired() == 1
            stats = service.stats()
            assert stats["pool_respawns"] == 1
            assert stats["pool_spinups"] == 1
            # The replacement serves the next request warm.
            second = bounded(lambda: service.count("g", backend="bitset"))
            assert second["count"] == len(reference) and second["warm"]
            assert service.stats()["pool_respawns"] == 1
        finally:
            bounded(service.close)
        assert_no_children()

    def test_one_shot_enumeration_reruns_the_lost_task(self, graph,
                                                       reference, inject):
        fired = inject(kills=1)
        cliques = bounded(lambda: maximal_cliques(graph, n_jobs=2))
        assert cliques == reference
        assert fired() == 1
        assert_no_children()

    def test_same_task_lost_twice_raises(self, graph, inject):
        fired = inject(kills=2)
        with pytest.raises(WorkerPoolError, match="lost to two worker"):
            bounded(lambda: count_maximal_cliques(graph, n_jobs=2))
        assert fired() == 2
        assert_no_children()

    def test_warm_service_after_double_loss_refuses_cleanly(self, graph,
                                                            reference,
                                                            inject):
        inject(kills=2)
        service = CliqueService(n_jobs=2)
        try:
            service.register(graph, name="g")
            with pytest.raises(WorkerPoolError):
                bounded(lambda: service.count("g"))
            assert not service.stats()["pool_live"]
            # The error ended the request, not the service: the next one
            # starts fresh workers.
            result = bounded(lambda: service.count("g"))
            assert result["count"] == len(reference)
            stats = service.stats()
            assert stats["pool_spinups"] == 2 and stats["pool_live"]
        finally:
            bounded(service.close)
        assert_no_children()

    def test_stdio_server_answers_every_line_after_the_loss(self, graph,
                                                            reference,
                                                            inject):
        inject(kills=2)
        register = {"op": "register", "name": "g", "n": graph.n,
                    "edges": [list(e) for e in graph.edges()]}
        count = {"op": "count", "graph": "g"}
        lines = [register, count, count, {"op": "ping"}]
        stdin = io.StringIO("".join(json.dumps(r) + "\n" for r in lines))
        stdout = io.StringIO()
        service = CliqueService(n_jobs=2)
        try:
            assert bounded(lambda: serve_stdio(service, stdin=stdin,
                                               stdout=stdout)) == 0
        finally:
            bounded(service.close)
        assert_no_children()
        responses = [json.loads(line)
                     for line in stdout.getvalue().splitlines()]
        assert [r["ok"] for r in responses] == [True, False, True, True]
        assert "lost to two worker deaths" in responses[1]["error"]
        assert responses[2]["count"] == len(reference)


class TestCallerShare:
    """A one-shot caller solves its share of the tasks in-process.

    Its own task cannot be killed, so each fault that needs a worker
    process aims at one: with two chunks the worker takes chunk 0 off the
    front of the queue and the caller chunk 1 off its back, and under
    ``steal=True`` the worker's first task is chunk 0, the largest.
    Where the order of the two sides matters, the worker's task waits on
    a flag file the caller writes.
    """

    @pytest.fixture
    def caller_raises(self, monkeypatch, tmp_path):
        """Patch ``_solve_chunk`` to raise ``ValueError`` in the caller,
        once.  A worker starts its chunk only after that, so the caller
        surely takes a task and the worker's reply is still in flight."""
        parent = os.getpid()
        raised = tmp_path / "raised"
        real = pool_module._solve_chunk

        def solve(graph_state, config, task, mode, context=None):
            if os.getpid() != parent:
                wait_until(raised.exists)
            elif claim(raised):
                raise ValueError("injected caller failure")
            return real(graph_state, config, task, mode, context)

        monkeypatch.setattr(pool_module, "_solve_chunk", solve)

    def test_caller_failure_keeps_its_type_and_the_next_call_answers(
            self, graph, reference, caller_raises):
        with pytest.raises(ValueError, match="injected caller failure"):
            bounded(lambda: maximal_cliques(graph, n_jobs=2))
        assert_no_children()
        assert bounded(lambda: maximal_cliques(graph, n_jobs=2)) == reference
        assert_no_children()

    def test_caller_failure_drains_the_worker_reply(self, graph, reference,
                                                    caller_raises):
        # The pool keeps its worker process past the failed submit, so a
        # reply left in that worker's pipe would be read by the next one.
        decomposition = decompose(graph)
        state = GraphState(graph=graph, order=decomposition.order,
                           position=decomposition.position)
        config = RunConfig(algorithm="hbbmc++", options={"backend": "set"})
        pool = WorkerPool(2)

        def count(n_chunks):
            chunks = make_chunks(decomposition.subproblems, n_chunks)
            aggregator = CountAggregator()
            aggregator.start(len(decomposition.subproblems))
            pool.submit("g", state, config, chunks, aggregator.accept,
                        mode="count")
            return aggregator.finish()

        try:
            with pytest.raises(ValueError, match="injected caller failure"):
                bounded(lambda: count(2))
            (worker,) = pool._workers
            assert not worker.conn.poll(1.0)
            # A different packing: a stale chunk-0 reply would not fit it.
            assert bounded(lambda: count(3)) == len(reference)
            assert pool.spinups == 1 and pool.respawns == 0
        finally:
            bounded(pool.close)
        assert_no_children()

    def test_worker_killed_while_the_caller_solves(self, graph, reference,
                                                   inject, monkeypatch,
                                                   spawns, tmp_path_factory):
        fired = inject(kills=1)
        parent = os.getpid()
        started = tmp_path_factory.mktemp("caller") / "started"
        solve = pool_module._solve_chunk  # kills the worker on chunk 0
        caller_done = []

        def ordered(graph_state, config, task, mode, context=None):
            if os.getpid() != parent:
                # The worker dies only once the caller is in its own task.
                wait_until(started.exists)
                return solve(graph_state, config, task, mode, context)
            started.touch()
            wait_until(lambda: fired() == 1
                       and not multiprocessing.active_children())
            result = solve(graph_state, config, task, mode, context)
            caller_done.append(time.monotonic())
            return result

        monkeypatch.setattr(pool_module, "_solve_chunk", ordered)
        cliques = bounded(lambda: maximal_cliques(graph, n_jobs=2))
        assert cliques == reference
        assert fired() == 1
        # One task for the caller; the replacement starts after it ends
        # and reruns the lost chunk.
        assert len(caller_done) == 1
        assert len(spawns) == 2 and spawns[1] >= caller_done[0]
        assert_no_children()

    def test_one_shot_steal_reruns_a_killed_chunk(self, inject, spawns):
        hub = ba_heavy_hub(200, 3, hub_parts=4, hub_part_size=3, seed=7)
        want = count_maximal_cliques(hub, backend="set")
        fired = inject(kills=1, steal=True)
        got = bounded(lambda: count_maximal_cliques(hub, n_jobs=2,
                                                    steal=True))
        assert got == want
        assert fired() == 1
        assert len(spawns) == 2
        assert_no_children()


class TestWorkerKilledMidStealChunk:
    def test_steal_count_reruns_the_lost_chunk(self, inject):
        hub = ba_heavy_hub(200, 3, hub_parts=4, hub_part_size=3, seed=7)
        fired = inject(kills=1, steal=True)
        service = CliqueService(n_jobs=2)
        try:
            service.register(hub, name="hub")
            static = bounded(lambda: service.count("hub"))
            assert fired() == 0
            stolen = bounded(lambda: service.count("hub", steal=True))
            assert stolen["count"] == static["count"]
            assert fired() == 1
            assert service.stats()["pool_respawns"] == 1
        finally:
            bounded(service.close)
        assert_no_children()


class TestWorkerDiedIdle:
    def test_dead_idle_worker_is_replaced_before_the_next_request(
            self, graph, reference):
        service = CliqueService(n_jobs=2)
        try:
            service.register(graph, name="g")
            assert service.count("g")["count"] == len(reference)
            victim = multiprocessing.active_children()[0]
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(BOUND)
            result = bounded(lambda: service.count("g"))
            assert result["count"] == len(reference)
            assert service.stats()["pool_respawns"] == 1
        finally:
            bounded(service.close)
        assert_no_children()


class TestWorkerRaises:
    def test_exception_keeps_its_type_and_the_pool_stays_warm(
            self, graph, reference, inject):
        inject(raises=True)
        service = CliqueService(n_jobs=2)
        try:
            service.register(graph, name="g")
            with pytest.raises(ValueError,
                               match="injected worker failure") as raised:
                bounded(lambda: service.count("g"))
            # The worker's traceback rides along as a note.
            note = "".join(raised.value.__notes__)
            assert note.startswith("Traceback") and "in solve" in note
            result = bounded(lambda: service.count("g"))
            assert result["count"] == len(reference)
            stats = service.stats()
            assert stats["pool_spinups"] == 1
            assert stats["pool_respawns"] == 0
        finally:
            bounded(service.close)
        assert_no_children()


def _poison_unpickle(flag_path):
    """Unpickle hook: the first worker to load the state dies instantly.

    The flag file makes the kill exactly-once, so sibling workers
    proceed — the scenario is one dead worker, not a dying herd.
    ``os._exit`` skips all cleanup, the closest stand-in for a SIGKILLed
    worker.
    """
    if claim(flag_path):
        os._exit(1)
    return object()


class _PoisonState:
    """Pickles like a graph state; killing happens on worker-side load."""

    def __init__(self, flag_path):
        self.flag_path = flag_path

    def __reduce__(self):
        return (_poison_unpickle, (self.flag_path,))


class TestBroadcastHang:
    def test_worker_death_during_ship_raises_not_hangs(self, graph,
                                                       reference, tmp_path):
        # A worker that dies while a new graph state ships may have been
        # killed by the state itself, so the pool does not retry: the
        # submit surfaces WorkerPoolError within the bound instead of
        # parking the service lock forever, and stops its workers.
        decomposition = decompose(graph)
        state = GraphState(graph=graph, order=decomposition.order,
                           position=decomposition.position)
        chunks = make_chunks(decomposition.subproblems, 4)
        config = RunConfig(algorithm="hbbmc++", options={"backend": "set"})
        poison = _PoisonState(str(tmp_path / "killed"))
        pool = WorkerPool(2, warm=True)
        try:
            with pytest.raises(WorkerPoolError):
                bounded(lambda: pool.submit("g", poison, config, chunks,
                                            lambda r: None, mode="count"))
            # Reuse with a good state runs on fresh workers.
            aggregator = CountAggregator()
            aggregator.start(len(decomposition.subproblems))
            bounded(lambda: pool.submit("g", state, config, chunks,
                                        aggregator.accept, mode="count"))
            assert aggregator.finish() == len(reference)
            assert pool.spinups == 2
        finally:
            bounded(pool.close)
        assert_no_children()
