"""Fault injection for the worker pool: every case ends, and cleanly.

Each case, and each cleanup, runs on a helper thread joined with a
timeout (no test-timeout plugin is assumed), so a regression to a
hanging pool fails the case instead of stalling the suite.  A case must end in the reference result
or in :class:`WorkerPoolError`, and leave no child process behind once
the pool is closed.

Faults are injected deterministically: a patched ``_solve_chunk`` (the
workers fork from this process, so they inherit the patch) or a poisoned
graph state acts in a worker process only, and only while it can claim a
flag file (``"x"`` mode is the atomic claim), so the number of faults is
exact however the tasks land on the workers.
"""

import multiprocessing
import os
import signal
import threading
import time

import pytest

from repro.api import count_maximal_cliques, maximal_cliques
from repro.config import RunConfig
from repro.exceptions import WorkerPoolError
from repro.graph.generators import erdos_renyi_gnm
from repro.parallel import GraphState, WorkerPool, decompose
from repro.parallel import pool as pool_module
from repro.parallel.scheduler import make_chunks
from repro.service import CliqueService

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
    return maximal_cliques(graph)


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
    once.  The parent's own (inline) calls are never touched.  Returns a
    function telling how many faults fired.
    """
    parent = os.getpid()
    real = pool_module._solve_chunk

    def install(kills=0, raises=False):
        flags = [tmp_path / f"kill{i}" for i in range(kills)]

        def solve(graph_state, config, chunk, mode, context=None):
            if os.getpid() != parent and chunk.index == 0:
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
                                                            inject):
        inject(kills=2)
        service = CliqueService(n_jobs=2)
        try:
            service.register(graph, name="g")
            with pytest.raises(WorkerPoolError):
                bounded(lambda: service.count("g"))
            assert not service.stats()["pool_live"]
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
                                                       tmp_path):
        # A worker that dies while a new graph state ships may have been
        # killed by the state itself, so the pool does not retry: the
        # submit surfaces WorkerPoolError within the bound instead of
        # parking the service lock forever, and the pool closes.
        decomposition = decompose(graph)
        state = GraphState(graph=graph, order=decomposition.order,
                           position=decomposition.position)
        chunks = make_chunks(decomposition.subproblems, 4)
        config = RunConfig(algorithm="hbbmc++", options={})
        poison = _PoisonState(str(tmp_path / "killed"))
        pool = WorkerPool(2, warm=True)
        try:
            with pytest.raises(WorkerPoolError):
                bounded(lambda: pool.submit("g", poison, config, chunks,
                                            lambda r: None, mode="count"))
            # The pool closed itself: reuse fails loudly, not silently.
            with pytest.raises(RuntimeError):
                pool.submit("g", state, config, chunks, lambda r: None,
                            mode="count")
        finally:
            bounded(pool.close)
        assert_no_children()
