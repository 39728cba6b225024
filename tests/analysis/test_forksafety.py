"""The fork-safety checker against good and bad fixture trees."""

from repro.analysis.checkers import forksafety
from repro.analysis.config import LintConfig
from repro.analysis.index import ModuleIndex

# The fixture trees start a ``multiprocessing.Pool``; the default
# configuration names the live pool's ``ctx.Process`` spawn instead.
CONFIG = LintConfig(
    worker_entry_module="workers.entry",
    worker_entry_functions=("run_task",),
    pool_spawn_function="PoolOwner._ensure_pool",
    pool_spawn_call="Pool",
)


def _findings(fixtures, tree):
    index = ModuleIndex.build(fixtures / tree)
    return forksafety.check(index, CONFIG)


class TestForkBad:
    def test_import_time_lock_flagged(self, fixtures):
        findings = _findings(fixtures, "fork_bad")
        hits = [f for f in findings if "threading.Lock" in f.message]
        assert len(hits) == 1
        assert hits[0].rel == "workers/state.py"
        assert "import time" in hits[0].message

    def test_wall_clock_on_worker_path_flagged(self, fixtures):
        findings = _findings(fixtures, "fork_bad")
        hits = [f for f in findings if "time.time()" in f.message]
        assert len(hits) == 2  # two call sites in run_task
        assert all("run_task" in f.message for f in hits)

    def test_setup_path_resource_flagged(self, fixtures):
        findings = _findings(fixtures, "fork_bad")
        hits = [f for f in findings if "socket.socket" in f.message]
        assert len(hits) == 1
        assert "before the Pool(...) spawn" in hits[0].message


class TestForkGood:
    def test_clean_tree(self, fixtures):
        assert _findings(fixtures, "fork_good") == []


class TestDefaultConfig:
    """The live configuration: ``WorkerPool._spawn`` and ``ctx.Process``."""

    def _tree(self, tmp_path, spawn_body):
        pkg = tmp_path / "repro" / "parallel"
        pkg.mkdir(parents=True)
        (tmp_path / "repro" / "__init__.py").write_text("")
        (pkg / "__init__.py").write_text("")
        (pkg / "pool.py").write_text(
            "import socket\n"
            "def _worker_loop(conn):\n"
            "    return conn\n"
            "class WorkerPool:\n"
            "    def _spawn(self, ctx):\n" + spawn_body)
        return forksafety.check(ModuleIndex.build(tmp_path), LintConfig())

    def test_socket_before_process_spawn_flagged(self, tmp_path):
        findings = self._tree(tmp_path, (
            "        probe = socket.socket()\n"
            "        probe.close()\n"
            "        return ctx.Process(target=_worker_loop)\n"
        ))
        assert len(findings) == 1
        assert "before the Process(...) spawn" in findings[0].message

    def test_socket_after_process_spawn_clean(self, tmp_path):
        assert self._tree(tmp_path, (
            "        process = ctx.Process(target=_worker_loop)\n"
            "        socket.socket().close()\n"
            "        return process\n"
        )) == []
