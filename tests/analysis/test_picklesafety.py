"""The pickle-safety checker against good and bad fixture trees."""

from repro.analysis.checkers import picklesafety
from repro.analysis.config import LintConfig
from repro.analysis.index import ModuleIndex

# The fixture trees drive a pool API (``apply_async``/``map_async`` with
# parent-side ``callback=`` hooks), so they name its ship calls; the
# default configuration names the pipe ``send`` the live pool uses.
CONFIG = LintConfig(
    worker_packages=("workers",),
    pickle_roster=("workers.tasks:Task",),
    pickle_ship_methods=("apply_async", "map_async"),
    pickle_ship_exempt_kwargs=("callback", "error_callback"),
)


def _findings(fixtures, tree):
    index = ModuleIndex.build(fixtures / tree)
    return picklesafety.check(index, CONFIG)


class TestPickleBad:
    def test_opaque_field_flagged(self, fixtures):
        findings = _findings(fixtures, "pickle_bad")
        hits = [f for f in findings if "Task.payload" in f.message]
        assert len(hits) == 1
        assert "object" in hits[0].message
        assert hits[0].rel == "workers/tasks.py"

    def test_atom_field_not_flagged(self, fixtures):
        messages = [f.message for f in _findings(fixtures, "pickle_bad")]
        assert not any("Task.index" in m for m in messages)

    def test_shipped_closure_flagged(self, fixtures):
        findings = _findings(fixtures, "pickle_bad")
        hits = [f for f in findings if "_handler" in f.message]
        assert len(hits) == 1
        assert "apply_async()" in hits[0].message

    def test_shipped_lambda_flagged(self, fixtures):
        findings = _findings(fixtures, "pickle_bad")
        hits = [f for f in findings if "lambda" in f.message]
        assert len(hits) == 1
        assert "map_async()" in hits[0].message


class TestPickleGood:
    def test_clean_tree(self, fixtures):
        assert _findings(fixtures, "pickle_good") == []

    def test_callback_lambda_exempt(self, fixtures):
        # pickle_good ships a lambda in callback= — parent-side, exempt.
        assert _findings(fixtures, "pickle_good") == []


class TestDefaultConfig:
    """The live configuration: tasks and states travel by pipe ``send``."""

    def _tree(self, tmp_path, source):
        pkg = tmp_path / "repro" / "parallel"
        pkg.mkdir(parents=True)
        (tmp_path / "repro" / "__init__.py").write_text("")
        (pkg / "__init__.py").write_text("")
        (pkg / "pool.py").write_text(source)
        return picklesafety.check(ModuleIndex.build(tmp_path), LintConfig())

    def test_lambda_sent_down_a_pipe_flagged(self, tmp_path):
        findings = self._tree(tmp_path, (
            "def ship(conn, items):\n"
            "    conn.send((\"task\", lambda: items))\n"
        ))
        assert len(findings) == 1
        assert "send()" in findings[0].message

    def test_local_function_as_process_target_flagged(self, tmp_path):
        findings = self._tree(tmp_path, (
            "def spawn(ctx, conn):\n"
            "    def loop(c):\n"
            "        return c\n"
            "    return ctx.Process(target=loop, args=(conn,))\n"
        ))
        assert len(findings) == 1
        assert "Process(target=...)" in findings[0].message

    def test_module_level_target_and_plain_send_clean(self, tmp_path):
        assert self._tree(tmp_path, (
            "def loop(conn):\n"
            "    conn.send((True, None))\n"
            "def spawn(ctx, conn):\n"
            "    return ctx.Process(target=loop, args=(conn,), daemon=True)\n"
        )) == []
