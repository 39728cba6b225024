"""The scoped mypy --strict gate, when mypy is available.

The container used for local development does not ship mypy; CI does.
This test runs the exact configuration CI enforces (mypy.ini scopes the
strict check to config.py, protocol.py, scheduler.py, pool.py and the
analysis callgraph/cfg substrate) so a local run with mypy installed
reproduces the CI gate.
"""

from pathlib import Path

import pytest

mypy_api = pytest.importorskip("mypy.api")

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_strict_scope_passes():
    stdout, stderr, status = mypy_api.run(
        ["--config-file", str(REPO_ROOT / "mypy.ini")])
    assert status == 0, f"mypy --strict failed:\n{stdout}\n{stderr}"
