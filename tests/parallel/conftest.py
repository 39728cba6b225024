"""Fixtures shared by the pool suites."""

import time

import pytest

from repro.parallel import WorkerPool


@pytest.fixture
def spawns(monkeypatch):
    """The ``time.monotonic()`` start of every worker process any pool
    starts from here on, in order: its length is the process count."""
    started = []
    real = WorkerPool._spawn

    def counting(self):
        started.append(time.monotonic())
        return real(self)

    monkeypatch.setattr(WorkerPool, "_spawn", counting)
    return started
