"""Trace validity over real ``n_jobs=2`` runs: one clock, one timeline.

Parent-side spans and the workers' chunk records share the monotonic
clock, so a trace tree reads as one timeline:

* no span has a negative duration;
* every span's interval lies inside its parent's, all the way down;
* the root's children come out as ``decompose``, ``pack``, ``ship``,
  ``execute``, then one chunk span per packed chunk, then ``merge``,
  last;
* every chunk interval lies inside the ``execute`` interval;
* every chunk carries its ``cpu_per_wall`` and its
  ``queue_wait_s``, both ``>= 0``, and its dispatch (start minus queue
  wait) lies inside ``execute`` too.

Checked for static and steal schedules, for counts and collects, on the
direct path and through :class:`repro.service.CliqueService`.  A collect
merges its runs in ``CollectAggregator.finish``, and that call lies
inside the ``merge`` span: the one sort is charged to it.
"""

import time

import pytest

from repro.api import count_maximal_cliques, maximal_cliques
from repro.graph.generators import ba_heavy_hub
from repro.obs import Tracer
from repro.parallel.aggregate import CollectAggregator
from repro.service import CliqueService

PIPELINE = ["decompose", "pack", "ship", "execute"]


@pytest.fixture(scope="module")
def graph():
    return ba_heavy_hub(200, 3, hub_parts=4, hub_part_size=3, seed=7)


@pytest.fixture(scope="module")
def service(graph):
    with CliqueService(n_jobs=2) as svc:
        svc.register(graph, name="g")
        yield svc


@pytest.fixture()
def finish_calls(monkeypatch):
    """``(start, end)`` monotonic stamps of every ``finish`` call."""
    calls = []
    finish = CollectAggregator.finish

    def spy(self, *args, **kwargs):
        start = time.monotonic()
        try:
            return finish(self, *args, **kwargs)
        finally:
            calls.append((start, time.monotonic()))

    monkeypatch.setattr(CollectAggregator, "finish", spy)
    return calls


def _end(node):
    return node["start"] + node["seconds"]


def _check_nesting(node):
    assert node["seconds"] >= 0.0, node["name"]
    for child in node["children"]:
        assert node["start"] <= child["start"], (node["name"], child["name"])
        assert _end(child) <= _end(node), (node["name"], child["name"])
        _check_nesting(child)


def _check(tree, steal):
    _check_nesting(tree)
    names = [child["name"] for child in tree["children"]]
    assert names[:4] == PIPELINE
    assert names[-1] == "merge"
    assert names.count("merge") == 1
    tasks = tree["children"][4:-1]
    pack = tree["children"][1]
    assert pack["attrs"]["steal"] is steal
    assert [t["name"] for t in tasks] == ["chunk"] * pack["attrs"]["n_chunks"]
    execute = tree["children"][3]
    for task in tasks:
        assert execute["start"] <= task["start"]
        assert _end(task) <= _end(execute)
        attrs = task["attrs"]
        assert attrs["cpu_per_wall"] >= 0.0
        assert attrs["queue_wait_s"] >= 0.0
        assert execute["start"] <= task["start"] - attrs["queue_wait_s"]
    assert isinstance(tree["attrs"]["epoch"], float)


def _check_finish_in_merge(tree, calls):
    merge = tree["children"][-1]
    (call,) = calls
    assert merge["start"] <= call[0]
    assert call[1] <= _end(merge)


@pytest.mark.parametrize("steal", [False, True])
def test_direct_trace_is_one_timeline(graph, steal):
    tracer = Tracer("count")
    count_maximal_cliques(graph, n_jobs=2, steal=steal, backend="bitset",
                          trace=tracer)
    _check(tracer.to_dict(), steal)


@pytest.mark.parametrize("steal", [False, True])
def test_service_trace_is_one_timeline(service, steal):
    result = service.count("g", steal=steal, backend="bitset", trace=True)
    _check(result["trace"], steal)


@pytest.mark.parametrize("sort", [True, False])
@pytest.mark.parametrize("steal", [False, True])
def test_direct_collect_sorts_inside_merge(graph, steal, sort, finish_calls):
    tracer = Tracer("enumerate")
    maximal_cliques(graph, n_jobs=2, steal=steal, sort=sort,
                    backend="bitset", trace=tracer)
    tree = tracer.to_dict()
    _check(tree, steal)
    _check_finish_in_merge(tree, finish_calls)


@pytest.mark.parametrize("op", ["enumerate", "fingerprint"])
@pytest.mark.parametrize("steal", [False, True])
def test_service_collect_merges_inside_merge(service, op, steal,
                                             finish_calls):
    result = getattr(service, op)("g", steal=steal, backend="bitset",
                                  trace=True)
    _check(result["trace"], steal)
    _check_finish_in_merge(result["trace"], finish_calls)
