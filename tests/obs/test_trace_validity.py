"""Trace validity over real ``n_jobs=2`` runs: one clock, one timeline.

Parent-side spans and the workers' chunk and split records share the
monotonic clock, so a trace tree reads as one timeline:

* no span has a negative duration;
* the root's children come out as ``decompose``, ``pack``, ``ship``,
  ``execute``, then the chunk and split spans, then ``merge``;
* every chunk or split interval lies inside the ``execute`` interval.

Checked for static and steal schedules, on the direct path and through
:class:`repro.service.CliqueService`.
"""

import pytest

from repro.api import count_maximal_cliques
from repro.graph.generators import ba_heavy_hub
from repro.obs import Tracer
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


def _walk(node):
    yield node
    for child in node["children"]:
        yield from _walk(child)


def _check(tree, steal):
    for node in _walk(tree):
        assert node["seconds"] >= 0.0, node["name"]
    names = [child["name"] for child in tree["children"]]
    assert names[:4] == PIPELINE
    assert names[-1] == "merge"
    tasks = tree["children"][4:-1]
    assert tasks and {t["name"] for t in tasks} <= {"chunk", "split"}
    assert ("split" in names) == steal
    execute = tree["children"][3]
    end = execute["start"] + execute["seconds"]
    for task in tasks:
        assert execute["start"] <= task["start"]
        assert task["start"] + task["seconds"] <= end
    assert isinstance(tree["attrs"]["epoch"], float)


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
