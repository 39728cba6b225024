"""Every collect-mode tier ships canonical runs; the parent merges them as is.

The parent never re-canonicalises a worker's cliques.
``CollectAggregator.finish`` concatenates the per-position payloads and,
for a canonical result, sorts that concatenation once.  That is correct
only if every payload is canonical: each clique ascending, the list
sorted.  This suite pins that precondition on every tier:

* the in-place tier, on ``set`` and on ``bitset`` under the degeneracy,
  input and an explicit packing;
* the edge family (``ebbmc++``), whose edge engine runs in place too,
  on ``set`` and ``bitset``;
* the enumerate-then-filter tier of ``reverse-search``, which cannot seed
  an exclusion set;
* lone roots (no later neighbour);
* steal chunks, whose per-position payloads are the static chunks'
  own, for the vertex phase and the edge engine.

End to end, for ``n_jobs`` 1 and 2, ``maximal_cliques`` equals the serial
list, and with ``sort=False`` it equals the position-order concatenation
of the payloads.
"""

import random

import pytest

from repro.api import maximal_cliques
from repro.config import RunConfig
from repro.graph.adjacency import Graph
from repro.graph.builders import disjoint_union
from repro.graph.generators import (
    ba_heavy_hub,
    erdos_renyi_gnm,
    ring_of_cliques,
)
from repro.parallel import GraphState
from repro.parallel.decompose import decompose
from repro.parallel.pool import _solve_chunk
from repro.parallel.scheduler import make_chunks, plan_steal_schedule

#: a dense part, cliques sharing vertices, and three isolated vertices
#: (lone roots that emit themselves).
GRAPH = disjoint_union(erdos_renyi_gnm(36, 240, seed=3),
                       ring_of_cliques(4, 4), Graph(3))
PERMUTATION = list(range(GRAPH.n))
random.Random(5).shuffle(PERMUTATION)
#: a graph with one dominant subproblem.
HUB = ba_heavy_hub(200, 3, hub_parts=4, hub_part_size=3, seed=7)

#: test id -> (algorithm, options)
TIERS = {
    "in-place-set": ("hbbmc++", {"backend": "set"}),
    "in-place-bitset": ("hbbmc++", {"backend": "bitset"}),
    "in-place-bitset-input": (
        "hbbmc++", {"backend": "bitset", "bit_order": "input"}),
    "in-place-bitset-explicit": (
        "hbbmc++", {"backend": "bitset", "bit_order": PERMUTATION}),
    "edge-family": ("ebbmc++", {"backend": "bitset"}),
    "edge-family-set": ("ebbmc++", {"backend": "set"}),
    "reverse-search": ("reverse-search", {}),
}


def _is_canonical(cliques):
    return all(list(c) == sorted(c) for c in cliques) \
        and cliques == sorted(cliques)


def _payloads(graph, algorithm, options):
    """Each position's collect payload, from chunks as the pool runs them."""
    decomposition = decompose(graph)
    state = GraphState(graph=graph, order=decomposition.order,
                       position=decomposition.position)
    config = RunConfig(algorithm=algorithm, options=options)
    payloads = {}
    for chunk in make_chunks(decomposition.subproblems, 3):
        payloads.update(_solve_chunk(state, config, chunk, "collect").items)
    return [payloads[p] for p in range(graph.n)], decomposition


@pytest.fixture(scope="module")
def serial():
    return maximal_cliques(GRAPH, backend="set")


@pytest.fixture(scope="module", params=list(TIERS))
def tier(request):
    """``(algorithm, options, payloads, decomposition)``."""
    algorithm, options = TIERS[request.param]
    return (algorithm, options, *_payloads(GRAPH, algorithm, options))


def test_every_payload_is_canonical(tier):
    *_, payloads, decomposition = tier
    assert sum(map(len, payloads)) > 0
    for position, payload in enumerate(payloads):
        assert _is_canonical(payload), position
    order, position = decomposition.order, decomposition.position
    lone = [p for p, v in enumerate(order)
            if all(position[w] < p for w in GRAPH.adj[v])]
    assert any(payloads[p] for p in lone), \
        "the graph's isolated vertices are lone roots that emit"
    for p in lone:
        assert payloads[p] in ([], [(order[p],)])


@pytest.mark.parametrize("n_jobs", [1, 2])
def test_merge_takes_the_runs_as_they_come(tier, n_jobs, serial):
    algorithm, options, payloads, _ = tier
    kwargs = dict(algorithm=algorithm, n_jobs=n_jobs, **options)
    assert maximal_cliques(GRAPH, **kwargs) == serial
    assert maximal_cliques(GRAPH, sort=False, **kwargs) == \
        [clique for payload in payloads for clique in payload]


@pytest.mark.parametrize("backend", ["set", "bitset"])
@pytest.mark.parametrize("algorithm", ["hbbmc++", "ebbmc++"])
def test_steal_chunks_ship_the_static_payloads(algorithm, backend):
    # Steal packs the same subproblems into other chunks; each position's
    # payload must not depend on which chunk solved it.
    options = {"backend": backend}
    static, decomposition = _payloads(HUB, algorithm, options)
    state = GraphState(graph=HUB, order=decomposition.order,
                       position=decomposition.position)
    config = RunConfig(algorithm=algorithm, options=options)
    chunks = plan_steal_schedule(decomposition.subproblems, 2)
    assert len(chunks) == 8
    stolen = {}
    for chunk in chunks:
        stolen.update(_solve_chunk(state, config, chunk, "collect").items)
    assert [stolen[p] for p in range(HUB.n)] == static


@pytest.mark.parametrize("n_jobs", [1, 2])
def test_steal_merge_takes_the_runs_as_they_come(n_jobs):
    payloads, _ = _payloads(HUB, "hbbmc++", {"backend": "bitset"})
    kwargs = dict(n_jobs=n_jobs, steal=True, backend="bitset")
    assert maximal_cliques(HUB, **kwargs) == maximal_cliques(HUB,
                                                             backend="set")
    assert maximal_cliques(HUB, sort=False, **kwargs) == \
        [clique for payload in payloads for clique in payload]
