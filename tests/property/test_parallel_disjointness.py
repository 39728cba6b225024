"""Property tests: X-aware subproblems partition the clique set exactly.

The X-set-aware decomposition promises more than equivalence: because
every subproblem seeds its exclusion set from the degeneracy order, the
per-subproblem clique streams must be *pairwise disjoint* (no clique is
enumerated — not even transiently — by two subproblems) and their union
must equal the serial result.  This is the structural invariant that
eliminates the duplicated-branch work; the tests here pin it directly at
the :func:`solve_subproblem` level and end to end through the pool, for
both execution tiers (in-place vertex phase for hbbmc++/bk-pivot, seeded
``initial_x`` framework run for ebbmc++).  ``reverse-search``'s filtering
tier is held to the same ownership after its filter.

All graphs come from seeded generators — no randomness at test time.
"""

import pytest

from repro.api import maximal_cliques
from repro.parallel.decompose import decompose, solve_subproblem
from repro.graph.generators import (
    barabasi_albert,
    erdos_renyi_gnm,
    ring_of_cliques,
)

ALGORITHMS_UNDER_TEST = ["hbbmc++", "ebbmc++", "bk-pivot"]
#: engine options by test id: "bitset" packs in its default (degeneracy)
#: order, "bitset-input" in the identity order, where emitted bits need no
#: translation back to vertex ids.
BACKEND_OPTIONS = {
    "set": {"backend": "set"},
    "bitset": {"backend": "bitset"},
    "bitset-input": {"backend": "bitset", "bit_order": "input"},
}
BACKENDS_UNDER_TEST = list(BACKEND_OPTIONS)
N_JOBS_UNDER_TEST = [1, 2, 4]

GENERATOR_CASES = [
    ("erdos-renyi", erdos_renyi_gnm(45, 320, seed=1)),
    ("barabasi-albert", barabasi_albert(50, 5, seed=2)),
    ("ring-of-cliques", ring_of_cliques(6, 4)),
]

_REFERENCE_CACHE: dict[str, list] = {}


def _reference(name, graph):
    if name not in _REFERENCE_CACHE:
        _REFERENCE_CACHE[name] = maximal_cliques(graph, backend="set")
    return _REFERENCE_CACHE[name]


def _streams(graph, algorithm, backend):
    """One canonical clique stream per subproblem, X-aware."""
    dec = decompose(graph)
    streams = []
    for sp in dec.subproblems:
        cliques, _counters = solve_subproblem(
            graph, dec.position, sp.vertex,
            algorithm=algorithm, options=BACKEND_OPTIONS[backend])
        streams.append(cliques)
    return streams


@pytest.mark.parametrize("backend", BACKENDS_UNDER_TEST)
@pytest.mark.parametrize("algorithm", ALGORITHMS_UNDER_TEST)
@pytest.mark.parametrize(
    "name,graph", GENERATOR_CASES, ids=[n for n, _ in GENERATOR_CASES])
def test_streams_pairwise_disjoint_and_complete(name, graph, algorithm, backend):
    streams = _streams(graph, algorithm, backend)
    combined = [clique for stream in streams for clique in stream]
    assert len(combined) == len(set(combined)), (
        "a clique was enumerated by two subproblems")
    assert sorted(combined) == _reference(name, graph)


@pytest.mark.parametrize("backend", BACKENDS_UNDER_TEST)
@pytest.mark.parametrize(
    "name,graph", GENERATOR_CASES, ids=[n for n, _ in GENERATOR_CASES])
def test_each_clique_owned_by_its_earliest_vertex(name, graph, backend):
    """The stream of subproblem v holds exactly the cliques rooted at v."""
    dec = decompose(graph)
    position = dec.position
    owner = {}
    for clique in _reference(name, graph):
        root = min(clique, key=lambda u: position[u])
        owner.setdefault(root, []).append(clique)
    for sp, stream in zip(dec.subproblems,
                          _streams(graph, "hbbmc++", backend)):
        assert stream == sorted(owner.get(sp.vertex, []))


@pytest.mark.parametrize(
    "name,graph", GENERATOR_CASES, ids=[n for n, _ in GENERATOR_CASES])
def test_filtering_tier_keeps_only_cliques_owned_by_the_root(name, graph):
    """``reverse-search`` cannot seed X: subproblem v enumerates
    G[later(v)] and drops what an earlier neighbour extends.  What it keeps
    must be exactly the cliques rooted at v, as on the X-aware tiers."""
    dec = decompose(graph)
    owner = {}
    for clique in _reference(name, graph):
        root = min(clique, key=lambda u: dec.position[u])
        owner.setdefault(root, []).append(clique)
    for sp in dec.subproblems:
        cliques, counters = solve_subproblem(
            graph, dec.position, sp.vertex,
            algorithm="reverse-search", options={})
        assert cliques == sorted(owner.get(sp.vertex, []))
        assert counters.emitted == len(cliques)


@pytest.mark.parametrize("n_jobs", N_JOBS_UNDER_TEST)
@pytest.mark.parametrize("backend", BACKENDS_UNDER_TEST)
@pytest.mark.parametrize("algorithm", ALGORITHMS_UNDER_TEST)
@pytest.mark.parametrize(
    "name,graph", GENERATOR_CASES, ids=[n for n, _ in GENERATOR_CASES])
def test_x_aware_pipeline_equals_serial(name, graph, algorithm, backend, n_jobs):
    options = BACKEND_OPTIONS[backend]
    serial = maximal_cliques(graph, algorithm=algorithm, **options)
    assert maximal_cliques(graph, algorithm=algorithm, **options,
                           n_jobs=n_jobs) == serial
