"""Unit tests for the truss-based edge ordering."""

import json
import pathlib
import random

import pytest

from repro.exceptions import InvalidParameterError
from repro.graph.adjacency import Graph
from repro.graph.bitadj import BitGraph
from repro.graph.builders import complete_graph, cycle_graph, path_graph
from repro.graph.coreness import degeneracy
from repro.graph.generators import erdos_renyi_gnm, moon_moser
from repro.graph.generators.dataset_suite import _with_core, social_proxy
from repro.graph.generators.social import web_graph
from repro.graph.generators.structured import plex_caveman
from repro.graph.io import load_graph
from repro.graph.truss import (
    EdgeOrdering,
    candidate_size_bound,
    truss_edge_ordering,
    truss_number,
)

FIXTURES_DIR = pathlib.Path(__file__).parent.parent / "fixtures"
GOLDEN = json.loads((FIXTURES_DIR / "golden.json").read_text())


class TestOrderingBasics:
    def test_order_is_permutation_of_edges(self):
        g = erdos_renyi_gnm(20, 80, seed=0)
        ordering = truss_edge_ordering(g)
        assert sorted(ordering.order) == sorted(g.edges())
        assert len(ordering.rank) == g.m
        assert sorted(ordering.rank.values()) == list(range(g.m))

    def test_empty_graph(self):
        ordering = truss_edge_ordering(Graph(5))
        assert ordering.order == []
        assert ordering.tau == 0

    def test_triangle_free_tau_zero(self):
        assert truss_number(path_graph(10)) == 0
        assert truss_number(cycle_graph(9)) == 0

    def test_complete_graph_tau(self):
        # In K_n the first removed edge has n-2 common neighbours.
        assert truss_number(complete_graph(6)) == 4


class TestTauProperties:
    @pytest.mark.parametrize("seed", range(6))
    def test_tau_strictly_below_degeneracy_on_triangle_graphs(self, seed):
        """Paper Section III-B: tau < delta (when the graph has edges)."""
        g = erdos_renyi_gnm(40, 220, seed=seed)
        if g.m == 0:
            pytest.skip("no edges")
        assert truss_number(g) < max(degeneracy(g), 1) or truss_number(g) == 0

    def test_tau_equals_candidate_size_bound(self):
        """tau is exactly the max top-level instance size under the order."""
        for seed in range(4):
            g = erdos_renyi_gnm(25, 140, seed=seed)
            ordering = truss_edge_ordering(g)
            assert ordering.tau == candidate_size_bound(g, ordering.rank)

    def test_moon_moser(self):
        g = moon_moser(3)
        # Every edge of K_{3,3,3} has 4 common neighbours initially; the
        # peel does even better because supports drop as edges leave.
        ordering = truss_edge_ordering(g)
        assert ordering.tau == candidate_size_bound(g, ordering.rank)
        assert ordering.tau < degeneracy(g) == 6


class TestGreedyInvariant:
    def test_prefix_supports_bounded_by_tau(self):
        """When edge e is processed, its remaining support is <= tau."""
        g = erdos_renyi_gnm(20, 100, seed=3)
        ordering = truss_edge_ordering(g)
        rank = ordering.rank
        for (u, v), r in rank.items():
            remaining = 0
            for w in g.common_neighbors(u, v):
                ra = rank[(u, w) if u < w else (w, u)]
                rb = rank[(v, w) if v < w else (w, v)]
                if ra > r and rb > r:
                    remaining += 1
            assert remaining <= ordering.tau


def _reference_truss_edge_ordering(g: Graph) -> EdgeOrdering:
    """The earlier flat-key peel, kept verbatim as the reference.

    Its order fixes every tie-break downstream: the engine counter pins,
    the bit-edge differential suite and the benchmark's exact counters.
    """
    n = g.n
    adj = [set(nbrs) for nbrs in g.adj]  # mutable working copy
    edges = list(g.edges())
    edge_ids: dict[int, int] = {}
    support: list[int] = []
    for i, (u, v) in enumerate(edges):
        edge_ids[u * n + v] = i
        support.append(len(adj[u] & adj[v]))

    max_support = max(support, default=0)
    buckets: list[list[int]] = [[] for _ in range(max_support + 1)]
    for i, s in enumerate(support):
        buckets[s].append(i)

    alive = [True] * len(edges)
    order = []
    rank = {}
    tau = 0
    current = 0

    for _ in range(len(edges)):
        # Lazy bucket queue: entries go stale when supports drop; skip them.
        while True:
            while current <= max_support and not buckets[current]:
                current += 1
            i = buckets[current].pop()
            if alive[i] and support[i] == current:
                break
        alive[i] = False
        u, v = e = edges[i]
        if current > tau:
            tau = current
        rank[e] = len(order)
        order.append(e)
        # Removing (u, v) kills one triangle per remaining common neighbour,
        # lowering the support of the two other edges of each triangle.
        for w in adj[u] & adj[v]:
            for key in (
                u * n + w if u < w else w * n + u,
                v * n + w if v < w else w * n + v,
            ):
                j = edge_ids[key]
                if alive[j]:
                    s = support[j] = support[j] - 1
                    buckets[s].append(j)
                    if s < current:
                        current = s
        adj[u].discard(v)
        adj[v].discard(u)

    return EdgeOrdering(order=order, rank=rank, tau=tau, kind="truss")


def _assert_same_peel(g: Graph) -> None:
    got = truss_edge_ordering(g)
    want = _reference_truss_edge_ordering(g)
    assert got.order == want.order
    assert got.rank == want.rank
    assert got.tau == want.tau


def _benchmark_seed(seed: int, name: str) -> int:
    """Per-input seed, derived the way the repository benchmark does."""
    return random.Random(f"{seed}:{name}").randrange(1, 2**31)


#: the repository benchmark's serial-count families (social and web
#: proxies plus a plex caveman), same generator parameters.
SERIAL_COUNT_FAMILIES = {
    "FB": lambda s: social_proxy(1000, 8, 0.55, 120, 3600, seed=s,
                                 plexes=25, plex_size=12, plex_missing=4),
    "ST": lambda s: social_proxy(1200, 5, 0.6, 110, 3000, seed=s,
                                 plexes=20, plex_size=11, plex_missing=3),
    "SK": lambda s: _with_core(
        web_graph(1500, 5, hub_fraction=0.02, clique_size=11,
                  num_cliques=50, seed=s), 110, 2600, seed=s + 1),
    "WK": lambda s: _with_core(
        web_graph(1200, 4, hub_fraction=0.03, clique_size=7,
                  num_cliques=30, seed=s), 90, 1900, seed=s + 1),
    "plex-caveman": lambda s: plex_caveman(40, 12, 3, seed=s),
}


class TestSamePeelAsReference:
    """The peel must not move a single edge against the flat-key original."""

    @pytest.mark.parametrize("seed", [1, 2, 3, 811])
    @pytest.mark.parametrize("family", sorted(SERIAL_COUNT_FAMILIES))
    def test_serial_count_proxies(self, family, seed):
        build = SERIAL_COUNT_FAMILIES[family]
        _assert_same_peel(build(_benchmark_seed(seed, family)))

    @pytest.mark.parametrize("block", range(6))
    def test_seeded_erdos_renyi(self, block):
        for seed in range(block * 50, block * 50 + 50):
            rng = random.Random(seed)
            n = rng.randrange(2, 60)
            m = rng.randrange(0, n * (n - 1) // 2 + 1)
            _assert_same_peel(erdos_renyi_gnm(n, m, seed=seed))

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_golden_fixtures(self, name):
        _assert_same_peel(load_graph(FIXTURES_DIR / GOLDEN[name]["file"]))


PACKINGS = ("input", "degeneracy", "shuffled")


def _assert_same_peel_from_masks(g: Graph, packing: str) -> None:
    """The peel with popcount supports against the reference peel."""
    if packing == "shuffled":  # an explicit, seeded permutation
        order = random.Random(g.n).sample(range(g.n), g.n)
    else:
        order = packing
    got = truss_edge_ordering(g, bit_graph=BitGraph.from_graph(g, order=order))
    want = _reference_truss_edge_ordering(g)
    assert got.order == want.order
    assert got.rank == want.rank
    assert got.tau == want.tau


class TestPopcountSupports:
    """Initial supports read off packed masks move no edge of the peel."""

    @pytest.mark.parametrize("packing", PACKINGS)
    @pytest.mark.parametrize("family", sorted(SERIAL_COUNT_FAMILIES))
    def test_serial_count_proxies(self, family, packing):
        build = SERIAL_COUNT_FAMILIES[family]
        _assert_same_peel_from_masks(build(_benchmark_seed(1, family)),
                                     packing)

    @pytest.mark.parametrize("packing", PACKINGS)
    def test_seeded_erdos_renyi(self, packing):
        for seed in range(40):
            rng = random.Random(seed)
            n = rng.randrange(2, 60)
            m = rng.randrange(0, n * (n - 1) // 2 + 1)
            _assert_same_peel_from_masks(erdos_renyi_gnm(n, m, seed=seed),
                                         packing)

    @pytest.mark.parametrize("packing", PACKINGS)
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_golden_fixtures(self, name, packing):
        _assert_same_peel_from_masks(
            load_graph(FIXTURES_DIR / GOLDEN[name]["file"]), packing)

    def test_view_of_another_graph_is_rejected(self):
        g = erdos_renyi_gnm(10, 20, seed=1)
        other = BitGraph.from_graph(erdos_renyi_gnm(12, 20, seed=1))
        with pytest.raises(InvalidParameterError, match="bit_graph"):
            truss_edge_ordering(g, bit_graph=other)
