"""Permutation fuzz: the vertex→bit packing is unobservable in the output.

``BitGraph.from_graph(g, order=...)`` relabels vertices into bit positions;
under *any* permutation the bit view must stay a faithful isomorphic copy
(bijective mapping, adjacency preserved), and every registered algorithm
must emit the identical clique fingerprint whether the masks are packed in
input order, degeneracy order, or a random shuffle.  The degeneracy
packing is purely a performance knob — this suite is what lets it be the
default.
"""

import random

import pytest

from repro.api import ALGORITHMS, maximal_cliques
from repro.exceptions import InvalidParameterError
from repro.graph.bitadj import (
    BIT_ORDERS,
    DEFAULT_BIT_ORDER,
    BitGraph,
    iter_bits,
    resolve_bit_order,
)
from repro.graph.generators import (
    ba_heavy_hub,
    barabasi_albert,
    erdos_renyi_gnp,
    plex_caveman,
    ring_of_cliques,
)
from repro.parallel import CollectAggregator, ParallelStats, run_parallel
from repro.verify import clique_fingerprint

FUZZ_GRAPHS = [
    ("erdos-renyi", erdos_renyi_gnp(24, 0.5, seed=11)),
    ("barabasi-albert", barabasi_albert(30, 4, seed=12)),
    ("plex-caveman", plex_caveman(3, 8, 2, seed=13)),
    ("ring-of-cliques", ring_of_cliques(5, 4)),
]

#: every branch-and-bound algorithm; reverse-search has no bitset twin.
BITSET_ALGORITHMS = sorted(
    name for name, spec in ALGORITHMS.items() if spec.family != "reverse-search"
)


class TestPermutationRoundTrip:
    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize(
        "graph", [g for _, g in FUZZ_GRAPHS],
        ids=[name for name, _ in FUZZ_GRAPHS],
    )
    def test_random_permutation_is_faithful(self, graph, seed):
        rng = random.Random(seed)
        order = list(range(graph.n))
        rng.shuffle(order)
        bg = BitGraph.from_graph(graph, order=order)

        # The vertex<->bit mapping is the permutation, and a bijection.
        assert bg.to_vertex == order
        assert sorted(bg.bit_of) == list(range(graph.n))
        for b, v in enumerate(bg.to_vertex):
            assert bg.bit_of[v] == b

        # Adjacency is preserved bit for bit.
        for v in range(graph.n):
            neighbours = {bg.to_vertex[b] for b in iter_bits(bg.masks[bg.bit_of[v]])}
            assert neighbours == graph.adj[v]

        # Translation helpers invert each other.
        vertices = rng.sample(range(graph.n), min(7, graph.n))
        mask = bg.mask_of_vertices(vertices)
        assert sorted(bg.vertex_tuple(iter_bits(mask))) == sorted(vertices)

    @pytest.mark.parametrize(
        "graph", [g for _, g in FUZZ_GRAPHS],
        ids=[name for name, _ in FUZZ_GRAPHS],
    )
    def test_named_orders_are_faithful(self, graph):
        for name in BIT_ORDERS:
            bg = BitGraph.from_graph(graph, order=name)
            assert sorted(bg.to_vertex) == list(range(graph.n))
            for v in range(graph.n):
                neighbours = {
                    bg.to_vertex[b] for b in iter_bits(bg.masks[bg.bit_of[v]])
                }
                assert neighbours == graph.adj[v]
        assert BitGraph.from_graph(graph, order="input").is_identity


class TestResolveBitOrder:
    def test_identity_spellings(self):
        g = erdos_renyi_gnp(10, 0.4, seed=1)
        assert resolve_bit_order(g, None) is None
        assert resolve_bit_order(g, "input") is None

    def test_degeneracy_is_a_permutation(self):
        g = barabasi_albert(25, 3, seed=2)
        order = resolve_bit_order(g, "degeneracy")
        assert sorted(order) == list(range(g.n))

    def test_degeneracy_packs_core_low(self):
        # The last-peeled (densest-core) vertex lands in bit 0.
        from repro.graph.coreness import core_decomposition

        g = barabasi_albert(25, 3, seed=2)
        peel = core_decomposition(g).order
        assert resolve_bit_order(g, "degeneracy") == list(reversed(peel))

    def test_supplied_peel_order_is_reused(self):
        from repro.graph.coreness import core_decomposition

        g = erdos_renyi_gnp(12, 0.5, seed=3)
        peel = core_decomposition(g).order
        assert (resolve_bit_order(g, "degeneracy", degeneracy_order=peel)
                == list(reversed(peel)))

    def test_unknown_name_rejected(self):
        g = erdos_renyi_gnp(8, 0.5, seed=4)
        with pytest.raises(InvalidParameterError):
            resolve_bit_order(g, "zigzag")

    def test_default_is_degeneracy(self):
        assert DEFAULT_BIT_ORDER == "degeneracy"
        assert set(BIT_ORDERS) == {"input", "degeneracy"}


class TestAlgorithmInvariance:
    @pytest.mark.parametrize("backend", ["bitset"])
    @pytest.mark.parametrize("algorithm", BITSET_ALGORITHMS)
    def test_fingerprint_invariant_under_packing(self, algorithm, backend):
        g = erdos_renyi_gnp(24, 0.5, seed=21)
        reference = clique_fingerprint(
            maximal_cliques(g, algorithm=algorithm, backend="set")
        )
        for bit_order in ("input", "degeneracy"):
            cliques = maximal_cliques(g, algorithm=algorithm,
                                      backend=backend, bit_order=bit_order)
            assert clique_fingerprint(cliques) == reference
        shuffled = list(range(g.n))
        random.Random(21).shuffle(shuffled)
        cliques = maximal_cliques(g, algorithm=algorithm, backend=backend,
                                  bit_order=shuffled)
        assert clique_fingerprint(cliques) == reference

    @pytest.mark.parametrize("backend", ["bitset"])
    @pytest.mark.parametrize("seed", range(5))
    def test_default_algorithm_under_random_permutations(self, seed, backend):
        g = plex_caveman(3, 10, 2, seed=seed)
        reference = maximal_cliques(g, backend="set")
        order = list(range(g.n))
        random.Random(seed).shuffle(order)
        assert maximal_cliques(g, backend=backend, bit_order=order) == reference

    @pytest.mark.parametrize("backend", ["bitset"])
    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_parallel_workers_inherit_packing(self, n_jobs, backend):
        g = erdos_renyi_gnp(26, 0.5, seed=9)
        reference = maximal_cliques(g, backend="set")
        for bit_order in ("input", "degeneracy"):
            assert maximal_cliques(g, backend=backend, bit_order=bit_order,
                                   n_jobs=n_jobs) == reference

    @pytest.mark.parametrize(
        "graph", [g for _, g in FUZZ_GRAPHS],
        ids=[name for name, _ in FUZZ_GRAPHS],
    )
    @pytest.mark.parametrize("algorithm", BITSET_ALGORITHMS)
    def test_fingerprint_invariant_on_fuzz_graphs(self, algorithm, graph):
        """Every family of the round-trip fuzz, not only one G(n, p)."""
        reference = clique_fingerprint(
            maximal_cliques(graph, algorithm=algorithm, backend="set")
        )
        shuffled = random.Random(graph.n).sample(range(graph.n), graph.n)
        for bit_order in ("input", "degeneracy", shuffled):
            cliques = maximal_cliques(graph, algorithm=algorithm,
                                      backend="bitset", bit_order=bit_order)
            assert clique_fingerprint(cliques) == reference

    @pytest.mark.parametrize("algorithm", BITSET_ALGORITHMS)
    def test_subproblem_tiers_inherit_explicit_packing(self, algorithm):
        """Every subproblem runs in place on the whole-graph view, the edge
        family's included: an explicit permutation must pack that view."""
        g = erdos_renyi_gnp(26, 0.5, seed=9)
        reference = maximal_cliques(g, backend="set")
        order = random.Random(9).sample(range(g.n), g.n)
        assert maximal_cliques(g, algorithm=algorithm, backend="bitset",
                               bit_order=order, n_jobs=1) == reference

    @pytest.mark.parametrize("algorithm", BITSET_ALGORITHMS)
    def test_steal_chunks_inherit_explicit_packing(self, algorithm):
        """Steal mode's small chunks each build a runner on the whole-graph
        view: that view must be packed in the explicit order too, for
        every algorithm that can seed an exclusion set, the edge family
        included."""
        g = ba_heavy_hub(200, 3, hub_parts=4, hub_part_size=3, seed=7)
        reference = maximal_cliques(g, backend="set")
        options = {"backend": "bitset",
                   "bit_order": random.Random(7).sample(range(g.n), g.n)}
        aggregator, stats = CollectAggregator(), ParallelStats()
        run_parallel(g, aggregator, algorithm=algorithm, n_jobs=1,
                     steal=True, stats=stats, **options)
        assert aggregator.finish(canonical=True) == reference
        assert stats.n_chunks == 4


class TestValidation:
    def test_bit_order_requires_mask_backend(self):
        g = erdos_renyi_gnp(8, 0.5, seed=5)
        with pytest.raises(InvalidParameterError):
            maximal_cliques(g, backend="set", bit_order="degeneracy")

    @pytest.mark.parametrize("backend", ["bitset"])
    def test_unknown_bit_order_rejected_at_api(self, backend):
        g = erdos_renyi_gnp(8, 0.5, seed=6)
        with pytest.raises(InvalidParameterError):
            maximal_cliques(g, backend=backend, bit_order="zigzag")

    def test_reverse_search_rejects_bit_order(self):
        g = erdos_renyi_gnp(8, 0.5, seed=7)
        with pytest.raises(InvalidParameterError):
            maximal_cliques(g, algorithm="reverse-search",
                            bit_order="degeneracy")
