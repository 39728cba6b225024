"""Property tests for the ``int``-mask kernels (``repro.graph.bitadj``).

The bitset engines spell every vertex set as an ``int`` mask and trust a
few helpers to move between that spelling and plain vertex sets.  Below
the engine equivalence suites, this module fuzzes those helpers against
Python sets:

* **Round trip** — random vertex sets survive ``mask_of`` ->
  ``iter_bits`` / ``bits_to_tuple`` exactly, for universes from one
  CPython digit (30 bits) to many machine words, biased toward the shapes
  that break bit tricks (empty, full, sparse, runs straddling a digit or
  word boundary).
* **Kernel parity** — AND / OR / XOR / ANDNOT and ``popcount`` on masks
  agree with the set operators and ``len``.
* **View parity** — under random packings every :class:`BitGraph` query
  (neighbourhood, degree, edge test, common neighbours, induced
  subgraph), read back through ``to_vertex``, equals the same question
  asked of the :class:`Graph`.
* **Permutation check** — :func:`check_permutation` accepts every
  permutation of ``range(n)`` and rejects every single-entry corruption
  of one.
"""

import random

import pytest

from repro.exceptions import InvalidParameterError
from repro.graph.bitadj import (
    BitGraph,
    bits_to_tuple,
    check_permutation,
    iter_bits,
    mask_of,
    popcount,
)
from repro.graph.generators import (
    barabasi_albert,
    erdos_renyi_gnp,
    plex_caveman,
    ring_of_cliques,
)

#: universe sizes in bits: one CPython digit, one machine word, a
#: straddle of both, and many words.
WIDTHS = [30, 64, 100, 450]


def _random_set(rng, width):
    """A random subset of ``range(width)``, biased toward edge shapes."""
    shape = rng.randrange(5)
    if shape == 0:
        return set()
    if shape == 1:
        return set(range(width))
    if shape == 2:  # sparse
        return {rng.randrange(width) for _ in range(3)}
    if shape == 3:  # a run that may straddle a digit or word boundary
        start = rng.randrange(width - 1)
        return set(range(start, rng.randrange(start + 1, width + 1)))
    return {v for v in range(width) if rng.random() < 0.5}


class TestRoundTrip:
    @pytest.mark.parametrize("width", WIDTHS)
    @pytest.mark.parametrize("seed", range(5))
    def test_mask_of_then_bits_is_identity(self, width, seed):
        rng = random.Random(seed * 100 + width)
        for _ in range(50):
            vertices = _random_set(rng, width)
            mask = mask_of(vertices)
            assert bits_to_tuple(mask) == tuple(sorted(vertices))
            assert mask_of(iter_bits(mask)) == mask

    @pytest.mark.parametrize("width", WIDTHS)
    @pytest.mark.parametrize("seed", range(5))
    def test_bit_iteration_matches_shift_tests(self, width, seed):
        rng = random.Random(seed * 13 + width)
        for _ in range(30):
            mask = mask_of(_random_set(rng, width))
            expect = [i for i in range(width) if mask >> i & 1]
            assert list(iter_bits(mask)) == expect


class TestKernelParity:
    @pytest.mark.parametrize("width", WIDTHS)
    @pytest.mark.parametrize("seed", range(5))
    def test_mask_algebra_matches_set_algebra(self, width, seed):
        rng = random.Random(seed * 31 + width)
        for _ in range(30):
            a, b = _random_set(rng, width), _random_set(rng, width)
            ma, mb = mask_of(a), mask_of(b)
            assert bits_to_tuple(ma & mb) == tuple(sorted(a & b))
            assert bits_to_tuple(ma | mb) == tuple(sorted(a | b))
            assert bits_to_tuple(ma ^ mb) == tuple(sorted(a ^ b))
            # ANDNOT: the candidate-refinement kernel (C & ~N(v)).
            assert bits_to_tuple(ma & ~mb) == tuple(sorted(a - b))

    @pytest.mark.parametrize("width", WIDTHS)
    @pytest.mark.parametrize("seed", range(5))
    def test_popcount_matches_len(self, width, seed):
        rng = random.Random(seed * 17 + width)
        for _ in range(30):
            a, b = _random_set(rng, width), _random_set(rng, width)
            ma, mb = mask_of(a), mask_of(b)
            assert popcount(ma) == len(a)
            assert popcount(ma & mb) == len(a & b)
            assert popcount(ma & ~mb) == len(a - b)


VIEW_GRAPHS = [
    ("erdos-renyi", erdos_renyi_gnp(40, 0.3, seed=31)),
    ("barabasi-albert", barabasi_albert(45, 4, seed=32)),
    ("plex-caveman", plex_caveman(3, 9, 2, seed=33)),
    ("ring-of-cliques", ring_of_cliques(6, 5)),
]


class TestViewParity:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize(
        "graph", [g for _, g in VIEW_GRAPHS],
        ids=[name for name, _ in VIEW_GRAPHS],
    )
    def test_queries_match_graph_under_packing(self, graph, seed):
        rng = random.Random(seed)
        order = rng.sample(range(graph.n), graph.n)
        bg = BitGraph.from_graph(graph, order=order)

        def vertices(mask):
            return {bg.to_vertex[b] for b in iter_bits(mask)}

        for u in range(graph.n):
            bu = bg.bit_of[u]
            assert vertices(bg.neighbors_mask(bu)) == graph.adj[u]
            assert bg.degree(bu) == graph.degree(u)
            for v in rng.sample(range(graph.n), 8):
                bv = bg.bit_of[v]
                assert bg.has_edge(bu, bv) == (v in graph.adj[u])
                assert (vertices(bg.common_neighbors_mask(bu, bv))
                        == graph.adj[u] & graph.adj[v])

        members = set(rng.sample(range(graph.n), graph.n // 2))
        sub = bg.subgraph_masks(bg.mask_of_vertices(members))
        assert {bg.to_vertex[b] for b in sub} == members
        for b, mask in sub.items():
            assert vertices(mask) == graph.adj[bg.to_vertex[b]] & members


class TestPermutationCheck:
    @pytest.mark.parametrize("seed", range(10))
    def test_permutations_accepted(self, seed):
        rng = random.Random(seed)
        n = rng.randrange(1, 60)
        order = rng.sample(range(n), n)
        assert check_permutation(order, n) == order
        assert check_permutation(tuple(order), n) == order
        assert check_permutation(iter(order), n) == order

    @pytest.mark.parametrize("seed", range(10))
    def test_single_entry_corruptions_rejected(self, seed):
        rng = random.Random(seed)
        n = rng.randrange(2, 60)
        order = rng.sample(range(n), n)
        i = rng.randrange(n)
        corruptions = [
            order[:i] + order[i + 1:],                        # dropped
            order + [order[i]],                               # repeated
            order[:i] + [order[(i + 1) % n]] + order[i + 1:],  # duplicate
            order[:i] + [n] + order[i + 1:],                  # past n - 1
            order[:i] + [-1] + order[i + 1:],                 # negative
            order[:i] + [float(order[i])] + order[i + 1:],    # 5.0 == 5
            order[:i] + [str(order[i])] + order[i + 1:],      # not a number
        ]
        if order[i] in (0, 1):
            corruptions.append(                               # True == 1
                order[:i] + [bool(order[i])] + order[i + 1:])
        for bad in corruptions:
            with pytest.raises(InvalidParameterError):
                check_permutation(bad, n)
