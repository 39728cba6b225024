"""Unit tests for the verification utilities."""

import hashlib
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.exceptions import InvalidParameterError
from repro.graph.adjacency import Graph
from repro.graph.builders import complete_graph, path_graph
from repro.graph.generators import erdos_renyi_gnm
from repro.verify import (
    assert_valid_enumeration,
    brute_force_maximal_cliques,
    canonical_fingerprint,
    clique_fingerprint,
    is_maximal_clique,
    verify_enumeration,
)


class TestPredicates:
    def test_is_maximal_clique(self):
        g = complete_graph(4)
        assert is_maximal_clique(g, [0, 1, 2, 3])
        assert not is_maximal_clique(g, [0, 1])      # extendable
        assert not is_maximal_clique(g, [])          # empty is not a clique here

    def test_non_clique_rejected(self):
        g = path_graph(3)
        assert not is_maximal_clique(g, [0, 2])


class TestBruteForce:
    def test_small_cases(self):
        assert brute_force_maximal_cliques(complete_graph(3)) == [(0, 1, 2)]
        assert brute_force_maximal_cliques(path_graph(3)) == [(0, 1), (1, 2)]
        assert brute_force_maximal_cliques(Graph(2)) == [(0,), (1,)]

    def test_size_limit(self):
        with pytest.raises(InvalidParameterError):
            brute_force_maximal_cliques(Graph(25))

    def test_matches_networkx(self):
        nx = pytest.importorskip("networkx")
        from repro.graph.builders import to_networkx

        g = erdos_renyi_gnm(12, 30, seed=5)
        ref = sorted(tuple(sorted(c)) for c in nx.find_cliques(to_networkx(g)))
        assert brute_force_maximal_cliques(g) == ref


class TestVerifyEnumeration:
    def test_accepts_correct(self):
        g = erdos_renyi_gnm(10, 25, seed=6)
        cliques = brute_force_maximal_cliques(g)
        assert verify_enumeration(g, cliques) == []
        assert_valid_enumeration(g, cliques)  # should not raise

    def test_detects_duplicate(self):
        g = complete_graph(3)
        problems = verify_enumeration(g, [(0, 1, 2), (2, 1, 0)])
        assert any("duplicate" in p for p in problems)

    def test_detects_non_maximal(self):
        g = complete_graph(3)
        problems = verify_enumeration(g, [(0, 1)], reference=[(0, 1, 2)])
        assert any("not maximal" in p for p in problems)
        assert any("missing" in p for p in problems)

    def test_detects_non_clique(self):
        g = path_graph(3)
        problems = verify_enumeration(g, [(0, 2)], reference=[(0, 1), (1, 2)])
        assert any("not a clique" in p for p in problems)

    def test_detects_missing_and_extra(self):
        g = complete_graph(3)
        problems = verify_enumeration(g, [], reference=[(0, 1, 2)])
        assert any("missing" in p for p in problems)

    def test_assert_raises_with_details(self):
        g = complete_graph(3)
        with pytest.raises(AssertionError, match="enumeration invalid"):
            assert_valid_enumeration(g, [(0, 1)])


def _reference_fingerprint(cliques):
    """``clique_fingerprint``'s body before the canonical helper, verbatim."""
    canonical = sorted(tuple(sorted(clique)) for clique in cliques)
    text = "\n".join(" ".join(map(str, clique)) for clique in canonical)
    return hashlib.sha256(text.encode("ascii")).hexdigest()


IDS = st.one_of(st.integers(-40, 40),
                st.integers(10**12 - 3, 10**12 + 3),
                st.integers(-10**12 - 3, -10**12 + 3))
#: unsorted cliques that may repeat an id, be empty, or repeat a clique.
CLIQUE_LISTS = st.lists(st.lists(IDS, max_size=6), max_size=25).map(
    lambda cliques: cliques + cliques[::3])


class TestFingerprint:
    @settings(max_examples=200, deadline=None)
    @given(CLIQUE_LISTS)
    @example([])
    @example([[]])
    @example([[], [], [2, 1]])
    @example([[3, 1, 2], [2, 3, 1], [-1, 10**12]])
    def test_digest_parity(self, cliques):
        want = _reference_fingerprint(cliques)
        assert clique_fingerprint(cliques) == want
        canonical = sorted(tuple(sorted(c)) for c in cliques)
        assert canonical_fingerprint(canonical) == want

    def test_large_ids_build_no_table(self):
        # The id-to-text memo holds the ids it saw, nothing sized by the
        # largest id.
        tracemalloc.start()
        try:
            digest = clique_fingerprint([(0, 10**12)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert digest == _reference_fingerprint([(0, 10**12)])
        assert peak < 64 * 1024
