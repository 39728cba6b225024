"""Validation utilities: is this really the set of all maximal cliques?

Used by the test-suite, the CLI (``repro-mce verify``) and the examples to
check enumeration output.  The brute-force oracle is exponential and
restricted to small graphs; it shares no code with the engines, so
agreement is meaningful evidence.
"""

from __future__ import annotations

import hashlib
from itertools import combinations
from typing import Iterable, Sequence

from repro.exceptions import InvalidParameterError
from repro.graph.adjacency import Graph

BRUTE_FORCE_LIMIT = 18


def clique_fingerprint(cliques: Iterable[Sequence[int]]) -> str:
    """SHA256 of the canonical clique list (algorithm-independent).

    Each clique is sorted ascending, the list sorted lexicographically,
    and the result serialised one clique per line as space-separated ids —
    so every correct enumerator of the same graph produces the same hex
    digest.  The golden-oracle fixtures pin these digests.
    """
    return canonical_fingerprint(
        sorted(tuple(sorted(clique)) for clique in cliques))


class _IdText(dict[int, str]):
    """``id -> str(id)``, each id converted once, on first use."""

    def __missing__(self, key: int) -> str:
        text = self[key] = str(key)
        return text


def canonical_fingerprint(canonical: list[tuple[int, ...]]) -> str:
    """:func:`clique_fingerprint` of a list already in canonical form.

    For callers whose cliques arrive canonical, such as the service's
    merged worker runs, so nothing is re-sorted.  Cliques share their
    ids, so each id's text is built once and looked up after that; the
    memo holds only the ids seen, never a table sized by the largest id.
    """
    text_of = _IdText().__getitem__
    text = "\n".join(" ".join(map(text_of, clique)) for clique in canonical)
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def is_clique(g: Graph, vertices: Iterable[int]) -> bool:
    """Whether the vertices are pairwise adjacent."""
    return g.is_clique(vertices)


def is_maximal_clique(g: Graph, vertices: Iterable[int]) -> bool:
    """Whether the vertices form a clique no other vertex extends."""
    members = set(vertices)
    if not members or not g.is_clique(members):
        return False
    candidates = g.common_neighbors_of_set(members)
    return not candidates


def brute_force_maximal_cliques(g: Graph) -> list[tuple[int, ...]]:
    """All maximal cliques by bitmask subset enumeration (n <= 18 only).

    Walks every non-empty vertex subset, keeping those that are cliques
    with an empty common neighbourhood — O(2^n * n), entirely independent
    of the branch-and-bound machinery, so agreement is real evidence.
    """
    n = g.n
    if n > BRUTE_FORCE_LIMIT:
        raise InvalidParameterError(
            f"brute force limited to n <= {BRUTE_FORCE_LIMIT}, got n = {n}"
        )
    masks = [sum(1 << w for w in g.adj[v]) for v in range(n)]
    full = (1 << n) - 1
    result: list[tuple[int, ...]] = []
    for subset in range(1, 1 << n):
        remaining = subset
        common = full
        is_clique_subset = True
        while remaining:
            v = (remaining & -remaining).bit_length() - 1
            remaining &= remaining - 1
            if subset & ~(masks[v] | (1 << v)):
                is_clique_subset = False
                break
            common &= masks[v]
        if is_clique_subset and not (common & ~subset):
            members = []
            bits = subset
            while bits:
                v = (bits & -bits).bit_length() - 1
                bits &= bits - 1
                members.append(v)
            result.append(tuple(members))
    return sorted(result)


def verify_enumeration(
    g: Graph,
    cliques: Sequence[tuple[int, ...]],
    *,
    reference: Sequence[tuple[int, ...]] | None = None,
) -> list[str]:
    """Check an enumeration result; return a list of problem descriptions.

    Validates that every reported set is a maximal clique and that there
    are no duplicates.  When ``reference`` is given (or the graph is small
    enough for brute force), completeness is checked too.  An empty return
    value means the result passed every check.
    """
    problems: list[str] = []
    seen: set[frozenset[int]] = set()
    for clique in cliques:
        key = frozenset(clique)
        if key in seen:
            problems.append(f"duplicate clique {tuple(sorted(clique))}")
            continue
        seen.add(key)
        if not g.is_clique(clique):
            problems.append(f"not a clique: {tuple(sorted(clique))}")
        elif not is_maximal_clique(g, clique):
            problems.append(f"not maximal: {tuple(sorted(clique))}")

    if reference is None and g.n <= BRUTE_FORCE_LIMIT:
        reference = brute_force_maximal_cliques(g)
    if reference is not None:
        expected = {frozenset(c) for c in reference}
        missing = expected - seen
        extra = seen - expected
        for c in sorted(tuple(sorted(x)) for x in missing):
            problems.append(f"missing clique {c}")
        for c in sorted(tuple(sorted(x)) for x in extra):
            problems.append(f"unexpected clique {c}")
    return problems


def assert_valid_enumeration(
    g: Graph,
    cliques: Sequence[tuple[int, ...]],
    *,
    reference: Sequence[tuple[int, ...]] | None = None,
) -> None:
    """Raise ``AssertionError`` with details when verification fails."""
    problems = verify_enumeration(g, cliques, reference=reference)
    if problems:
        preview = "; ".join(problems[:10])
        raise AssertionError(
            f"enumeration invalid ({len(problems)} problems): {preview}"
        )
