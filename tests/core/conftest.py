"""Fixtures shared by the edge-engine suites: rank-inversion witnesses."""

import pytest

import repro.core.edge_engine as edge_engine
from repro.graph.generators import erdos_renyi_gnm
from repro.graph.truss import truss_edge_ordering


def _graphs_with_pruned_pairs(count=3, max_seed=150):
    """Find random graphs whose top-level branches contain a rank-inverted
    (pruned) candidate pair.  These need moderately dense graphs."""
    found = []
    for seed in range(max_seed):
        g = erdos_renyi_gnm(25, 200, seed=seed)
        ordering = truss_edge_ordering(g)
        rank = ordering.rank
        n = g.n
        flat = {u * n + v: r for r, (u, v) in enumerate(rank)}
        for (a, b), r in rank.items():
            cand = set()
            for w in g.common_neighbors(a, b):
                ka = (a, w) if a < w else (w, a)
                kb = (b, w) if b < w else (w, b)
                if rank[ka] > r and rank[kb] > r:
                    cand.add(w)
            view = edge_engine._candidate_view(cand, g.adj, g.adj, flat, n, r)
            if view is not None:
                found.append(g)
                break
        if len(found) >= count:
            break
    return found


@pytest.fixture(scope="session")
def pruned_pair_graphs():
    graphs = _graphs_with_pruned_pairs()
    assert graphs, "no witness graph found — generator drifted?"
    return graphs
