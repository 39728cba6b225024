"""The tomita phase's same-view fast path against its dual-view body.

``bit_pivot_phase`` takes its fast path when ``cand is full``.  Handed a
copy of the graph masks as its candidate view (equal masks, another
object), the same branches run the general body instead: children refined
through ``_bit_refine``, the plex check through ``_bit_cand_plex_ok`` and
the plex fired without a degree hint.  Both runs must make the same
branches, move the same counters and emit the same cliques in the same
order, so the general body is the fast path's oracle, as ``fire_plex`` is
for ``bit_fire_plex``.
"""

import random

import pytest

from repro import count_maximal_cliques
from repro.core import bit_phases
from repro.core.counters import Counters
from repro.core.phases import make_context
from repro.graph.bitadj import BitGraph
from repro.graph.coreness import core_decomposition
from repro.graph.generators import erdos_renyi_gnm
from repro.graph.generators.dataset_suite import social_proxy

GRAPHS = {
    "er-40-400": erdos_renyi_gnm(40, 400, seed=3),
    "er-70-1400": erdos_renyi_gnm(70, 1400, seed=11),
    "social-200": social_proxy(200, 4, 0.5, 30, 200, seed=5, plexes=4,
                               plex_size=8, plex_missing=2),
    "social-400": social_proxy(400, 5, 0.6, 40, 450, seed=17, plexes=6,
                               plex_size=10, plex_missing=3),
}

PACKINGS = ["input", "degeneracy", "shuffled"]


def _vertex_roots(g, bit_order, et_threshold, cand_of):
    """``run_vertex``'s degeneracy roots on the bitset tomita phase, with
    ``cand_of(masks)`` as every root's candidate view.

    Returns the emitted cliques, each as a set of bits, in emission order,
    and every counter.
    """
    if bit_order == "shuffled":
        bit_order = random.Random(g.n).sample(range(g.n), g.n)
    bg = BitGraph.from_graph(g, order=bit_order)
    masks = bg.masks
    cand = cand_of(masks)
    cliques = []
    counters = Counters()
    ctx = make_context(lambda bits: cliques.append(frozenset(bits)),
                       counters, et_threshold=et_threshold,
                       backend="bitset")
    assert ctx.phase is bit_phases.bit_pivot_phase
    order = core_decomposition(g).order
    position = {v: i for i, v in enumerate(order)}
    for v in order:
        bv = bg.bit_of[v]
        later = 0
        for w in g.adj[v]:
            if position[w] > position[v]:
                later |= 1 << bg.bit_of[w]
        ctx.phase([bv], later, masks[bv] & ~later, cand, masks, ctx)
    return cliques, counters.as_dict()


@pytest.mark.parametrize("et_threshold", [0, 3])
@pytest.mark.parametrize("bit_order", PACKINGS)
@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_same_view_matches_dual_view_body(name, bit_order, et_threshold,
                                          monkeypatch):
    g = GRAPHS[name]
    bodies = {"refine": 0, "plex_ok": 0}
    refine, plex_ok = bit_phases._bit_refine, bit_phases._bit_cand_plex_ok

    def counted_refine(*args):
        bodies["refine"] += 1
        return refine(*args)

    def counted_plex_ok(*args):
        bodies["plex_ok"] += 1
        return plex_ok(*args)

    monkeypatch.setattr(bit_phases, "_bit_refine", counted_refine)
    monkeypatch.setattr(bit_phases, "_bit_cand_plex_ok", counted_plex_ok)

    fast = _vertex_roots(g, bit_order, et_threshold, lambda masks: masks)
    assert bodies == {"refine": 0, "plex_ok": 0}  # never left the fast path
    general = _vertex_roots(g, bit_order, et_threshold, list)
    assert bodies["refine"] > 0  # the copy did run the dual-view body
    assert (bodies["plex_ok"] > 0) == (et_threshold > 0)

    assert general[1] == fast[1]
    assert general[0] == fast[0]
    assert len(set(fast[0])) == len(fast[0]) == \
        count_maximal_cliques(g, backend="set")
    if et_threshold:
        assert fast[1]["et_hits"] > 0
