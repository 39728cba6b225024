"""Seeded synthetic proxies for the paper's 16 real datasets (Table I).

The paper benchmarks on real graphs from network repositories (up to 106M
edges).  This environment has no network access and CPython is ~100x slower
than the paper's C++, so each dataset is replaced by a *seeded synthetic
proxy* from the structurally matching generator family, at roughly 1/100 to
1/1000 scale:

* social networks — power-law-cluster periphery plus a dense random core
  (real social graphs combine triadic closure with dense communities; the
  core drives the degeneracy well above the truss bound, mirroring the
  paper's large delta - tau gaps on DG/OR/CN);
* web graphs — hub-heavy preferential attachment with planted template
  cliques;
* collaboration (dblp) — overlapping near-clique communities, which makes
  tau approach delta exactly as the paper reports for DB (112 vs 113);
* FEM meshes (nasasrb/shipsec5/dielfilter) — diagonalised grids with
  planted element cliques: dense, structurally regular, few maximal
  cliques — reproducing the low early-termination ratios of Table V.

``PAPER_STATS`` records the original Table I rows so reports can print
paper-vs-proxy side by side.  All proxies are deterministic (fixed seeds)
and cached per process.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from repro.exceptions import InvalidParameterError
from repro.graph.adjacency import Graph
from repro.graph.generators.erdos_renyi import erdos_renyi_gnm
from repro.graph.generators.social import (
    mesh_graph,
    overlapping_communities,
    social_graph,
    web_graph,
)


@dataclass(frozen=True)
class PaperDatasetStats:
    """One row of the paper's Table I."""

    name: str
    short: str
    category: str
    n: int
    m: int
    degeneracy: int
    tau: int
    density: float


PAPER_STATS: dict[str, PaperDatasetStats] = {
    s.short: s
    for s in [
        PaperDatasetStats("nasasrb", "NA", "Mesh", 54870, 1311227, 35, 22, 23.9),
        PaperDatasetStats("fbwosn", "FB", "Social Network", 63731, 817090, 52, 35, 12.8),
        PaperDatasetStats("websk", "WE", "Web Graph", 121422, 334419, 81, 80, 2.8),
        PaperDatasetStats("wikitrust", "WK", "Web Graph", 138587, 715883, 64, 31, 5.2),
        PaperDatasetStats("shipsec5", "SH", "Mesh", 179104, 2200076, 29, 22, 12.3),
        PaperDatasetStats("stanford", "ST", "Social Network", 281904, 1992636, 86, 61, 7.1),
        PaperDatasetStats("dblp", "DB", "Collaboration", 317080, 1049866, 113, 112, 3.3),
        PaperDatasetStats("dielfilter", "DE", "Mesh", 420408, 16232900, 56, 43, 38.6),
        PaperDatasetStats("digg", "DG", "Social Network", 770799, 5907132, 236, 72, 7.7),
        PaperDatasetStats("youtube", "YO", "Social Network", 1134890, 2987624, 49, 18, 2.6),
        PaperDatasetStats("pokec", "PO", "Social Network", 1632803, 22301964, 47, 27, 13.7),
        PaperDatasetStats("skitter", "SK", "Web Graph", 1696415, 11095298, 111, 67, 6.5),
        PaperDatasetStats("wikicn", "CN", "Web Graph", 1930270, 8956902, 127, 31, 4.6),
        PaperDatasetStats("baidu", "BA", "Web Graph", 2140198, 17014946, 82, 29, 8.0),
        PaperDatasetStats("orkut", "OR", "Social Network", 2997166, 106349209, 253, 74, 35.5),
        PaperDatasetStats("socfba", "SO", "Social Network", 3097165, 23667394, 74, 29, 7.6),
    ]
}


def _with_core(g: Graph, core_n: int, core_m: int, seed: int) -> Graph:
    """Overlay a dense random core onto ``g`` (raises degeneracy, not tau)."""
    rng = random.Random(seed)
    core = rng.sample(range(g.n), core_n)
    core_edges = erdos_renyi_gnm(core_n, core_m, seed=seed + 1)
    for u, v in core_edges.edges():
        if not g.has_edge(core[u], core[v]):
            g.add_edge(core[u], core[v])
    return g


def social_proxy(
    n: int,
    k: int,
    triad: float,
    core_n: int,
    core_m: int,
    seed: int,
    *,
    plexes: int = 0,
    plex_size: int = 0,
    plex_missing: int = 0,
) -> Graph:
    """Social-network proxy: clustered periphery + dense random core.

    The optional planted near-cliques (a clique minus a small matching) model
    tight communities with a few missing links — the structure the paper's
    early-termination technique is designed to exploit.
    """
    g = social_graph(n, k, triad, seed=seed)
    rng = random.Random(seed + 999)
    core = rng.sample(range(n), core_n)
    core_edges = erdos_renyi_gnm(core_n, core_m, seed=seed + 1)
    for u, v in core_edges.edges():
        if not g.has_edge(core[u], core[v]):
            g.add_edge(core[u], core[v])
    for _ in range(plexes):
        members = rng.sample(range(n), plex_size)
        for i, u in enumerate(members):
            for v in members[i + 1:]:
                if not g.has_edge(u, v):
                    g.add_edge(u, v)
        rng.shuffle(members)
        for i in range(plex_missing):
            g.remove_edge(members[2 * i], members[2 * i + 1])
    return g


# Per-proxy builders.  Seeds are fixed so the same graph is produced in
# every process; sizes are tuned so the *slowest* paper baseline finishes
# each dataset in a few seconds under CPython.
_BUILDERS: dict[str, Callable[[], Graph]] = {
    "NA": lambda: mesh_graph(24, 32, stiffener_cliques=60, clique_size=8,
                             seed=101, window=3),
    "FB": lambda: social_proxy(1000, 8, 0.55, 120, 3600, seed=102,
                               plexes=25, plex_size=12, plex_missing=4),
    "WE": lambda: web_graph(1300, 2, hub_fraction=0.02, clique_size=10,
                            num_cliques=45, seed=103),
    "WK": lambda: _with_core(
        web_graph(1200, 4, hub_fraction=0.03, clique_size=7,
                  num_cliques=30, seed=104), 90, 1900, seed=1040),
    "SH": lambda: mesh_graph(26, 36, stiffener_cliques=60, clique_size=7,
                             seed=105, window=2),
    "ST": lambda: social_proxy(1200, 5, 0.6, 110, 3000, seed=106,
                               plexes=20, plex_size=11, plex_missing=3),
    "DB": lambda: overlapping_communities(
        1300, num_communities=230, mean_community_size=7,
        memberships_per_vertex=1.5, intra_probability=0.92,
        background_edges=260, seed=107),
    "DE": lambda: mesh_graph(16, 24, stiffener_cliques=80, clique_size=9,
                             seed=108, window=4),
    "DG": lambda: social_proxy(1100, 6, 0.6, 150, 5600, seed=109,
                               plexes=30, plex_size=13, plex_missing=4),
    "YO": lambda: social_proxy(1600, 3, 0.4, 90, 1700, seed=110,
                               plexes=15, plex_size=9, plex_missing=3),
    "PO": lambda: social_proxy(1300, 9, 0.45, 110, 2900, seed=111),
    "SK": lambda: _with_core(
        web_graph(1500, 5, hub_fraction=0.02, clique_size=11,
                  num_cliques=50, seed=112), 110, 2600, seed=1120),
    "CN": lambda: social_proxy(1500, 4, 0.45, 130, 4200, seed=113,
                               plexes=20, plex_size=10, plex_missing=3),
    "BA": lambda: _with_core(
        web_graph(1600, 6, hub_fraction=0.03, clique_size=9,
                  num_cliques=45, seed=114), 100, 2100, seed=1140),
    "OR": lambda: social_proxy(1200, 11, 0.6, 160, 6400, seed=115,
                               plexes=35, plex_size=14, plex_missing=5),
    "SO": lambda: social_proxy(1500, 6, 0.5, 120, 3400, seed=116,
                               plexes=20, plex_size=11, plex_missing=4),
}

DATASET_NAMES: tuple[str, ...] = tuple(_BUILDERS)

_CACHE: dict[str, Graph] = {}


def load_dataset(short_name: str) -> Graph:
    """Build (and cache) the proxy graph for a Table I dataset.

    ``short_name`` is the paper's two-letter code (NA, FB, ..., SO).
    """
    if not isinstance(short_name, str):
        raise InvalidParameterError(
            f"dataset code must be a string, got {short_name!r}; expected "
            f"one of {DATASET_NAMES}"
        )
    key = short_name.upper()
    builder = _BUILDERS.get(key)
    if builder is None:
        raise InvalidParameterError(
            f"unknown dataset {short_name!r}; expected one of {DATASET_NAMES}"
        )
    if key not in _CACHE:
        _CACHE[key] = builder()
    return _CACHE[key]


def paper_stats(short_name: str) -> PaperDatasetStats:
    """The original Table I row for a dataset code."""
    key = short_name.upper()
    if key not in PAPER_STATS:
        raise InvalidParameterError(
            f"unknown dataset {short_name!r}; expected one of {DATASET_NAMES}"
        )
    return PAPER_STATS[key]


def random_dataset(n: int, m: int, seed: int = 0) -> Graph:
    """Uniform random graph of a requested size (for smoke tests)."""
    return erdos_renyi_gnm(n, m, seed)
