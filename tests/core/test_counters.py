"""Unit tests for counters and run reports, plus the set/bitset
counter-parity regression pins for the early-termination path."""

import random

import pytest

from repro.api import (
    count_maximal_cliques,
    enumerate_to_sink,
    get_algorithm,
    maximal_cliques,
    run_with_report,
)
from repro.core.counters import Counters, RunReport
from repro.core.result import CliqueCounter
from repro.graph.generators import erdos_renyi_gnm, erdos_renyi_gnp, plex_caveman
from repro.graph.generators.dataset_suite import social_proxy
from repro.parallel import pool as pool_module


class TestCounters:
    def test_defaults_zero(self):
        c = Counters()
        assert c.total_calls == 0
        assert c.et_ratio == 0.0

    def test_total_calls(self):
        c = Counters(vertex_calls=3, edge_calls=4)
        assert c.total_calls == 7

    def test_et_ratio(self):
        c = Counters(plex_branches=10, plex_terminable=4)
        assert c.et_ratio == 0.4

    def test_as_dict_round_trip(self):
        c = Counters(vertex_calls=5, emitted=2)
        d = c.as_dict()
        assert d["vertex_calls"] == 5
        assert d["emitted"] == 2
        assert set(d) >= {"edge_calls", "et_hits", "reduction_removed"}

    def test_merge(self):
        a = Counters(vertex_calls=1, et_hits=2)
        b = Counters(vertex_calls=10, edge_calls=3)
        a.merge(b)
        assert a.vertex_calls == 11
        assert a.edge_calls == 3
        assert a.et_hits == 2


def _run_counters(g, algorithm, backend, **options):
    counter = CliqueCounter()
    counters = enumerate_to_sink(g, counter, algorithm=algorithm,
                                 backend=backend, **options)
    return counters.as_dict()


#: the counters a silent ET-path divergence would move first.
ET_KEYS = ("plex_branches", "plex_terminable", "et_hits", "et_cliques",
           "emitted")

DENSE_SEED_GRAPHS = [
    ("gnm-50-650", erdos_renyi_gnm(50, 650, seed=42)),
    ("gnp-40-06", erdos_renyi_gnp(40, 0.6, seed=13)),
    ("plex-caveman", plex_caveman(3, 12, 3, seed=1)),
]


class TestBackendCounterParity:
    """ET counters pinned between backends on fixed dense seeds.

    The edge engine branches identically under both representations, so
    its counters must agree *exactly* — a silent divergence anywhere in
    the bit-native ET path (plex check, decomposition, clique assembly)
    fails here loudly.  The tomita vertex phases may legitimately pick
    different equal-degree pivots between the set and bitset backends
    (documented in :mod:`repro.core.bit_phases`), so for them the
    per-configuration counter values are pinned literally instead.
    """

    @pytest.mark.parametrize("backend", ["bitset"])
    @pytest.mark.parametrize("bit_order", ["input", "degeneracy", "shuffled"])
    @pytest.mark.parametrize(
        "graph", [g for _, g in DENSE_SEED_GRAPHS],
        ids=[name for name, _ in DENSE_SEED_GRAPHS],
    )
    def test_edge_engine_exact_parity(self, graph, bit_order, backend):
        if bit_order == "shuffled":  # an explicit, seeded permutation
            bit_order = random.Random(graph.n).sample(range(graph.n), graph.n)
        set_counters = _run_counters(graph, "ebbmc++", "set")
        mask_counters = _run_counters(graph, "ebbmc++", backend,
                                      bit_order=bit_order)
        assert mask_counters == set_counters
        assert set_counters["et_hits"] > 0  # the pin actually covers ET

    #: regenerate with scripts in this file's history if branching rules
    #: change intentionally; any *unintentional* drift must fail.
    PINNED = {
        ("hbbmc++", "set", None): {
            "plex_branches": 1711, "plex_terminable": 446, "et_hits": 446,
            "et_cliques": 811, "emitted": 1150,
        },
        ("hbbmc++", "bitset", "input"): {
            "plex_branches": 1724, "plex_terminable": 450, "et_hits": 450,
            "et_cliques": 817, "emitted": 1150,
        },
        ("hbbmc++", "bitset", "degeneracy"): {
            "plex_branches": 1734, "plex_terminable": 451, "et_hits": 451,
            "et_cliques": 810, "emitted": 1150,
        },
        ("vbbmc-dgn", "set", None): {
            "plex_branches": 872, "plex_terminable": 473, "et_hits": 473,
            "et_cliques": 827, "emitted": 1150,
        },
        ("vbbmc-dgn", "bitset", "input"): {
            "plex_branches": 870, "plex_terminable": 489, "et_hits": 489,
            "et_cliques": 848, "emitted": 1150,
        },
        ("vbbmc-dgn", "bitset", "degeneracy"): {
            "plex_branches": 880, "plex_terminable": 480, "et_hits": 480,
            "et_cliques": 827, "emitted": 1150,
        },
    }

    @pytest.mark.parametrize("key", sorted(PINNED, key=str))
    def test_vertex_engine_pinned_counters(self, key):
        algorithm, backend, bit_order = key
        g = erdos_renyi_gnm(50, 650, seed=42)
        options = {"bit_order": bit_order} if bit_order else {}
        counters = _run_counters(g, algorithm, backend, **options)
        assert {k: counters[k] for k in ET_KEYS} == self.PINNED[key]

    @pytest.mark.parametrize(
        "graph", [g for _, g in DENSE_SEED_GRAPHS],
        ids=[name for name, _ in DENSE_SEED_GRAPHS],
    )
    @pytest.mark.parametrize("backend", ["bitset"])
    @pytest.mark.parametrize("algorithm", ["hbbmc++", "vbbmc-dgn"])
    def test_assembled_clique_counts_match(self, algorithm, backend, graph):
        """Whatever the pivot ties do, the assembled output cannot move."""
        set_counters = _run_counters(graph, algorithm, "set")
        for bit_order in ("input", "degeneracy"):
            mask_counters = _run_counters(graph, algorithm, backend,
                                          bit_order=bit_order)
            assert mask_counters["emitted"] == set_counters["emitted"]
            assert mask_counters["et_hits"] == mask_counters["plex_terminable"]
            assert mask_counters["et_cliques"] >= mask_counters["et_hits"]


#: a sparse social proxy: most root edge branches have |C| <= 2, the
#: branches the bitset edge root hands its alive masks, not a dual view.
SPARSE_SOCIAL = social_proxy(200, 4, 0.5, 30, 200, seed=5, plexes=4,
                             plex_size=8, plex_missing=2)


def _packing(g, name):
    """A bit order by name; ``shuffled`` is a seeded explicit permutation."""
    if name == "shuffled":
        return random.Random(g.n).sample(range(g.n), g.n)
    return name


FULL_PIN_GRAPHS = {
    "gnm-50-650": DENSE_SEED_GRAPHS[0][1],
    "social-200": SPARSE_SOCIAL,
}

#: the Counters fields a bitset run of these algorithms moves; every other
#: field must stay 0.
FULL_PIN_COLUMNS = ('vertex_calls', 'edge_calls', 'plex_branches', 'plex_terminable', 'et_hits', 'et_cliques', 'emitted')


class TestFullCounterPins:
    """Every Counters field of the bitset edge and vertex roots, pinned.

    Every branch counts as one ``vertex_calls``, however the engine
    reaches its answer; a path that skipped or doubled a charge would pass
    every output check and move only these numbers.  ``PINNED`` was
    recorded before the edge root stopped building a dual view for its
    |C| <= 2 branches; ``IN_PLACE_PINNED`` and ``RULE_PINNED`` before the
    tomita phase got its same-view fast path.  ``shuffled`` is the seeded
    explicit permutation of :class:`TestBackendCounterParity`.
    """

    PINNED = {
        ("gnm-50-650", "hbbmc++", "input"):
            (2175,    1, 1724,  450,  450,  817, 1150),
        ("gnm-50-650", "hbbmc++", "degeneracy"):
            (2193,    1, 1734,  451,  451,  810, 1150),
        ("gnm-50-650", "hbbmc++", "shuffled"):
            (2186,    1, 1716,  467,  467,  830, 1150),
        ("gnm-50-650", "hbbmc", "input"):
            (2534,    1,    0,    0,    0,    0, 1150),
        ("gnm-50-650", "hbbmc", "degeneracy"):
            (2537,    1,    0,    0,    0,    0, 1150),
        ("gnm-50-650", "hbbmc", "shuffled"):
            (2565,    1,    0,    0,    0,    0, 1150),
        ("gnm-50-650", "hbbmc-dgn", "input"):
            (2204,    1, 1563,  466,  466,  797, 1150),
        ("gnm-50-650", "hbbmc-dgn", "degeneracy"):
            (2201,    1, 1575,  473,  473,  810, 1150),
        ("gnm-50-650", "hbbmc-dgn", "shuffled"):
            (2173,    1, 1562,  458,  458,  795, 1150),
        ("gnm-50-650", "vbbmc-dgn", "input"):
            (1576,    0,  870,  489,  489,  848, 1150),
        ("gnm-50-650", "vbbmc-dgn", "degeneracy"):
            (1579,    0,  880,  480,  480,  827, 1150),
        ("gnm-50-650", "vbbmc-dgn", "shuffled"):
            (1580,    0,  873,  479,  479,  830, 1150),
        ("social-200", "hbbmc++", "input"):
            (1227,    1,  885,  180,  180,  211,  654),
        ("social-200", "hbbmc++", "degeneracy"):
            (1229,    1,  887,  167,  167,  198,  654),
        ("social-200", "hbbmc++", "shuffled"):
            (1226,    1,  884,  186,  186,  219,  654),
        ("social-200", "hbbmc", "input"):
            (1243,    1,    0,    0,    0,    0,  654),
        ("social-200", "hbbmc", "degeneracy"):
            (1243,    1,    0,    0,    0,    0,  654),
        ("social-200", "hbbmc", "shuffled"):
            (1243,    1,    0,    0,    0,    0,  654),
        ("social-200", "hbbmc-dgn", "input"):
            (1217,    1,  803,  246,  246,  329,  654),
        ("social-200", "hbbmc-dgn", "degeneracy"):
            (1220,    1,  805,  246,  246,  329,  654),
        ("social-200", "hbbmc-dgn", "shuffled"):
            (1215,    1,  803,  248,  248,  333,  654),
        ("social-200", "vbbmc-dgn", "input"):
            ( 862,    0,  446,  249,  249,  414,  654),
        ("social-200", "vbbmc-dgn", "degeneracy"):
            ( 866,    0,  449,  248,  248,  413,  654),
        ("social-200", "vbbmc-dgn", "shuffled"):
            ( 864,    0,  438,  241,  241,  406,  654),
    }

    #: the in-place tier (``n_jobs=1``): each subproblem runs the tomita
    #: phase on the whole graph's masks, so every branch is same-view.
    IN_PLACE_PINNED = {
        ("gnm-50-650", "hbbmc++", "input"):
            ( 1575,    0,  870,  489,  489,  848, 1150),
        ("gnm-50-650", "hbbmc++", "degeneracy"):
            ( 1578,    0,  880,  480,  480,  827, 1150),
        ("gnm-50-650", "hbbmc++", "shuffled"):
            ( 1579,    0,  873,  479,  479,  830, 1150),
        ("gnm-50-650", "vbbmc-dgn", "input"):
            ( 1575,    0,  870,  489,  489,  848, 1150),
        ("gnm-50-650", "vbbmc-dgn", "degeneracy"):
            ( 1578,    0,  880,  480,  480,  827, 1150),
        ("gnm-50-650", "vbbmc-dgn", "shuffled"):
            ( 1579,    0,  873,  479,  479,  830, 1150),
        ("social-200", "hbbmc++", "input"):
            (  869,    0,  428,  241,  241,  404,  654),
        ("social-200", "hbbmc++", "degeneracy"):
            (  879,    0,  439,  234,  234,  397,  654),
        ("social-200", "hbbmc++", "shuffled"):
            (  863,    0,  432,  242,  242,  409,  654),
        ("social-200", "vbbmc-dgn", "input"):
            (  869,    0,  428,  241,  241,  404,  654),
        ("social-200", "vbbmc-dgn", "degeneracy"):
            (  879,    0,  439,  234,  234,  397,  654),
        ("social-200", "vbbmc-dgn", "shuffled"):
            (  863,    0,  432,  242,  242,  409,  654),
    }

    #: the pivot rules other than tomita on the bitset backend: ``bk``
    #: (none), ``bk-ref`` and ``ref++`` (ref).
    RULE_PINNED = {
        ("gnm-50-650", "bk", "input"):
            (15431,    0,    0,    0,    0,    0, 1150),
        ("gnm-50-650", "bk", "degeneracy"):
            (15431,    0,    0,    0,    0,    0, 1150),
        ("gnm-50-650", "bk", "shuffled"):
            (15431,    0,    0,    0,    0,    0, 1150),
        ("gnm-50-650", "bk-ref", "input"):
            ( 2682,    0,    0,    0,    0,    0, 1150),
        ("gnm-50-650", "bk-ref", "degeneracy"):
            ( 2681,    0,    0,    0,    0,    0, 1150),
        ("gnm-50-650", "bk-ref", "shuffled"):
            ( 2680,    0,    0,    0,    0,    0, 1150),
        ("gnm-50-650", "ref++", "input"):
            ( 2429,    1, 1787,  506,  506,  882, 1150),
        ("gnm-50-650", "ref++", "degeneracy"):
            ( 2429,    1, 1789,  507,  507,  885, 1150),
        ("gnm-50-650", "ref++", "shuffled"):
            ( 2400,    1, 1775,  520,  520,  898, 1150),
        ("social-200", "bk", "input"):
            ( 3311,    0,    0,    0,    0,    0,  654),
        ("social-200", "bk", "degeneracy"):
            ( 3311,    0,    0,    0,    0,    0,  654),
        ("social-200", "bk", "shuffled"):
            ( 3311,    0,    0,    0,    0,    0,  654),
        ("social-200", "bk-ref", "input"):
            ( 1434,    0,    0,    0,    0,    0,  654),
        ("social-200", "bk-ref", "degeneracy"):
            ( 1465,    0,    0,    0,    0,    0,  654),
        ("social-200", "bk-ref", "shuffled"):
            ( 1447,    0,    0,    0,    0,    0,  654),
        ("social-200", "ref++", "input"):
            ( 1647,    1, 1031,  260,  260,  292,  654),
        ("social-200", "ref++", "degeneracy"):
            ( 1663,    1, 1045,  259,  259,  290,  654),
        ("social-200", "ref++", "shuffled"):
            ( 1621,    1, 1025,  279,  279,  312,  654),
    }

    @staticmethod
    def _assert_pinned(counters, row):
        want = dict.fromkeys(counters, 0)
        want.update(zip(FULL_PIN_COLUMNS, row))
        assert counters == want

    @pytest.mark.parametrize("key", sorted(PINNED), ids="|".join)
    def test_bitset_counters(self, key):
        name, algorithm, bit_order = key
        g = FULL_PIN_GRAPHS[name]
        counters = _run_counters(g, algorithm, "bitset",
                                 bit_order=_packing(g, bit_order))
        self._assert_pinned(counters, self.PINNED[key])

    @pytest.mark.parametrize("key", sorted(IN_PLACE_PINNED), ids="|".join)
    def test_in_place_tier_counters(self, key):
        name, algorithm, bit_order = key
        g = FULL_PIN_GRAPHS[name]
        report = run_with_report(g, algorithm=algorithm, n_jobs=1,
                                 backend="bitset",
                                 bit_order=_packing(g, bit_order))
        self._assert_pinned(report.counters.as_dict(),
                            self.IN_PLACE_PINNED[key])

    @pytest.mark.parametrize("key", sorted(RULE_PINNED), ids="|".join)
    def test_pivot_rule_counters(self, key):
        name, algorithm, bit_order = key
        g = FULL_PIN_GRAPHS[name]
        counters = _run_counters(g, algorithm, "bitset",
                                 bit_order=_packing(g, bit_order))
        self._assert_pinned(counters, self.RULE_PINNED[key])

    def test_sparse_graph_is_mostly_tiny_root_branches(self):
        from repro.graph.truss import truss_edge_ordering

        g = SPARSE_SOCIAL
        rank = truss_edge_ordering(g).rank
        tiny = 0
        for (a, b), r in rank.items():
            size = sum(1 for w in g.common_neighbors(a, b)
                       if rank[(a, w) if a < w else (w, a)] > r
                       and rank[(b, w) if b < w else (w, b)] > r)
            tiny += size <= 2
        assert tiny > len(rank) // 2


class TestDefaultBackendCounters:
    """A run that names no backend is the run on the backend it resolves
    to (:meth:`repro.api.AlgorithmSpec.backend_for`): every counter of
    the :class:`TestFullCounterPins` algorithms is equal, serially and on
    the in-place tier."""

    ALGORITHMS = ("hbbmc++", "hbbmc", "hbbmc-dgn", "vbbmc-dgn", "bk",
                  "bk-ref", "ref++")

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("name", sorted(FULL_PIN_GRAPHS))
    def test_serial_default_is_the_resolved_run(self, name, algorithm):
        g = FULL_PIN_GRAPHS[name]
        default = enumerate_to_sink(g, CliqueCounter(), algorithm=algorithm)
        backend = get_algorithm(algorithm).backend_for(g)
        assert default.as_dict() == _run_counters(g, algorithm, backend)

    @pytest.mark.parametrize("algorithm", ["hbbmc++", "vbbmc-dgn"])
    @pytest.mark.parametrize("name", sorted(FULL_PIN_GRAPHS))
    def test_in_place_default_is_the_resolved_run(self, name, algorithm):
        g = FULL_PIN_GRAPHS[name]
        default = run_with_report(g, algorithm=algorithm, n_jobs=1)
        backend = get_algorithm(algorithm).backend_for(g)
        named = run_with_report(g, algorithm=algorithm, n_jobs=1,
                                backend=backend)
        assert default.counters.as_dict() == named.counters.as_dict()


class TestRunReport:
    def test_summary_mentions_key_figures(self):
        report = RunReport(
            algorithm="hbbmc++", clique_count=42, seconds=1.5,
            counters=Counters(vertex_calls=100),
        )
        text = report.summary()
        assert "hbbmc++" in text
        assert "42" in text
        assert "100" in text


#: a graph whose runs make vertex calls, edge calls and ET hits alike.
CALLER_GRAPH = erdos_renyi_gnm(120, 1500, seed=3)

#: each entry point, run with a caller's ``counters`` object.
ENTRY_POINTS = {
    "count": lambda g, c, **kw: count_maximal_cliques(g, counters=c, **kw),
    "collect": lambda g, c, **kw: maximal_cliques(g, counters=c, **kw),
    "sink": lambda g, c, **kw: enumerate_to_sink(g, lambda clique: None,
                                                 counters=c, **kw),
}

#: schedule id -> (n_jobs, steal)
SCHEDULES = {"serial": (None, None), "n_jobs=1": (1, None),
             "n_jobs=2": (2, None), "steal": (2, True)}
PARALLEL = [name for name in SCHEDULES if name != "serial"]


class TestCallerCounters:
    """A ``counters=`` object is filled under ``n_jobs`` as it is serially:
    with the counters ``run_with_report`` returns for the same run, added to
    whatever it held."""

    @pytest.mark.parametrize("schedule", PARALLEL)
    @pytest.mark.parametrize("entry", list(ENTRY_POINTS))
    def test_holds_the_run_counters(self, entry, schedule):
        n_jobs, steal = SCHEDULES[schedule]
        c = Counters()
        ENTRY_POINTS[entry](CALLER_GRAPH, c, n_jobs=n_jobs, steal=steal)
        want = run_with_report(CALLER_GRAPH, n_jobs=n_jobs).counters
        assert c.as_dict() == want.as_dict()
        assert c.vertex_calls > 0 and c.et_hits > 0

    @pytest.mark.parametrize("schedule", list(SCHEDULES))
    @pytest.mark.parametrize("entry", list(ENTRY_POINTS))
    def test_accumulates_over_earlier_counts(self, entry, schedule):
        n_jobs, steal = SCHEDULES[schedule]
        earlier = {name: 3 for name in Counters().as_dict()}
        c = Counters(**earlier)
        ENTRY_POINTS[entry](CALLER_GRAPH, c, n_jobs=n_jobs, steal=steal)
        want = Counters(**earlier)
        want.merge(run_with_report(CALLER_GRAPH, n_jobs=n_jobs).counters)
        assert c.as_dict() == want.as_dict()

    @pytest.mark.parametrize("schedule", PARALLEL)
    def test_returned_as_the_run_counters(self, schedule):
        n_jobs, steal = SCHEDULES[schedule]
        c = Counters()
        assert enumerate_to_sink(CALLER_GRAPH, lambda clique: None,
                                 n_jobs=n_jobs, steal=steal,
                                 counters=c) is c

    def test_never_shipped_with_a_task(self, monkeypatch):
        # The object stays with the caller; a task carries option values.
        shipped = []
        real = pool_module._solve_chunk

        def spy(graph_state, config, chunk, mode, context=None):
            shipped.append(set(config.options))
            return real(graph_state, config, chunk, mode, context)

        monkeypatch.setattr(pool_module, "_solve_chunk", spy)
        count_maximal_cliques(CALLER_GRAPH, n_jobs=1, counters=Counters())
        assert shipped and all("counters" not in s for s in shipped)
