"""Unit tests for the degeneracy-partitioned subproblem extraction."""

import pytest

from repro import api
from repro.api import get_algorithm, maximal_cliques, run_with_report
from repro.graph.adjacency import Graph
from repro.graph.bitadj import BitGraph
from repro.graph.builders import complete_graph
from repro.graph.generators import erdos_renyi_gnm, ring_of_cliques
from repro.parallel.aggregate import count_payload
from repro.parallel.decompose import (
    InPlaceRunner,
    decompose,
    solve_subproblem,
    subproblem_sets,
)

#: a graph whose subproblems all run edge and vertex branches.
TIER_GRAPH = erdos_renyi_gnm(120, 1500, seed=3)


class TestDecompose:
    def test_one_subproblem_per_vertex_in_order(self):
        g = erdos_renyi_gnm(30, 120, seed=3)
        d = decompose(g)
        assert len(d.subproblems) == g.n
        assert [s.position for s in d.subproblems] == list(range(g.n))
        assert sorted(s.vertex for s in d.subproblems) == list(range(g.n))
        assert [d.order[s.position] for s in d.subproblems] == \
            [s.vertex for s in d.subproblems]

    def test_empty_graph(self):
        d = decompose(Graph(0))
        assert d.subproblems == []
        assert d.total_cost == 0.0

    def test_costs_positive_and_total(self):
        g = erdos_renyi_gnm(25, 90, seed=1)
        d = decompose(g)
        assert all(s.cost >= 1.0 for s in d.subproblems)
        assert d.total_cost == pytest.approx(sum(s.cost for s in d.subproblems))

    def test_cost_is_complete_candidate_graph_plus_size(self):
        # G[later(v)] taken as complete: C(k, 2) + k + 1, k = |later(v)|.
        g = erdos_renyi_gnm(25, 90, seed=1)
        d = decompose(g)
        for s in d.subproblems:
            later, _ = subproblem_sets(g, d.position, s.vertex)
            k = len(later)
            assert s.cost == k * (k - 1) / 2 + k + 1

    def test_costs_track_density(self):
        # The root of a planted clique must out-weigh an isolated vertex.
        g = complete_graph(6)
        g.add_vertices(1)
        d = decompose(g)
        by_vertex = {s.vertex: s.cost for s in d.subproblems}
        # The isolated vertex peels first; order[1] is the clique root
        # whose candidate set holds the other five clique members.
        assert d.order[0] == 6
        assert by_vertex[d.order[1]] > by_vertex[6]

    def test_no_view_builds_no_masks(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("decompose built a bit view")

        monkeypatch.setattr(BitGraph, "from_graph", classmethod(refuse))
        decompose(erdos_renyi_gnm(60, 500, seed=11))


class TestSubproblemSets:
    def test_partitions_neighbourhood(self):
        g = erdos_renyi_gnm(20, 60, seed=5)
        d = decompose(g)
        for v in g.vertices():
            later, earlier = subproblem_sets(g, d.position, v)
            assert later | earlier == g.adj[v]
            assert later & earlier == set()
            assert all(d.position[w] > d.position[v] for w in later)
            assert all(d.position[w] < d.position[v] for w in earlier)


class TestSolveSubproblem:
    def test_union_over_subproblems_is_exact_partition(self):
        g = erdos_renyi_gnm(35, 180, seed=7)
        d = decompose(g)
        reference = maximal_cliques(g)
        found = []
        for v in d.order:
            cliques, counters = solve_subproblem(
                g, d.position, v, algorithm="hbbmc++",
                options={"backend": "set"})
            assert counters.emitted == len(cliques)
            assert counters.suppressed_candidates == 0
            found.extend(cliques)
        # Each maximal clique appears exactly once, from its earliest root.
        assert sorted(found) == reference
        assert len(found) == len(set(found))

    def test_each_clique_rooted_at_earliest_vertex(self):
        g = ring_of_cliques(5, 4)
        d = decompose(g)
        for v in d.order:
            cliques, _ = solve_subproblem(
                g, d.position, v, algorithm="bk-pivot",
                options={"backend": "set"})
            for clique in cliques:
                assert v in clique
                assert min(d.position[u] for u in clique) == d.position[v]

    def test_isolated_vertex_emits_singleton(self):
        g = Graph(3)
        g.add_edge(0, 1)
        d = decompose(g)
        singletons = []
        for v in d.order:
            cliques, _ = solve_subproblem(
                g, d.position, v, algorithm="hbbmc++",
                options={"backend": "set"})
            singletons.extend(c for c in cliques if len(c) == 1)
        assert singletons == [(2,)]

    def test_backend_option_forwarded(self):
        g = erdos_renyi_gnm(25, 120, seed=2)
        d = decompose(g)
        v = d.order[0]
        a, _ = solve_subproblem(g, d.position, v, algorithm="hbbmc++",
                                options={"backend": "set"})
        b, _ = solve_subproblem(g, d.position, v, algorithm="hbbmc++",
                                options={"backend": "bitset"})
        assert a == b

    def test_explicit_packing_reaches_subgraph_runs(self):
        # ebbmc++ runs its edge engine in place, on the whole-graph view
        # packed in the explicit order.
        g = erdos_renyi_gnm(25, 120, seed=2)
        d = decompose(g)
        order = list(reversed(range(g.n)))
        for v in d.order:
            a, _ = solve_subproblem(g, d.position, v, algorithm="ebbmc++",
                                    options={"backend": "set"})
            b, _ = solve_subproblem(
                g, d.position, v, algorithm="ebbmc++",
                options={"backend": "bitset", "bit_order": order})
            assert a == b

    def test_filtering_tier_counts_its_drops(self):
        # reverse-search cannot seed an exclusion set: it enumerates
        # G[later(v)] and drops what an earlier neighbour extends.
        g = erdos_renyi_gnm(25, 120, seed=2)
        d = decompose(g)
        found, suppressed = [], 0
        for v in d.order:
            cliques, counters = solve_subproblem(
                g, d.position, v, algorithm="reverse-search", options={})
            assert counters.emitted == len(cliques)
            suppressed += counters.suppressed_candidates
            found.extend(cliques)
        assert sorted(found) == maximal_cliques(g)
        assert suppressed > 0


def _options_at_default(algorithm):
    """Every option ``algorithm`` takes but ``backend``, at its registered
    value; ``initial_x`` cannot be combined with ``n_jobs`` at all."""
    spec = get_algorithm(algorithm)
    return [(name, spec.defaults[name])
            for name in sorted(spec.option_names - {"backend", "initial_x"})]


class TestTierFollowsOptionValues:
    """A subproblem's engine follows the algorithm's option values, never
    which option names a request carries."""

    @pytest.mark.parametrize("backend", ["set", "bitset"])
    @pytest.mark.parametrize(
        "algorithm, option, value",
        [(a, name, value) for a in ("hbbmc++", "vbbmc-dgn")
         for name, value in _options_at_default(a)],
        ids=lambda x: x if isinstance(x, str) else repr(x))
    def test_naming_a_default_keeps_every_counter(self, algorithm, option,
                                                  value, backend):
        plain = run_with_report(TIER_GRAPH, algorithm=algorithm, n_jobs=1,
                                backend=backend)
        named = run_with_report(TIER_GRAPH, algorithm=algorithm, n_jobs=1,
                                backend=backend, **{option: value})
        assert named.counters.as_dict() == plain.counters.as_dict()
        assert named.clique_count == plain.clique_count

    @pytest.mark.parametrize("backend", ["set", "bitset"])
    def test_named_vertex_strategy_runs_as_its_registered_twin(self,
                                                               backend):
        named = run_with_report(TIER_GRAPH, algorithm="hbbmc++", n_jobs=1,
                                backend=backend, vertex_strategy="ref")
        twin = run_with_report(TIER_GRAPH, algorithm="ref++", n_jobs=1,
                               backend=backend)
        assert named.counters.as_dict() == twin.counters.as_dict()

    @pytest.mark.parametrize("backend", ["set", "bitset"])
    def test_edge_depth_none_runs_the_edge_engine(self, backend):
        named = run_with_report(TIER_GRAPH, algorithm="hbbmc++", n_jobs=1,
                                backend=backend, edge_depth=None)
        twin = run_with_report(TIER_GRAPH, algorithm="ebbmc++", n_jobs=1,
                               backend=backend)
        assert named.counters.as_dict() == twin.counters.as_dict()
        assert twin.counters.edge_calls > 0
        assert twin.counters.vertex_calls == 0


class TestEdgeFamilyInPlace:
    """``ebbmc``/``ebbmc++`` subproblems run the edge engine in place."""

    @pytest.mark.parametrize("algorithm", ["ebbmc", "ebbmc++"])
    @pytest.mark.parametrize("backend", ["set", "bitset"])
    def test_no_framework_run_and_no_pack_per_subproblem(
            self, algorithm, backend, monkeypatch):
        g = erdos_renyi_gnm(40, 300, seed=4)
        d = decompose(g)
        runner = InPlaceRunner(g, d.position, algorithm=algorithm,
                               options={"backend": backend})

        def refuse(*args, **kwargs):
            raise AssertionError("a subproblem ran a framework or packed")

        monkeypatch.setattr(api, "enumerate_to_sink", refuse)
        monkeypatch.setattr(BitGraph, "from_graph", classmethod(refuse))
        found = [c for v in d.order for c in runner.subproblem(v)]
        assert sorted(found) == maximal_cliques(g, backend="set")
        assert runner.counters.edge_calls > 0
        assert runner.counters.vertex_calls == 0

    @pytest.mark.parametrize("backend", ["set", "bitset"])
    def test_counts_without_building_cliques(self, backend):
        g = erdos_renyi_gnm(40, 300, seed=4)
        d = decompose(g)
        options = {"backend": backend}
        collect = InPlaceRunner(g, d.position, algorithm="ebbmc++",
                                options=options)
        count = InPlaceRunner(g, d.position, algorithm="ebbmc++",
                              options=options, mode="count")
        for v in d.order:
            assert count.subproblem(v) == count_payload(collect.subproblem(v))
        assert count._found == []
        assert count.counters.as_dict() == collect.counters.as_dict()
