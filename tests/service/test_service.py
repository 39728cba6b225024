"""Service-layer tests: warm-path accounting and result fidelity.

The two properties that make the service trustworthy:

* **Warmth** — a second request against the same graph performs no
  ``decompose()`` call, no pool spin-up and no graph ship (asserted via
  ``stats()``), across algorithm/backend/bit-order changes.
* **Fidelity** — service-path clique streams are byte-identical to the
  direct ``maximal_cliques`` path, pinned by the committed golden-oracle
  fingerprints for every algorithm × backend × bit-order.
"""

import json
import pathlib
import threading

import pytest

from repro.api import ALGORITHMS, maximal_cliques
from repro.exceptions import InvalidParameterError
from repro.graph.adjacency import Graph
from repro.graph.builders import complete_graph
from repro.graph.generators import barabasi_albert, erdos_renyi_gnm
from repro.graph.io import load_graph
from repro.service import CliqueService
from repro.verify import clique_fingerprint

FIXTURES_DIR = pathlib.Path(__file__).parent.parent / "fixtures"
GOLDEN = json.loads((FIXTURES_DIR / "golden.json").read_text())


@pytest.fixture(scope="module")
def graph():
    return erdos_renyi_gnm(40, 260, seed=17)


def _backend_options(algorithm: str) -> list[dict]:
    if ALGORITHMS[algorithm].family == "reverse-search":
        return [{}]
    return [
        {"backend": "set"},
        {"backend": "bitset", "bit_order": "input"},
        {"backend": "bitset", "bit_order": "degeneracy"},
    ]


class TestWarmPath:
    def test_second_request_skips_every_prologue(self, graph):
        with CliqueService(n_jobs=2) as service:
            service.register(graph, name="g")
            first = service.count("g")
            after_first = service.stats()
            second = service.count("g")
            stats = service.stats()
        assert not first["warm"]
        assert second["warm"]
        assert first["count"] == second["count"]
        # The acceptance assertion: decompose ran once, the pool spun up
        # once, the graph shipped once — all before the second request.
        assert after_first["decompose_calls"] == 1
        assert stats["decompose_calls"] == 1
        assert stats["pool_spinups"] == 1
        assert stats["graph_ships"] == 1
        assert stats["requests"] == 2
        assert stats["warm_requests"] == 1

    def test_pool_reused_across_many_requests(self, graph):
        with CliqueService(n_jobs=2) as service:
            service.register(graph, name="g")
            results = [service.count("g", backend="set") for _ in range(4)]
            # Knob changes must not disturb the warm pool either.
            results.append(service.count("g", backend="bitset"))
            results.append(service.count("g", algorithm="ebbmc++",
                                         backend="bitset"))
            stats = service.stats()
        assert len({r["count"] for r in results[:5]}) == 1
        assert stats["requests"] == 6
        assert stats["pool_spinups"] == 1
        assert stats["graph_ships"] == 1
        assert all(r["warm"] for r in results[1:])

    def test_second_graph_ships_but_does_not_respawn(self, graph):
        with CliqueService(n_jobs=2) as service:
            service.register(graph, name="a")
            service.register(complete_graph(6), name="b")
            service.count("a")
            service.count("b")
            service.count("a")
            service.count("b")
            stats = service.stats()
        assert stats["pool_spinups"] == 1
        assert stats["graph_ships"] == 2
        assert stats["decompose_calls"] == 2
        assert stats["warm_requests"] == 2

    def test_inline_service_warms_artifact_cache(self, graph):
        with CliqueService(n_jobs=1) as service:
            service.register(graph, name="g")
            first = service.count("g")
            second = service.count("g")
            stats = service.stats()
        assert not first["warm"] and second["warm"]
        assert stats["decompose_calls"] == 1
        assert stats["pool_spinups"] == 0  # inline mode never forks
        assert stats["start_method"] == "inline"


class TestFidelity:
    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    def test_golden_fingerprints_full_matrix_inline(self, algorithm):
        """algorithm × backend × bit-order through one shared warm service."""
        name = "er_n26_dense"
        g = load_graph(FIXTURES_DIR / GOLDEN[name]["file"])
        with CliqueService(n_jobs=1) as service:
            service.register(g, name=name)
            for options in _backend_options(algorithm):
                result = service.fingerprint(name, algorithm=algorithm,
                                             **options)
                assert result["count"] == GOLDEN[name]["cliques"]
                assert result["sha256"] == GOLDEN[name]["sha256"]

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_golden_fingerprints_warm_pool(self, name):
        """Every fixture graph through one n_jobs=2 pool, repeated warm."""
        g = load_graph(FIXTURES_DIR / GOLDEN[name]["file"])
        with CliqueService(n_jobs=2) as service:
            service.register(g, name=name)
            for algorithm in ("hbbmc++", "ebbmc++", "bk-pivot"):
                for options in _backend_options(algorithm):
                    result = service.fingerprint(name, algorithm=algorithm,
                                                 **options)
                    assert result["sha256"] == GOLDEN[name]["sha256"]
            assert service.stats()["pool_spinups"] == 1
            assert service.stats()["decompose_calls"] == 1

    def test_service_matches_direct_path(self, graph):
        direct = clique_fingerprint(maximal_cliques(graph))
        with CliqueService(n_jobs=2) as service:
            service.register(graph, name="g")
            assert service.fingerprint("g")["sha256"] == direct
            enumerated = service.enumerate("g")
            assert clique_fingerprint(
                tuple(c) for c in enumerated["cliques"]) == direct
            assert service.count("g")["count"] == len(
                maximal_cliques(graph))

    def test_explicit_bit_order_permutation(self, graph):
        """Regression tie-in: permutations are valid through the service."""
        permutation = list(reversed(range(graph.n)))
        direct = clique_fingerprint(maximal_cliques(graph, backend="set"))
        with CliqueService(n_jobs=2) as service:
            service.register(graph, name="g")
            result = service.fingerprint("g", backend="bitset",
                                         bit_order=permutation)
        assert result["sha256"] == direct


class TestSetSideGraph:
    """A graph the default sends to ``set`` registers without masks; an
    explicit bitset request on it packs its view on first use."""

    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_explicit_bitset_request_answers_correctly(self, n_jobs):
        sparse = barabasi_albert(3000, 2, seed=9)
        want = maximal_cliques(sparse, backend="set")
        with CliqueService(n_jobs=n_jobs) as service:
            info = service.register(sparse, name="sparse")
            assert info["cached_bit_orders"] == []
            default = service.fingerprint("sparse", trace=True)
            named = service.fingerprint("sparse", backend="bitset",
                                        trace=True)
            again = service.count("sparse", backend="bitset")
        assert default["trace"]["attrs"]["backend"] == "set"
        assert named["trace"]["attrs"]["backend"] == "bitset"
        assert default["sha256"] == named["sha256"] == \
            clique_fingerprint(want)
        assert again["count"] == len(want) and again["warm"]


class TestRequestSurface:
    def test_enumerate_limit_and_truncation(self, graph):
        with CliqueService() as service:
            service.register(graph, name="g")
            full = service.enumerate("g")
            limited = service.enumerate("g", limit=3)
            empty = service.enumerate("g", limit=0)
        assert not full["truncated"]
        assert limited["truncated"] and len(limited["cliques"]) == 3
        assert limited["count"] == full["count"]
        assert empty["cliques"] == [] and empty["count"] == full["count"]

    @pytest.mark.parametrize("bad", [-1, -10, 2.5, True, "3"])
    def test_enumerate_rejects_bad_limit(self, graph, bad):
        with CliqueService() as service:
            service.register(graph, name="g")
            with pytest.raises(InvalidParameterError):
                service.enumerate("g", limit=bad)

    def test_unknown_graph_raises(self):
        with CliqueService() as service:
            with pytest.raises(InvalidParameterError):
                service.count("nope")

    def test_bad_options_fail_fast(self, graph):
        with CliqueService() as service:
            service.register(graph, name="g")
            with pytest.raises(Exception) as excinfo:
                service.count("g", algorithm="nope")
            assert "nope" in str(excinfo.value)
            for backend in ("nope", "words"):
                with pytest.raises(InvalidParameterError):
                    service.count("g", backend=backend)
            with pytest.raises(InvalidParameterError):
                service.count("g", backend="bitset", bit_order=[0, 0, 1])
            with pytest.raises(InvalidParameterError):
                service.count("g", initial_x={1})

    def test_empty_graph(self):
        with CliqueService(n_jobs=2) as service:
            service.register(Graph(0), name="empty")
            assert service.count("empty")["count"] == 0
            assert service.enumerate("empty")["cliques"] == []

    def test_register_file_and_dataset(self, tmp_path, graph):
        from repro.graph.io import write_edge_list

        path = tmp_path / "g.txt"
        write_edge_list(graph, path)
        with CliqueService() as service:
            info = service.register_file(path)
            assert info["name"] == "g"
            dataset = service.register_dataset("WE")
            assert dataset["name"] == "WE"
            assert {entry["name"] for entry in service.graphs()} \
                == {"g", "WE"}

    def test_constructor_validation(self):
        with pytest.raises(InvalidParameterError):
            CliqueService(n_jobs=0)


class TestStealRequests:
    @pytest.fixture(scope="class")
    def hub(self):
        from repro.graph.generators import ba_heavy_hub

        return ba_heavy_hub(200, 3, hub_parts=4, hub_part_size=3, seed=7)

    def test_steal_matches_static_across_ops(self, hub):
        # Named set runs and default (bitset) runs, against a set reference.
        reference = maximal_cliques(hub, backend="set")
        with CliqueService(n_jobs=2) as service:
            service.register(hub, name="hub")
            for options in ({"backend": "set"}, {}):
                count = service.count("hub", steal=True, **options)
                cliques = service.enumerate("hub", steal=True,
                                            **options)["cliques"]
                fingerprint = service.fingerprint("hub", steal=True,
                                                  **options)["sha256"]
                assert count["count"] == len(reference)
                # The service streams cliques in subproblem-position order;
                # canonically sorted they must match the direct path.
                assert sorted(tuple(c) for c in cliques) == reference
                assert fingerprint == clique_fingerprint(reference)

    def test_steal_plan_is_cached(self, hub):
        with CliqueService(n_jobs=2) as service:
            service.register(hub, name="hub")
            service.count("hub", steal=True)
            after_first = service.stats()
            service.count("hub", steal=True)
            stats = service.stats()
        assert after_first["steal_plan_builds"] == 1
        assert after_first["steal_plan_cache_hits"] == 0
        assert stats["steal_plan_builds"] == 1
        assert stats["steal_plan_cache_hits"] == 1

    def test_traced_steal_request_reports_schedule(self, hub):
        with CliqueService(n_jobs=2) as service:
            service.register(hub, name="hub")
            result = service.count("hub", steal=True, trace=True)
        parallel = result["parallel"]
        assert parallel["steal"] is True
        assert parallel["n_chunks"] == 8  # four per worker
        assert parallel["steals"] > 0
        tasks = [span["name"] for span in result["trace"]["children"]
                 if span["name"] not in
                 ("decompose", "pack", "ship", "execute", "merge")]
        assert tasks == ["chunk"] * parallel["n_chunks"]

    def test_steal_rejects_non_bool(self, graph):
        with CliqueService() as service:
            service.register(graph, name="g")
            with pytest.raises(InvalidParameterError):
                service.count("g", steal=1)


class TestShutdown:
    def test_clean_shutdown_is_idempotent(self, graph):
        service = CliqueService(n_jobs=2)
        service.register(graph, name="g")
        service.count("g")
        assert service.stats()["pool_live"]
        service.close()
        service.close()  # idempotent
        assert service.closed

    def test_requests_after_close_raise(self, graph):
        service = CliqueService()
        service.register(graph, name="g")
        service.close()
        with pytest.raises(InvalidParameterError):
            service.count("g")
        with pytest.raises(InvalidParameterError):
            service.register(complete_graph(3))


class TestObservationDuringRequest:
    """``stats`` and ``metrics`` take a short lock of their own, so they
    answer while a long request holds the request lock."""

    def test_stats_and_metrics_answer_while_a_request_runs(self, graph):
        service = CliqueService()
        service.register(graph, name="g")
        entered, release = threading.Event(), threading.Event()
        submit = service._pool.submit

        def parked(*args, **kwargs):
            entered.set()
            release.wait(30)
            return submit(*args, **kwargs)

        service._pool.submit = parked
        request = threading.Thread(target=service.count, args=("g",),
                                   daemon=True)
        request.start()
        try:
            assert entered.wait(30)
            for observe in (service.stats, service.metrics_snapshot,
                            service.metrics_text):
                box = []
                probe = threading.Thread(
                    target=lambda: box.append(observe()), daemon=True)
                probe.start()
                probe.join(1.0)
                assert box, f"{observe.__name__} waited behind the request"
            assert service.stats()["requests"] == 0
        finally:
            release.set()
            request.join(30)
            service.close()
        assert not request.is_alive()
        assert service.stats()["requests"] == 1
