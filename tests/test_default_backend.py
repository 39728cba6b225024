"""The backend a request runs on when it names none, on every front end.

:func:`repro.core.frameworks.default_backend` picks ``bitset`` unless the
graph is large and sparse (``n*n > MAX_BITS_PER_EDGE*m``, or
``n*n > MAX_VERTEX_BITS_PER_EDGE*m`` for the vertex family), and
``reverse-search``, which has no bitmask engine, runs on ``set``.  A named
backend always wins.  The table below runs each case through the serial
API, the partitioned pipeline (``n_jobs=1`` in-process, ``n_jobs=2`` over
workers), ``CliqueService``, the JSON-lines protocol and the CLI, and reads
the backend the run took from its trace: the serial ``enumerate`` span, or
the trace root of a parallel or service run.
"""

import json

import pytest

from repro import count_maximal_cliques, enumerate_to_sink
from repro.api import ALGORITHMS
from repro.cli import main
from repro.config import RunConfig
from repro.core import frameworks
from repro.core.frameworks import (
    MAX_BITS_PER_EDGE,
    MAX_VERTEX_BITS_PER_EDGE,
    default_backend,
)
from repro.core.result import CliqueCounter
from repro.graph.adjacency import Graph
from repro.graph.generators import barabasi_albert, erdos_renyi_gnm
from repro.graph.io import write_edge_list
from repro.obs import Tracer
from repro.obs.trace import find_spans
from repro.service import CliqueService, handle_line

#: one graph on each side of the rule, one between its two bounds (bitset
#: for hbbmc++, set for the vertex family), and a small dense one that
#: reverse search enumerates quickly.
GRAPHS = {
    "dense": erdos_renyi_gnm(90, 2000, seed=5),
    "sparse": barabasi_albert(3000, 1, seed=5),
    "between": barabasi_albert(1000, 4, seed=5),
    "small": erdos_renyi_gnm(30, 200, seed=5),
}
COUNTS = {name: count_maximal_cliques(g, backend="set")
          for name, g in GRAPHS.items()}

#: (graph, request options, the backend the run must take).
CASES = {
    "dense-default": ("dense", {}, "bitset"),
    "sparse-default": ("sparse", {}, "set"),
    "dense-named-set": ("dense", {"backend": "set"}, "set"),
    "sparse-named-bitset": ("sparse", {"backend": "bitset"}, "bitset"),
    "small-default": ("small", {}, "bitset"),
    "small-reverse-search": ("small", {"algorithm": "reverse-search"},
                             "set"),
    "between-default": ("between", {}, "bitset"),
    "between-vertex-family": ("between", {"algorithm": "bk-pivot"}, "set"),
    "dense-vertex-family": ("dense", {"algorithm": "bk-pivot"}, "bitset"),
}


def _traced_backend(tree: dict) -> str:
    """The backend a traced run reports: on the serial ``enumerate`` span,
    else on the trace root."""
    spans = find_spans(tree, "enumerate")
    if spans and "backend" in spans[0]["attrs"]:
        return spans[0]["attrs"]["backend"]
    return tree["attrs"]["backend"]


@pytest.fixture(scope="module")
def service():
    with CliqueService(n_jobs=2) as s:
        for name, g in GRAPHS.items():
            s.register(g, name=name)
        yield s


@pytest.fixture(scope="module")
def graph_files(tmp_path_factory):
    directory = tmp_path_factory.mktemp("default-backend")
    paths = {}
    for name, g in GRAPHS.items():
        paths[name] = str(directory / f"{name}.txt")
        write_edge_list(g, paths[name])
    return paths


FRONT_ENDS = ["api-serial", "api-n_jobs=1", "api-n_jobs=2", "service",
              "handle_line", "cli", "cli-jobs=2"]


def _cli_count(path, options):
    """``repro count`` argv for ``options`` (algorithm, backend)."""
    argv = ["count", path]
    if "algorithm" in options:
        argv += ["-a", options["algorithm"]]
    if "backend" in options:
        argv += ["--backend", options["backend"]]
    return argv


def _run(front_end, name, options, service, graph_files, tmp_path, capsys):
    """``(count, trace tree)`` of one request through ``front_end``."""
    if front_end.startswith("api"):
        n_jobs = None if front_end == "api-serial" \
            else int(front_end.rsplit("=", 1)[1])
        tracer = Tracer("count")
        counter = CliqueCounter()
        enumerate_to_sink(GRAPHS[name], counter, n_jobs=n_jobs,
                          trace=tracer, **options)
        return counter.count, tracer.to_dict()
    if front_end == "service":
        result = service.count(name, trace=True, **options)
        return result["count"], result["trace"]
    if front_end == "handle_line":
        line, _ = handle_line(service, json.dumps(
            {"op": "count", "graph": name, "trace": True, **options}))
        response = json.loads(line)
        assert response["ok"], response
        return response["count"], response["trace"]
    trace_path = tmp_path / "trace.json"
    argv = _cli_count(graph_files[name], options) + ["--trace",
                                                      str(trace_path)]
    if front_end == "cli-jobs=2":
        argv += ["--jobs", "2"]
    assert main(argv) == 0
    row = capsys.readouterr().out.split()
    return int(row[1]), json.loads(trace_path.read_text())


@pytest.mark.parametrize("front_end", FRONT_ENDS)
@pytest.mark.parametrize("case", list(CASES))
def test_request_runs_on_the_resolved_backend(front_end, case, service,
                                              graph_files, tmp_path,
                                              capsys):
    name, options, want = CASES[case]
    count, tree = _run(front_end, name, options, service, graph_files,
                       tmp_path, capsys)
    assert count == COUNTS[name]
    assert _traced_backend(tree) == want


@pytest.mark.parametrize("case", list(CASES))
def test_cli_count_row_names_its_backend(case, graph_files, capsys):
    name, options, want = CASES[case]
    assert main(_cli_count(graph_files[name], options)) == 0
    assert capsys.readouterr().out.split()[-1] == want


def test_cli_count_all_names_each_rows_backend(graph_files, capsys):
    assert main(["count", graph_files["small"], "--all"]) == 0
    rows = {line.split()[0]: line.split()[-1]
            for line in capsys.readouterr().out.splitlines()}
    assert rows["reverse-search"] == "set"
    assert rows["hbbmc++"] == rows["bk-pivot"] == "bitset"


class TestRule:
    def test_the_two_sides(self):
        assert default_backend(GRAPHS["dense"]) == "bitset"
        assert default_backend(GRAPHS["sparse"]) == "set"

    def test_boundary_is_inclusive_on_the_bitset_side(self):
        # A star on MAX_BITS_PER_EDGE vertices plus one edge has
        # n*n == MAX_BITS_PER_EDGE * m exactly: still bitset.
        g = Graph(MAX_BITS_PER_EDGE)
        for v in range(1, MAX_BITS_PER_EDGE):
            g.add_edge(0, v)
        g.add_edge(1, 2)
        assert g.n * g.n == MAX_BITS_PER_EDGE * g.m
        assert default_backend(g) == "bitset"

    def test_vertex_family_boundary_is_inclusive_on_the_bitset_side(self):
        g = Graph(MAX_VERTEX_BITS_PER_EDGE)
        for v in range(1, MAX_VERTEX_BITS_PER_EDGE):
            g.add_edge(0, v)
        g.add_edge(1, 2)
        assert g.n * g.n == MAX_VERTEX_BITS_PER_EDGE * g.m
        assert default_backend(g, vertex_oriented=True) == "bitset"
        g.remove_edge(1, 2)
        assert default_backend(g, vertex_oriented=True) == "set"

    def test_each_family_resolves_by_its_bound(self):
        g = GRAPHS["between"]
        assert MAX_VERTEX_BITS_PER_EDGE * g.m < g.n * g.n \
            <= MAX_BITS_PER_EDGE * g.m
        for name, spec in ALGORITHMS.items():
            want = "set" if spec.family in ("vertex", "reverse-search") \
                else "bitset"
            assert spec.backend_for(g) == want, name

    def test_runners_resolve_as_backend_for(self, monkeypatch):
        # A runner called directly with no backend decides as the
        # registry entry does: read the backend its engine context gets.
        seen = []
        make_context = frameworks.make_context

        def recording(*args, **kwargs):
            seen.append(kwargs["backend"])
            return make_context(*args, **kwargs)

        monkeypatch.setattr(frameworks, "make_context", recording)
        g = GRAPHS["between"]
        for name, spec in ALGORITHMS.items():
            if spec.family == "reverse-search":
                continue
            seen.clear()
            spec.runner(g, CliqueCounter())
            assert seen == [spec.backend_for(g)], name

    @pytest.mark.parametrize("n", [20000, 50000])
    def test_large_sparse_barabasi_albert_runs_on_set(self, n):
        assert default_backend(barabasi_albert(n, 4, seed=1)) == "set"

    def test_validate_writes_the_backend_into_the_options(self):
        g = GRAPHS["dense"]
        assert RunConfig("hbbmc++").validate(g).options == \
            {"backend": "bitset"}
        assert RunConfig("hbbmc++", n_jobs=2).validate(g).options == \
            {"backend": "bitset"}
        assert RunConfig("reverse-search").validate(g).options == \
            {"backend": "set"}
        named = RunConfig("hbbmc++", {"backend": "set"})
        assert named.validate(g) is named

    def test_bit_order_still_needs_a_named_bitset_backend(self):
        from repro import InvalidParameterError

        for n_jobs in (None, 1):
            with pytest.raises(InvalidParameterError,
                               match="requires backend='bitset'"):
                count_maximal_cliques(GRAPHS["dense"], n_jobs=n_jobs,
                                      bit_order="input")
