"""One RunConfig, one set of knob checks: every front end rejects alike.

The API, ``CliqueService``, the JSON-lines protocol and the CLI all build
a :class:`repro.config.RunConfig` and validate it once.  The table below
pins that as behaviour: each bad knob is refused with
``InvalidParameterError`` (or ``ok: false``, or exit 2 and one line) by
every front end that can express it, and the protocol keeps serving
after the refusal.  A deleted scheduling knob is refused the same way:
as an option the algorithm does not take, an unknown request field or an
unknown flag.
"""

import dataclasses
import io
import json
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import repro
from repro import (
    InvalidParameterError,
    UnknownAlgorithmError,
    count_maximal_cliques,
    enumerate_to_sink,
    maximal_cliques,
    run_with_report,
)
from repro.cli import main
from repro.config import RunConfig
from repro.graph.builders import complete_graph
from repro.graph.io import write_edge_list
from repro.service import (
    CliqueService,
    ServiceClient,
    ServiceError,
    handle_request,
    serve_stdio,
    serve_tcp,
)

GRAPH = complete_graph(4)

K4 = {"op": "register", "n": 4,
      "edges": [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]],
      "name": "k4"}

#: the reproduced crash: a schema-valid request whose option the chosen
#: algorithm does not take.
REVERSE_SEARCH_ET = {"op": "count", "graph": "k4",
                     "algorithm": "reverse-search", "et_threshold": 2}

#: the environment a child ``python`` needs to import this checkout.
CHILD_ENV = {**os.environ,
             "PYTHONPATH": str(Path(repro.__file__).resolve().parents[1])}


def _case(api, pattern, *, n_jobs=(None, 1), service=None, request=None,
          protocol=None, cli=None, flag=None, knob=None):
    """One bad knob and how each front end spells it.

    ``api`` are keyword arguments for the entry points, tried with each
    ``n_jobs`` in ``n_jobs`` (``()`` when ``api`` sets it itself).
    ``service`` are ``CliqueService`` constructor arguments, ``request``
    per-request keyword arguments, ``protocol`` request fields and ``cli``
    the flags after the graph file.  Every refusal must match ``pattern``.
    ``flag`` is a deleted CLI flag, which argparse refuses with exit 2, and
    ``knob`` a deleted keyword, which ``CliqueService`` no longer takes.
    """
    return dict(api=api, pattern=pattern, n_jobs=n_jobs, service=service,
                request=request, protocol=protocol, cli=cli, flag=flag,
                knob=knob)


def _deleted(knob, value, flag=None):
    """A deleted scheduling knob: refused by name on every front end,
    whether ``value`` was once accepted or once refused as a bad value.
    ``flag`` is its old CLI spelling, where it had one."""
    return _case({knob: value},
                 rf"(takes no option|unknown request field\(s\)) {knob}\b",
                 request={knob: value}, protocol={knob: value}, flag=flag,
                 knob=knob)


CASES = {
    "x_aware-int": _deleted("x_aware", 1),
    "x_aware-false": _deleted("x_aware", False, ["--no-x-aware"]),
    "steal-str": _case({"steal": "yes"}, "steal", request={"steal": "yes"},
                       protocol={"steal": "yes"}),
    "chunks_per_worker-0": _deleted(
        "chunks_per_worker", 0, ["--chunks-per-worker", "0"]),
    "chunks_per_worker-bool": _deleted("chunks_per_worker", True),
    "chunks_per_worker-2": _deleted(
        "chunks_per_worker", 2, ["--chunks-per-worker", "2"]),
    "chunk_strategy-unknown": _deleted(
        "chunk_strategy", "bogus", ["--chunk-strategy", "bogus"]),
    "chunk_strategy-contiguous": _deleted(
        "chunk_strategy", "contiguous", ["--chunk-strategy", "contiguous"]),
    "cost_model-unknown": _deleted(
        "cost_model", "bogus", ["--cost-model", "bogus"]),
    "cost_model-candidates": _deleted(
        "cost_model", "candidates", ["--cost-model", "candidates"]),
    "n_jobs-0": _case({"n_jobs": 0}, "jobs", n_jobs=(),
                      service={"n_jobs": 0}, cli=["--jobs", "0"]),
    "n_jobs-bool": _case({"n_jobs": True}, "jobs", n_jobs=(),
                         service={"n_jobs": True}),
    "scheduling-without-n_jobs": _case(
        {"steal": True}, "steal.*requires.*jobs", n_jobs=(None,),
        cli=["--steal"]),
    "initial_x-with-n_jobs": _case(
        {"initial_x": {1}}, "initial_x", n_jobs=(1,),
        request={"initial_x": {1}}, protocol={"initial_x": [1]}),
    "unknown-option": _case({"bogus": 3}, "bogus", request={"bogus": 3},
                            protocol={"bogus": 3}),
    "et_threshold-on-reverse-search": _case(
        {"algorithm": "reverse-search", "et_threshold": 2},
        "reverse-search.*et_threshold",
        request={"algorithm": "reverse-search", "et_threshold": 2},
        protocol={"algorithm": "reverse-search", "et_threshold": 2}),
}

ENTRY_POINTS = {
    "enumerate_to_sink": lambda g, **kw: enumerate_to_sink(
        g, lambda clique: None, **kw),
    "maximal_cliques": maximal_cliques,
    "count_maximal_cliques": count_maximal_cliques,
    "run_with_report": run_with_report,
}


def _api_calls():
    for case_id, case in CASES.items():
        for n_jobs in case["n_jobs"] or ("given",):
            yield pytest.param(case_id, n_jobs,
                               id=f"{case_id}-n_jobs={n_jobs}")


def _with(front_end):
    return [case for case in CASES if CASES[case][front_end] is not None]


@pytest.mark.parametrize("entry", list(ENTRY_POINTS))
@pytest.mark.parametrize("case_id, n_jobs", list(_api_calls()))
def test_api_rejects(case_id, n_jobs, entry):
    case = CASES[case_id]
    kwargs = dict(case["api"])
    if n_jobs != "given":
        kwargs["n_jobs"] = n_jobs
    with pytest.raises(InvalidParameterError, match=case["pattern"]):
        ENTRY_POINTS[entry](GRAPH, **kwargs)


@pytest.mark.parametrize("case_id", _with("service"))
def test_service_constructor_rejects(case_id):
    case = CASES[case_id]
    with pytest.raises(InvalidParameterError, match=case["pattern"]):
        CliqueService(**case["service"])


@pytest.mark.parametrize("case_id", _with("knob"))
def test_service_constructor_takes_no_deleted_knob(case_id):
    case = CASES[case_id]
    with pytest.raises(TypeError, match=case["knob"]):
        CliqueService(**case["api"])


@pytest.fixture(scope="module")
def service():
    with CliqueService() as s:
        s.register(GRAPH, name="k4")
        yield s


@pytest.mark.parametrize("op", ["count", "enumerate", "fingerprint"])
@pytest.mark.parametrize("case_id", _with("request"))
def test_service_request_rejects(service, case_id, op):
    case = CASES[case_id]
    with pytest.raises(InvalidParameterError, match=case["pattern"]):
        getattr(service, op)("k4", **case["request"])


def _serve_lines(requests):
    """Responses of a stdio server fed ``requests``, one JSON line each."""
    stdin = io.StringIO("".join(json.dumps(r) + "\n" for r in requests))
    stdout = io.StringIO()
    with CliqueService() as service:
        assert serve_stdio(service, stdin=stdin, stdout=stdout) == 0
    return [json.loads(line) for line in stdout.getvalue().splitlines()]


@pytest.mark.parametrize("case_id", _with("protocol"))
def test_protocol_rejects_and_keeps_serving(case_id):
    case = CASES[case_id]
    bad = {"op": "count", "graph": "k4", **case["protocol"]}
    registered, refused, pong = _serve_lines([K4, bad, {"op": "ping"}])
    assert registered["ok"]
    assert refused["ok"] is False
    assert re.search(case["pattern"], refused["error"])
    assert pong["ok"] and pong["pong"]


@pytest.fixture(scope="module")
def graph_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "k4.txt"
    write_edge_list(GRAPH, path)
    return str(path)


@pytest.mark.parametrize("command", ["enumerate", "count", "verify"])
@pytest.mark.parametrize("case_id", _with("cli"))
def test_cli_rejects_with_one_line(graph_file, capsys, case_id, command):
    case = CASES[case_id]
    assert main([command, graph_file, *case["cli"]]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert len(err.strip().splitlines()) == 1
    assert re.search(case["pattern"], err), err


@pytest.mark.parametrize("command", ["enumerate", "count", "verify"])
@pytest.mark.parametrize("case_id", _with("flag"))
def test_cli_refuses_deleted_flag(graph_file, capsys, case_id, command):
    flag = CASES[case_id]["flag"]
    with pytest.raises(SystemExit) as exited:
        main([command, graph_file, "--jobs", "1", *flag])
    assert exited.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in \
        capsys.readouterr().err


def test_serve_refuses_deleted_flag(capsys):
    with pytest.raises(SystemExit) as exited:
        main(["serve", "--chunk-strategy", "contiguous"])
    assert exited.value.code == 2
    assert "unrecognized arguments: --chunk-strategy" in \
        capsys.readouterr().err


class TestSchemaValidRequestsKeepTheServerUp:
    """An option the algorithm does not take used to raise ``TypeError``
    out of ``handle_request``: stdio exited, TCP dropped the client."""

    def test_stdio_answers_and_keeps_serving(self):
        responses = _serve_lines([K4, REVERSE_SEARCH_ET, {"op": "ping"}])
        assert responses[1]["ok"] is False
        assert "et_threshold" in responses[1]["error"]
        assert "reverse-search" in responses[1]["error"]
        assert responses[2]["pong"]

    def test_tcp_answers_and_keeps_the_connection(self):
        ready = threading.Event()
        address = {}

        def on_ready(addr):
            address["port"] = addr[1]
            ready.set()

        with CliqueService() as service:
            thread = threading.Thread(
                target=serve_tcp, args=(service,),
                kwargs={"port": 0, "ready": on_ready}, daemon=True)
            thread.start()
            assert ready.wait(10)
            with ServiceClient(port=address["port"]) as client:
                client.request(K4)
                for option in ({"et_threshold": 2},
                               {"graph_reduction": True}):
                    bad = {"op": "count", "graph": "k4",
                           "algorithm": "reverse-search", **option}
                    with pytest.raises(ServiceError, match="takes no option"):
                        client.request(bad)
                    assert client.count("k4")["count"] == 1
                client.shutdown()
            thread.join(10)
            assert not thread.is_alive()

    def test_api_raises_invalid_parameter(self):
        with pytest.raises(InvalidParameterError, match="bogus"):
            count_maximal_cliques(GRAPH, bogus=3)
        with pytest.raises(InvalidParameterError, match="et_threshold"):
            count_maximal_cliques(GRAPH, algorithm="reverse-search",
                                  et_threshold=2)

    def test_served_by_a_real_process(self):
        requests = [K4, REVERSE_SEARCH_ET, {"op": "count", "graph": "k4"},
                    {"op": "shutdown"}]
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "serve"],
            input="".join(json.dumps(r) + "\n" for r in requests),
            capture_output=True, text=True, timeout=120, env=CHILD_ENV)
        assert proc.returncode == 0, proc.stderr
        responses = [json.loads(line) for line in proc.stdout.splitlines()]
        assert [r["ok"] for r in responses] == [True, False, True, True]
        assert responses[2]["count"] == 1


class TestUnknownAlgorithmMessage:
    """``UnknownAlgorithmError`` is a ``KeyError``; it must not print in
    quotes the way a dict key does."""

    def test_api_message(self):
        with pytest.raises(UnknownAlgorithmError) as excinfo:
            maximal_cliques(GRAPH, algorithm="nope")
        assert str(excinfo.value).startswith("unknown algorithm 'nope';")

    def test_cli_line(self, graph_file, capsys):
        assert main(["count", graph_file, "-a", "nope"]) == 2
        assert capsys.readouterr().err.startswith(
            "error: unknown algorithm 'nope';")

    def test_protocol_error(self, service):
        response, _ = handle_request(
            service, {"op": "count", "graph": "k4", "algorithm": 7})
        assert response["error"] == "algorithm name must be a string, got 7"


class TestRunConfig:
    def test_serial_config_validates_to_itself(self):
        config = RunConfig("hbbmc++", {"backend": "bitset"})
        assert config.validate(GRAPH) is config

    def test_parallel_config_gets_the_pool_defaults(self):
        config = RunConfig("hbbmc++", n_jobs=2).validate(GRAPH)
        assert (config.n_jobs, config.steal) == (2, False)

    def test_four_fields(self):
        assert [f.name for f in dataclasses.fields(RunConfig)] == \
            ["algorithm", "options", "n_jobs", "steal"]

    def test_explicit_permutation_is_checked_against_the_graph(self):
        RunConfig("hbbmc++", {"backend": "bitset", "bit_order": [3, 2, 1, 0]},
                  n_jobs=1).validate(GRAPH)
        with pytest.raises(InvalidParameterError, match="permutation"):
            RunConfig("hbbmc++", {"backend": "bitset", "bit_order": [1, 0]},
                      n_jobs=1).validate(GRAPH)

    def test_keywords_round_trip_through_the_api(self):
        config = RunConfig("bk-pivot", {"backend": "bitset"}, n_jobs=1,
                           steal=True)
        assert maximal_cliques(GRAPH, **config.keywords()) == [(0, 1, 2, 3)]


@pytest.mark.parametrize("n_jobs", [None, 1, 2])
@pytest.mark.parametrize("algorithm, option, pattern", [
    ("hbbmc++", {"edge_order_kind": "bogus"}, "edge ordering"),
    ("ebbmc", {"vertex_strategy": "bogus"}, "vertex strategy"),
    ("vbbmc-dgn", {"ordering_kind": "bogus"}, "vertex ordering"),
])
def test_unused_named_choice_is_still_refused(algorithm, option, pattern,
                                              n_jobs, monkeypatch):
    """A parallel subproblem may never read these knobs (the decomposition
    replaces the top level), so the parent refuses a bad one before any
    worker starts."""
    from repro.parallel import pool

    def refuse(*args, **kwargs):
        raise AssertionError("a refused request reached the pool")

    monkeypatch.setattr(pool.WorkerPool, "submit", refuse)
    with pytest.raises(InvalidParameterError, match=pattern):
        count_maximal_cliques(GRAPH, algorithm=algorithm, n_jobs=n_jobs,
                              **option)


def test_import_repro_loads_no_pool_or_service():
    code = ("import sys, repro; "
            "print(sorted(m for m in sys.modules if m.startswith("
            "('repro.parallel', 'repro.service', 'multiprocessing'))))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=CHILD_ENV).stdout
    assert out.strip() == "[]"


def test_cli_parser_loads_no_linter():
    """Every ``repro-mce`` start builds the parser, ``serve`` included: the
    ``lint`` flags must not compile the linter's checkers."""
    code = ("import sys; from repro.cli import build_parser; "
            "build_parser(); "
            "print(sorted(m for m in sys.modules "
            "if m.startswith('repro.analysis')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=CHILD_ENV).stdout
    assert out.strip() == "[]"
