"""Protocol and transport tests: stdio loop, TCP server + client."""

import io
import json
import socket
import threading

import pytest

from repro.graph.builders import complete_graph
from repro.graph.generators import erdos_renyi_gnm
from repro.graph.io import write_edge_list
from repro.service import (
    CliqueService,
    ServiceClient,
    ServiceError,
    handle_request,
    protocol,
    serve_stdio,
    serve_tcp,
)

K4_EDGES = [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]

REGISTER_K4 = {"op": "register", "n": 4, "edges": K4_EDGES, "name": "k4"}

#: requests whose non-string name used to reach ``.lower()``/``.upper()``:
#: the AttributeError escaped the error envelope and took the transport
#: down (a stdio server exited, a TCP connection dropped unanswered).
BAD_NAME_REQUESTS = [
    {"op": "count", "graph": "k4", "algorithm": 5},
    {"op": "count", "graph": "k4", "algorithm": [1]},
    {"op": "enumerate", "graph": "k4", "algorithm": 5},
    {"op": "enumerate", "graph": "k4", "algorithm": [1]},
    {"op": "fingerprint", "graph": "k4", "algorithm": 5},
    {"op": "fingerprint", "graph": "k4", "algorithm": [1]},
    {"op": "register", "dataset": 5},
    {"op": "register", "dataset": [1]},
]

#: every bad line above plus an inline edge past ``n`` and the removed
#: ``words`` backend; each must be answered ``ok: false`` with the
#: connection left open.
BAD_LINES = BAD_NAME_REQUESTS + [
    {"op": "register", "n": 3, "edges": [[0, 5]]},
    {"op": "count", "graph": "k4", "backend": "words"},
]


@pytest.fixture()
def service():
    with CliqueService() as s:
        yield s


class TestHandleRequest:
    def test_ping(self, service):
        response, shutdown = handle_request(service, {"op": "ping"})
        assert response["ok"] and response["pong"]
        assert not shutdown

    def test_register_and_count_inline_edges(self, service):
        response, _ = handle_request(
            service, {"op": "register", "n": 4, "edges": K4_EDGES,
                      "name": "k4"})
        assert response["ok"] and response["n"] == 4 and response["m"] == 6
        response, _ = handle_request(service, {"op": "count", "graph": "k4"})
        assert response["ok"] and response["count"] == 1

    def test_id_echoed_on_success_and_error(self, service):
        response, _ = handle_request(service, {"op": "ping", "id": 7})
        assert response["id"] == 7
        response, _ = handle_request(service, {"op": "bogus", "id": 8})
        assert response["id"] == 8 and not response["ok"]

    def test_unknown_op_is_an_error_response(self, service):
        response, shutdown = handle_request(service, {"op": "bogus"})
        assert not response["ok"] and "bogus" in response["error"]
        assert not shutdown

    def test_unknown_field_is_an_error_response(self, service):
        handle_request(service, {"op": "register", "n": 4,
                                 "edges": K4_EDGES, "name": "k4"})
        response, _ = handle_request(
            service, {"op": "count", "graph": "k4", "jobs": 4})
        assert not response["ok"] and "jobs" in response["error"]

    def test_inline_register_requires_exact_integers(self, service):
        # Regression: int() coercion used to silently truncate 2.7 -> 2.
        response, _ = handle_request(
            service, {"op": "register", "n": 2.7, "edges": [[0, 1]]})
        assert not response["ok"] and "integer" in response["error"]
        response, _ = handle_request(
            service, {"op": "register", "n": 4,
                      "edges": [[0, 1.5]]})
        assert not response["ok"]

    def test_bit_order_entries_require_exact_integers(self, service):
        handle_request(service, {"op": "register", "n": 4,
                                 "edges": K4_EDGES, "name": "k4"})
        response, _ = handle_request(
            service, {"op": "count", "graph": "k4", "backend": "bitset",
                      "bit_order": [0.0, 1.0, 2.0, 3.0]})
        assert not response["ok"] and "integer" in response["error"]

    @pytest.mark.parametrize("knob, value", [
        ("graph_reduction", "no"), ("graph_reduction", 0),
        ("et_threshold", True), ("et_threshold", 1.0),
    ])
    def test_engine_knobs_require_exact_types(self, service, knob, value):
        # Regression: forwarded unchecked, "graph_reduction": "no" used to
        # answer ok with reduction on, and True / 1.0 ran as t=1.
        handle_request(service, {"op": "register", "n": 4,
                                 "edges": K4_EDGES, "name": "k4"})
        for op in ("count", "enumerate", "fingerprint"):
            response, shutdown = handle_request(
                service, {"op": op, "graph": "k4", knob: value})
            assert not response["ok"] and knob in response["error"]
            assert not shutdown
        valid = {"graph_reduction": False, "et_threshold": 1}[knob]
        response, _ = handle_request(
            service, {"op": "count", "graph": "k4", knob: valid})
        assert response["ok"] and response["count"] == 1

    def test_name_conflict_is_an_error_and_registers_nothing(self, service):
        handle_request(service, {"op": "register", "n": 4,
                                 "edges": K4_EDGES, "name": "k4"})
        response, _ = handle_request(
            service, {"op": "register", "n": 3,
                      "edges": [[0, 1], [1, 2]], "name": "k4"})
        assert not response["ok"]
        graphs, _ = handle_request(service, {"op": "graphs"})
        assert len(graphs["graphs"]) == 1

    def test_register_needs_exactly_one_source(self, service):
        response, _ = handle_request(service, {"op": "register"})
        assert not response["ok"]
        response, _ = handle_request(
            service, {"op": "register", "dataset": "WE", "path": "x.txt"})
        assert not response["ok"]

    def test_register_missing_file_is_an_error_response(self, service):
        response, _ = handle_request(
            service, {"op": "register", "path": "/no/such/file.txt"})
        assert not response["ok"]

    def test_non_object_request_is_an_error_response(self, service):
        response, _ = handle_request(service, [1, 2, 3])
        assert not response["ok"]

    def test_malformed_bit_order_is_an_error_response(self, service):
        # Regression: int("x") used to escape the error envelope and kill
        # the whole server process.
        handle_request(service, {"op": "register", "n": 4,
                                 "edges": K4_EDGES, "name": "k4"})
        response, _ = handle_request(
            service, {"op": "count", "graph": "k4", "backend": "bitset",
                      "bit_order": ["x", "y"]})
        assert not response["ok"] and "bit_order" in response["error"]
        # The service keeps serving afterwards.
        response, _ = handle_request(service, {"op": "count", "graph": "k4"})
        assert response["ok"] and response["count"] == 1

    def test_malformed_graph_file_is_an_error_response(self, service,
                                                       tmp_path):
        # Regression: parser-level ValueErrors used to escape the error
        # envelope and kill the server.
        bad = tmp_path / "bad.col"
        bad.write_text("p edge abc 3\n")
        response, _ = handle_request(
            service, {"op": "register", "path": str(bad)})
        assert not response["ok"] and "bad.col" in response["error"]
        response, _ = handle_request(
            service, {"op": "register", "path": 123})
        assert not response["ok"]
        response, _ = handle_request(service, {"op": "ping"})
        assert response["ok"]

    @pytest.mark.parametrize("name,content,extra", [
        ("binary.txt", b"0 1\n\xff 2\n", {}),
        ("edges.json", b'{"n": 3, "edges": 5}', {}),
        ("range.json", b'{"n": 3, "edges": [[0, 5]]}', {}),
        ("k.txt", b"0 1\n", {"format": ["json"]}),
        # past the int-conversion digit limit: a plain ValueError in json
        ("huge.json", b'{"n": ' + b"9" * 5000 + b', "edges": []}', {}),
    ], ids=["binary", "edges", "range", "format", "huge"])
    def test_file_errors_need_no_catch_all(self, service, tmp_path, name,
                                           content, extra):
        # The readers raise GraphFormatError for every malformed field, so
        # the register op answers without a ValueError/TypeError net.
        path = tmp_path / name
        path.write_bytes(content)
        response, _ = handle_request(
            service, {"op": "register", "path": str(path), **extra})
        assert not response["ok"]
        assert name in response["error"] or "format" in response["error"]
        response, _ = handle_request(service, {"op": "ping"})
        assert response["ok"]

    @pytest.mark.parametrize("path", ["missing.txt", "a\0b.txt", "\ud800",
                                      "\ud800.txt.gz"])
    def test_unopenable_path_is_an_error_response(self, service, path):
        response, _ = handle_request(service, {"op": "register",
                                               "path": path})
        assert not response["ok"]
        response, _ = handle_request(service, {"op": "ping"})
        assert response["ok"]

    @pytest.mark.parametrize("request_", BAD_NAME_REQUESTS,
                             ids=[json.dumps(r) for r in BAD_NAME_REQUESTS])
    def test_non_string_names_are_error_responses(self, service, request_):
        handle_request(service, REGISTER_K4)
        response, shutdown = handle_request(service, request_)
        assert not response["ok"] and "must be a string" in response["error"]
        assert not shutdown

    def test_inline_endpoint_out_of_range_names_endpoint_and_n(self,
                                                               service):
        # Regression: the bare vertex KeyError used to answer "error": "5".
        response, _ = handle_request(
            service, {"op": "register", "n": 3, "edges": [[0, 5]]})
        assert not response["ok"]
        assert response["error"] == "vertex 5 is out of range for n=3"
        graphs, _ = handle_request(service, {"op": "graphs"})
        assert graphs["graphs"] == []

    def test_shutdown_signals_transport(self, service):
        response, shutdown = handle_request(service, {"op": "shutdown"})
        assert response["ok"] and response["bye"]
        assert shutdown

    def test_enumerate_with_limit_and_knobs(self, service):
        handle_request(service, {"op": "register", "n": 4,
                                 "edges": K4_EDGES, "name": "k4"})
        response, _ = handle_request(
            service, {"op": "enumerate", "graph": "k4", "limit": 5,
                      "backend": "bitset", "bit_order": "input",
                      "algorithm": "ebbmc++"})
        assert response["ok"]
        assert response["cliques"] == [[0, 1, 2, 3]]
        assert not response["truncated"]

    def test_steal_knob_round_trips(self, service):
        handle_request(service, {"op": "register", "n": 4,
                                 "edges": K4_EDGES, "name": "k4"})
        for op in ("count", "enumerate", "fingerprint"):
            response, _ = handle_request(
                service, {"op": op, "graph": "k4", "steal": True})
            assert response["ok"], response
            assert response["count"] == 1
        response, _ = handle_request(
            service, {"op": "count", "graph": "k4", "steal": 1})
        assert not response["ok"] and "steal" in response["error"]


class TestStdioTransport:
    def _drive(self, service, lines):
        stdin = io.StringIO("".join(line + "\n" for line in lines))
        stdout = io.StringIO()
        assert serve_stdio(service, stdin=stdin, stdout=stdout) == 0
        return [json.loads(line) for line in stdout.getvalue().splitlines()]

    def test_session_round_trip(self, service, tmp_path):
        path = tmp_path / "k4.txt"
        write_edge_list(complete_graph(4), path)
        responses = self._drive(service, [
            json.dumps({"op": "ping"}),
            json.dumps({"op": "register", "path": str(path), "name": "k4"}),
            json.dumps({"op": "count", "graph": "k4"}),
            json.dumps({"op": "count", "graph": "k4"}),
            json.dumps({"op": "stats"}),
            json.dumps({"op": "shutdown"}),
            json.dumps({"op": "ping"}),  # after shutdown: never served
        ])
        assert len(responses) == 6
        assert responses[2]["count"] == 1 and not responses[2]["warm"]
        assert responses[3]["warm"]
        assert responses[4]["stats"]["decompose_calls"] == 1
        assert responses[5]["bye"]

    def test_unusable_graph_files_keep_serving(self, service, tmp_path):
        # A path open() cannot encode and a JSON file json cannot convert
        # both raised plain ValueErrors, which ended the stdio loop.
        path = tmp_path / "huge.json"
        path.write_bytes(b'{"n": ' + b"9" * 5000 + b', "edges": []}')
        responses = self._drive(service, [
            '{"op": "register", "path": "\\ud800"}',
            json.dumps({"op": "ping"}),
            json.dumps({"op": "register", "path": str(path)}),
            json.dumps({"op": "ping"}),
        ])
        assert [r["ok"] for r in responses] == [False, True, False, True]
        assert "ud800" in responses[0]["error"]
        assert "huge.json" in responses[2]["error"]

    def test_bad_json_and_blank_lines_keep_serving(self, service):
        responses = self._drive(service, [
            "this is not json",
            "",
            json.dumps({"op": "ping"}),
        ])
        assert len(responses) == 2
        assert not responses[0]["ok"] and "bad JSON" in responses[0]["error"]
        assert responses[1]["pong"]

    def test_eof_without_shutdown_returns_cleanly(self, service):
        assert self._drive(service, [json.dumps({"op": "ping"})])[0]["ok"]

    def test_bad_lines_keep_serving(self, service):
        lines = [json.dumps(REGISTER_K4)]
        for bad in BAD_LINES:
            lines += [json.dumps(bad), json.dumps({"op": "count",
                                                   "graph": "k4"})]
        responses = self._drive(service, lines)
        assert len(responses) == len(lines)
        for bad, after in zip(responses[1::2], responses[2::2]):
            assert not bad["ok"], bad
            assert after["ok"] and after["count"] == 1, after


#: the cap the line-length tests patch in, so a line over it stays small.
SMALL_CAP = 64

#: an over-long line: one byte past the cap, and one spanning several
#: discard reads.
OVER_LONG = ["x" * (SMALL_CAP + 1), "y" * (3 * SMALL_CAP + 5)]


def _padded_ping() -> str:
    """A ping request exactly ``SMALL_CAP`` characters long."""
    line = json.dumps({"op": "ping"})
    return line[:-1] + " " * (SMALL_CAP - len(line)) + "}"


@pytest.fixture()
def small_cap(monkeypatch):
    monkeypatch.setattr(protocol, "MAX_REQUEST_BYTES", SMALL_CAP)


class TestRequestLineCap:
    """A line over ``MAX_REQUEST_BYTES`` is refused; the next is served."""

    def _check(self, responses):
        over, ping, over_again, at_cap = responses
        for refused in (over, over_again):
            assert not refused["ok"]
            assert f"longer than {SMALL_CAP} bytes" in refused["error"]
        assert ping["pong"] and at_cap["pong"]

    def test_stdio(self, service, small_cap):
        lines = [OVER_LONG[0], json.dumps({"op": "ping"}), OVER_LONG[1],
                 _padded_ping()]
        assert len(lines[-1]) == SMALL_CAP
        stdin = io.StringIO("".join(line + "\n" for line in lines))
        stdout = io.StringIO()
        assert serve_stdio(service, stdin=stdin, stdout=stdout) == 0
        self._check([json.loads(line)
                     for line in stdout.getvalue().splitlines()])

    def test_tcp(self, service, small_cap):
        thread, port = TestTCPTransport()._start(service)
        lines = [OVER_LONG[0], json.dumps({"op": "ping"}), OVER_LONG[1],
                 _padded_ping(), json.dumps({"op": "shutdown"})]
        with socket.create_connection(("127.0.0.1", port), timeout=30) \
                as conn, conn.makefile("rb") as replies:
            conn.sendall("".join(line + "\n" for line in lines).encode())
            responses = [json.loads(replies.readline()) for _ in lines]
        thread.join(10)
        assert not thread.is_alive()
        self._check(responses[:-1])
        assert responses[-1]["bye"]

    def test_cap_sits_far_above_inline_registers(self):
        # An inline register of G(110, 3300), the largest graph a
        # service-mixed client sends, is about 40 KB: the cap leaves room
        # for graphs a hundred times larger.
        g = erdos_renyi_gnm(110, 3300, seed=1)
        line = json.dumps({"op": "register", "n": g.n, "name": "large",
                           "edges": [list(e) for e in g.edges()]})
        assert 30_000 < len(line) and \
            100 * len(line) < protocol.MAX_REQUEST_BYTES


class TestTCPTransport:
    def _start(self, service):
        address = {}
        ready = threading.Event()

        def on_ready(addr):
            address["port"] = addr[1]
            ready.set()

        thread = threading.Thread(
            target=serve_tcp, args=(service,),
            kwargs={"port": 0, "ready": on_ready}, daemon=True,
        )
        thread.start()
        assert ready.wait(10), "server never became ready"
        return thread, address["port"]

    def test_client_round_trip_with_warm_stats(self):
        with CliqueService(n_jobs=2) as service:
            thread, port = self._start(service)
            with ServiceClient(port=port) as client:
                assert client.ping()["pong"]
                info = client.register_edges(4, K4_EDGES, name="k4")
                assert info["m"] == 6
                first = client.count("k4")
                second = client.count("k4", backend="bitset")
                third = client.enumerate("k4", limit=1)
                stats = client.stats()
                client.shutdown()
            thread.join(10)
            assert not thread.is_alive()
        assert first["count"] == 1 and not first["warm"]
        assert second["warm"] and third["warm"]
        assert stats["pool_spinups"] == 1
        assert stats["graph_ships"] == 1
        assert stats["decompose_calls"] == 1

    def test_bad_lines_keep_the_connection_open(self):
        with CliqueService() as service:
            thread, port = self._start(service)
            with ServiceClient(port=port) as client:
                client.request(REGISTER_K4)
                for bad in BAD_LINES:
                    with pytest.raises(
                            ServiceError,
                            match="must be a string|out of range"
                                  "|unknown backend"):
                        client.request(bad)
                    assert client.count("k4")["count"] == 1
                client.shutdown()
            thread.join(10)
            assert not thread.is_alive()

    def test_server_error_becomes_client_exception(self):
        with CliqueService() as service:
            thread, port = self._start(service)
            with ServiceClient(port=port) as client:
                with pytest.raises(ServiceError):
                    client.count("never-registered")
                client.shutdown()
            thread.join(10)


class TestMetricsServerLifecycle:
    """Pinned regression for the serve_metrics_http socket leak.

    A failing ready() callback used to propagate with the bound socket
    still open — nobody held a reference to close it.
    """

    def test_failing_ready_closes_socket(self, service, monkeypatch):
        from repro.service import server as server_module

        created = []

        class Recording(server_module.MetricsHTTPServer):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                created.append(self)

        monkeypatch.setattr(server_module, "MetricsHTTPServer", Recording)

        def ready(address):
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="boom"):
            server_module.serve_metrics_http(service, ready=ready)
        assert len(created) == 1
        assert created[0].socket.fileno() == -1

    def test_successful_start_returns_open_server(self, service):
        from repro.service import server as server_module

        server = server_module.serve_metrics_http(service)
        try:
            assert server.socket.fileno() != -1
        finally:
            server.shutdown()
            server.server_close()
