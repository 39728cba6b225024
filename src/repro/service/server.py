"""Transports for the JSON-lines service protocol: stdio pipe and TCP.

Both transports delegate every request to
:func:`repro.service.protocol.handle_line`; the service's internal lock
serialises pool access, so the TCP server can thread per connection
without interleaving enumeration work.  Both read a line in bounded
reads of :data:`repro.service.protocol.MAX_REQUEST_BYTES`: a longer line
is answered ``ok: false``, the rest of it is discarded, and the next
line is served.

``repro-mce serve`` (see :mod:`repro.cli`) wraps these for the command
line; tests drive them directly with in-memory streams and ephemeral
ports.
"""

from __future__ import annotations

import http.server
import socketserver
import sys
import threading

from repro.service import protocol
from repro.service.protocol import handle_line


def _request_lines(readline):
    """Each line of a stream, read ``MAX_REQUEST_BYTES + 1`` at a time.

    ``readline(size)`` is a text or binary stream's.  A line over the cap
    yields ``None`` once its remainder has been read and dropped in reads
    of the same size; a stream that ends mid-line ends the iteration.
    """
    while True:
        limit = protocol.MAX_REQUEST_BYTES
        line = readline(limit + 1)
        if not line:
            return
        newline = "\n" if isinstance(line, str) else b"\n"
        if len(line) <= limit or line.endswith(newline):
            yield line
            continue
        while line and not line.endswith(newline):
            line = readline(limit + 1)
        yield None


def _answer(service, line: str | None) -> tuple[str | None, bool]:
    """The response line for one request line (``None``: a blank line,
    which gets none) and whether it asked for shutdown."""
    if line is None:
        return protocol.oversized_line(), False
    if not line.strip():
        return None, False
    return handle_line(service, line)


def serve_stdio(service, stdin=None, stdout=None) -> int:
    """Serve requests line-by-line from a pipe until EOF or ``shutdown``.

    Each response is written and flushed immediately, so a co-process
    driving the pipe sees strict request/response alternation.
    """
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    for line in _request_lines(stdin.readline):
        response, shutdown = _answer(service, line)
        if response is None:
            continue
        stdout.write(response + "\n")
        stdout.flush()
        if shutdown:
            break
    return 0


class _LineHandler(socketserver.StreamRequestHandler):
    """One TCP connection: newline-delimited requests until close."""

    def handle(self) -> None:
        for raw in _request_lines(self.rfile.readline):
            line = None if raw is None \
                else raw.decode("utf-8", errors="replace")
            response, shutdown = _answer(self.server.service, line)
            if response is None:
                continue
            self.wfile.write(response.encode("utf-8") + b"\n")
            self.wfile.flush()
            if shutdown:
                # shutdown() is safe here: handlers run on their own
                # thread, never the one inside serve_forever().
                self.server.shutdown()
                break


class ServiceTCPServer(socketserver.ThreadingTCPServer):
    """Threaded line-protocol server bound to a :class:`CliqueService`."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address, service):
        super().__init__(address, _LineHandler)
        self.service = service


def serve_tcp(service, host: str = "127.0.0.1", port: int = 0,
              *, ready=None) -> int:
    """Serve over TCP until a ``shutdown`` request arrives.

    ``port=0`` binds an ephemeral port; ``ready`` (if given) is called
    with the actual ``(host, port)`` once the socket is listening — the
    hook the round-trip tests and the CLI's "listening on" banner use.
    """
    with ServiceTCPServer((host, port), service) as server:
        if ready is not None:
            ready(server.server_address)
        server.serve_forever(poll_interval=0.05)
    return 0


class _MetricsHandler(http.server.BaseHTTPRequestHandler):
    """``GET /metrics`` → Prometheus text exposition; anything else 404."""

    def do_GET(self) -> None:
        if self.path.split("?", 1)[0] != "/metrics":
            self.send_error(404, "only /metrics is served")
            return
        body = self.server.service.metrics_text().encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type",
                         "text/plain; version=0.0.4; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format, *args) -> None:
        # Scrapes are periodic; echoing each one to stderr is noise.
        pass


class MetricsHTTPServer(http.server.ThreadingHTTPServer):
    """Prometheus scrape endpoint bound to a :class:`CliqueService`."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address, service):
        super().__init__(address, _MetricsHandler)
        self.service = service


def serve_metrics_http(service, host: str = "127.0.0.1", port: int = 0,
                       *, ready=None) -> MetricsHTTPServer:
    """Start a background ``/metrics`` scrape endpoint; returns the server.

    Runs on a daemon thread next to whichever main transport the service
    uses (``repro-mce serve --metrics PORT``).  The service lock makes the
    scrape safe against in-flight requests; the caller owns shutdown via
    the returned server (or process exit, since the thread is a daemon).
    """
    server = MetricsHTTPServer((host, port), service)
    try:
        if ready is not None:
            ready(server.server_address)
        thread = threading.Thread(target=server.serve_forever,
                                  kwargs={"poll_interval": 0.05},
                                  name="metrics-http", daemon=True)
        thread.start()
    except BaseException:
        # A failing ready() callback (or thread start) must not leak the
        # bound socket: nobody else holds a reference to close it.
        server.server_close()
        raise
    return server
