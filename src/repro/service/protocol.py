"""JSON-lines request protocol for the enumeration service.

One request per line, one response per line, both JSON objects.  The
transport (stdio pipe or TCP socket, :mod:`repro.service.server`) just
moves lines; everything semantic lives here so both transports — and the
tests — share one code path.

Requests
--------
Every request carries an ``op`` and optionally an ``id`` (echoed verbatim
in the response, for client-side correlation):

* ``{"op": "ping"}``
* ``{"op": "register", "path": FILE}`` — or ``"dataset": CODE``, or an
  inline graph ``"n": N, "edges": [[u, v], ...]``; optional ``"name"``,
  ``"format"`` (file registration only).  Inline edges follow the file
  readers' sanitisation convention (:mod:`repro.graph.io`): self-loops
  and duplicates are dropped.
* ``{"op": "graphs"}`` — list registered graphs.
* ``{"op": "count", "graph": NAME_OR_FINGERPRINT, ...}`` — optional
  ``algorithm``, ``backend``, ``bit_order``, ``et_threshold``,
  ``graph_reduction``, ``steal`` (``true`` selects the work-stealing
  schedule: many small chunks handed out largest first, with the same
  result and counters), ``trace`` (``true`` adds the span tree and
  per-chunk worker timeline to the response).  Any other field is
  refused.  Without a
  ``backend`` the request runs on the graph's default (``bitset``
  unless the graph is large and sparse, by a far lower bound for the
  vertex family; ``set`` for ``reverse-search``), which a traced
  response reports as the trace root's ``backend``;
  ``bit_order`` needs ``"backend": "bitset"``.
* ``{"op": "enumerate", "graph": ..., "limit": N, ...}`` — same knobs.
  ``cliques`` comes in subproblem-position order (the degeneracy order
  of each clique's earliest member), each clique ascending and each
  subproblem's cliques sorted; ``limit`` keeps the first N in that
  order.  So it is not the sorted list ``maximal_cliques`` returns: on
  a two-vertex graph with no edge, ``limit: 1`` answers ``[[1]]``.
* ``{"op": "fingerprint", "graph": ..., ...}`` — SHA256 of the canonical
  clique list (matches :func:`repro.verify.clique_fingerprint` on the
  direct path).
* ``{"op": "stats"}``
* ``{"op": "metrics"}`` — the service metrics registry; ``"format"``
  selects ``"json"`` (default, the registry snapshot) or ``"text"``
  (Prometheus exposition).
* ``{"op": "shutdown"}``

Responses
---------
``{"ok": true, ...payload...}`` on success;
``{"ok": false, "error": "one-line message"}`` on any user error (bad
JSON, unknown op, unknown graph/algorithm, invalid knob, a line longer
than :data:`MAX_REQUEST_BYTES`) — the service never tears down a
connection over a bad request.  Knob values are checked by the service's
:class:`repro.config.RunConfig`, as in the API.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any

from repro.exceptions import ReproError
from repro.graph.adjacency import Graph

if TYPE_CHECKING:
    from repro.service.core import CliqueService

PROTOCOL_VERSION = 1

#: The longest request line a transport reads (bytes on a socket,
#: characters on a text stream), newline excluded.  A longer line is
#: answered :func:`oversized_line` and the rest of it is discarded in
#: reads of this size, so no line costs more memory than the cap.  It
#: sits far above the inline registers clients send (a few tens of KB);
#: a larger graph registers from a file.
MAX_REQUEST_BYTES = 16 * 1024 * 1024

#: per-request enumeration knobs forwarded into the algorithm options.
OPTION_FIELDS = ("backend", "bit_order", "et_threshold", "graph_reduction")

_COMMON_FIELDS = {"op", "id"}


def _exact_int(value: object, what: str) -> int:
    """Accept only exact integers — ``2.7`` must not silently become 2."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ReproError(f"{what} must be an integer, got {value!r}")
    return value


def _request_kwargs(request: dict[str, Any], *extra: str) -> dict[str, Any]:
    """A request's keyword arguments for the service; unknown fields are
    rejected, values go on for the service's ``RunConfig`` to check."""
    fields = ("algorithm", "steal", "trace", *OPTION_FIELDS, *extra)
    allowed = _COMMON_FIELDS | {"graph", *fields}
    unknown = sorted(set(request) - allowed)
    if unknown:
        raise ReproError(
            f"unknown request field(s) {', '.join(unknown)}; "
            f"allowed: {', '.join(sorted(allowed))}"
        )
    return {field: request[field] for field in fields if field in request}


def _graph_key(request: dict[str, Any]) -> str:
    key = request.get("graph")
    if not isinstance(key, str) or not key:
        raise ReproError("request needs a 'graph' (registered name or "
                         "fingerprint)")
    return key


def _handle_register(service: CliqueService,
                     request: dict[str, Any]) -> dict[str, Any]:
    sources = [k for k in ("path", "dataset", "edges") if k in request]
    if len(sources) != 1:
        raise ReproError(
            "register needs exactly one graph source: 'path', 'dataset' "
            "or inline 'n' + 'edges'"
        )
    name = request.get("name")
    if name is not None and not isinstance(name, str):
        raise ReproError(f"name must be a string, got {name!r}")
    if "path" in request:
        path = request["path"]
        if not isinstance(path, str):
            raise ReproError(f"path must be a string, got {path!r}")
        # A malformed file or an unusable path raises GraphFormatError, a
        # missing or unreadable file OSError: both answer as user errors.
        return service.register_file(path, fmt=request.get("format"),
                                     name=name)
    if "format" in request:
        raise ReproError("'format' applies to file registration only")
    if "dataset" in request:
        return service.register_dataset(request["dataset"], name=name)
    try:
        n = _exact_int(request["n"], "n")
        edges = [(_exact_int(u, "edge endpoints"),
                  _exact_int(v, "edge endpoints"))
                 for u, v in request["edges"]]
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, ReproError):
            raise
        raise ReproError(
            "inline registration needs integer 'n' and 'edges' pairs"
        ) from exc
    g = Graph(n)
    for u, v in edges:
        # Same sanitisation convention as every file reader
        # (repro.graph.io): self-loops and duplicate edges carry no
        # information for MCE on simple graphs and are dropped.
        if u != v:
            g.add_edge(u, v)
    return service.register(g, name=name)


def handle_request(service: CliqueService,
                   request: object) -> tuple[dict[str, Any], bool]:
    """Execute one decoded request; returns ``(response, shutdown)``.

    User errors (anything :class:`ReproError`-shaped, plus malformed
    request objects) come back as ``ok: false`` responses; programming
    errors propagate so transports crash loudly instead of masking bugs.
    """
    response: dict[str, Any] = {"ok": True}
    request_id = request.get("id") if isinstance(request, dict) else None
    if request_id is not None:
        response["id"] = request_id
    shutdown = False
    try:
        if not isinstance(request, dict):
            raise ReproError("request must be a JSON object")
        op = request.get("op")
        if op == "ping":
            response["pong"] = True
            response["version"] = PROTOCOL_VERSION
        elif op == "register":
            response.update(_handle_register(service, request))
        elif op == "graphs":
            response["graphs"] = service.graphs()
        elif op == "count":
            kwargs = _request_kwargs(request)
            response.update(service.count(_graph_key(request), **kwargs))
        elif op == "enumerate":
            kwargs = _request_kwargs(request, "limit")
            response.update(service.enumerate(_graph_key(request), **kwargs))
        elif op == "fingerprint":
            kwargs = _request_kwargs(request)
            response.update(service.fingerprint(_graph_key(request),
                                                **kwargs))
        elif op == "stats":
            response["stats"] = service.stats()
        elif op == "metrics":
            fmt = request.get("format", "json")
            if fmt == "json":
                response["metrics"] = service.metrics_snapshot()
            elif fmt == "text":
                response["text"] = service.metrics_text()
            else:
                raise ReproError(
                    f"metrics format must be 'json' or 'text', got {fmt!r}"
                )
        elif op == "shutdown":
            response["bye"] = True
            shutdown = True
        else:
            raise ReproError(
                f"unknown op {op!r}; expected ping, register, graphs, "
                "count, enumerate, fingerprint, stats, metrics or shutdown"
            )
    except (ReproError, FileNotFoundError, OSError) as exc:
        response = {"ok": False, "error": str(exc)}
        if request_id is not None:
            response["id"] = request_id
    return response, shutdown


def oversized_line() -> str:
    """The response line for a request line over :data:`MAX_REQUEST_BYTES`."""
    return json.dumps({
        "ok": False,
        "error": f"request line longer than {MAX_REQUEST_BYTES} bytes; "
                 "register large graphs from a file ('path')",
    })


def handle_line(service: CliqueService, line: str) -> tuple[str, bool]:
    """Decode one request line, execute it, encode the response line."""
    try:
        request = json.loads(line)
    except json.JSONDecodeError as exc:
        return json.dumps({"ok": False, "error": f"bad JSON: {exc}"}), False
    response, shutdown = handle_request(service, request)
    return json.dumps(response), shutdown
