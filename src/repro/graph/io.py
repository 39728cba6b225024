"""Graph readers and writers.

Supported formats:

* **edge list** — one ``u v`` pair per line; ``#`` and ``%`` comments; this
  is the network-repository format the paper's datasets ship in.
* **DIMACS** — ``p edge n m`` header and ``e u v`` lines (1-based).
* **METIS** — header ``n m`` then one adjacency line per vertex (1-based).
* **JSON** — ``{"n": ..., "edges": [[u, v], ...]}`` for round-tripping;
  ``n`` and the ids must be JSON integers (not strings, floats or
  booleans).

All readers sanitise input the way the paper's experiments do: directions,
weights (trailing columns, or trailing fields of a JSON edge) and
self-loops are ignored, duplicates collapsed.
A malformed file raises :class:`~repro.exceptions.GraphFormatError` naming
the file, the line where the format gives one, and the offending token:
a non-integer count or vertex id, an id out of range, a JSON edge with
fewer than two ids, JSON the parser refuses, bytes that are not UTF-8, a
truncated gzip stream, a path that cannot name a file at all.

Every reader and writer is gzip-transparent: a path ending in ``.gz`` is
(de)compressed on the fly, because that is how network-repository and SNAP
datasets actually ship (``soc-foo.txt.gz``).  Format inference looks at
the suffix *under* the ``.gz``.
"""

from __future__ import annotations

import gzip
import json
import reprlib
import zlib
from pathlib import Path
from typing import Iterable, Iterator, TextIO

from repro.exceptions import GraphFormatError
from repro.graph.adjacency import Graph
from repro.graph.builders import LabeledGraph, from_edge_list

_COMMENT_PREFIXES = ("#", "%", "//")

#: what a damaged ``.gz`` stream raises part-way through a read.
_GZIP_ERRORS = (gzip.BadGzipFile, EOFError, zlib.error)


def _open_text(path: str | Path, mode: str = "r") -> TextIO:
    """Open a text file, decompressing/compressing when the path is ``.gz``.

    Reads keep undecodable bytes as lone surrogates (``surrogateescape``)
    so that :func:`_check_utf8` can report them with their line.  A path
    the OS cannot take (a NUL byte, a character the file-system encoding
    cannot encode) is a :class:`GraphFormatError` naming it.
    """
    errors = "surrogateescape" if mode == "r" else "strict"
    try:
        if str(path).lower().endswith(".gz"):
            return gzip.open(path, mode + "t", encoding="utf-8", errors=errors)
        return open(path, mode, encoding="utf-8", errors=errors)
    except ValueError as exc:
        raise GraphFormatError(
            f"{str(path)!r}: not a usable file name ({exc})") from None


def _check_utf8(text: str, path: str | Path, lineno: int) -> None:
    """Reject ``text``, read from line ``lineno`` on, if it held non-UTF-8."""
    if text.isascii():
        return
    try:
        text.encode("utf-8")
    except UnicodeEncodeError as exc:
        line = lineno + text.count("\n", 0, exc.start)
        bad = text[exc.start:exc.end].encode("utf-8", "surrogateescape")
        raise GraphFormatError(
            f"{path}:{line}: undecodable bytes {bad!r} (expected UTF-8)"
        ) from None


def _read_text(path: str | Path) -> str:
    """The whole of ``path`` as checked UTF-8 text."""
    try:
        with _open_text(path) as handle:
            text = handle.read()
    except _GZIP_ERRORS as exc:
        raise GraphFormatError(f"{path}: corrupt gzip stream ({exc})") from None
    _check_utf8(text, path, 1)
    return text


def _iter_data_lines(
    path: str | Path, *, blank_after_first: bool = False
) -> Iterator[tuple[int, str]]:
    """``(line number, stripped line)`` of every non-comment line.

    Blank lines are skipped, except after the first data line when
    ``blank_after_first``: a METIS adjacency line is empty for an
    isolated vertex.
    """
    keep_blank = False
    with _open_text(path) as handle:
        try:
            for lineno, raw in enumerate(handle, start=1):
                line = raw.strip()
                if not (line or keep_blank) \
                        or line.startswith(_COMMENT_PREFIXES):
                    continue
                _check_utf8(line, path, lineno)
                keep_blank = blank_after_first
                yield lineno, line
        except _GZIP_ERRORS as exc:
            raise GraphFormatError(
                f"{path}: corrupt gzip stream ({exc})") from None


def _parse_int(token: str, path: str | Path, lineno: int, what: str) -> int:
    """``token`` as an ``int``, or a format error naming it and its line."""
    try:
        return int(token)
    except ValueError:
        raise GraphFormatError(
            f"{path}:{lineno}: {what} must be an integer, got {token!r}"
        ) from None


def _parse_count(token: str, path: str | Path, lineno: int, what: str) -> int:
    """A non-negative integer field such as a vertex or edge count."""
    value = _parse_int(token, path, lineno, what)
    if value < 0:
        raise GraphFormatError(
            f"{path}:{lineno}: {what} must be >= 0, got {token!r}"
        )
    return value


def _is_exact_int(value: object) -> bool:
    """``int`` but not ``bool``: ``true`` and ``1.0`` are not vertex ids."""
    return isinstance(value, int) and not isinstance(value, bool)


def read_edge_list(path: str | Path) -> LabeledGraph:
    """Read a whitespace-separated edge list (labels may be any tokens)."""
    edges: list[tuple[str, str]] = []
    for lineno, line in _iter_data_lines(path):
        parts = line.split()
        if len(parts) < 2:
            raise GraphFormatError(
                f"{path}:{lineno}: expected at least two columns, got {line!r}"
            )
        edges.append((parts[0], parts[1]))
    return from_edge_list(edges)


def write_edge_list(g: Graph, path: str | Path, *, header: str | None = None) -> None:
    """Write the graph as a ``u v`` edge list."""
    with _open_text(path, "w") as handle:
        if header:
            for line in header.splitlines():
                handle.write(f"# {line}\n")
        handle.write(f"# n={g.n} m={g.m}\n")
        for u, v in g.edges():
            handle.write(f"{u} {v}\n")


def read_dimacs(path: str | Path) -> Graph:
    """Read a DIMACS ``.col``-style file (``p edge n m`` / ``e u v``)."""
    n = None
    edges: list[tuple[int, int, int]] = []
    for lineno, line in _iter_data_lines(path):
        parts = line.split()
        tag = parts[0].lower()
        if tag == "c":
            continue
        if tag == "p":
            if len(parts) < 4:
                raise GraphFormatError(f"{path}:{lineno}: malformed p-line {line!r}")
            n = _parse_count(parts[2], path, lineno, "vertex count")
            _parse_count(parts[3], path, lineno, "edge count")
            continue
        if tag == "e":
            if len(parts) < 3:
                raise GraphFormatError(f"{path}:{lineno}: malformed e-line {line!r}")
            edges.append((lineno,
                          _parse_int(parts[1], path, lineno, "vertex id") - 1,
                          _parse_int(parts[2], path, lineno, "vertex id") - 1))
            continue
        raise GraphFormatError(f"{path}:{lineno}: unknown record {line!r}")
    if n is None:
        raise GraphFormatError(f"{path}: missing 'p edge' header")
    g = Graph(n)
    for lineno, u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise GraphFormatError(
                f"{path}:{lineno}: edge ({u + 1}, {v + 1}) outside 1..{n}")
        if u != v:
            g.add_edge(u, v)
    return g


def write_dimacs(g: Graph, path: str | Path) -> None:
    """Write a DIMACS ``.col``-style file."""
    with _open_text(path, "w") as handle:
        handle.write(f"p edge {g.n} {g.m}\n")
        for u, v in g.edges():
            handle.write(f"e {u + 1} {v + 1}\n")


def read_metis(path: str | Path) -> Graph:
    """Read a METIS adjacency file (1-based vertex ids).

    After the header every line is vertex ``v``'s adjacency line, a blank
    one too (an isolated vertex); blank lines past the n-th are ignored.
    """
    lines = list(_iter_data_lines(path, blank_after_first=True))
    if not lines:
        raise GraphFormatError(f"{path}: empty METIS file")
    header_line, header_text = lines[0]
    header = header_text.split()
    if len(header) < 2:
        raise GraphFormatError(
            f"{path}:{header_line}: malformed METIS header {header_text!r}")
    n = _parse_count(header[0], path, header_line, "vertex count")
    _parse_count(header[1], path, header_line, "edge count")
    body = lines[1:]
    while len(body) > n and not body[-1][1]:
        body.pop()
    if len(body) != n:
        raise GraphFormatError(
            f"{path}: header declares {n} vertices but file has {len(body)} "
            "adjacency lines"
        )
    g = Graph(n)
    for v, (lineno, line) in enumerate(body):
        for token in line.split():
            w = _parse_int(token, path, lineno, "neighbour id") - 1
            if not 0 <= w < n:
                raise GraphFormatError(f"{path}:{lineno}: neighbour {token} out of range")
            if w != v and not g.has_edge(v, w):
                g.add_edge(v, w)
    return g


def write_metis(g: Graph, path: str | Path) -> None:
    """Write a METIS adjacency file."""
    with _open_text(path, "w") as handle:
        handle.write(f"{g.n} {g.m}\n")
        for v in g.vertices():
            handle.write(" ".join(str(w + 1) for w in sorted(g.adj[v])) + "\n")


def read_json(path: str | Path) -> Graph:
    """Read the library's JSON graph format."""
    text = _read_text(path)
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphFormatError(
            f"{path}:{exc.lineno}: invalid JSON ({exc.msg})") from None
    except (ValueError, RecursionError) as exc:
        # An integer literal past the int-conversion digit limit, or
        # nesting deeper than the parser's recursion limit.
        raise GraphFormatError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(payload, dict) or not {"n", "edges"} <= payload.keys():
        raise GraphFormatError(f"{path}: expected keys 'n' and 'edges'")
    n = payload["n"]
    if not _is_exact_int(n) or n < 0:
        raise GraphFormatError(
            f"{path}: 'n' must be a non-negative integer, got {n!r}")
    edges = payload["edges"]
    if not isinstance(edges, list):
        raise GraphFormatError(
            f"{path}: 'edges' must be a list of [u, v] edges, "
            f"got {reprlib.repr(edges)}")
    g = Graph(n)
    for i, pair in enumerate(edges):
        # Fields after the two ids (a weight, say) are ignored.
        if not (isinstance(pair, list) and len(pair) >= 2
                and all(_is_exact_int(x) and 0 <= x < n for x in pair[:2])):
            raise GraphFormatError(
                f"{path}: edges[{i}] must start with two vertex ids in "
                f"0..{n - 1}, got {reprlib.repr(pair)}")
        u, v = pair[0], pair[1]
        if u != v:
            g.add_edge(u, v)
    return g


def write_json(g: Graph, path: str | Path) -> None:
    """Write the library's JSON graph format."""
    payload = {"n": g.n, "edges": [list(e) for e in g.edges()]}
    with _open_text(path, "w") as handle:
        json.dump(payload, handle)


_READERS = {
    "edgelist": lambda p: read_edge_list(p).graph,
    "dimacs": read_dimacs,
    "metis": read_metis,
    "json": read_json,
}

_SUFFIX_FORMATS = {
    ".txt": "edgelist",
    ".edges": "edgelist",
    ".el": "edgelist",
    ".col": "dimacs",
    ".dimacs": "dimacs",
    ".metis": "metis",
    ".graph": "metis",
    ".json": "json",
}


def load_graph(path: str | Path, fmt: str | None = None) -> Graph:
    """Load a graph, inferring the format from the suffix when not given."""
    path = Path(path)
    if fmt is None:
        suffix = path.suffix.lower()
        if suffix == ".gz":
            suffix = Path(path.stem).suffix.lower()
        fmt = _SUFFIX_FORMATS.get(suffix, "edgelist")
    reader = _READERS.get(fmt) if isinstance(fmt, str) else None
    if reader is None:
        raise GraphFormatError(
            f"unknown format {fmt!r}; expected one of {sorted(_READERS)}"
        )
    return reader(path)
