"""The three workloads: seeded inputs, references and request streams.

Every workload is a closed loop with one caller.  Its requests come in
*cycles*: one cycle visits every input once in a fixed order, and a run
measures whole cycles until ``--seconds`` have passed.  Inputs are made
from the seed alone; references come from an independent path (serial
``backend="set"``) before any request is timed.
"""

from __future__ import annotations

import hashlib
import os
import random
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Iterator

#: seconds a service request may take before the run is abandoned.
REQUEST_TIMEOUT = 30.0
#: seconds the server may take to start listening / to exit.
SERVER_START_TIMEOUT = 30.0
SERVER_EXIT_TIMEOUT = 20.0

N_JOBS = 2


class WrongAnswer(Exception):
    """A result that does not match its reference."""


@dataclass
class Reference:
    """Count and fingerprint only: holding every reference clique would
    grow the heap the program's garbage collector has to walk."""

    count: int
    sha256: str


@dataclass
class Request:
    label: str
    call: Callable[[], Any]
    #: returns the number of cliques the result delivered; raises
    #: :class:`WrongAnswer` on a mismatch.  Runs outside the timing.
    check: Callable[[Any], int]


def reference(g) -> Reference:
    from repro import maximal_cliques
    from repro.verify import clique_fingerprint

    cliques = maximal_cliques(g, backend="set")
    return Reference(len(cliques), clique_fingerprint(cliques))


def inputs_digest(graphs) -> str:
    """SHA256 over the edge lists of the standing inputs (seed audit)."""
    h = hashlib.sha256()
    for g in graphs:
        h.update(f"n={g.n};{sorted(g.edges())}".encode("ascii"))
    return h.hexdigest()


def derive(seed: int, *parts: object) -> int:
    """A stable per-input seed (``hash()`` of a str is salted per process)."""
    return random.Random(f"{seed}:{':'.join(map(str, parts))}") \
        .randrange(1, 2**31)


def _expect(what: str, got: object, want: object) -> None:
    if got != want:
        raise WrongAnswer(f"{what}: got {got!r}, expected {want!r}")


# ---------------------------------------------------------------------------
# serial-count
# ---------------------------------------------------------------------------


def serial_graphs(seed: int) -> list[tuple[str, Any]]:
    """Social/web proxies (dataset_suite parameter sets) + a plex caveman.

    One instance per family and an odd number of families: the inputs'
    latencies form separate groups, and the median then falls inside one
    group instead of on the edge between two.
    """
    from repro.graph.generators.dataset_suite import _with_core, social_proxy
    from repro.graph.generators.social import web_graph
    from repro.graph.generators.structured import plex_caveman

    families: list[tuple[str, Callable[[int], Any]]] = [
        ("FB", lambda s: social_proxy(1000, 8, 0.55, 120, 3600, seed=s,
                                      plexes=25, plex_size=12,
                                      plex_missing=4)),
        ("ST", lambda s: social_proxy(1200, 5, 0.6, 110, 3000, seed=s,
                                      plexes=20, plex_size=11,
                                      plex_missing=3)),
        ("SK", lambda s: _with_core(
            web_graph(1500, 5, hub_fraction=0.02, clique_size=11,
                      num_cliques=50, seed=s), 110, 2600, seed=s + 1)),
        ("WK", lambda s: _with_core(
            web_graph(1200, 4, hub_fraction=0.03, clique_size=7,
                      num_cliques=30, seed=s), 90, 1900, seed=s + 1)),
        ("plex-caveman", lambda s: plex_caveman(40, 12, 3, seed=s)),
    ]
    return [(name, build(derive(seed, name))) for name, build in families]


class InProcess:
    """A workload of direct API calls, one input per request."""

    def __init__(self, seed: int) -> None:
        self.graphs = self.make_graphs(seed)
        self.refs = [reference(g) for _, g in self.graphs]

    @staticmethod
    def make_graphs(seed: int) -> list[tuple[str, Any]]:
        raise NotImplementedError

    @staticmethod
    def call(g) -> Any:
        raise NotImplementedError

    @staticmethod
    def check(label: str, ref: Reference, result: Any) -> int:
        raise NotImplementedError

    def digest(self) -> str:
        return inputs_digest(g for _, g in self.graphs)

    def start(self) -> None:
        """Warm-up call, untimed: lazy imports and first-call costs."""
        self.call(self.graphs[0][1])

    def cycle(self, index: int) -> list[Request]:
        return [Request(label, partial(self.call, g),
                        partial(self.check, label, ref))
                for (label, g), ref in zip(self.graphs, self.refs)]

    def close(self) -> None:
        pass


class SerialCount(InProcess):
    name = "serial-count"
    make_graphs = staticmethod(serial_graphs)

    @staticmethod
    def call(g) -> int:
        from repro import count_maximal_cliques

        return count_maximal_cliques(g, backend="bitset")

    @staticmethod
    def check(label: str, ref: Reference, count: int) -> int:
        _expect(f"count {label}", count, ref.count)
        return count


# ---------------------------------------------------------------------------
# parallel-enumerate
# ---------------------------------------------------------------------------


def parallel_graphs(seed: int) -> list[tuple[str, Any]]:
    """NA/SH/DE-like meshes plus one dense Erdős–Rényi graph.

    Two NA-like instances make five inputs, an odd count, so the median
    falls inside the NA samples instead of on the edge between two
    inputs.  The dense G(150, 5600) (about 110k cliques, the er-dense
    family) is the slowest input by far and comes once a cycle: a run
    then holds a few dozen of its samples, and the tail (ten samples
    beyond) falls inside them rather than on whichever requests a
    momentary host stall happened to hit.
    """
    from repro.graph.generators import erdos_renyi_gnm
    from repro.graph.generators.social import mesh_graph

    def na(s: int):
        return mesh_graph(24, 32, stiffener_cliques=60, clique_size=8,
                          seed=s, window=3)

    return [
        ("NA-0", na(derive(seed, "NA", 0))),
        ("NA-1", na(derive(seed, "NA", 1))),
        ("SH", mesh_graph(26, 36, stiffener_cliques=60, clique_size=7,
                          seed=derive(seed, "SH"), window=2)),
        ("DE", mesh_graph(16, 24, stiffener_cliques=80, clique_size=9,
                          seed=derive(seed, "DE"), window=4)),
        ("er-dense", erdos_renyi_gnm(150, 5600, seed=derive(seed, "er"))),
    ]


class ParallelEnumerate(InProcess):
    name = "parallel-enumerate"
    make_graphs = staticmethod(parallel_graphs)

    @staticmethod
    def call(g) -> list[tuple[int, ...]]:
        from repro import maximal_cliques

        return maximal_cliques(g, n_jobs=N_JOBS, backend="bitset")

    @staticmethod
    def check(label: str, ref: Reference, cliques: list) -> int:
        from repro.verify import clique_fingerprint

        _expect(f"enumerate {label} sha256", clique_fingerprint(cliques),
                ref.sha256)
        return len(cliques)


def setup_probe(workload: str) -> None:
    """A fresh process's first call, on a small graph, as the workload
    makes it."""
    from repro.graph.generators.structured import plex_caveman

    WORKLOADS[workload].call(plex_caveman(8, 6, 2, seed=1))


# ---------------------------------------------------------------------------
# service-mixed
# ---------------------------------------------------------------------------


class Server:
    """``repro serve --port 0 --jobs 2`` as a child in its own session.

    The session makes teardown total: on any failure the whole process
    group (server and pool workers) is killed and the server reaped.
    """

    def __init__(self, root: str, spans_path: str | None = None) -> None:
        env = dict(os.environ)
        src = os.path.join(root, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
        if spans_path is None:
            argv = [sys.executable, "-m", "repro"]
        else:
            argv = [sys.executable,
                    os.path.join(root, "perfbench", "serve_traced.py"),
                    spans_path]
        argv += ["serve", "--port", "0", "--jobs", str(N_JOBS)]
        self.stderr: list[str] = []
        self._listening = threading.Event()
        self.port = 0
        self.proc = subprocess.Popen(
            argv, cwd=root, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            start_new_session=True)
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        if not self._listening.wait(SERVER_START_TIMEOUT) or not self.port:
            self.kill()
            raise RuntimeError("server did not start listening: "
                               + " | ".join(self.stderr[-5:]))

    def _read(self) -> None:
        assert self.proc.stderr is not None
        for line in self.proc.stderr:
            self.stderr.append(line.rstrip())
            if line.startswith("listening on "):
                self.port = int(line.rsplit(":", 1)[1])
                self._listening.set()
        self._listening.set()

    def stop(self, client) -> None:
        """Ask for shutdown; fall back to killing the process group."""
        try:
            client.shutdown()
        except Exception:  # noqa: BLE001 - any failure means: kill it
            self.kill()
        finally:
            client.close()
        try:
            self.proc.wait(SERVER_EXIT_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.kill()
        self._reader.join(5)

    def kill(self) -> None:
        if self.proc.poll() is None:
            try:
                os.killpg(self.proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        self.proc.wait()
        self._reader.join(5)


def service_graphs(seed: int) -> dict[str, Any]:
    from repro.graph.generators import erdos_renyi_gnm
    from repro.graph.generators.structured import plex_caveman

    return {
        "small": plex_caveman(24, 7, 2, seed=derive(seed, "small")),
        "medium": erdos_renyi_gnm(90, 2000, seed=derive(seed, "medium")),
        "large": erdos_renyi_gnm(110, 3300, seed=derive(seed, "large")),
    }


def fresh_graph(seed: int, index: int):
    from repro.graph.generators import erdos_renyi_gnm

    return erdos_renyi_gnm(48, 420, seed=derive(seed, "fresh", index))


#: one cycle of the service stream: (op, graph, backend).  ``write`` is
#: the register of a fresh graph, and ``fresh`` its cold count.  Eight
#: requests are fast (small graph, writes), ten are warm medium counts,
#: two medium enumerate/fingerprint and one a fingerprint of the large
#: graph (about 50k cliques merged and hashed server-side).  So the median
#: falls in the middle of the medium bitset counts, and the tail inside
#: the large fingerprints, the slowest request by far, instead of on the
#: edge between two groups or on a momentary host stall.
SERVICE_CYCLE: list[tuple[str, str, str | None]] = [
    ("count", "medium", "bitset"), ("count", "small", "set"),
    ("count", "medium", "set"), ("enumerate", "small", None),
    ("count", "medium", "bitset"), ("count", "medium", "set"),
    ("fingerprint", "medium", None), ("count", "medium", "bitset"),
    ("write", "fresh", None), ("count", "fresh", "bitset"),
    ("fingerprint", "large", None),
    ("count", "medium", "set"), ("count", "small", "bitset"),
    ("count", "medium", "bitset"), ("enumerate", "medium", None),
    ("count", "medium", "set"), ("fingerprint", "small", None),
    ("count", "medium", "bitset"), ("count", "medium", "set"),
    ("write", "fresh", None), ("count", "fresh", "set"),
]
WRITES_PER_CYCLE = sum(op == "write" for op, _, _ in SERVICE_CYCLE)


def _edges(g) -> list[list[int]]:
    return [[u, v] for u, v in g.edges()]


class ServiceMixed:
    name = "service-mixed"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.graphs = service_graphs(seed)
        self.refs = {name: reference(g) for name, g in self.graphs.items()}
        self.payloads = {name: (g.n, _edges(g))
                         for name, g in self.graphs.items()}
        self.server: Server | None = None
        self.client = None
        #: name and reference of the latest fresh graph (the cold count
        #: after each write targets it).
        self._fresh_ref: tuple[str, Reference] | None = None

    def open(self, root: str, spans_path: str | None = None) -> float:
        """Spawn, register the standing graphs, send cold requests.

        Returns the program's set-up seconds: spawn -> listening ->
        registration -> the first (cold) request on every standing graph.
        """
        from repro.service.client import ServiceClient

        start = time.perf_counter()
        self.server = Server(root, spans_path)
        try:
            self.client = ServiceClient(port=self.server.port,
                                        timeout=REQUEST_TIMEOUT)
            for name, (n, edges) in self.payloads.items():
                self.client.register_edges(n, edges, name=name)
            for name, ref in self.refs.items():
                got = self.client.count(name)["count"]
                _expect(f"cold count {name}", got, ref.count)
        except BaseException:
            self.close()
            raise
        return time.perf_counter() - start

    def digest(self) -> str:
        return inputs_digest(self.graphs.values())

    def start(self) -> None:
        pass

    def _request(self, op: str, graph: str, backend: str | None,
                 index: int) -> Request:
        client = self.client
        assert client is not None
        label = f"{op}:{graph}" + (f":{backend}" if backend else "")
        if op == "write":
            name = f"fresh-{index}"
            g = fresh_graph(self.seed, index)
            n, edges = g.n, _edges(g)
            self._fresh_ref = (name, reference(g))
            return Request(label, lambda: client.register_edges(
                n, edges, name=name), lambda info: 0)
        if graph == "fresh":
            assert self._fresh_ref is not None
            name, ref = self._fresh_ref
        else:
            name, ref = graph, self.refs[graph]
        options = {"backend": backend} if backend else {}

        if op == "count":
            def check(r: dict) -> int:
                _expect(f"{label} count", r["count"], ref.count)
                return r["count"]

            return Request(label, lambda: client.count(name, **options),
                           check)
        if op == "enumerate":
            from repro.verify import clique_fingerprint

            def check(r: dict) -> int:
                _expect(f"{label} sha256", clique_fingerprint(r["cliques"]),
                        ref.sha256)
                return r["count"]

            return Request(label, lambda: client.enumerate(name), check)

        def check(r: dict) -> int:
            _expect(f"{label} sha256", r["sha256"], ref.sha256)
            return r["count"]

        return Request(label, lambda: client.fingerprint(name), check)

    def cycle(self, index: int) -> Iterator[Request]:
        # A generator, so each fresh graph and its reference are made just
        # before their own write (and never timed).
        writes = 0
        for op, graph, backend in SERVICE_CYCLE:
            fresh_index = index * WRITES_PER_CYCLE + writes
            if op == "write":
                writes += 1
            yield self._request(op, graph, backend, fresh_index)

    def close(self) -> None:
        if self.server is not None:
            if self.client is not None:
                self.server.stop(self.client)
            else:
                self.server.kill()
        self.server = None
        self.client = None


WORKLOADS = {
    "serial-count": SerialCount,
    "parallel-enumerate": ParallelEnumerate,
    "service-mixed": ServiceMixed,
}
