"""Lint configuration: which modules embody which convention.

The default configuration targets the live ``src/`` tree; the test suite
builds alternative configurations pointing at fixture trees under
``tests/analysis/fixtures/`` so every checker can be exercised against
deliberately broken code without touching real modules.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class LockRoster:
    """One class whose shared attributes must only mutate under its lock.

    ``guarded`` names the attributes of ``self`` (mutation means an
    assignment/augmented assignment whose target chain is rooted at
    ``self.<attr>``, so ``self.stats.calls += 1`` and
    ``self._states[k] = v`` both count).  ``exempt_methods`` are run
    before the object is shared (constructors) and are never flagged.
    """

    module: str
    cls: str
    lock_attr: str
    guarded: tuple[str, ...]
    exempt_methods: tuple[str, ...] = ("__init__",)

    @property
    def lock_id(self) -> str:
        return f"{self.module}:{self.cls}.{self.lock_attr}"


@dataclass(frozen=True)
class LintConfig:
    """Where each checked convention lives in the tree under lint."""

    # --- backend-twin parity -------------------------------------------
    #: set-backend engine modules; public functions with a ``ctx``
    #: parameter here must have a ``bit_``-prefixed twin.
    set_modules: tuple[str, ...] = (
        "repro.core.phases",
        "repro.core.edge_engine",
        "repro.core.early_termination",
    )
    #: bitmask-backend engine modules; the reverse direction of parity.
    bit_modules: tuple[str, ...] = (
        "repro.core.bit_phases",
        "repro.core.bit_edge_engine",
        "repro.core.bit_plex",
    )
    #: naming prefix of a bit twin (``pivot_phase`` -> ``bit_pivot_phase``).
    bit_prefix: str = "bit_"
    #: parameter name marking a function as an engine entry point.
    ctx_param: str = "ctx"

    # --- hot-path purity -----------------------------------------------
    #: file-basename prefix selecting the hot-path modules.
    purity_prefix: str = "bit_"

    # --- boundary conventions -------------------------------------------
    cli_module: str = "repro.cli"
    cli_main_function: str = "main"
    protocol_module: str = "repro.service.protocol"
    request_handler_function: str = "handle_request"
    #: packages whose functions run (or may run) worker-side; ``global``
    #: statements there break fork/respawn safety.
    worker_packages: tuple[str, ...] = ("repro.parallel", "repro.service")

    # --- lock discipline -------------------------------------------------
    #: classes whose shared attributes must mutate under their own lock
    #: when reachable from a public method — declared here, so new
    #: concurrent classes join with one roster entry.
    lock_rosters: tuple[LockRoster, ...] = (
        LockRoster(
            module="repro.service.core", cls="CliqueService",
            lock_attr="_lock", guarded=("_closed",),
        ),
        LockRoster(
            module="repro.service.core", cls="CliqueService",
            lock_attr="_stats_lock",
            guarded=("_requests", "_warm_requests", "_requests_by_op"),
        ),
        LockRoster(
            module="repro.service.registry", cls="GraphRegistry",
            lock_attr="_lock",
            guarded=("_by_fingerprint", "_by_name", "stats"),
        ),
        LockRoster(
            module="repro.parallel.pool", cls="WorkerPool",
            lock_attr="_lock",
            guarded=("_workers", "_states", "_closed", "start_method",
                     "spinups", "graph_ships", "respawns"),
        ),
    )
    #: attribute -> class links the call graph cannot infer from one AST:
    #: ``module:Class.attr`` holds an instance of ``module:Class``.  This
    #: is what lets ``self.registry.decomposition(...)`` resolve across
    #: objects for lock-order analysis.
    attribute_types: tuple[tuple[str, str], ...] = (
        ("repro.service.core:CliqueService.registry",
         "repro.service.registry:GraphRegistry"),
        ("repro.service.core:CliqueService._pool",
         "repro.parallel.pool:WorkerPool"),
    )

    # --- pickle safety ----------------------------------------------------
    #: classes whose instances cross the process boundary; their annotated
    #: fields must be transitively composed of ``pickle_atoms`` (or of
    #: other classes that recursively satisfy the same rule).
    pickle_roster: tuple[str, ...] = (
        "repro.parallel.pool:GraphState",
        "repro.config:RunConfig",
        "repro.parallel.scheduler:Chunk",
        "repro.parallel.aggregate:ChunkResult",
    )
    #: terminal picklable names.  Builtin scalars/containers, the typing
    #: constructors that merely combine them, and the hand-audited project
    #: types whose picklability cannot be derived from annotations (plain
    #: classes built in ``__init__``).
    pickle_atoms: tuple[str, ...] = (
        "int", "float", "str", "bool", "bytes", "complex", "None",
        "list", "tuple", "dict", "set", "frozenset",
        "Optional", "Union", "Sequence", "Mapping", "Iterable",
        "Graph", "BitGraph", "Counters",
    )
    #: methods whose arguments are pickled and shipped to workers: the
    #: pool writes every task and graph state with its pipe's ``send``.
    pickle_ship_methods: tuple[str, ...] = ("send",)
    #: ship-call keywords that stay parent-side (a pool API's result
    #: hooks, say); the pipe ``send`` takes none.
    pickle_ship_exempt_kwargs: tuple[str, ...] = ()

    # --- fork safety ------------------------------------------------------
    #: the module holding the worker processes' entry point.
    worker_entry_module: str = "repro.parallel.pool"
    #: the functions worker processes run (the pipe loop); anything they
    #: can reach through the call graph runs worker-side.
    worker_entry_functions: tuple[str, ...] = ("_worker_loop",)
    #: factories whose products do not survive ``fork`` (locks held by
    #: other threads, live sockets, nested pools); calling one at import
    #: time in a worker-imported module, or on the pool setup path before
    #: the spawn, is a finding.
    fork_unsafe_factories: tuple[str, ...] = (
        "threading.Thread", "threading.Lock", "threading.RLock",
        "threading.Condition", "threading.Event", "threading.Semaphore",
        "threading.BoundedSemaphore", "threading.Timer",
        "threading.Barrier", "socket.socket", "socket.create_connection",
        "multiprocessing.Pool", "multiprocessing.Manager",
        "subprocess.Popen",
    )
    #: the wall clock banned on worker paths: ``time.time`` steps under
    #: NTP, so duration stamps must use ``time.monotonic`` (the PR-8 fix,
    #: now a rule).
    wall_clock_call: str = "time.time"
    #: the method that starts a worker, and the context call that does it.
    pool_spawn_function: str = "WorkerPool._spawn"
    pool_spawn_call: str = "Process"

    # --- lifecycle --------------------------------------------------------
    #: packages whose resource acquisitions must be released on every exit
    #: path (context manager, ``try/finally``, or explicit handoff).
    lifecycle_packages: tuple[str, ...] = ("repro.service", "repro.parallel")
    #: resource factories, matched by the last dotted segment of the call.
    lifecycle_factories: tuple[str, ...] = (
        "WorkerPool", "CliqueService", "Process",
        "ServiceTCPServer", "MetricsHTTPServer", "ServiceClient",
        "serve_metrics_http", "socket", "create_connection", "open",
    )
    #: methods that count as releasing a held resource.
    lifecycle_release_methods: tuple[str, ...] = (
        "close", "terminate", "shutdown", "server_close", "stop", "join",
    )


DEFAULT_CONFIG = LintConfig()
