"""Fork safety: what a forked worker inherits must be inert.

Three rules over the pool's worker side:

1. **Import time** — modules in the worker import closure (everything
   transitively imported by ``config.worker_entry_module``) may not call
   a fork-unsafe factory (``threading.Lock``, ``threading.Thread``,
   ``socket.socket``, nested pools, ...) at import time: a lock created
   at import can be *held by another parent thread* at fork, deadlocking
   the child; threads and sockets simply do not survive the fork.
   Class bodies and function default values evaluate at import and are
   covered; function bodies are not (they run post-fork).

2. **Wall clock** — functions reachable from the worker entry points
   (``_worker_loop``, the pool's pipe loop) may not call
   ``config.wall_clock_call`` (``time.time``): it steps under NTP, so
   worker-side duration stamps must use ``time.monotonic`` (the PR-8
   negative-``wall_seconds`` bug, generalised into a rule).

3. **Setup path** — inside the worker spawn method
   (``WorkerPool._spawn``) no fork-unsafe resource may be created on a
   line before the ``ctx.Process(...)`` call: whatever exists at that
   moment is snapshot into every child.
"""

from __future__ import annotations

import ast

from repro.analysis.callgraph import (
    CallGraph,
    build_callgraph,
    import_closure,
)
from repro.analysis.config import LintConfig
from repro.analysis.findings import Finding
from repro.analysis.index import ModuleIndex, ModuleInfo

CHECKER = "forksafety"

EXPLAIN = {
    "rule": (
        "Worker-imported modules may not create threads/locks/sockets/"
        "pools at import time; functions reachable from the worker entry "
        "points may not call time.time() (use time.monotonic() for "
        "stamps); and no fork-unsafe resource may be created inside "
        "WorkerPool._spawn before the ctx.Process(...) spawn."
    ),
    "rationale": (
        "The pool prefers fork: children inherit a snapshot of the "
        "parent at spawn time.  A lock created at import time can be "
        "held by another thread at that instant (instant deadlock in "
        "the child), inherited sockets/threads are dead weight at best, "
        "and time.time() stamps taken worker-side go backwards under "
        "NTP steps — all three bit this codebase or its references "
        "before becoming rules."
    ),
    "pragma": "# repro-lint: allow[forksafety] — <why this resource is safe>",
}


def _import_time_calls(info: ModuleInfo) -> list[ast.Call]:
    """Call nodes that execute when the module is imported.

    Module body and class bodies run at import; function *bodies* do not,
    but decorator expressions and parameter defaults do.
    """
    calls: list[ast.Call] = []

    def walk(node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for decorator in child.decorator_list:
                    collect(decorator)
                for default in (*child.args.defaults,
                                *child.args.kw_defaults):
                    if default is not None:
                        collect(default)
                continue
            if isinstance(child, ast.Lambda):
                continue
            if isinstance(child, ast.Call):
                calls.append(child)
            walk(child)

    def collect(expr: ast.AST) -> None:
        for node in ast.walk(expr):
            if isinstance(node, ast.Call):
                calls.append(node)

    walk(info.tree)
    return calls


def _check_import_time(
    index: ModuleIndex, graph: CallGraph, config: LintConfig,
) -> list[Finding]:
    findings: list[Finding] = []
    factories = frozenset(config.fork_unsafe_factories)
    for name in sorted(import_closure(index, [config.worker_entry_module])):
        info = index.get(name)
        if info is None:
            continue
        for call in _import_time_calls(info):
            resolved = graph.resolve_call(info.name, None, call)
            if resolved is not None and resolved in factories:
                findings.append(Finding(
                    info.rel, call.lineno, CHECKER,
                    f"worker-imported module calls {resolved}() at import "
                    "time; the resource would be inherited through fork "
                    "in an undefined state",
                ))
    return findings


def _check_wall_clock(
    index: ModuleIndex, graph: CallGraph, config: LintConfig,
) -> list[Finding]:
    findings: list[Finding] = []
    entry_module = index.get(config.worker_entry_module)
    if entry_module is None:
        return findings
    roots = [
        f"{config.worker_entry_module}:{fn}"
        for fn in config.worker_entry_functions
        if entry_module.function(fn) is not None
    ]
    for fid in sorted(graph.reachable(roots)):
        if ":" not in fid:
            continue
        info = graph.module_of(fid)
        if info is None:
            continue
        qualname = fid.split(":", 1)[1]
        for site in graph.callees(fid):
            if site.callee == config.wall_clock_call:
                findings.append(Finding(
                    info.rel, site.line, CHECKER,
                    f"worker-path function '{qualname}' calls "
                    f"{config.wall_clock_call}(); duration stamps on "
                    "worker paths must use time.monotonic()",
                ))
    return findings


def _check_setup_path(
    index: ModuleIndex, graph: CallGraph, config: LintConfig,
) -> list[Finding]:
    findings: list[Finding] = []
    info = index.get(config.worker_entry_module)
    if info is None:
        return findings
    spawn = info.function(config.pool_spawn_function)
    if spawn is None:
        return findings
    spawn_line = None
    for node in ast.walk(spawn.node):
        if isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute) \
                and node.func.attr == config.pool_spawn_call:
            spawn_line = node.lineno
            break
    if spawn_line is None:
        return findings
    factories = frozenset(config.fork_unsafe_factories)
    cls = config.pool_spawn_function.split(".", 1)[0] \
        if "." in config.pool_spawn_function else None
    for node in ast.walk(spawn.node):
        if isinstance(node, ast.Call) and node.lineno < spawn_line:
            resolved = graph.resolve_call(info.name, cls, node)
            if resolved is not None and resolved in factories:
                findings.append(Finding(
                    info.rel, node.lineno, CHECKER,
                    f"{resolved}() created on the pool setup path before "
                    f"the {config.pool_spawn_call}(...) spawn; it would "
                    "be snapshot into every forked worker",
                ))
    return findings


def check(index: ModuleIndex, config: LintConfig) -> list[Finding]:
    graph = build_callgraph(index, config.attribute_types)
    findings = _check_import_time(index, graph, config)
    findings.extend(_check_wall_clock(index, graph, config))
    findings.extend(_check_setup_path(index, graph, config))
    return findings
