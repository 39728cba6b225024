"""Boundary conventions: how errors and state cross the process edges.

Three conventions, each load-bearing for a different caller:

* **CLI** — user errors exit with code 2 and a one-line ``error: ...``
  message.  Mechanically: ``repro.cli`` must not ``raise SystemExit``
  itself (that bypasses ``main()``'s handler and exits 1), and ``main()``
  must keep the except-handler that prints the diagnostic and
  ``return 2``.
* **service** — a request may fail, the connection may not: the protocol
  handler converts expected exceptions into ``{"ok": false, ...}``
  responses instead of letting them unwind the transport.
* **workers** — functions under the worker-side packages must not write
  module globals (``global`` statements): a respawned worker starts from
  the parent's state, so mutated globals silently diverge between parent,
  original workers and respawned ones.  Worker-side state lives in the
  worker loop's own locals instead.
"""

from __future__ import annotations

import ast

from repro.analysis.config import LintConfig
from repro.analysis.findings import Finding
from repro.analysis.index import ModuleIndex, ModuleInfo

CHECKER = "boundaries"

EXPLAIN = {
    "rule": (
        "CLI code exits 2 via main()'s handler (never raises SystemExit "
        "directly), the service protocol handler converts expected "
        "exceptions into {\"ok\": false} responses instead of unwinding "
        "the transport, and worker-side packages do not write module "
        "globals."
    ),
    "rationale": (
        "Each boundary has a caller relying on the convention: scripts "
        "parse the exit code, clients parse the error envelope, and "
        "respawned workers start from the parent's state — a mutated "
        "global silently diverges between parent and workers."
    ),
    "pragma": "# repro-lint: allow[boundaries] — <why this write is safe>",
}


def _check_cli(info: ModuleInfo, config: LintConfig) -> list[Finding]:
    findings: list[Finding] = []
    for node in ast.walk(info.tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            target = node.exc
            if isinstance(target, ast.Call):
                target = target.func
            if isinstance(target, ast.Name) and target.id == "SystemExit":
                findings.append(Finding(
                    info.rel, node.lineno, CHECKER,
                    "CLI code raises SystemExit directly (exit code 1); "
                    "raise InvalidParameterError so main() exits 2 with "
                    "a one-line message",
                ))
    main = info.function(config.cli_main_function)
    if main is None:
        findings.append(Finding(
            info.rel, 1, CHECKER,
            f"CLI module defines no '{config.cli_main_function}()' "
            "entry point",
        ))
        return findings
    for node in ast.walk(main.node):
        if isinstance(node, ast.ExceptHandler):
            returns_two = any(
                isinstance(stmt, ast.Return)
                and isinstance(stmt.value, ast.Constant)
                and stmt.value.value == 2
                for stmt in ast.walk(node)
                if isinstance(stmt, ast.Return)
            )
            if returns_two:
                break
    else:
        findings.append(Finding(
            info.rel, main.lineno, CHECKER,
            f"'{config.cli_main_function}()' has no except-handler "
            "returning exit code 2 for user errors",
        ))
    return findings


def _handler_builds_ok_false(handler: ast.ExceptHandler) -> bool:
    for node in ast.walk(handler):
        if isinstance(node, ast.Dict):
            for key, value in zip(node.keys, node.values):
                if isinstance(key, ast.Constant) and key.value == "ok" \
                        and isinstance(value, ast.Constant) \
                        and value.value is False:
                    return True
    return False


def _check_protocol(info: ModuleInfo, config: LintConfig) -> list[Finding]:
    handler = info.function(config.request_handler_function)
    if handler is None:
        return [Finding(
            info.rel, 1, CHECKER,
            f"protocol module defines no "
            f"'{config.request_handler_function}()'",
        )]
    for node in ast.walk(handler.node):
        if isinstance(node, ast.ExceptHandler) \
                and _handler_builds_ok_false(node):
            return []
    return [Finding(
        info.rel, handler.lineno, CHECKER,
        f"'{config.request_handler_function}()' has no except-handler "
        "converting errors to an {'ok': False, ...} response",
    )]


def _check_worker_globals(info: ModuleInfo) -> list[Finding]:
    findings = []
    for func in info.functions:
        for node in ast.walk(func.node):
            if isinstance(node, ast.Global):
                findings.append(Finding(
                    info.rel, node.lineno, CHECKER,
                    f"'{func.qualname}' writes module globals "
                    f"({', '.join(node.names)}); worker-side state must "
                    "survive pool respawn (fork-safety)",
                ))
    return findings


def check(index: ModuleIndex, config: LintConfig) -> list[Finding]:
    findings: list[Finding] = []
    cli = index.get(config.cli_module)
    if cli is not None:
        findings.extend(_check_cli(cli, config))
    protocol = index.get(config.protocol_module)
    if protocol is not None:
        findings.extend(_check_protocol(protocol, config))
    for info in index:
        if any(info.name == pkg or info.name.startswith(pkg + ".")
               for pkg in config.worker_packages):
            findings.extend(_check_worker_globals(info))
    return findings
