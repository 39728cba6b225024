"""Pickle safety: everything crossing the process boundary must pickle.

Two rules:

1. **Roster closure** — the classes in ``config.pickle_roster`` (the task
   and payload types shipped between parent and workers) must have every
   annotated field transitively composed of the allowlisted
   ``pickle_atoms``: builtin scalars/containers, the typing constructors
   that merely combine them, and hand-audited project types.  A field
   annotated with a project class recurses into that class's own fields;
   ``object``/``Any`` or an unresolvable name is a finding — imprecise
   payload typing is exactly how an unpicklable value sneaks aboard.

2. **Shipped positions** — arguments of the ship calls (the pipe
   ``send`` that carries every task and graph state, plus the keywords
   of the ``Process(target=..., args=...)`` spawn) may not be lambdas,
   closures, or local classes: they pickle by qualified name, so anything
   not importable at module scope dies with a ``PicklingError`` at
   runtime.  Keywords listed in ``config.pickle_ship_exempt_kwargs``
   (parent-side hooks of a pool API) are exempt.
"""

from __future__ import annotations

import ast

from repro.analysis.callgraph import CallGraph, ClassInfo, build_callgraph
from repro.analysis.config import LintConfig
from repro.analysis.findings import Finding
from repro.analysis.index import ModuleIndex, ModuleInfo

CHECKER = "picklesafety"

EXPLAIN = {
    "rule": (
        "Types shipped across the process boundary (GraphState, "
        "RunConfig, Chunk, ChunkResult) must be "
        "transitively composed of the allowlisted picklable atoms in "
        "config.pickle_atoms, and ship calls (the worker pipe's send, "
        "the Process(...) spawn) may not carry lambdas, closures or "
        "local classes."
    ),
    "rationale": (
        "multiprocessing pickles every task argument and return value; "
        "an unpicklable field or a lambda in a shipped position is a "
        "runtime PicklingError that only fires on the fan-out path, "
        "under exactly the configurations the unit tests skip.  The "
        "allowlist also keeps payload annotations honest — 'object' "
        "tells the next reader nothing about what a worker may return."
    ),
    "pragma": "# repro-lint: allow[picklesafety] — <why this payload is safe>",
}


def _in_packages(info: ModuleInfo, packages: tuple[str, ...]) -> bool:
    return any(info.name == pkg or info.name.startswith(pkg + ".")
               for pkg in packages)


class _AnnotationChecker:
    def __init__(self, graph: CallGraph, atoms: frozenset[str]) -> None:
        self.graph = graph
        self.atoms = atoms

    def bad_names(
        self, ann: ast.expr, module: str, seen: frozenset[str],
    ) -> list[str]:
        """Non-allowlisted names reachable from one annotation expression."""
        if isinstance(ann, ast.Constant):
            if ann.value is None or ann.value is Ellipsis:
                return []
            if isinstance(ann.value, str):
                try:
                    parsed = ast.parse(ann.value, mode="eval").body
                except SyntaxError:
                    return [repr(ann.value)]
                return self.bad_names(parsed, module, seen)
            return [repr(ann.value)]
        if isinstance(ann, ast.Name):
            return self._check_name(ann.id, module, seen)
        if isinstance(ann, ast.Attribute):
            return [] if ann.attr in self.atoms else [ast.unparse(ann)]
        if isinstance(ann, ast.Subscript):
            out = self.bad_names(ann.value, module, seen)
            slices = ann.slice.elts if isinstance(ann.slice, ast.Tuple) \
                else [ann.slice]
            for element in slices:
                out.extend(self.bad_names(element, module, seen))
            return out
        if isinstance(ann, ast.BinOp) and isinstance(ann.op, ast.BitOr):
            return (self.bad_names(ann.left, module, seen)
                    + self.bad_names(ann.right, module, seen))
        if isinstance(ann, ast.Tuple):
            out = []
            for element in ann.elts:
                out.extend(self.bad_names(element, module, seen))
            return out
        return [ast.unparse(ann)]

    def _check_name(
        self, name: str, module: str, seen: frozenset[str],
    ) -> list[str]:
        if name in self.atoms:
            return []
        alias = self.graph.type_alias(module, name)
        if alias is not None:
            key = f"{module}:{name}"
            if key in seen:
                return []
            return self.bad_names(alias, module, seen | {key})
        cls = self.graph.resolve_class(module, name)
        if cls is not None:
            if cls.class_id in seen:
                return []
            if not cls.fields:
                # A plain class whose shape annotations cannot describe:
                # it is picklable only if hand-audited into the atoms.
                return [name]
            out: list[str] = []
            for field_ann in cls.fields.values():
                out.extend(self.bad_names(
                    field_ann, cls.module, seen | {cls.class_id}))
            return out
        return [name]


def _check_roster(
    index: ModuleIndex, graph: CallGraph, config: LintConfig,
) -> list[Finding]:
    findings: list[Finding] = []
    checker = _AnnotationChecker(graph, frozenset(config.pickle_atoms))
    for entry in config.pickle_roster:
        cls = graph.classes.get(entry)
        if cls is None:
            continue
        info = index.get(cls.module)
        if info is None:
            continue
        for field_name, ann in sorted(cls.fields.items()):
            bad = sorted(set(checker.bad_names(
                ann, cls.module, frozenset({cls.class_id}))))
            if bad:
                findings.append(Finding(
                    info.rel, cls.field_lines[field_name], CHECKER,
                    f"field '{cls.name}.{field_name}' crosses the process "
                    f"boundary but its annotation reaches non-allowlisted "
                    f"type(s): {', '.join(bad)}",
                ))
    return findings


def _local_definitions(func_node: ast.AST) -> set[str]:
    """Names of functions/classes defined *inside* ``func_node``."""
    out: set[str] = set()
    for child in ast.walk(func_node):
        if child is func_node:
            continue
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
            out.add(child.name)
    return out


def _flag_shipped_expr(
    expr: ast.expr, local_defs: set[str], info: ModuleInfo, where: str,
) -> list[Finding]:
    findings: list[Finding] = []
    for node in ast.walk(expr):
        if isinstance(node, ast.Lambda):
            findings.append(Finding(
                info.rel, node.lineno, CHECKER,
                f"lambda in shipped position of {where}: lambdas pickle "
                "by name and cannot reach a worker",
            ))
        elif isinstance(node, ast.Name) and node.id in local_defs:
            findings.append(Finding(
                info.rel, node.lineno, CHECKER,
                f"locally-defined '{node.id}' in shipped position of "
                f"{where}: closures and local classes pickle by qualified "
                "name and cannot reach a worker",
            ))
    return findings


def _check_ship_calls(
    index: ModuleIndex, config: LintConfig,
) -> list[Finding]:
    findings: list[Finding] = []
    ship_methods = frozenset(config.pickle_ship_methods)
    exempt = frozenset(config.pickle_ship_exempt_kwargs)
    for info in index:
        if not _in_packages(info, config.worker_packages):
            continue
        for func in info.functions:
            local_defs = _local_definitions(func.node)
            for node in ast.walk(func.node):
                if not (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)):
                    continue
                attr = node.func.attr
                if attr in ship_methods:
                    where = f"{attr}()"
                    for arg in node.args:
                        findings.extend(_flag_shipped_expr(
                            arg, local_defs, info, where))
                    for kw in node.keywords:
                        if kw.arg is None or kw.arg in exempt:
                            continue
                        findings.extend(_flag_shipped_expr(
                            kw.value, local_defs, info, where))
                elif attr == config.pool_spawn_call:
                    for kw in node.keywords:
                        findings.extend(_flag_shipped_expr(
                            kw.value, local_defs, info,
                            f"{attr}({kw.arg}=...)"))
    return findings


def check(index: ModuleIndex, config: LintConfig) -> list[Finding]:
    graph = build_callgraph(index, config.attribute_types)
    findings = _check_roster(index, graph, config)
    # Nested functions are indexed both standalone and inside their
    # enclosing function's subtree, so a shipped lambda inside a closure
    # would be reported twice without the dedup.
    seen: set[tuple[str, int, str]] = set()
    for finding in _check_ship_calls(index, config):
        key = (finding.rel, finding.line, finding.message)
        if key not in seen:
            seen.add(key)
            findings.append(finding)
    return findings
