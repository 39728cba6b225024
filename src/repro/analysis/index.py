"""Shared module index: one ``ast`` parse of the tree, consumed by every checker.

The index walks a source root (``src/`` in this repo), parses every
``*.py`` file once, and records per module:

* the AST and raw source lines;
* every function (module-level, methods, nested) with its parameter list
  and line span — the raw material of the parity and purity checkers;
* the suppression pragmas.

Pragma syntax
-------------
``# repro-lint: allow[checker, checker...]`` on a line suppresses findings
of those checkers anchored to that line or the line below (so a pragma can
sit above a multi-line expression); on a ``def`` line it suppresses them
for the whole function.  ``allow[*]`` suppresses every checker.  Pragmas
are meant for *audited* exceptions — each one should carry a short reason
in the same comment.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

PRAGMA_RE = re.compile(r"#\s*repro-lint:\s*allow\[([^\]]*)\]")

#: Wildcard pragma entry suppressing every checker.
ALLOW_ALL = "*"


@dataclass(frozen=True)
class FunctionInfo:
    """One function or method, as the checkers see it."""

    name: str
    qualname: str
    lineno: int
    end_lineno: int
    params: tuple[str, ...]
    is_public: bool
    node: ast.FunctionDef | ast.AsyncFunctionDef

    def spans(self, line: int) -> bool:
        return self.lineno <= line <= self.end_lineno


@dataclass
class ModuleInfo:
    """One parsed source file plus its pragma and function tables."""

    name: str
    rel: str
    path: Path
    tree: ast.Module
    lines: list[str]
    pragmas: dict[int, frozenset[str]] = field(default_factory=dict)
    functions: list[FunctionInfo] = field(default_factory=list)

    @property
    def basename(self) -> str:
        return self.path.name

    def function(self, name: str) -> FunctionInfo | None:
        """The first function with this (qual)name, module-level first."""
        for info in self.functions:
            if info.qualname == name:
                return info
        for info in self.functions:
            if info.name == name:
                return info
        return None

    def functions_named(self, name: str) -> list[FunctionInfo]:
        return [info for info in self.functions if info.name == name]

    def _line_allows(self, line: int, checker: str) -> bool:
        allowed = self.pragmas.get(line)
        return allowed is not None and (checker in allowed or ALLOW_ALL in allowed)

    def allows(self, line: int, checker: str) -> bool:
        """Whether a pragma suppresses ``checker`` findings at ``line``.

        Checked: the line itself, the line above (pragma-above-expression),
        and the ``def`` line of every enclosing function (function-level
        pragma).
        """
        if self._line_allows(line, checker) or self._line_allows(line - 1, checker):
            return True
        return any(
            info.spans(line) and (
                self._line_allows(info.lineno, checker)
                or self._line_allows(info.lineno - 1, checker)
            )
            for info in self.functions
        )


def _collect_functions(tree: ast.Module) -> list[FunctionInfo]:
    out: list[FunctionInfo] = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}{child.name}"
                args = child.args
                params = tuple(
                    a.arg
                    for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)
                )
                out.append(FunctionInfo(
                    name=child.name,
                    qualname=qual,
                    lineno=child.lineno,
                    end_lineno=child.end_lineno or child.lineno,
                    params=params,
                    is_public=not child.name.startswith("_"),
                    node=child,
                ))
                visit(child, f"{qual}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(tree, "")
    return out


def _parse_pragmas(lines: list[str]) -> dict[int, frozenset[str]]:
    pragmas: dict[int, frozenset[str]] = {}
    for i, line in enumerate(lines, start=1):
        match = PRAGMA_RE.search(line)
        if match is None:
            continue
        names = frozenset(
            part.strip() for part in match.group(1).split(",") if part.strip()
        )
        if names:
            pragmas[i] = names
    return pragmas


def _module_name(rel: Path) -> str:
    parts = list(rel.with_suffix("").parts)
    if parts and parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts) if parts else rel.stem


@dataclass
class ModuleIndex:
    """Every parsed module of one source tree, keyed by dotted name."""

    root: Path
    modules: dict[str, ModuleInfo] = field(default_factory=dict)

    @classmethod
    def build(cls, root: Path) -> "ModuleIndex":
        root = Path(root).resolve()
        index = cls(root=root)
        for path in sorted(root.rglob("*.py")):
            rel = path.relative_to(root)
            if "__pycache__" in rel.parts:
                continue
            source = path.read_text(encoding="utf-8")
            tree = ast.parse(source, filename=str(path))
            lines = source.splitlines()
            info = ModuleInfo(
                name=_module_name(rel),
                rel=rel.as_posix(),
                path=path,
                tree=tree,
                lines=lines,
                pragmas=_parse_pragmas(lines),
                functions=_collect_functions(tree),
            )
            index.modules[info.name] = info
        return index

    def get(self, name: str) -> ModuleInfo | None:
        return self.modules.get(name)

    def get_by_rel(self, rel: str) -> ModuleInfo | None:
        for info in self.modules.values():
            if info.rel == rel:
                return info
        return None

    def __iter__(self) -> Iterator[ModuleInfo]:
        return iter(self.modules.values())

    def __len__(self) -> int:
        return len(self.modules)
