"""Backend-twin parity: every set-backend engine has a ``bit_`` twin.

An *engine function* is a public function with a ``ctx`` parameter — the
:class:`repro.core.phases.EngineContext` threading convention marks
exactly the functions that form a backend's surface.  For each such
function in the set modules there must be a ``bit_``-prefixed function in
the bit modules (and vice versa) whose signature is compatible: the set
twin's parameter names must appear, in order, within the bit twin's
parameters (the bit side may interleave extras such as the ``BitGraph``
view or a ``core`` bound, never rename or reorder the shared ones).
"""

from __future__ import annotations

from repro.analysis.config import LintConfig
from repro.analysis.findings import Finding
from repro.analysis.index import FunctionInfo, ModuleIndex, ModuleInfo

CHECKER = "parity"

EXPLAIN = {
    "rule": (
        "Every public engine function (a function taking the 'ctx' "
        "parameter) in the set-backend modules must have a 'bit_' "
        "prefixed twin in the bit-backend modules with a compatible "
        "signature: the shared parameter names appear in the same order, "
        "never renamed or reordered."
    ),
    "rationale": (
        "The two backends are proved equivalent by a differential net; "
        "that net only covers functions that exist in both.  A twin that "
        "silently goes missing or renames a parameter drops out of the "
        "equivalence net without failing any test."
    ),
    "pragma": "# repro-lint: allow[parity] — <why the twin is absent>",
}


def _engine_functions(info: ModuleInfo, ctx_param: str) -> list[FunctionInfo]:
    return [
        f for f in info.functions
        if f.is_public and f.qualname == f.name and ctx_param in f.params
    ]


def _is_subsequence(needle: tuple[str, ...], haystack: tuple[str, ...]) -> bool:
    it = iter(haystack)
    return all(name in it for name in needle)


def _modules(index: ModuleIndex, names: tuple[str, ...]) -> list[ModuleInfo]:
    return [m for name in names if (m := index.get(name)) is not None]


def check(index: ModuleIndex, config: LintConfig) -> list[Finding]:
    findings: list[Finding] = []
    set_modules = _modules(index, config.set_modules)
    bit_modules = _modules(index, config.bit_modules)
    prefix = config.bit_prefix

    set_engines: dict[str, tuple[ModuleInfo, FunctionInfo]] = {}
    for info in set_modules:
        for func in _engine_functions(info, config.ctx_param):
            set_engines[func.name] = (info, func)
    bit_engines: dict[str, tuple[ModuleInfo, FunctionInfo]] = {}
    for info in bit_modules:
        for func in _engine_functions(info, config.ctx_param):
            bit_engines[func.name] = (info, func)

    # Set backend -> bit twin.
    for name, (info, func) in sorted(set_engines.items()):
        twin_name = prefix + name
        twin = bit_engines.get(twin_name)
        if twin is None:
            findings.append(Finding(
                info.rel, func.lineno, CHECKER,
                f"engine function '{name}' has no '{twin_name}' twin in "
                f"the bit backend ({', '.join(config.bit_modules)})",
            ))
            continue
        twin_info, twin_func = twin
        if not _is_subsequence(func.params, twin_func.params):
            findings.append(Finding(
                twin_info.rel, twin_func.lineno, CHECKER,
                f"'{twin_name}({', '.join(twin_func.params)})' is not "
                f"signature-compatible with '{name}"
                f"({', '.join(func.params)})': the set twin's parameters "
                "must appear in order within the bit twin's",
            ))

    # Bit backend -> set twin (and the naming convention itself).
    for name, (info, func) in sorted(bit_engines.items()):
        if not name.startswith(prefix):
            findings.append(Finding(
                info.rel, func.lineno, CHECKER,
                f"public engine function '{name}' in a bit module must be "
                f"named '{prefix}{name}'",
            ))
            continue
        if name[len(prefix):] not in set_engines:
            findings.append(Finding(
                info.rel, func.lineno, CHECKER,
                f"bit engine function '{name}' has no set-backend twin "
                f"'{name[len(prefix):]}' in "
                f"{', '.join(config.set_modules)}",
            ))
    return findings
