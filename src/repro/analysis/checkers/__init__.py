"""The pluggable checker registry.

A checker is a function ``check(index, config) -> list[Finding]`` plus a
stable name — the name is what pragmas (``# repro-lint: allow[name]``)
and finding lines refer to.  Each checker module also carries an
``EXPLAIN`` mapping (``rule`` / ``rationale`` / ``pragma``) surfaced by
``repro-mce lint --explain <name>``.  Adding a checker means adding a
module here and one entry to :data:`CHECKERS`.
"""

from __future__ import annotations

from typing import Callable

from repro.analysis.checkers import (
    boundaries,
    forksafety,
    lifecycle,
    locks,
    parity,
    picklesafety,
    purity,
)
from repro.analysis.config import LintConfig
from repro.analysis.findings import Finding
from repro.analysis.index import ModuleIndex

Checker = Callable[[ModuleIndex, LintConfig], "list[Finding]"]

CHECKERS: dict[str, Checker] = {
    parity.CHECKER: parity.check,
    purity.CHECKER: purity.check,
    boundaries.CHECKER: boundaries.check,
    locks.CHECKER: locks.check,
    picklesafety.CHECKER: picklesafety.check,
    forksafety.CHECKER: forksafety.check,
    lifecycle.CHECKER: lifecycle.check,
}

EXPLAIN: dict[str, dict[str, str]] = {
    parity.CHECKER: parity.EXPLAIN,
    purity.CHECKER: purity.EXPLAIN,
    boundaries.CHECKER: boundaries.EXPLAIN,
    locks.CHECKER: locks.EXPLAIN,
    picklesafety.CHECKER: picklesafety.EXPLAIN,
    forksafety.CHECKER: forksafety.EXPLAIN,
    lifecycle.CHECKER: lifecycle.EXPLAIN,
}
