"""Project linter (``repro-mce lint`` / ``python -m repro.analysis``).

AST-based enforcement of the repo's load-bearing conventions: backend-twin
parity, bit hot-path purity, the process-boundary error conventions, lock
discipline, pickle and fork safety, and resource lifecycle.  See
:mod:`repro.analysis.runner` for the driver and the checker modules under
:mod:`repro.analysis.checkers` for the individual rules.
"""

from repro.analysis.config import DEFAULT_CONFIG, LintConfig
from repro.analysis.findings import Finding
from repro.analysis.runner import execute, main, run_lint

__all__ = [
    "DEFAULT_CONFIG",
    "Finding",
    "LintConfig",
    "execute",
    "main",
    "run_lint",
]
