"""The ``lint`` flags of ``repro-mce lint`` and ``python -m repro.analysis``.

Outside :mod:`repro.analysis`: every ``repro-mce`` start, ``serve``
included, builds its parser, which must not compile the linter.
"""

from __future__ import annotations

import argparse
from pathlib import Path

#: default lint root: the ``src/`` directory this package is installed in.
DEFAULT_SRC = Path(__file__).resolve().parents[1]

#: default baseline: committed next to ``src/`` at the repo root.
DEFAULT_BASELINE = DEFAULT_SRC.parent / "lint-baseline.json"


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """The lint flags, shared by both CLI frontends."""
    parser.add_argument("--src", default=str(DEFAULT_SRC), metavar="DIR",
                        help="source root to lint (default: the installed "
                             "src/ tree)")
    parser.add_argument("--baseline", default=str(DEFAULT_BASELINE),
                        metavar="FILE",
                        help="accepted-findings file (default: "
                             "lint-baseline.json at the repo root)")
    parser.add_argument("--format", choices=["text", "json"], default="text",
                        dest="out_format", help="report format")
    parser.add_argument("--update-baseline", action="store_true",
                        help="accept every current finding into the "
                             "baseline file")
    parser.add_argument("--show-baselined", action="store_true",
                        help="also print accepted (baselined) findings")
    parser.add_argument("--checkers", default=None, metavar="A,B",
                        help="comma-separated subset of checkers to run "
                             "(default: all)")
    parser.add_argument("--explain", default=None, metavar="CHECKER",
                        help="print one checker's rule, rationale and "
                             "pragma syntax, then exit")
