"""The lint driver: build the index, run the checkers, report, exit.

Shared by both frontends — ``python -m repro.analysis`` and the
``repro-mce lint`` sub-command — so flags and exit codes cannot drift
between them.

Exit codes: 0 — clean (every finding baselined or suppressed);
1 — new findings, or stale baseline entries; 2 — usage errors (bad
paths, unreadable baseline).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import TextIO

from collections import Counter

from repro.analysis.baseline import (
    BaselineError,
    load_baseline,
    partition,
    save_baseline,
)
from repro.analysis.checkers import CHECKERS, EXPLAIN, Checker
from repro.analysis.config import DEFAULT_CONFIG, LintConfig
from repro.analysis.findings import Finding
from repro.analysis.index import ModuleIndex
# The default paths are importable from the driver too.
from repro.lint_flags import (  # noqa: F401
    DEFAULT_BASELINE,
    DEFAULT_SRC,
    add_lint_arguments,
)


def run_lint(
    src_root: Path, config: LintConfig = DEFAULT_CONFIG,
    checkers: dict[str, Checker] | None = None,
) -> list[Finding]:
    """All unsuppressed findings for the tree under ``src_root``, sorted.

    Pragma suppression is applied centrally here, so individual checkers
    stay oblivious to it (and new checkers get it for free).
    """
    index = ModuleIndex.build(src_root)
    findings: list[Finding] = []
    for name, check in (checkers or CHECKERS).items():
        for finding in check(index, config):
            info = index.get_by_rel(finding.rel)
            if info is not None and info.allows(finding.line, name):
                continue
            findings.append(finding)
    return sorted(findings)


def explain(name: str, stdout: TextIO | None = None,
            stderr: TextIO | None = None) -> int:
    """Print one checker's rule, rationale and pragma syntax."""
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    entry = EXPLAIN.get(name)
    if entry is None:
        print(f"error: unknown checker {name!r} (known: "
              f"{', '.join(sorted(CHECKERS))})", file=err)
        return 2
    print(f"checker: {name}", file=out)
    print(f"rule: {entry['rule']}", file=out)
    print(f"rationale: {entry['rationale']}", file=out)
    print(f"pragma: {entry['pragma']}", file=out)
    return 0


def _select_checkers(
    spec: str | None, err: TextIO,
) -> dict[str, Checker] | None | int:
    """Resolve a ``--checkers a,b`` spec to a registry subset.

    Returns ``None`` for "all", an exit code (``int``) on unknown names.
    """
    if spec is None:
        return None
    names = [name.strip() for name in spec.split(",") if name.strip()]
    unknown = [name for name in names if name not in CHECKERS]
    if unknown or not names:
        what = ", ".join(unknown) if unknown else "<empty>"
        print(f"error: unknown checker(s) {what} (known: "
              f"{', '.join(sorted(CHECKERS))})", file=err)
        return 2
    return {name: CHECKERS[name] for name in names}


def execute(
    *,
    src: Path,
    baseline_path: Path,
    out_format: str = "text",
    update_baseline: bool = False,
    show_baselined: bool = False,
    checkers_spec: str | None = None,
    config: LintConfig = DEFAULT_CONFIG,
    stdout: TextIO | None = None,
    stderr: TextIO | None = None,
) -> int:
    """Run the lint end to end; returns the process exit code."""
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    selected = _select_checkers(checkers_spec, err)
    if isinstance(selected, int):
        return selected
    src = Path(src)
    if not src.is_dir():
        print(f"error: source root {src} is not a directory", file=err)
        return 2
    try:
        baseline = load_baseline(Path(baseline_path))
    except BaselineError as exc:
        print(f"error: {exc}", file=err)
        return 2
    if selected is not None:
        # A subset run must not report the other checkers' baseline
        # entries as stale.
        baseline = Counter({key: count for key, count in baseline.items()
                            if key[1] in selected})

    findings = run_lint(src, config, checkers=selected)
    if update_baseline:
        if selected is not None:
            print("error: --update-baseline cannot be combined with "
                  "--checkers (a subset run would drop the other "
                  "checkers' entries)", file=err)
            return 2
        save_baseline(Path(baseline_path), findings)
        print(f"baseline updated: {len(findings)} finding(s) accepted in "
              f"{baseline_path}", file=err)
        return 0

    new, accepted, stale = partition(findings, baseline)

    if out_format == "json":
        print(json.dumps({
            "ok": not new and not stale,
            "new": [f.as_dict() for f in new],
            "baselined": [f.as_dict() for f in accepted],
            "stale": [
                {"file": k[0], "checker": k[1], "message": k[2]}
                for k in stale
            ],
        }, indent=2), file=out)
    else:
        for finding in new:
            print(finding.render(), file=out)
        if show_baselined:
            for finding in accepted:
                print(finding.render(prefix="[baselined] "), file=out)
        for key in stale:
            print(f"{key[0]} · {key[1]} · {key[2]}  [stale baseline entry: "
                  "fixed findings must be pruned with --update-baseline]",
                  file=out)
        summary = (f"{len(new)} new finding(s), {len(accepted)} baselined, "
                   f"{len(stale)} stale")
        print(summary if new or stale else f"lint clean ({summary})",
              file=err)
    return 1 if new or stale else 0


def run_from_args(args: argparse.Namespace) -> int:
    if args.explain is not None:
        return explain(args.explain)
    return execute(
        src=Path(args.src),
        baseline_path=Path(args.baseline),
        out_format=args.out_format,
        update_baseline=args.update_baseline,
        show_baselined=args.show_baselined,
        checkers_spec=args.checkers,
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Project linter: backend-twin parity, hot-path purity, "
                    "boundary conventions, lock discipline, pickle safety, "
                    "fork safety and resource lifecycle.",
    )
    add_lint_arguments(parser)
    return run_from_args(parser.parse_args(argv))
