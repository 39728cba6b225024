"""End-to-end runner behaviour: exit codes, baseline flow, output formats.

Also the live-tree self-check: the shipped ``src/`` must lint clean
against the committed baseline, which is exactly what CI runs.
"""

import io
import json
from pathlib import Path

from repro.analysis.checkers import CHECKERS, EXPLAIN
from repro.analysis.config import DEFAULT_CONFIG, LintConfig
from repro.analysis.runner import (
    DEFAULT_BASELINE,
    DEFAULT_SRC,
    execute,
    run_lint,
)
from repro.cli import main as cli_main

PARITY_CONFIG = LintConfig(
    set_modules=("phases",),
    bit_modules=("bit_phases",),
)


def _run(src, baseline, **kwargs):
    out, err = io.StringIO(), io.StringIO()
    code = execute(src=src, baseline_path=baseline,
                   stdout=out, stderr=err, **kwargs)
    return code, out.getvalue(), err.getvalue()


def _seed_violating_tree(root: Path) -> None:
    """A miniature src/ tree with one violation per checker family,
    laid out so DEFAULT_CONFIG's real module names resolve against it."""
    core = root / "repro" / "core"
    core.mkdir(parents=True)
    (root / "repro" / "__init__.py").write_text("")
    (core / "__init__.py").write_text("")
    # Engine with no bit twin -> parity finding.
    (core / "phases.py").write_text(
        "def pivot_phase(S, C, ctx):\n    return None\n")
    # Orphan bit engine that allocates a set -> parity + purity findings.
    (core / "bit_phases.py").write_text(
        "def bit_hot_scan(S, ctx):\n"
        "    seen = set()\n"
        "    return seen\n")
    service = root / "repro" / "service"
    parallel = root / "repro" / "parallel"
    service.mkdir()
    parallel.mkdir()
    (service / "__init__.py").write_text("")
    (parallel / "__init__.py").write_text("")
    # Unguarded mutation of a rostered attribute -> locks finding.
    (service / "registry.py").write_text(
        "class GraphRegistry:\n"
        "    def __init__(self):\n"
        "        self.stats = 0\n"
        "    def bump(self):\n"
        "        self.stats += 1\n")
    # Opaque shipped field -> picklesafety; import-time lock in the
    # worker entry module -> forksafety.
    (parallel / "pool.py").write_text(
        "import threading\n"
        "_EAGER = threading.Lock()\n"
        "class GraphState:\n"
        "    blob: object\n")
    # Dropped connection handle -> lifecycle finding.
    (parallel / "leak.py").write_text(
        "import socket\n"
        "def probe(host):\n"
        "    socket.create_connection((host, 80))\n")


class TestExitCodes:
    def test_clean_tree_is_0(self, fixtures, tmp_path):
        code, _, err = _run(fixtures / "parity_good",
                            tmp_path / "baseline.json",
                            config=PARITY_CONFIG)
        assert code == 0
        assert "lint clean" in err

    def test_new_findings_are_1(self, fixtures, tmp_path):
        code, out, err = _run(fixtures / "parity_bad",
                              tmp_path / "baseline.json",
                              config=PARITY_CONFIG)
        assert code == 1
        assert "· parity ·" in out
        assert "3 new finding(s)" in err

    def test_bad_src_dir_is_2(self, tmp_path):
        code, _, err = _run(tmp_path / "missing", tmp_path / "baseline.json")
        assert code == 2
        assert "not a directory" in err

    def test_malformed_baseline_is_2(self, fixtures, tmp_path):
        baseline = tmp_path / "baseline.json"
        baseline.write_text("{nope")
        code, _, err = _run(fixtures / "parity_good", baseline,
                            config=PARITY_CONFIG)
        assert code == 2
        assert "error:" in err


class TestBaselineFlow:
    def test_update_then_clean_then_stale(self, fixtures, tmp_path):
        baseline = tmp_path / "baseline.json"
        bad = fixtures / "parity_bad"
        code, _, err = _run(bad, baseline, config=PARITY_CONFIG,
                            update_baseline=True)
        assert code == 0
        assert "3 finding(s) accepted" in err

        # Same tree, baseline accepted: clean exit.
        code, out, _ = _run(bad, baseline, config=PARITY_CONFIG)
        assert code == 0
        assert out == ""

        # --show-baselined surfaces the accepted findings.
        code, out, _ = _run(bad, baseline, config=PARITY_CONFIG,
                            show_baselined=True)
        assert code == 0
        assert "[baselined]" in out

        # A fixed tree makes those entries stale: nonzero again.
        code, out, err = _run(fixtures / "parity_good", baseline,
                              config=PARITY_CONFIG)
        assert code == 1
        assert "stale baseline entry" in out
        assert "3 stale" in err

    def test_json_format(self, fixtures, tmp_path):
        code, out, _ = _run(fixtures / "parity_bad",
                            tmp_path / "baseline.json",
                            config=PARITY_CONFIG, out_format="json")
        assert code == 1
        report = json.loads(out)
        assert report["ok"] is False
        assert len(report["new"]) == 3
        assert report["baselined"] == [] and report["stale"] == []
        assert {"file", "line", "checker", "message"} <= set(report["new"][0])


class TestCliFrontend:
    def test_lint_subcommand_seeded_violations(self, tmp_path, capsys):
        tree = tmp_path / "src"
        _seed_violating_tree(tree)
        code = cli_main(["lint", "--src", str(tree),
                         "--baseline", str(tmp_path / "baseline.json")])
        out = capsys.readouterr().out
        assert code == 1
        assert "has no 'bit_pivot_phase' twin" in out
        assert "bit_hot_scan" in out and "set() call" in out
        assert "GraphRegistry.bump" in out and "· locks ·" in out
        assert "GraphState.blob" in out and "· picklesafety ·" in out
        assert "threading.Lock" in out and "· forksafety ·" in out
        assert "immediately dropped" in out and "· lifecycle ·" in out

    def test_lint_subcommand_update_baseline(self, tmp_path, capsys):
        tree = tmp_path / "src"
        _seed_violating_tree(tree)
        baseline = tmp_path / "baseline.json"
        assert cli_main(["lint", "--src", str(tree),
                         "--baseline", str(baseline),
                         "--update-baseline"]) == 0
        assert cli_main(["lint", "--src", str(tree),
                         "--baseline", str(baseline)]) == 0
        capsys.readouterr()


class TestExplain:
    def test_explain_known_checker(self, capsys):
        assert cli_main(["lint", "--explain", "locks"]) == 0
        out = capsys.readouterr().out
        assert "checker: locks" in out
        assert "rule:" in out and "rationale:" in out
        assert "# repro-lint: allow[locks]" in out

    def test_explain_covers_every_checker(self, capsys):
        for name in sorted(CHECKERS):
            assert cli_main(["lint", "--explain", name]) == 0
        capsys.readouterr()

    def test_explain_unknown_checker_is_2(self, capsys):
        assert cli_main(["lint", "--explain", "nope"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "unknown checker 'nope'" in err


class TestCheckersSubset:
    def test_subset_runs_only_named_checkers(self, fixtures, tmp_path):
        # parity_bad also has purity material; a purity-only run must
        # not report parity findings.
        code, out, _ = _run(fixtures / "parity_bad",
                            tmp_path / "baseline.json",
                            config=PARITY_CONFIG, checkers_spec="purity")
        assert "· parity ·" not in out
        code, out, _ = _run(fixtures / "parity_bad",
                            tmp_path / "baseline.json",
                            config=PARITY_CONFIG, checkers_spec="parity")
        assert code == 1
        assert "· parity ·" in out

    def test_unknown_checker_name_is_2(self, fixtures, tmp_path):
        code, _, err = _run(fixtures / "parity_good",
                            tmp_path / "baseline.json",
                            config=PARITY_CONFIG, checkers_spec="parity,nope")
        assert code == 2
        assert err.count("\n") == 1
        assert "unknown checker(s) nope" in err

    def test_subset_ignores_other_checkers_baseline(self, fixtures,
                                                    tmp_path):
        # Baseline the parity findings, then run only purity: the parity
        # entries must not surface as stale.
        baseline = tmp_path / "baseline.json"
        bad = fixtures / "parity_bad"
        assert _run(bad, baseline, config=PARITY_CONFIG,
                    update_baseline=True)[0] == 0
        code, _, err = _run(bad, baseline, config=PARITY_CONFIG,
                            checkers_spec="purity")
        assert code == 0
        assert "stale" not in err or "0 stale" in err

    def test_update_baseline_with_subset_is_2(self, fixtures, tmp_path):
        code, _, err = _run(fixtures / "parity_bad",
                            tmp_path / "baseline.json",
                            config=PARITY_CONFIG, checkers_spec="parity",
                            update_baseline=True)
        assert code == 2
        assert "cannot be combined" in err


class TestLiveTree:
    def test_registry_has_all_seven_checkers(self):
        assert set(CHECKERS) == {
            "parity", "purity", "boundaries",
            "locks", "picklesafety", "forksafety", "lifecycle",
        }
        assert set(EXPLAIN) == set(CHECKERS)

    def test_shipped_src_lints_clean(self):
        assert run_lint(DEFAULT_SRC, DEFAULT_CONFIG) == []

    def test_shipped_src_against_committed_baseline(self):
        code, out, _ = _run(DEFAULT_SRC, DEFAULT_BASELINE)
        assert code == 0
        assert out == ""
