"""Unit tests for the command-line interface."""

import json
import os
import subprocess
import sys

import pytest

from repro.cli import main
from repro.graph.builders import complete_graph
from repro.graph.io import write_edge_list


@pytest.fixture()
def graph_file(tmp_path):
    path = tmp_path / "g.txt"
    write_edge_list(complete_graph(4), path)
    return str(path)


#: graph files that used to escape ``main()`` as a traceback and exit 1.
MALFORMED_FILES = [
    ("bad-count.col", b"p edge x 3\n"),
    ("bad-id.col", b"p edge 3 1\ne 1 2.5\n"),
    ("out-of-range.json", b'{"n": 3, "edges": [[0, 5]]}'),
    ("edges-not-list.json", b'{"n": 3, "edges": 5}'),
    ("bad-token.metis", b"2 1\n2 q\n1\n"),
    ("line-count.metis", b"3 1\n2\n1\n"),
    ("binary.txt", b"0 1\n\xff\xfe 2\n"),
    ("huge-int.json", b'{"n": ' + b"9" * 5000 + b', "edges": []}'),
    ("deep.json", b"[" * 100000),
]


class TestGraphFileErrors:
    """A bad graph file exits 2 with one ``error:`` line, no traceback."""

    @pytest.mark.parametrize("name,content", MALFORMED_FILES,
                             ids=[name for name, _ in MALFORMED_FILES])
    def test_malformed_file_exits_2(self, tmp_path, name, content, capsys):
        path = tmp_path / name
        path.write_bytes(content)
        assert main(["count", str(path)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("error:") and name in err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "absent.txt"
        assert main(["count", str(path)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("error:") and "absent.txt" in err

    @pytest.mark.parametrize("path", ["a\0b.txt", "\ud800", "\ud800.col"])
    def test_unusable_path_exits_2(self, path, capsys):
        assert main(["count", path]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("error:") and repr(path) in err


class TestEnumerate:
    def test_enumerate_file(self, graph_file, capsys):
        assert main(["enumerate", graph_file]) == 0
        out = capsys.readouterr().out
        assert len(out.strip().splitlines()) == 1  # K4: one clique

    def test_limit(self, graph_file, capsys):
        assert main(["enumerate", graph_file, "--limit", "0"]) == 0
        captured = capsys.readouterr()
        assert captured.out.strip() == ""
        # All cliques are hidden, and the arithmetic says so exactly.
        assert "... (1 more)" in captured.err

    @pytest.mark.parametrize("bad", ["-1", "-5"])
    def test_negative_limit_exits_2(self, graph_file, bad, capsys):
        # Regression: cliques[:-k] silently dropped cliques from the end
        # and the "(N more)" arithmetic over-reported.
        assert main(["enumerate", graph_file, "--limit", bad]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "--limit" in err
        assert len(err.strip().splitlines()) == 1

    def test_dataset_option(self, capsys):
        assert main(["count", "--dataset", "WE", "-a", "rdegen"]) == 0
        assert "cliques" in capsys.readouterr().out

    def test_missing_input_errors(self, capsys):
        # Exit code 2 + one-line message, like every other user error
        # (the old bare SystemExit exited 1 and bypassed the convention).
        assert main(["enumerate"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_graph_file_plus_dataset_exits_2(self, graph_file, capsys):
        # Regression: the file used to be silently ignored under --dataset.
        assert main(["count", graph_file, "--dataset", "WE"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "--dataset" in err
        assert len(err.strip().splitlines()) == 1

    def test_format_plus_dataset_exits_2(self, capsys):
        # Regression: --format used to be silently ignored under --dataset.
        assert main(["count", "--dataset", "WE", "--format", "json"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "--format" in err
        assert len(err.strip().splitlines()) == 1


class TestCount:
    def test_single_algorithm(self, graph_file, capsys):
        assert main(["count", graph_file, "-a", "hbbmc++"]) == 0
        assert "hbbmc++" in capsys.readouterr().out


class TestBackendFlag:
    def test_enumerate_bitset_backend(self, graph_file, capsys):
        assert main(["enumerate", graph_file, "--backend", "bitset"]) == 0
        out = capsys.readouterr().out
        assert out.strip() == "0 1 2 3"  # K4: the one maximal clique

    def test_count_backends_agree(self, graph_file, capsys):
        assert main(["count", graph_file, "--backend", "set"]) == 0
        set_out = capsys.readouterr().out
        assert main(["count", graph_file, "--backend", "bitset"]) == 0
        bit_out = capsys.readouterr().out
        assert set_out.split()[1] == bit_out.split()[1]  # same clique count

    def test_count_all_skips_unsupported_backend(self, graph_file, capsys):
        assert main(["count", graph_file, "--all", "--backend", "bitset"]) == 0
        out = capsys.readouterr().out
        assert "hbbmc++" in out
        assert "skipped" in out  # reverse-search has no bitset backend

    def test_enumerate_words_backend(self, graph_file, capsys):
        # The NumPy word backend is gone: "words" is an unknown choice.
        with pytest.raises(SystemExit) as excinfo:
            main(["enumerate", graph_file, "--backend", "words"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'words'" in capsys.readouterr().err


class TestBitOrderFlag:
    @pytest.mark.parametrize("backend", ["bitset"])
    @pytest.mark.parametrize("bit_order", ["input", "degeneracy"])
    def test_enumerate_bit_orders_agree(self, graph_file, bit_order, backend,
                                        capsys):
        assert main(["enumerate", graph_file, "--backend", backend,
                     "--bit-order", bit_order]) == 0
        assert capsys.readouterr().out.strip() == "0 1 2 3"  # K4

    def test_bit_order_without_mask_backend_exits_2(self, graph_file, capsys):
        # Without --backend the default may land on either side, so
        # --bit-order needs a named one; the error names the bitset
        # backend so the fix is discoverable from the one-line message.
        assert main(["enumerate", graph_file,
                     "--bit-order", "degeneracy"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "--bit-order" in err
        assert "bitset" in err and "words" not in err
        assert len(err.strip().splitlines()) == 1

    def test_bit_order_misuse_not_swallowed_by_count_all(self, graph_file,
                                                         capsys):
        # --all's skip path is for per-algorithm incompatibilities, not
        # global flag misuse: this must exit 2, not print 23 "skipped"s.
        assert main(["count", graph_file, "--all",
                     "--bit-order", "degeneracy"]) == 2
        err = capsys.readouterr().err
        assert "--bit-order" in err
        assert len(err.strip().splitlines()) == 1

    def test_bit_order_documented_in_help(self, capsys):
        with pytest.raises(SystemExit):
            main(["enumerate", "--help"])
        assert "--bit-order" in capsys.readouterr().out


class TestJobsFlag:
    def test_enumerate_parallel_matches_serial(self, graph_file, capsys):
        assert main(["enumerate", graph_file]) == 0
        serial = capsys.readouterr().out
        assert main(["enumerate", graph_file, "--jobs", "2"]) == 0
        assert capsys.readouterr().out == serial

    def test_count_with_jobs_and_steal(self, graph_file, capsys):
        assert main(["count", graph_file, "--jobs", "2", "--steal"]) == 0
        assert "1" in capsys.readouterr().out.split()

    def test_verify_with_jobs(self, graph_file, capsys):
        assert main(["verify", graph_file, "--jobs", "2"]) == 0
        assert "OK" in capsys.readouterr().out

    @pytest.mark.parametrize("bad", ["0", "-4", "two", "1.5"])
    def test_invalid_jobs_exits_2_with_one_line(self, graph_file, bad, capsys):
        assert main(["count", graph_file, "--jobs", bad]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "--jobs" in err
        assert len(err.strip().splitlines()) == 1

    def test_steal_with_jobs_matches_serial(self, graph_file, capsys):
        assert main(["enumerate", graph_file]) == 0
        serial = capsys.readouterr().out
        assert main(["enumerate", graph_file, "--jobs", "2",
                     "--steal"]) == 0
        assert capsys.readouterr().out == serial

    def test_jobs_documented_in_help(self, capsys):
        with pytest.raises(SystemExit):
            main(["enumerate", "--help"])
        out = capsys.readouterr().out
        assert "--jobs" in out
        assert "--steal" in out


class TestErrorExits:
    """User errors must exit with code 2 and one line, not a traceback."""

    def test_unknown_algorithm_exits_2(self, graph_file, capsys):
        assert main(["count", graph_file, "-a", "definitely-not-real"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "definitely-not-real" in err
        assert len(err.strip().splitlines()) == 1

    def test_invalid_parameter_exits_2(self, graph_file, capsys):
        # reverse-search rejects the bitset backend with InvalidParameterError.
        assert main(["enumerate", graph_file, "-a", "reverse-search",
                     "--backend", "bitset"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert len(err.strip().splitlines()) == 1


class TestStats:
    def test_stats_output(self, graph_file, capsys):
        assert main(["stats", graph_file]) == 0
        out = capsys.readouterr().out
        assert "degeneracy = 3" in out
        assert "Theorem 2" in out


class TestListing:
    def test_datasets(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "OR" in out and "orkut" not in out  # codes + categories

    def test_algorithms(self, capsys):
        assert main(["algorithms"]) == 0
        out = capsys.readouterr().out
        assert "hbbmc++" in out
        assert "reverse-search" in out

    def test_algorithms_lists_every_registered_name(self, capsys):
        from repro.api import ALGORITHMS

        assert main(["algorithms"]) == 0
        out = capsys.readouterr().out
        for name in ALGORITHMS:
            assert name in out


class TestVerify:
    def test_verify_ok(self, graph_file, capsys):
        assert main(["verify", graph_file]) == 0
        assert "OK" in capsys.readouterr().out


class TestServe:
    """The serve subcommand: a real subprocess round trip over stdio."""

    def test_serve_round_trip(self, graph_file):
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        requests = [
            {"op": "ping"},
            {"op": "register", "path": graph_file, "name": "k4"},
            {"op": "count", "graph": "k4"},
            {"op": "count", "graph": "k4", "backend": "bitset"},
            {"op": "enumerate", "graph": "k4"},
            {"op": "stats"},
            {"op": "shutdown"},
        ]
        payload = "".join(json.dumps(r) + "\n" for r in requests)
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "serve"],
            input=payload, capture_output=True, text=True, env=env,
            timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        responses = [json.loads(line)
                     for line in completed.stdout.splitlines()]
        assert len(responses) == len(requests)
        assert all(r["ok"] for r in responses)
        assert responses[2]["count"] == 1 and not responses[2]["warm"]
        assert responses[3]["warm"]
        assert responses[4]["cliques"] == [[0, 1, 2, 3]]
        assert responses[5]["stats"]["decompose_calls"] == 1
        assert responses[6]["bye"]

    def test_serve_rejects_format_without_graph(self, capsys):
        # Same masked-intent class as count/enumerate: --format with no
        # --graph file to apply it to must not be silently ignored.
        assert main(["serve", "--dataset", "WE", "--format", "json"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "--format" in err
        assert len(err.strip().splitlines()) == 1

    def test_serve_rejects_bad_jobs(self, capsys):
        assert main(["serve", "--jobs", "zero"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "--jobs" in err
        assert len(err.strip().splitlines()) == 1

    def test_serve_documented_in_help(self, capsys):
        with pytest.raises(SystemExit):
            main(["serve", "--help"])
        out = capsys.readouterr().out
        assert "--port" in out
        assert "--jobs" in out


class TestTraceFlag:
    def test_count_writes_trace_json(self, graph_file, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        assert main(["count", graph_file, "--jobs", "2",
                     "--trace", str(trace_path)]) == 0
        err = capsys.readouterr().err
        assert str(trace_path) in err
        tree = json.loads(trace_path.read_text())
        assert tree["name"] == "count"
        names = set()
        stack = [tree]
        while stack:
            node = stack.pop()
            names.add(node["name"])
            stack.extend(node["children"])
        assert {"decompose", "pack", "ship", "execute", "chunk",
                "merge"} <= names

    def test_enumerate_serial_trace(self, graph_file, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        assert main(["enumerate", graph_file,
                     "--trace", str(trace_path)]) == 0
        capsys.readouterr()
        tree = json.loads(trace_path.read_text())
        assert [c["name"] for c in tree["children"]] == ["enumerate"]
        assert tree["attrs"]["counters"]["emitted"] == 1

    def test_trace_incompatible_with_all(self, graph_file, tmp_path, capsys):
        assert main(["count", graph_file, "--all",
                     "--trace", str(tmp_path / "t.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--all" in err

    def test_serve_metrics_flag_documented(self, capsys):
        with pytest.raises(SystemExit):
            main(["serve", "--help"])
        assert "--metrics" in capsys.readouterr().out
