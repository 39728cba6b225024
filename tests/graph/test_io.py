"""Unit tests for graph readers/writers (round trips + malformed input)."""

import gzip

import pytest

from repro.exceptions import GraphFormatError
from repro.graph.adjacency import Graph
from repro.graph.builders import complete_graph
from repro.graph.generators import erdos_renyi_gnm
from repro.graph.io import (
    load_graph,
    read_dimacs,
    read_edge_list,
    read_json,
    read_metis,
    write_dimacs,
    write_edge_list,
    write_json,
    write_metis,
)


@pytest.fixture()
def sample():
    return erdos_renyi_gnm(15, 40, seed=8)


class TestEdgeList:
    def test_round_trip(self, tmp_path, sample):
        path = tmp_path / "g.txt"
        write_edge_list(sample, path)
        loaded = read_edge_list(path)
        # Labels are strings after reading; compare canonical edge sets.
        edges = {tuple(sorted((int(loaded.labels[u]), int(loaded.labels[v]))))
                 for u, v in loaded.graph.edges()}
        assert edges == set(sample.edges())

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# comment\n\n% other\n0 1\n1 2 99\n")
        lg = read_edge_list(path)
        assert lg.graph.m == 2  # trailing weight column ignored

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("justonetoken\n")
        with pytest.raises(GraphFormatError):
            read_edge_list(path)

    def test_header_written(self, tmp_path, sample):
        path = tmp_path / "g.txt"
        write_edge_list(sample, path, header="hello")
        assert path.read_text().startswith("# hello")


class TestDimacs:
    def test_round_trip(self, tmp_path, sample):
        path = tmp_path / "g.col"
        write_dimacs(sample, path)
        loaded = read_dimacs(path)
        assert sorted(loaded.edges()) == sorted(sample.edges())
        assert loaded.n == sample.n

    def test_missing_header(self, tmp_path):
        path = tmp_path / "g.col"
        path.write_text("e 1 2\n")
        with pytest.raises(GraphFormatError):
            read_dimacs(path)

    def test_edge_out_of_range(self, tmp_path):
        path = tmp_path / "g.col"
        path.write_text("p edge 2 1\ne 1 5\n")
        with pytest.raises(GraphFormatError):
            read_dimacs(path)


class TestMetis:
    def test_round_trip(self, tmp_path, sample):
        path = tmp_path / "g.metis"
        write_metis(sample, path)
        loaded = read_metis(path)
        assert sorted(loaded.edges()) == sorted(sample.edges())

    def test_wrong_line_count(self, tmp_path):
        path = tmp_path / "g.metis"
        path.write_text("3 1\n2\n")
        with pytest.raises(GraphFormatError):
            read_metis(path)

    @pytest.mark.parametrize("isolated", [[2], [4], [2, 4], [0, 4]])
    def test_round_trip_keeps_isolated_vertices(self, tmp_path, isolated):
        g = Graph(5)
        linked = [v for v in range(5) if v not in isolated]
        for u, v in zip(linked, linked[1:]):
            g.add_edge(u, v)
        path = tmp_path / "g.metis"
        write_metis(g, path)
        loaded = read_metis(path)
        assert loaded.n == 5
        assert sorted(loaded.edges()) == sorted(g.edges())

    @pytest.mark.parametrize("text", [
        "3 1\n2\n\n",  # two adjacency lines, one of them blank
        "4 1\n2\n1\n\n",
        "3 1\n\n\n",
    ])
    def test_short_file_with_blank_lines_still_fails(self, tmp_path, text):
        path = tmp_path / "g.metis"
        path.write_text(text)
        with pytest.raises(GraphFormatError, match="adjacency lines"):
            read_metis(path)

    def test_blank_lines_past_the_last_vertex_are_ignored(self, tmp_path):
        path = tmp_path / "g.metis"
        path.write_text("% comment\n3 1\n2\n1\n\n\n\n")
        loaded = read_metis(path)
        assert loaded.n == 3
        assert sorted(loaded.edges()) == [(0, 1)]


class TestJson:
    def test_round_trip(self, tmp_path, sample):
        path = tmp_path / "g.json"
        write_json(sample, path)
        loaded = read_json(path)
        assert sorted(loaded.edges()) == sorted(sample.edges())

    def test_missing_keys(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text("{}")
        with pytest.raises(GraphFormatError):
            read_json(path)

    def test_trailing_edge_fields_ignored(self, tmp_path):
        # Like a weight column in the text formats.
        path = tmp_path / "g.json"
        path.write_text('{"n": 3, "edges": [[0, 1, 2.5], [1, 2, "w", 7]]}')
        assert sorted(read_json(path).edges()) == [(0, 1), (1, 2)]


#: (file name, content, the token the error must name) — one per field.
MALFORMED_FIELDS = [
    ("p-count.col", b"p edge x 3\n", "'x'"),
    ("p-edges.col", b"p edge 3 y\n", "'y'"),
    ("p-negative.col", b"p edge -3 0\n", "'-3'"),
    ("e-id.col", b"p edge 3 1\ne 1 2.5\n", "'2.5'"),
    ("e-range.col", b"p edge 3 1\ne 1 4\n", "(1, 4)"),
    ("header-n.metis", b"n 1\n2\n1\n", "'n'"),
    ("header-m.metis", b"2 m\n2\n1\n", "'m'"),
    ("token.metis", b"2 1\n2 q\n1\n", "'q'"),
    ("n.json", b'{"n": "3", "edges": []}', "'3'"),
    ("n-bool.json", b'{"n": true, "edges": []}', "True"),
    ("edges.json", b'{"n": 3, "edges": 5}', "5"),
    ("range.json", b'{"n": 3, "edges": [[0, 5]]}', "[0, 5]"),
    ("negative.json", b'{"n": 3, "edges": [[-1, 2]]}', "[-1, 2]"),
    ("short.json", b'{"n": 3, "edges": [[0, 1], [2]]}', "[2]"),
    ("float.json", b'{"n": 3, "edges": [[0, 1.0]]}', "[0, 1.0]"),
    ("syntax.json", b'{"n": 3,', "invalid JSON"),
    ("huge-int.json", b'{"n": ' + b"9" * 5000 + b', "edges": []}',
     "invalid JSON"),
    ("deep.json", b"[" * 100000, "invalid JSON"),
    ("bytes.txt", b"0 1\n\xff\xfe 2\n", "\\xff\\xfe"),
    ("bytes.col", b"p edge 3 1\ne 1 2 \xe9\n", "\\xe9"),
    ("bytes.json", b'{"n": 3, "edges": []} \xff', "\\xff"),
]

#: (file name, content, line number the error must name).
MALFORMED_LINES = [
    ("p-count.col", b"c comment\np edge x 3\n", 2),
    ("e-id.col", b"p edge 3 1\ne 1 2.5\n", 2),
    ("e-range.col", b"p edge 3 2\ne 1 2\ne 1 4\n", 3),
    ("token.metis", b"2 1\n2 q\n1\n", 2),
    ("bytes.txt", b"0 1\n# note\n\xff\xfe 2\n", 3),
    ("syntax.json", b'{"n": 3,\n "edges": [[0, 1]\n', 3),
    ("bytes.json", b'{"n": 3,\n "edges": []} \xff', 2),
]


class TestMalformedFields:
    """Every malformed field is a GraphFormatError naming file and token."""

    @pytest.mark.parametrize("name,content,token", MALFORMED_FIELDS,
                             ids=[case[0] for case in MALFORMED_FIELDS])
    def test_raises_format_error(self, tmp_path, name, content, token):
        path = tmp_path / name
        path.write_bytes(content)
        with pytest.raises(GraphFormatError) as info:
            load_graph(path)
        assert name in str(info.value)
        assert token in str(info.value)

    @pytest.mark.parametrize("name,content,line", MALFORMED_LINES,
                             ids=[case[0] for case in MALFORMED_LINES])
    def test_names_the_line(self, tmp_path, name, content, line):
        path = tmp_path / name
        path.write_bytes(content)
        with pytest.raises(GraphFormatError, match=f"{name}:{line}: "):
            load_graph(path)

    @pytest.mark.parametrize("name,content", [
        ("g.txt.gz", gzip.compress(b"0 1\n1 2\n")[:12]),  # truncated
        ("g.json.gz", b'{"n": 2, "edges": []}'),  # never compressed
    ])
    def test_damaged_gzip(self, tmp_path, name, content):
        path = tmp_path / name
        path.write_bytes(content)
        with pytest.raises(GraphFormatError, match=name):
            load_graph(path)

    @pytest.mark.parametrize("path", ["a\0b.txt", "a\0b.json.gz",
                                      "\ud800", "\ud800.col"])
    def test_unusable_path(self, path):
        # open() raises ValueError for these before touching the disk.
        with pytest.raises(GraphFormatError, match="not a usable file name"):
            load_graph(path)

    def test_unhashable_format_name(self, tmp_path, sample):
        path = tmp_path / "g.txt"
        write_edge_list(sample, path)
        with pytest.raises(GraphFormatError, match="unknown format"):
            load_graph(path, fmt=["json"])

    def test_utf8_labels_still_read(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_bytes("caf\u00e9 na\u00efve\n".encode("utf-8"))
        assert read_edge_list(path).graph.m == 1


class TestGzipTransparency:
    """Every format reads (and writes) ``.gz`` files transparently."""

    def _gzip_copy(self, tmp_path, plain_path, name):
        gz_path = tmp_path / name
        gz_path.write_bytes(gzip.compress(plain_path.read_bytes()))
        return gz_path

    def test_edge_list_gz(self, tmp_path, sample):
        plain = tmp_path / "g.txt"
        write_edge_list(sample, plain)
        gz = self._gzip_copy(tmp_path, plain, "g.txt.gz")
        loaded = read_edge_list(gz)
        edges = {tuple(sorted((int(loaded.labels[u]), int(loaded.labels[v]))))
                 for u, v in loaded.graph.edges()}
        assert edges == set(sample.edges())

    def test_dimacs_gz(self, tmp_path, sample):
        plain = tmp_path / "g.col"
        write_dimacs(sample, plain)
        gz = self._gzip_copy(tmp_path, plain, "g.col.gz")
        assert sorted(read_dimacs(gz).edges()) == sorted(sample.edges())

    def test_metis_gz(self, tmp_path, sample):
        plain = tmp_path / "g.metis"
        write_metis(sample, plain)
        gz = self._gzip_copy(tmp_path, plain, "g.metis.gz")
        assert sorted(read_metis(gz).edges()) == sorted(sample.edges())

    def test_json_gz(self, tmp_path, sample):
        plain = tmp_path / "g.json"
        write_json(sample, plain)
        gz = self._gzip_copy(tmp_path, plain, "g.json.gz")
        assert sorted(read_json(gz).edges()) == sorted(sample.edges())

    def test_writers_compress(self, tmp_path, sample):
        gz = tmp_path / "g.txt.gz"
        write_edge_list(sample, gz)
        # Really gzip on disk (magic bytes), and round-trips.
        assert gz.read_bytes()[:2] == b"\x1f\x8b"
        loaded = read_edge_list(gz)
        assert loaded.graph.m == sample.m

    def test_uppercase_gz_suffix(self, tmp_path):
        g = complete_graph(4)
        path = tmp_path / "G.TXT.GZ"
        write_edge_list(g, path)
        assert path.read_bytes()[:2] == b"\x1f\x8b"
        assert load_graph(path).m == 6

    def test_load_graph_infers_inner_suffix(self, tmp_path):
        g = complete_graph(4)
        for suffix, writer in [
            (".txt.gz", write_edge_list), (".col.gz", write_dimacs),
            (".metis.gz", write_metis), (".json.gz", write_json),
        ]:
            path = tmp_path / f"g{suffix}"
            writer(g, path)
            assert load_graph(path).m == 6


class TestLoadGraph:
    def test_by_suffix(self, tmp_path):
        g = complete_graph(4)
        for suffix, writer in [
            (".txt", write_edge_list), (".col", write_dimacs),
            (".metis", write_metis), (".json", write_json),
        ]:
            path = tmp_path / f"g{suffix}"
            writer(g, path)
            loaded = load_graph(path)
            assert loaded.m == 6

    def test_unknown_format(self, tmp_path):
        path = tmp_path / "g.txt"
        write_edge_list(complete_graph(3), path)
        with pytest.raises(GraphFormatError):
            load_graph(path, fmt="bogus")
