"""Unit tests for the shared module index and pragma parsing."""

from repro.analysis.index import ModuleIndex


class TestModuleIndex:
    def test_builds_dotted_names(self, fixtures):
        index = ModuleIndex.build(fixtures / "boundaries_bad")
        assert {m.name for m in index} == {"cli", "protocol", "workers.pool"}

    def test_collects_functions_with_params(self, fixtures):
        index = ModuleIndex.build(fixtures / "parity_bad")
        info = index.get("phases")
        func = info.function("pivot_phase")
        assert func.params == ("S", "C", "X", "cand", "full", "ctx")
        assert func.is_public
        assert func.lineno <= func.end_lineno

    def test_get_by_rel(self, fixtures):
        index = ModuleIndex.build(fixtures / "parity_bad")
        info = index.get_by_rel("phases.py")
        assert info is not None and info.name == "phases"
        assert index.get_by_rel("nope.py") is None

    def test_methods_get_qualnames(self, fixtures):
        index = ModuleIndex.build(fixtures / "lifecycle_good")
        info = index.get("svc.net")
        init = info.function("Client.__init__")
        assert init is not None
        assert "host" in init.params


class TestPragmas:
    def test_pragma_on_line_and_line_above(self, tmp_path):
        (tmp_path / "m.py").write_text(
            "x = 1  # repro-lint: allow[purity]\n"
            "# repro-lint: allow[parity, knobs]\n"
            "y = 2\n"
        )
        info = ModuleIndex.build(tmp_path).get("m")
        assert info.allows(1, "purity")
        assert not info.allows(1, "parity")
        assert info.allows(3, "parity")
        assert info.allows(3, "knobs")
        assert not info.allows(3, "purity")

    def test_def_line_pragma_covers_whole_function(self, tmp_path):
        (tmp_path / "m.py").write_text(
            "# repro-lint: allow[purity]\n"
            "def f(x):\n"
            "    a = 1\n"
            "    b = 2\n"
            "    return a + b + x\n"
            "def g(x):\n"
            "    return x\n"
        )
        info = ModuleIndex.build(tmp_path).get("m")
        assert info.allows(4, "purity")   # inside f
        assert not info.allows(7, "purity")  # inside g

    def test_allow_all_wildcard(self, tmp_path):
        (tmp_path / "m.py").write_text("x = 1  # repro-lint: allow[*]\n")
        info = ModuleIndex.build(tmp_path).get("m")
        assert info.allows(1, "purity")
        assert info.allows(1, "anything")
