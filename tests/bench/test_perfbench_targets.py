"""The repository benchmark's layer map still resolves against ``src/``.

``perfbench/layers.py`` wraps program functions at the names their callers
bind (``_SPAN_TARGETS``).  A traced run (``--trace 1``) fails on the first
target that no longer exists, so renaming or dropping a wrapped name would
only surface there; this guard runs with the unit tests instead.  The
target list is read from the file's AST, so the benchmark's own modules are
never imported here.
"""

import ast
import importlib
import pathlib

import pytest

LAYERS = pathlib.Path(__file__).resolve().parents[2] / "perfbench" / "layers.py"


def _span_targets() -> list[tuple[str, str, str | None, str]]:
    tree = ast.parse(LAYERS.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.AnnAssign) \
                and isinstance(node.target, ast.Name) \
                and node.target.id == "_SPAN_TARGETS":
            return ast.literal_eval(node.value)
    raise AssertionError(f"no _SPAN_TARGETS assignment in {LAYERS}")


TARGETS = _span_targets()


def test_layer_map_is_not_empty():
    assert len(TARGETS) > 10


@pytest.mark.parametrize(
    "span, module_name, owner_name, attr", TARGETS,
    ids=[f"{m}:{o + '.' if o else ''}{a}" for _, m, o, a in TARGETS])
def test_span_target_resolves(span, module_name, owner_name, attr):
    """Each target is looked up exactly as ``layers.install`` does."""
    module = importlib.import_module(module_name)
    if owner_name is None:
        assert hasattr(module, attr), f"{module_name} binds no {attr!r}"
        raw = getattr(module, attr)
    else:
        owner = getattr(module, owner_name)
        assert attr in owner.__dict__, \
            f"{module_name}.{owner_name} defines no {attr!r} itself"
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            raw = raw.__func__
    assert callable(raw)
