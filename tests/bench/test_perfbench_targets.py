"""The repository benchmark's layer map still resolves against ``src/``.

``perfbench/layers.py`` wraps program functions at the names their callers
bind (``_SPAN_TARGETS``).  A traced run (``--trace 1``) fails on the first
target that no longer exists, so renaming or dropping a wrapped name would
only surface there; this guard runs with the unit tests instead.  The
target list is read from the file's AST, so the benchmark's own modules are
never imported here.

The traced run also installs emission hooks outside that list: it wraps
``frameworks._counting`` and ``frameworks.make_context`` (the per-run
counters and the sink the engines call) and the ``__init__``/``__call__``
of the result sinks.  A count path that stopped calling them would
silently zero the ``core.*`` and ``emit.*`` metrics, so the second half
of this module drives a serial count through the same kind of wrappers.
The ledger reads the cliques a request delivered from the caller's sink
objects, so the last test pins that a parallel collect still hands its
result to one ``CliqueCollector``.
"""

import ast
import importlib
import pathlib

import pytest

from repro import count_maximal_cliques, maximal_cliques
from repro.core import frameworks, result
from repro.core.counters import Counters
from repro.graph import disjoint_union
from repro.graph.generators import erdos_renyi_gnm, plex_caveman
from repro.parallel.aggregate import CollectAggregator

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


#: the emission hooks ``layers._install_sinks`` wraps:
#: (module, owner attribute or None, function attribute).
EMISSION_HOOKS = [
    ("repro.core.frameworks", None, "_counting"),
    ("repro.core.frameworks", None, "make_context"),
    ("repro.core.result", "CliqueCounter", "__init__"),
    ("repro.core.result", "CliqueCollector", "__init__"),
    ("repro.core.result", "CliqueCollector", "__call__"),
]


@pytest.mark.parametrize(
    "module_name, owner_name, attr", EMISSION_HOOKS,
    ids=[f"{o + '.' if o else ''}{a}" for _, o, a in EMISSION_HOOKS])
def test_emission_hook_resolves(module_name, owner_name, attr):
    module = importlib.import_module(module_name)
    if owner_name is None:
        assert callable(getattr(module, attr, None)), \
            f"{module_name} binds no {attr!r}"
    else:
        owner = getattr(module, owner_name)
        assert callable(owner.__dict__.get(attr)), \
            f"{module_name}.{owner_name} defines no {attr!r} itself"


#: a sparse part graph reduction peels and a plex caveman that early
#: termination fires on, so every emission route of a count is taken.
HOOK_GRAPH = disjoint_union(erdos_renyi_gnm(16, 30, seed=12),
                            plex_caveman(4, 8, 2, seed=1))


@pytest.mark.parametrize("backend", ["bitset"])
def test_serial_count_calls_each_emission_hook_once(monkeypatch, backend):
    """Wrapped the way ``layers._install_sinks`` wraps them."""
    counting_calls, context_calls, counters_made = [], [], []
    counting = frameworks._counting
    make_context = frameworks.make_context
    init = result.CliqueCounter.__dict__["__init__"]

    def counting_hook(sink, counters):
        counting_calls.append(counters)
        return counting(sink, counters)

    def make_context_hook(sink, counters, **kwargs):
        context_calls.append(counters)
        return make_context(sink, counters, **kwargs)

    def init_hook(self):
        init(self)
        counters_made.append(self)

    monkeypatch.setattr(frameworks, "_counting", counting_hook)
    monkeypatch.setattr(frameworks, "make_context", make_context_hook)
    monkeypatch.setattr(result.CliqueCounter, "__init__", init_hook)
    count = count_maximal_cliques(HOOK_GRAPH, backend=backend)
    monkeypatch.undo()

    cliques = maximal_cliques(HOOK_GRAPH, backend=backend)
    (run_counters,) = counting_calls
    assert isinstance(run_counters, Counters)
    assert len(context_calls) == 1 and context_calls[0] is run_counters
    assert run_counters.emitted == len(cliques) == count
    assert run_counters.et_hits > 0
    assert run_counters.suppressed_candidates > 0
    (counter,) = counters_made
    assert counter.count == len(cliques)
    assert counter.total_vertices == sum(map(len, cliques))


def test_parallel_collect_delivers_into_one_collector(monkeypatch):
    """One ``CliqueCollector`` holds the result, filled in one step.

    The merge hands over the whole list: no per-clique call, no re-sort
    by the collector, one ``CollectAggregator.finish``.
    """
    made, calls = [], []
    init = result.CliqueCollector.__dict__["__init__"]
    finish = CollectAggregator.__dict__["finish"]

    def init_hook(self):
        init(self)
        made.append(self)

    def record(name):
        def hook(*args, **kwargs):
            calls.append(name)
        return hook

    def finish_hook(self, **kwargs):
        calls.append("finish")
        return finish(self, **kwargs)

    monkeypatch.setattr(result.CliqueCollector, "__init__", init_hook)
    monkeypatch.setattr(result.CliqueCollector, "__call__",
                        record("__call__"))
    monkeypatch.setattr(result.CliqueCollector, "sorted_cliques",
                        record("sorted_cliques"))
    monkeypatch.setattr(CollectAggregator, "finish", finish_hook)
    cliques = maximal_cliques(HOOK_GRAPH, n_jobs=2, backend="bitset")
    monkeypatch.undo()

    (collector,) = made
    assert collector.cliques is cliques
    assert calls == ["finish"]
    assert cliques == maximal_cliques(HOOK_GRAPH, backend="bitset")
