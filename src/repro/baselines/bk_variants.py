"""The VBBMC baseline family (paper Appendix A, Table VII).

Each function enumerates all maximal cliques of a graph into a sink and
returns run counters.  They are thin, documented configurations of the
shared vertex engine; the worst-case complexities quoted below are from the
paper's Table VII.  ``backend=None`` (the default) runs on
:func:`repro.core.frameworks.default_backend` of the graph under the
vertex-oriented bound, as :func:`repro.core.frameworks.run_vertex`
resolves it.

============  =============================  =============================
Function      Paper algorithm                Worst-case time
============  =============================  =============================
bk            BK (Bron–Kerbosch 1973)        O(n * 3.14^(n/3))
bk_pivot      BK_Pivot (Tomita 2006)         O(n * 3^(n/3))
bk_ref        BK_Ref (Naudé 2016)            O(n * 3^(n/3))
bk_degree     BK_Degree (Xu et al. 2014)     O(h*n * 3^(h/3))
bk_degen      BK_Degen (ELS 2010)            O(delta*n * 3^(delta/3))
bk_rcd        BK_Rcd (Li et al. 2019)        O(delta*n * 2^delta)
bk_fac        BK_Fac (Jin et al. 2022)       O(delta*n * 3.14^(delta/3))
============  =============================  =============================
"""

from __future__ import annotations

from repro.core.counters import Counters
from repro.core.frameworks import run_vertex
from repro.core.result import CliqueSink
from repro.graph.adjacency import Graph


def bk(g: Graph, sink: CliqueSink, *, counters: Counters | None = None,
       et_threshold: int = 0, graph_reduction: bool = False,
       backend: str | None = None, bit_order=None,
       initial_x: set[int] | None = None) -> Counters:
    """Original Bron–Kerbosch: branch on every candidate, no pivot."""
    return run_vertex(g, sink, ordering_kind=None, vertex_strategy="none",
                      et_threshold=et_threshold,
                      graph_reduction=graph_reduction, backend=backend,
                      bit_order=bit_order,
                      initial_x=initial_x, counters=counters)


def bk_pivot(g: Graph, sink: CliqueSink, *, counters: Counters | None = None,
             et_threshold: int = 0, graph_reduction: bool = False,
             backend: str | None = None, bit_order=None,
             initial_x: set[int] | None = None) -> Counters:
    """BK with Tomita's pivot (max |N(u) ∩ C| over C ∪ X)."""
    return run_vertex(g, sink, ordering_kind=None, vertex_strategy="tomita",
                      et_threshold=et_threshold,
                      graph_reduction=graph_reduction, backend=backend,
                      bit_order=bit_order,
                      initial_x=initial_x, counters=counters)


def bk_ref(g: Graph, sink: CliqueSink, *, counters: Counters | None = None,
           et_threshold: int = 0, graph_reduction: bool = False,
           backend: str | None = None, bit_order=None,
           initial_x: set[int] | None = None) -> Counters:
    """BK with Naudé's refined pivot selection (domination shortcuts)."""
    return run_vertex(g, sink, ordering_kind=None, vertex_strategy="ref",
                      et_threshold=et_threshold,
                      graph_reduction=graph_reduction, backend=backend,
                      bit_order=bit_order,
                      initial_x=initial_x, counters=counters)


def bk_degen(g: Graph, sink: CliqueSink, *, counters: Counters | None = None,
             et_threshold: int = 0, graph_reduction: bool = False,
             backend: str | None = None, bit_order=None,
             initial_x: set[int] | None = None) -> Counters:
    """Eppstein–Löffler–Strash: degeneracy ordering at the initial branch."""
    return run_vertex(g, sink, ordering_kind="degeneracy",
                      vertex_strategy="tomita", et_threshold=et_threshold,
                      graph_reduction=graph_reduction, backend=backend,
                      bit_order=bit_order,
                      initial_x=initial_x, counters=counters)


def bk_degree(g: Graph, sink: CliqueSink, *, counters: Counters | None = None,
              et_threshold: int = 0, graph_reduction: bool = False,
              backend: str | None = None, bit_order=None,
              initial_x: set[int] | None = None) -> Counters:
    """Degree ordering at the initial branch (h-index bound)."""
    return run_vertex(g, sink, ordering_kind="degree",
                      vertex_strategy="tomita", et_threshold=et_threshold,
                      graph_reduction=graph_reduction, backend=backend,
                      bit_order=bit_order,
                      initial_x=initial_x, counters=counters)


def bk_rcd(g: Graph, sink: CliqueSink, *, counters: Counters | None = None,
           et_threshold: int = 0, graph_reduction: bool = False,
           backend: str | None = None, bit_order=None,
           initial_x: set[int] | None = None) -> Counters:
    """BK_Rcd: top-down min-degree peeling until the candidate is a clique."""
    return run_vertex(g, sink, ordering_kind=None, vertex_strategy="rcd",
                      et_threshold=et_threshold,
                      graph_reduction=graph_reduction, backend=backend,
                      bit_order=bit_order,
                      initial_x=initial_x, counters=counters)


def bk_fac(g: Graph, sink: CliqueSink, *, counters: Counters | None = None,
           et_threshold: int = 0, graph_reduction: bool = False,
           backend: str | None = None, bit_order=None,
           initial_x: set[int] | None = None) -> Counters:
    """BK_Fac: degeneracy outer loop + adaptive pivot refinement."""
    return run_vertex(g, sink, ordering_kind="degeneracy",
                      vertex_strategy="fac", et_threshold=et_threshold,
                      graph_reduction=graph_reduction, backend=backend,
                      bit_order=bit_order,
                      initial_x=initial_x, counters=counters)


def rref(g: Graph, sink: CliqueSink, *, counters: Counters | None = None,
         backend: str | None = None, bit_order=None,
         initial_x: set[int] | None = None) -> Counters:
    """RRef = BK_Ref + graph reduction (Deng et al., the paper's baseline)."""
    return bk_ref(g, sink, counters=counters, graph_reduction=True,
                  backend=backend, bit_order=bit_order,
                  initial_x=initial_x)


def rdegen(g: Graph, sink: CliqueSink, *, counters: Counters | None = None,
           backend: str | None = None, bit_order=None,
           initial_x: set[int] | None = None) -> Counters:
    """RDegen = BK_Degen + graph reduction."""
    return bk_degen(g, sink, counters=counters, graph_reduction=True,
                    backend=backend, bit_order=bit_order,
                    initial_x=initial_x)


def rrcd(g: Graph, sink: CliqueSink, *, counters: Counters | None = None,
         backend: str | None = None, bit_order=None,
         initial_x: set[int] | None = None) -> Counters:
    """RRcd = BK_Rcd + graph reduction."""
    return bk_rcd(g, sink, counters=counters, graph_reduction=True,
                  backend=backend, bit_order=bit_order,
                  initial_x=initial_x)


def rfac(g: Graph, sink: CliqueSink, *, counters: Counters | None = None,
         backend: str | None = None, bit_order=None,
         initial_x: set[int] | None = None) -> Counters:
    """RFac = BK_Fac + graph reduction."""
    return bk_fac(g, sink, counters=counters, graph_reduction=True,
                  backend=backend, bit_order=bit_order,
                  initial_x=initial_x)
