"""Vertex-oriented branching phases (the VBBMC family, Algorithm 1).

A *phase* is the recursion run inside a branch ``(S, C, X)``:

* :func:`pivot_phase` — classic Bron–Kerbosch with a pluggable pivot rule
  (``tomita``: max |N(u) ∩ C| over C ∪ X; ``ref``: same with Naudé-style
  domination shortcuts; ``none``: no pivoting, the original BK);
* :func:`rcd_phase` — BK_Rcd (Li et al.), Algorithm 9: repeatedly branch on
  the minimum-degree candidate until the candidate graph is a clique, then
  report ``S ∪ C`` after a maximality check;
* :func:`fac_phase` — BK_Fac (Jin et al.), Algorithm 10: start from an
  arbitrary pivot and adaptively shrink the branching set.

Hybrid-threshold semantics
--------------------------
Each phase receives two adjacency views over the branch universe:

* ``cand`` — *candidate* adjacency: pairs usable inside a clique of this
  branch.  Under HBBMC this excludes edges ranked before the branch's
  defining edge, which is what makes the edge-level partition exact.
* ``full`` — plain ``G`` adjacency (restricted to the universe), used for
  pivoting and for the exclusion set ``X``.

Refinement after choosing ``v``: candidates keep only ``cand``-neighbours
of ``v``; ``X`` keeps ``full``-neighbours, *plus* candidates that are
``full``- but not ``cand``-adjacent to ``v`` (they cannot join any clique of
this branch, yet still veto maximality).  With ``cand is full`` (all pure
VBBMC algorithms) this degrades to the textbook rules.

Correctness of ``full``-based pivoting: for pivot ``u``, any clique of the
branch avoiding ``u`` and every vertex of ``C \\ full[u]`` lies inside
``N_G(u)``, so ``u`` extends it in ``G`` and it is not maximal; hence
branching on ``C \\ full[u]`` (plus ``u`` itself) is exhaustive.

Ownership: phases mutate ``S``, ``C`` and ``X`` in place — callers pass
fresh objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from repro.core.counters import Counters
from repro.core.early_termination import (
    cand_plex_ok,
    fire_plex,
    try_early_termination,
)
from repro.core.result import CliqueSink
from repro.exceptions import InvalidParameterError

Adjacency = Mapping[int, set[int]] | Sequence[set[int]]
PhaseFn = Callable[..., None]

PIVOT_KINDS = ("tomita", "ref", "none")
VERTEX_STRATEGIES = ("tomita", "ref", "none", "rcd", "fac")
BACKENDS = ("set", "bitset")


@dataclass
class EngineContext:
    """Run-wide state threaded through every branch."""

    sink: CliqueSink
    counters: Counters = field(default_factory=Counters)
    et_threshold: int = 0
    pivot: str = "tomita"
    phase: PhaseFn | None = None  # the vertex phase used below edge branches

    def __post_init__(self) -> None:
        if self.et_threshold not in (0, 1, 2, 3):
            raise InvalidParameterError(
                f"et_threshold must be 0 (off), 1, 2 or 3; got {self.et_threshold}"
            )


def make_context(
    sink: CliqueSink,
    counters: Counters | None = None,
    *,
    et_threshold: int = 0,
    vertex_strategy: str = "tomita",
    backend: str = "set",
) -> EngineContext:
    """Build a context with the requested vertex strategy wired in.

    ``backend`` selects the branch-state representation: ``"set"`` phases
    take :class:`set` candidate/exclusion sets, ``"bitset"`` phases take
    ``int`` masks (see :mod:`repro.core.bit_phases`).  The two families
    share the :class:`EngineContext` but are not interchangeable within a
    single recursion.  The set backend's :func:`pivot_phase` reads
    ``ctx.pivot`` in every branch; the bitset backend has one phase per
    pivot rule and picks it here, once per run.
    """
    if backend not in BACKENDS:
        raise InvalidParameterError(
            f"unknown backend {backend!r}; expected one of {BACKENDS}"
        )
    ctx = EngineContext(
        sink=sink,
        counters=counters if counters is not None else Counters(),
        et_threshold=et_threshold,
    )
    if backend == "bitset":
        # Imported here: bit_phases imports EngineContext from this module.
        from repro.core.bit_phases import (
            PIVOT_RULE_PHASES,
            bit_fac_phase,
            bit_rcd_phase,
        )

        pivots, rcd, fac = PIVOT_RULE_PHASES, bit_rcd_phase, bit_fac_phase
    else:
        pivots = dict.fromkeys(PIVOT_KINDS, pivot_phase)
        rcd, fac = rcd_phase, fac_phase
    if vertex_strategy in PIVOT_KINDS:
        ctx.pivot = vertex_strategy
        ctx.phase = pivots[vertex_strategy]
    elif vertex_strategy == "rcd":
        ctx.phase = rcd
    elif vertex_strategy == "fac":
        ctx.phase = fac
    else:
        raise InvalidParameterError(
            f"unknown vertex strategy {vertex_strategy!r}; "
            f"expected one of {VERTEX_STRATEGIES}"
        )
    return ctx


def _refine(
    v: int,
    C: set[int],
    X: set[int],
    cand: Adjacency,
    full: Adjacency,
) -> tuple[set[int], set[int]]:
    """Candidate/exclusion sets of the sub-branch that adds ``v``."""
    nf = full[v]
    if cand is full:
        return C & nf, X & nf
    nc = cand[v]
    new_c = C & nc
    # full-adjacent but rank-pruned candidates become exclusion vertices.
    new_x = (X & nf) | ((C & nf) - nc)
    return new_c, new_x


def pivot_phase(
    S: list[int],
    C: set[int],
    X: set[int],
    cand: Adjacency,
    full: Adjacency,
    ctx: EngineContext,
) -> None:
    """Bron–Kerbosch with pivoting (Algorithm 1 + the pivoting strategy).

    With the default Tomita pivot, the early-termination plex check rides
    along with the pivot scan (the paper's "checked simultaneously with
    pivot selection" remark): one pass over ``C`` yields both the pivot and
    the minimum candidate degree.
    """
    counters = ctx.counters
    counters.vertex_calls += 1
    if not C:
        if not X:
            ctx.sink(tuple(S))
        return

    kind = ctx.pivot
    et = ctx.et_threshold
    if kind == "none":
        if et and try_early_termination(S, C, X, cand, full, ctx):
            return
        extension = sorted(C)
    elif kind == "ref":
        if et and try_early_termination(S, C, X, cand, full, ctx):
            return
        size = len(C)
        best_u = -1
        best = -1
        # Naudé-style shortcuts: an exclusion vertex covering all of C
        # kills the branch; a candidate adjacent to all others is the
        # perfect pivot (exactly one sub-branch).
        for u in X:
            d = len(full[u] & C)
            if d == size:
                return
            if d > best:
                best, best_u = d, u
        for u in C:
            d = len(full[u] & C)
            if d == size - 1:
                best, best_u = d, u
                break
            if d > best:
                best, best_u = d, u
        extension = sorted(C - full[best_u])
    else:  # tomita: merged pivot + plex scan
        size = len(C)
        if size <= 2:
            _tiny_candidate_set(S, C, X, cand, full, ctx, et)
            return
        best_u = -1
        best = -1
        min_degree = size
        for u in C:
            d = len(full[u] & C)
            if d > best:
                best, best_u = d, u
            if d < min_degree:
                min_degree = d
        if et and min_degree >= size - et:
            # Full-adjacency plex confirmed; in dual-view mode re-verify on
            # the candidate adjacency (a necessary condition passed, and
            # candidate degrees never exceed full degrees).
            same = cand is full
            if same or cand_plex_ok(C, cand, full, et):
                counters.plex_branches += 1
                if not X:
                    fire_plex(S, C, cand, ctx, min_degree if same else None)
                    return
        for u in X:
            d = len(full[u] & C)
            if d > best:
                best, best_u = d, u
        extension = sorted(C - full[best_u])

    phase = ctx.phase or pivot_phase
    for v in extension:
        new_c, new_x = _refine(v, C, X, cand, full)
        S.append(v)
        phase(S, new_c, new_x, cand, full, ctx)
        S.pop()
        C.remove(v)
        X.add(v)


def _tiny_candidate_set(
    S: list[int],
    C: set[int],
    X: set[int],
    cand: Adjacency,
    full: Adjacency,
    ctx: EngineContext,
    et: int,
) -> None:
    """Resolve branches with |C| <= 2 directly (no pivot scan, no recursion).

    These collapse to one or two maximality tests; counting them as plex
    branches keeps the Table V b/b0 semantics (|C| = 1 is a 1-plex, a
    non-adjacent pair is a 2-plex).
    """
    counters = ctx.counters
    sink = ctx.sink
    if len(C) == 1:
        (v,) = C
        if et:
            counters.plex_branches += 1
            if not X:
                counters.plex_terminable += 1
                counters.et_hits += 1
                counters.et_cliques += 1
        if not (X and X & full[v]):
            sink(tuple(S) + (v,))
        return

    u, v = sorted(C)
    if v in cand[u]:  # candidate pair: the only possible output is S+{u,v}
        if et:
            counters.plex_branches += 1
            if not X:
                counters.plex_terminable += 1
                counters.et_hits += 1
                counters.et_cliques += 1
        if not (X and X & full[u] & full[v]):
            sink(tuple(S) + (u, v))
        return

    if v in full[u]:
        # Graph-adjacent but rank-pruned: each endpoint vetoes the other's
        # singleton, and the pair itself belongs to an earlier branch.
        return
    if et >= 2:
        counters.plex_branches += 1
        if not X:
            counters.plex_terminable += 1
            counters.et_hits += 1
            counters.et_cliques += 2
    if not (X and X & full[u]):
        sink(tuple(S) + (u,))
    if not (X and X & full[v]):
        sink(tuple(S) + (v,))


def rcd_phase(
    S: list[int],
    C: set[int],
    X: set[int],
    cand: Adjacency,
    full: Adjacency,
    ctx: EngineContext,
) -> None:
    """BK_Rcd (Algorithm 9): peel minimum-degree candidates until clique."""
    counters = ctx.counters
    counters.vertex_calls += 1
    if not C:
        if not X:
            ctx.sink(tuple(S))
        return
    if ctx.et_threshold and try_early_termination(S, C, X, cand, full, ctx):
        return

    phase = ctx.phase or rcd_phase
    while C:
        size = len(C)
        min_v = -1
        min_d = size
        degree_sum = 0
        for v in C:
            d = len(cand[v] & C)
            degree_sum += d
            if d < min_d or (d == min_d and v < min_v):
                min_d, min_v = d, v
        if degree_sum == size * (size - 1):
            break  # C induces a clique in the candidate structure
        v = min_v
        new_c, new_x = _refine(v, C, X, cand, full)
        S.append(v)
        phase(S, new_c, new_x, cand, full, ctx)
        S.pop()
        C.remove(v)
        X.add(v)

    if C and all(not (C <= full[x]) for x in X):
        # A candidate clique survives; it is maximal unless some exclusion
        # vertex is (fully) adjacent to all of it.
        ctx.sink(tuple(S) + tuple(sorted(C)))


def fac_phase(
    S: list[int],
    C: set[int],
    X: set[int],
    cand: Adjacency,
    full: Adjacency,
    ctx: EngineContext,
) -> None:
    """BK_Fac (Algorithm 10): adaptive pivot refinement."""
    counters = ctx.counters
    counters.vertex_calls += 1
    if not C:
        if not X:
            ctx.sink(tuple(S))
        return
    if ctx.et_threshold and try_early_termination(S, C, X, cand, full, ctx):
        return

    phase = ctx.phase or fac_phase
    pivot = min(C)  # the algorithm's "arbitrary vertex", made deterministic
    pending = sorted(C - full[pivot])
    while pending:
        u = pending.pop(0)
        new_c, new_x = _refine(u, C, X, cand, full)
        S.append(u)
        phase(S, new_c, new_x, cand, full, ctx)
        S.pop()
        C.remove(u)
        X.add(u)
        # Adaptive step: if branching on u would have produced a smaller
        # frontier, adopt it (u just joined X, so C \ N(u) stays exhaustive).
        candidate_frontier = C - full[u]
        if len(candidate_frontier) < len(pending):
            pending = sorted(candidate_frontier)
