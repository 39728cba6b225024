"""Bit-parallel vertex phases: the ``backend="bitset"`` twins of phases.py.

Every function here mirrors its set-backend counterpart in
:mod:`repro.core.phases`: same branching rules, same early-termination
conditions, same emitted cliques — but the branch state ``(C, X)`` and both
adjacency views are arbitrary-precision ``int`` bitmasks instead of sets,
so the hot operations (candidate intersection, pivot scoring, plex-degree
scans) collapse to word-parallel AND/popcount.

One observable difference remains: pivot scans here visit vertices in
ascending id order while the set backend visits them in set-iteration
order, so *degree ties* can select different (equally valid) pivots.  The
recursion trees then differ slightly and the instrumentation counters
(``vertex_calls``, the Table V b/b0 family) may drift by a few counts
between backends; ``Counters.emitted`` and the clique sets are always
identical.

Bitmask conventions:

* ``C`` and ``X`` are masks; ``full``/``cand`` map a vertex id to its
  neighbourhood mask (``Sequence[int]`` for whole-graph adjacency,
  ``Mapping[int, int]`` for branch-restricted candidate views);
* masks are *immutable*, so where the set backend mutates ``C``/``X`` in
  place the bit backend rebinds locals — callers never observe the change,
  which the set backend's ownership contract already forbade relying on;
* set bits are consumed in ascending order, matching the ``sorted(...)``
  branch orderings of the set backend, so both backends enumerate branches
  in comparable order.

Same-view fast path
-------------------
A branch whose candidate view *is* its graph view (``cand is full``) takes
the tomita phase's fast path: the rule was chosen once in ``make_context``
(:data:`PIVOT_RULE_PHASES`), children are refined inline as ``C & full[v]``
and ``X & full[v]``, and the exclusion scan stops at the first vertex that
covers ``C``.  Those are the in-place parallel subproblems (``n_jobs`` and
the service), ``run_vertex``'s roots, and every hybrid-root or
:func:`repro.core.bit_edge_engine.bit_edge_phase` branch whose
``_bit_dual_view`` is ``None``.  A dual-view branch (a rank-pruned pair
inside ``C``) keeps :func:`_bit_refine` and :func:`_bit_cand_plex_ok`.
Handed a copy of the graph masks as its view, that general body makes the
same branches, pivots and counters and emits the same cliques in the same
order as the fast path, so it is the fast path's oracle
(``tests/core/test_same_view_fast_path.py``).

Early termination is bit-native end to end: the plex check runs
bit-parallel on every branch, and the plex *construction* (Algorithms 6-8)
runs directly on the masks too — complement discovery, path/cycle walks
and MIS instantiation all live in :mod:`repro.core.bit_plex`, with the
set-backed :func:`repro.core.early_termination.fire_plex` kept as the
audited oracle the differential suite compares against.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.core.bit_plex import bit_fire_plex
from repro.core.phases import EngineContext, PhaseFn
from repro.graph.bitadj import iter_bits

BitAdjacency = Mapping[int, int] | Sequence[int]


def _bit_refine(
    v: int,
    C: int,
    X: int,
    cand: BitAdjacency,
    full: BitAdjacency,
) -> tuple[int, int]:
    """Candidate/exclusion masks of the sub-branch that adds ``v``."""
    nf = full[v]
    if cand is full:
        return C & nf, X & nf
    nc = cand[v]
    # full-adjacent but rank-pruned candidates become exclusion vertices.
    return C & nc, (X & nf) | ((C & nf) & ~nc)


def bit_pivot_phase(
    S: list[int],
    C: int,
    X: int,
    cand: BitAdjacency,
    full: BitAdjacency,
    ctx: EngineContext,
) -> None:
    """Bron–Kerbosch with tomita pivoting and the merged plex scan.

    The phase of the ``tomita`` rule; ``ref`` and ``none`` have phases of
    their own, and :func:`repro.core.phases.make_context` picks one per
    run.  One scan over ``C`` finds the pivot candidate and the minimum
    within-C degree for the early-termination check; the scan over ``X``
    stops at the first exclusion vertex adjacent to all of ``C``: every
    clique of the branch extends by it, so none is maximal.  A same-view
    branch (``cand is full``) refines its children inline; a dual-view
    branch refines them through :func:`_bit_refine`.

    A branch with ``|C| <= 2`` opens no pivot scan:
    :func:`_bit_tiny_candidate_set` answers it with one or two mask tests
    and reads ``cand`` only for the one pair inside ``C``.  So a caller may
    hand such a branch any view that agrees with its candidate masks on
    that pair; the bitset edge root passes its ``alive`` masks instead of
    building a dual view.  The branch still counts as one ``vertex_calls``.
    """
    counters = ctx.counters
    counters.vertex_calls += 1
    if not C:
        if not X:
            ctx.sink(tuple(S))
        return

    et = ctx.et_threshold
    size = C.bit_count()
    if size <= 2:
        _bit_tiny_candidate_set(S, C, X, cand, full, ctx, et)
        return
    best_mask = 0
    best = -1
    min_degree = size
    rest = C
    while rest:
        low = rest & -rest
        rest ^= low
        nbrs = full[low.bit_length() - 1]
        d = (nbrs & C).bit_count()
        if d > best:
            best, best_mask = d, nbrs
        if d < min_degree:
            min_degree = d
    same = cand is full
    if et and min_degree >= size - et:
        if same or _bit_cand_plex_ok(C, cand, full, et):
            counters.plex_branches += 1
            if not X:
                bit_fire_plex(S, C, cand, ctx, min_degree if same else None)
                return
    rest = X
    while rest:
        low = rest & -rest
        rest ^= low
        nbrs = full[low.bit_length() - 1]
        d = (nbrs & C).bit_count()
        if d > best:
            if d == size:
                return  # covers C: the pivot would leave nothing to branch on
            best, best_mask = d, nbrs

    phase = ctx.phase or bit_pivot_phase
    rest = C & ~best_mask
    if not same:
        _bit_expand(S, C, X, rest, cand, full, ctx, phase)
        return
    while rest:
        low = rest & -rest
        rest ^= low
        v = low.bit_length() - 1
        nbrs = full[v]
        S.append(v)
        phase(S, C & nbrs, X & nbrs, full, full, ctx)
        S.pop()
        C ^= low
        X |= low


def _bit_expand(
    S: list[int],
    C: int,
    X: int,
    extension: int,
    cand: BitAdjacency,
    full: BitAdjacency,
    ctx: EngineContext,
    phase: PhaseFn,
) -> None:
    """Branch on each vertex of ``extension``, ascending: BK's child loop."""
    while extension:
        low = extension & -extension
        extension ^= low
        v = low.bit_length() - 1
        new_c, new_x = _bit_refine(v, C, X, cand, full)
        S.append(v)
        phase(S, new_c, new_x, cand, full, ctx)
        S.pop()
        C ^= low
        X |= low


def _bit_ref_phase(
    S: list[int],
    C: int,
    X: int,
    cand: BitAdjacency,
    full: BitAdjacency,
    ctx: EngineContext,
) -> None:
    """The ``ref`` rule: tomita's pivot with Naudé's domination shortcuts.

    An exclusion vertex adjacent to all of ``C`` ends the branch; a
    candidate adjacent to all other candidates is taken as the pivot at
    once.
    """
    ctx.counters.vertex_calls += 1
    if not C:
        if not X:
            ctx.sink(tuple(S))
        return
    if ctx.et_threshold and bit_try_early_termination(S, C, X, cand, full, ctx):
        return
    size = C.bit_count()
    best_mask = 0
    best = -1
    rest = X
    while rest:
        low = rest & -rest
        rest ^= low
        nbrs = full[low.bit_length() - 1]
        d = (nbrs & C).bit_count()
        if d == size:
            return
        if d > best:
            best, best_mask = d, nbrs
    rest = C
    while rest:
        low = rest & -rest
        rest ^= low
        nbrs = full[low.bit_length() - 1]
        d = (nbrs & C).bit_count()
        if d == size - 1:
            best, best_mask = d, nbrs
            break
        if d > best:
            best, best_mask = d, nbrs
    _bit_expand(S, C, X, C & ~best_mask, cand, full, ctx,
                ctx.phase or _bit_ref_phase)


def _bit_plain_phase(
    S: list[int],
    C: int,
    X: int,
    cand: BitAdjacency,
    full: BitAdjacency,
    ctx: EngineContext,
) -> None:
    """The ``none`` rule: the original Bron–Kerbosch, no pivot."""
    ctx.counters.vertex_calls += 1
    if not C:
        if not X:
            ctx.sink(tuple(S))
        return
    if ctx.et_threshold and bit_try_early_termination(S, C, X, cand, full, ctx):
        return
    _bit_expand(S, C, X, C, cand, full, ctx, ctx.phase or _bit_plain_phase)


#: the bitset phase of each pivot rule; :func:`repro.core.phases.make_context`
#: picks one per run, so no branch re-reads the rule.
PIVOT_RULE_PHASES = {
    "tomita": bit_pivot_phase,
    "ref": _bit_ref_phase,
    "none": _bit_plain_phase,
}


def _bit_tiny_candidate_set(
    S: list[int],
    C: int,
    X: int,
    cand: BitAdjacency,
    full: BitAdjacency,
    ctx: EngineContext,
    et: int,
) -> None:
    """Resolve branches with |C| <= 2 directly (mirrors the set backend)."""
    counters = ctx.counters
    sink = ctx.sink
    if C & (C - 1) == 0:  # exactly one candidate
        v = C.bit_length() - 1
        if et:
            counters.plex_branches += 1
            if not X:
                counters.plex_terminable += 1
                counters.et_hits += 1
                counters.et_cliques += 1
        if not X & full[v]:
            sink(tuple(S) + (v,))
        return

    low = C & -C
    u = low.bit_length() - 1
    v = (C ^ low).bit_length() - 1
    if cand[u] >> v & 1:  # candidate pair: the only possible output is S+{u,v}
        if et:
            counters.plex_branches += 1
            if not X:
                counters.plex_terminable += 1
                counters.et_hits += 1
                counters.et_cliques += 1
        if not X & full[u] & full[v]:
            sink(tuple(S) + (u, v))
        return

    if full[u] >> v & 1:
        # Graph-adjacent but rank-pruned: the pair belongs to an earlier
        # branch and each endpoint vetoes the other's singleton.
        return
    if et >= 2:
        counters.plex_branches += 1
        if not X:
            counters.plex_terminable += 1
            counters.et_hits += 1
            counters.et_cliques += 2
    if not X & full[u]:
        sink(tuple(S) + (u,))
    if not X & full[v]:
        sink(tuple(S) + (v,))


def bit_rcd_phase(
    S: list[int],
    C: int,
    X: int,
    cand: BitAdjacency,
    full: BitAdjacency,
    ctx: EngineContext,
) -> None:
    """BK_Rcd on bitmasks: peel minimum-degree candidates until clique."""
    counters = ctx.counters
    counters.vertex_calls += 1
    if not C:
        if not X:
            ctx.sink(tuple(S))
        return
    if ctx.et_threshold and bit_try_early_termination(S, C, X, cand, full, ctx):
        return

    phase = ctx.phase or bit_rcd_phase
    while C:
        size = C.bit_count()
        min_v = -1
        min_d = size
        degree_sum = 0
        rest = C
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            d = (cand[v] & C).bit_count()
            degree_sum += d
            if d < min_d:  # ascending scan: first minimum has the lowest id
                min_d, min_v = d, v
        if degree_sum == size * (size - 1):
            break  # C induces a clique in the candidate structure
        v = min_v
        new_c, new_x = _bit_refine(v, C, X, cand, full)
        S.append(v)
        phase(S, new_c, new_x, cand, full, ctx)
        S.pop()
        bit = 1 << v
        C &= ~bit
        X |= bit

    if C:
        rest = X
        while rest:
            low = rest & -rest
            rest ^= low
            if not C & ~full[low.bit_length() - 1]:
                return  # an exclusion vertex covers all of C: not maximal
        ctx.sink(tuple(S) + tuple(iter_bits(C)))


def bit_fac_phase(
    S: list[int],
    C: int,
    X: int,
    cand: BitAdjacency,
    full: BitAdjacency,
    ctx: EngineContext,
) -> None:
    """BK_Fac on bitmasks: adaptive pivot refinement."""
    counters = ctx.counters
    counters.vertex_calls += 1
    if not C:
        if not X:
            ctx.sink(tuple(S))
        return
    if ctx.et_threshold and bit_try_early_termination(S, C, X, cand, full, ctx):
        return

    phase = ctx.phase or bit_fac_phase
    pivot = (C & -C).bit_length() - 1  # min(C)
    pending = list(iter_bits(C & ~full[pivot]))
    while pending:
        u = pending.pop(0)
        new_c, new_x = _bit_refine(u, C, X, cand, full)
        S.append(u)
        phase(S, new_c, new_x, cand, full, ctx)
        S.pop()
        bit = 1 << u
        C &= ~bit
        X |= bit
        # Adaptive step: adopt u's frontier when it is strictly smaller.
        candidate_frontier = C & ~full[u]
        if candidate_frontier.bit_count() < len(pending):
            pending = list(iter_bits(candidate_frontier))


# ----------------------------------------------------------------------
# Early termination on bitmask branches
# ----------------------------------------------------------------------
def _bit_cand_plex_ok(C: int, cand: BitAdjacency, full: BitAdjacency, t: int) -> bool:
    """Dual-view verification on masks (mirrors ``cand_plex_ok``)."""
    size = C.bit_count()
    threshold = size - t
    rest = C
    while rest:
        low = rest & -rest
        rest ^= low
        v = low.bit_length() - 1
        cand_degree = (cand[v] & C).bit_count()
        if cand_degree < threshold:
            return False
        if (full[v] & C).bit_count() != cand_degree:
            return False  # a rank-pruned pair lies inside C
    return True


def bit_try_early_termination(
    S: list[int],
    C: int,
    X: int,
    cand: BitAdjacency,
    full: BitAdjacency,
    ctx: EngineContext,
) -> bool:
    """Attempt to resolve a bitmask branch without further branching.

    Same three conditions and counter semantics as
    :func:`repro.core.early_termination.try_early_termination`.
    """
    t = ctx.et_threshold
    if not t or not C:
        return False
    size = C.bit_count()
    threshold = size - t
    min_degree: int | None = size
    if cand is full:
        rest = C
        while rest:
            low = rest & -rest
            rest ^= low
            d = (cand[low.bit_length() - 1] & C).bit_count()
            if d < threshold:
                return False
            if d < min_degree:
                min_degree = d
    elif not _bit_cand_plex_ok(C, cand, full, t):
        return False
    else:
        min_degree = None
    counters = ctx.counters
    counters.plex_branches += 1
    if X:
        return False
    bit_fire_plex(S, C, cand, ctx, min_degree)
    return True
