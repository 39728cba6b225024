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
from repro.core.phases import EngineContext
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
    """Bron–Kerbosch with pivoting on bitmask branch state.

    Under the tomita rule a branch with ``|C| <= 2`` opens no pivot scan:
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

    kind = ctx.pivot
    et = ctx.et_threshold
    if kind == "none":
        if et and bit_try_early_termination(S, C, X, cand, full, ctx):
            return
        extension = C
    elif kind == "ref":
        if et and bit_try_early_termination(S, C, X, cand, full, ctx):
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
        extension = C & ~best_mask
    else:  # tomita: merged pivot + plex scan
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
        if et and min_degree >= size - et:
            same = cand is full
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
                best, best_mask = d, nbrs
        extension = C & ~best_mask

    phase = ctx.phase or bit_pivot_phase
    rest = extension
    while rest:
        low = rest & -rest
        rest ^= low
        v = low.bit_length() - 1
        new_c, new_x = _bit_refine(v, C, X, cand, full)
        S.append(v)
        phase(S, new_c, new_x, cand, full, ctx)
        S.pop()
        C &= ~low
        X |= low


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
