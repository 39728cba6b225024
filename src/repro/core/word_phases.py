"""Word-packed vertex phases: the ``backend="words"`` twins of phases.py.

Every function here mirrors its set-backend counterpart in
:mod:`repro.core.phases` — same branching rules, same early-termination
conditions, same emitted cliques — with the branch state ``(C, X)`` held as
NumPy ``uint64`` word rows and both adjacency views supplied by one
:class:`repro.graph.wordadj.WordGraph`.  The per-branch scans that dominate
the recursion (pivot scoring, plex-degree checks, maximality tests) become
a handful of vectorised kernel calls: gather the member rows with one
``np.take``, AND them against the candidate row, popcount, reduce.

Hybrid dispatch: exact bitset semantics by construction
-------------------------------------------------------
Vectorised kernels pay a fixed per-call cost, so small branches are *worth
less than nothing* to the word representation.  Every phase therefore
measures ``|C|`` on entry and, below :data:`WORD_DISPATCH_THRESHOLD`,
converts the branch once (two rows -> ``int`` masks) and hands it to the
literal ``bit_*`` twin, whose recursion then stays in bit space.  Dual-view
branches (HBBMC candidate views below edge levels) always run the bit
twins.  Consequently the words backend executes *the same decision sequence
as the bitset backend on every branch* — pivot choices, tie-breaks, counter
increments and emission order are identical, not merely equivalent, which
is what lets the counter-pinning suite assert exact equality across the
two mask backends.

Word phases are always same-view (``cand is full``); the dual-view cases
are exactly the ones dispatch keeps on the bit twins.  Scratch discipline:
a branch at depth ``d`` owns ``frame(d)``'s scratch row and refines its
children into ``frame(d + 1)`` — all scan buffers are depth-shared because
scanning completes before the recursion descends.
"""

from __future__ import annotations

import numpy as np

from repro.core.bit_phases import (
    bit_fac_phase,
    bit_pivot_phase,
    bit_rcd_phase,
)
from repro.core.phases import EngineContext
from repro.core.word_plex import word_fire_plex
from repro.graph.wordadj import (
    BITS,
    INV_BITS,
    WordGraph,
    WordWorkspace,
    int_to_row,
    popcount_rows,
    row_members,
    row_to_int,
)

#: Branches with fewer candidates than this run the ``bit_*`` twin instead
#: (floored at 3 so the tomita tiny-candidate path always stays in bit
#: space).  Tuned on the dense benchmark families; tests lower it to force
#: deep word recursion on small graphs.
WORD_DISPATCH_THRESHOLD = 48


def _threshold() -> int:
    t = WORD_DISPATCH_THRESHOLD
    return t if t > 3 else 3


def _mask_bits(mask: int) -> list[int]:
    """Ascending set-bit positions of an ``int`` mask as a list.

    The extension sets of the word phases are small (one pivot's
    non-neighbours), where the scalar bit loop beats unpacking a full word
    row by an order of magnitude — so extensions are computed in ``int``
    space from the branch mask the dispatch check already produced.
    """
    bits = []
    append = bits.append
    while mask:
        low = mask & -mask
        append(low.bit_length() - 1)
        mask ^= low
    return bits


def _shadow_bit_ctx(ctx: EngineContext, ws: WordWorkspace) -> EngineContext:
    """The workspace's pure-bit context for dispatched sub-branches.

    Shares sink/counters/knobs with the word context but recurses through
    the real bit vertex phase, so a dispatched subtree never re-enters word
    space (or a bridge) below the handoff point.
    """
    shadow = ws.bit_ctx
    if shadow is None:
        shadow = EngineContext(
            sink=ctx.sink,
            counters=ctx.counters,
            et_threshold=ctx.et_threshold,
            pivot=ctx.pivot,
            phase=_BIT_TWINS.get(ctx.phase, bit_pivot_phase),
        )
        ws.bit_ctx = shadow
    return shadow


def _member_degrees(
    words: np.ndarray, members: np.ndarray, universe: np.ndarray,
    ws: WordWorkspace,
):
    """Per-member ``|words[m] & universe|`` into the shared scan buffers.

    The returned vector is a view of ``ws.degrees`` — consume it (or copy
    the scalars out) before the next scan or recursion step.
    """
    k = members.shape[0]
    rows = ws.gather[:k]
    words.take(members, axis=0, out=rows)
    np.bitwise_and(rows, universe, out=rows)
    counts = popcount_rows(rows, out=ws.counts[:k])
    degrees = ws.degrees[:k]
    np.einsum("ij->i", counts, dtype=np.int64, out=degrees)
    return degrees


def word_pivot_phase(
    S: list[int],
    C: np.ndarray,
    X: np.ndarray,
    cand: WordGraph,
    full: WordGraph,
    ctx: EngineContext,
    ws: WordWorkspace | None = None,
    depth: int = 0,
) -> None:
    """Bron–Kerbosch with pivoting on word-row branch state."""
    wg = full
    if ws is None:
        ws = WordWorkspace(wg)
    masks = wg.bit.masks
    c_int = row_to_int(C)
    size = c_int.bit_count()
    if size < _threshold():
        bit_pivot_phase(S, c_int, row_to_int(X), masks, masks,
                        _shadow_bit_ctx(ctx, ws))
        return

    counters = ctx.counters
    counters.vertex_calls += 1
    kind = ctx.pivot
    et = ctx.et_threshold
    words = wg.words
    members = row_members(C)
    if kind == "none":
        if et and _word_early_termination(S, C, X, wg, ctx, ws, members):
            return
        extension = members.tolist()
    elif kind == "ref":
        if et and _word_early_termination(S, C, X, wg, ctx, ws, members):
            return
        best_d = -1
        best_v = -1
        xmembers = row_members(X)
        if xmembers.shape[0]:
            DX = _member_degrees(words, xmembers, C, ws)
            if bool((DX == size).any()):
                return
            bx = int(np.argmax(DX))
            best_d = int(DX[bx])
            best_v = int(xmembers[bx])
        D = _member_degrees(words, members, C, ws)
        ci = int(np.argmax(D))
        cmax = int(D[ci])
        # First-occurrence argmax mirrors the bit scan's ascending-order
        # "perfect pivot" break (d == size - 1) and strict-improvement rule.
        if cmax == size - 1 or cmax > best_d:
            best_v = int(members[ci])
        extension = _mask_bits(c_int & ~masks[best_v])
    else:  # tomita: merged pivot + plex scan
        D = _member_degrees(words, members, C, ws)
        bi = int(np.argmax(D))
        best_d = int(D[bi])
        best_v = int(members[bi])
        min_degree = int(D.min())
        if et and min_degree >= size - et:
            counters.plex_branches += 1
            if not X.any():
                word_fire_plex(S, C, wg, ctx, min_degree)
                return
        xmembers = row_members(X)
        if xmembers.shape[0]:
            DX = _member_degrees(words, xmembers, C, ws)
            bx = int(np.argmax(DX))
            if int(DX[bx]) > best_d:
                best_v = int(xmembers[bx])
        extension = _mask_bits(c_int & ~masks[best_v])

    phase = ctx.phase or word_pivot_phase
    child = ws.frame(depth + 1)
    new_c, new_x = child.c, child.x
    for v in extension:
        nf = words[v]
        np.bitwise_and(C, nf, out=new_c)
        np.bitwise_and(X, nf, out=new_x)
        S.append(v)
        phase(S, new_c, new_x, cand, full, ctx, ws, depth + 1)
        S.pop()
        wi = v >> 6
        j = v & 63
        C[wi] &= INV_BITS[j]
        X[wi] |= BITS[j]


def word_rcd_phase(
    S: list[int],
    C: np.ndarray,
    X: np.ndarray,
    cand: WordGraph,
    full: WordGraph,
    ctx: EngineContext,
    ws: WordWorkspace | None = None,
    depth: int = 0,
) -> None:
    """BK_Rcd on word rows: peel minimum-degree candidates until clique."""
    wg = full
    if ws is None:
        ws = WordWorkspace(wg)
    c_int = row_to_int(C)
    if c_int.bit_count() < _threshold():
        masks = wg.bit.masks
        bit_rcd_phase(S, c_int, row_to_int(X), masks, masks,
                      _shadow_bit_ctx(ctx, ws))
        return
    counters = ctx.counters
    counters.vertex_calls += 1
    if ctx.et_threshold and _word_early_termination(
        S, C, X, wg, ctx, ws, row_members(C)
    ):
        return

    words = wg.words
    phase = ctx.phase or word_rcd_phase
    child = ws.frame(depth + 1)
    members = None
    clique = False
    while True:
        members = row_members(C)
        size = members.shape[0]
        if not size:
            break
        D = _member_degrees(words, members, C, ws)
        if int(D.sum()) == size * (size - 1):
            clique = True
            break  # C induces a clique in the candidate structure
        v = int(members[int(np.argmin(D))])
        nf = words[v]
        np.bitwise_and(C, nf, out=child.c)
        np.bitwise_and(X, nf, out=child.x)
        S.append(v)
        phase(S, child.c, child.x, cand, full, ctx, ws, depth + 1)
        S.pop()
        wi = v >> 6
        j = v & 63
        C[wi] &= INV_BITS[j]
        X[wi] |= BITS[j]

    if clique:
        tail = members.tolist()
        xmembers = row_members(X)
        if xmembers.shape[0]:
            DX = _member_degrees(words, xmembers, C, ws)
            if bool((DX == len(tail)).any()):
                return  # an exclusion vertex covers all of C: not maximal
        ctx.sink(tuple(S) + tuple(tail))


def word_fac_phase(
    S: list[int],
    C: np.ndarray,
    X: np.ndarray,
    cand: WordGraph,
    full: WordGraph,
    ctx: EngineContext,
    ws: WordWorkspace | None = None,
    depth: int = 0,
) -> None:
    """BK_Fac on word rows: adaptive pivot refinement."""
    wg = full
    if ws is None:
        ws = WordWorkspace(wg)
    masks = wg.bit.masks
    c_int = row_to_int(C)
    if c_int.bit_count() < _threshold():
        bit_fac_phase(S, c_int, row_to_int(X), masks, masks,
                      _shadow_bit_ctx(ctx, ws))
        return
    counters = ctx.counters
    counters.vertex_calls += 1
    if ctx.et_threshold and _word_early_termination(S, C, X, wg, ctx, ws,
                                                    row_members(C)):
        return

    words = wg.words
    phase = ctx.phase or word_fac_phase
    child = ws.frame(depth + 1)
    # The pending-frontier bookkeeping runs in int space on the branch mask
    # the dispatch check produced, kept in lockstep with the C row below.
    pivot = (c_int & -c_int).bit_length() - 1  # min(C)
    pending = _mask_bits(c_int & ~masks[pivot])
    while pending:
        u = pending.pop(0)
        nf = words[u]
        np.bitwise_and(C, nf, out=child.c)
        np.bitwise_and(X, nf, out=child.x)
        S.append(u)
        phase(S, child.c, child.x, cand, full, ctx, ws, depth + 1)
        S.pop()
        wi = u >> 6
        j = u & 63
        C[wi] &= INV_BITS[j]
        X[wi] |= BITS[j]
        c_int &= ~(1 << u)
        # Adaptive step: adopt u's frontier when it is strictly smaller.
        frontier = c_int & ~masks[u]
        if frontier.bit_count() < len(pending):
            pending = _mask_bits(frontier)


# ----------------------------------------------------------------------
# Early termination on word-row branches
# ----------------------------------------------------------------------
def _word_early_termination(
    S: list[int],
    C: np.ndarray,
    X: np.ndarray,
    wg: WordGraph,
    ctx: EngineContext,
    ws: WordWorkspace,
    members: np.ndarray,
) -> bool:
    """The same-view plex check with ``|C|`` and members precomputed."""
    t = ctx.et_threshold
    size = members.shape[0]
    D = _member_degrees(wg.words, members, C, ws)
    min_degree = int(D.min())
    if min_degree < size - t:
        return False
    ctx.counters.plex_branches += 1
    if X.any():
        return False
    word_fire_plex(S, C, wg, ctx, min_degree)
    return True


def word_try_early_termination(
    S: list[int],
    C: np.ndarray,
    X: np.ndarray,
    cand: WordGraph,
    full: WordGraph,
    ctx: EngineContext,
    ws: WordWorkspace | None = None,
    depth: int = 0,
) -> bool:
    """Attempt to resolve a word-row branch without further branching.

    Same conditions and counter semantics as
    :func:`repro.core.early_termination.try_early_termination`, restricted
    to the same-view case (word branches are same-view by construction —
    dual-view branches dispatch to the bit twins before any ET check).
    """
    if not ctx.et_threshold:
        return False
    members = row_members(C)
    if not members.shape[0]:
        return False
    if ws is None:
        ws = WordWorkspace(full)
    return _word_early_termination(S, C, X, full, ctx, ws, members)


#: Word phase -> the bit twin its dispatched sub-branches run on.
_BIT_TWINS = {
    word_pivot_phase: bit_pivot_phase,
    word_rcd_phase: bit_rcd_phase,
    word_fac_phase: bit_fac_phase,
}


def make_word_bridge(
    word_ctx: EngineContext,
    wg: WordGraph,
    ws: WordWorkspace | None = None,
) -> EngineContext:
    """A bit-space context whose vertex phase crosses into word space.

    The bit edge engine and the bitset root drivers hand every vertex-phase
    branch to ``ctx.phase(S, C, X, cand, full, ctx)`` with ``int`` masks.
    The bridge keeps dual-view and sub-threshold branches on the literal
    bit twin (through the workspace's pure-bit shadow context, so their
    recursion never returns here) and lifts large same-view branches into
    the word kernels.  This is how ``backend="words"`` reuses the bit
    backend's roots and rank-peeled edge levels verbatim.

    ``word_ctx`` is the context :func:`repro.core.phases.make_context`
    built for ``backend="words"``; the returned context shares its sink,
    counters and knobs.
    """
    if ws is None:
        ws = WordWorkspace(wg)
    word_phase = word_ctx.phase or word_pivot_phase
    bit_phase = _BIT_TWINS.get(word_phase, bit_pivot_phase)
    shadow = _shadow_bit_ctx(word_ctx, ws)

    def vertex_bridge(S, C, X, cand, full, _ctx) -> None:
        if cand is not full or C.bit_count() < _threshold():
            bit_phase(S, C, X, cand, full, shadow)
            return
        frame = ws.frame(0)
        int_to_row(C, frame.c)
        int_to_row(X, frame.x)
        word_phase(S, frame.c, frame.x, wg, wg, word_ctx, ws, 0)

    return EngineContext(
        sink=word_ctx.sink,
        counters=word_ctx.counters,
        et_threshold=word_ctx.et_threshold,
        pivot=word_ctx.pivot,
        phase=vertex_bridge,
    )
