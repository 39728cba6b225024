"""Bit-parallel adjacency: neighbourhoods as arbitrary-precision ``int`` masks.

San Segundo et al. (*Efficiently Enumerating all Maximal Cliques with
Bit-Parallelism*, see PAPERS.md) observe that the work unit of every
Bron-Kerbosch-style enumerator — neighbourhood intersection plus a size
test — becomes word-parallel when vertex sets are bitmasks: ``A & B`` runs
over 64 bits per machine word and ``popcount`` replaces cardinality loops.
CPython gives us the same trick for free through its arbitrary-precision
integers: ``int.__and__`` and ``int.bit_count`` are C loops over 30-bit
digits, so a single Python-level operation does the work of an entire
set-intersection loop.

:class:`BitGraph` is the bit-parallel mirror of
:class:`repro.graph.adjacency.Graph`: vertex ``v`` of the source graph is
bit ``bit_of[v]`` of every mask (the identity mapping by default, so masks
can be indexed directly with graph vertex ids).  The enumeration engines
select this backend through ``backend="bitset"`` (see
:mod:`repro.core.frameworks`); both backends emit identical clique sets.

When bitsets win and lose
-------------------------
Masks are O(n/word) per operation regardless of how sparse the
neighbourhood is, while sets are O(min(|A|, |B|)).  Dense candidate
subgraphs (high ``rho``, large truss instances) therefore favour bitsets by
a wide margin; extremely sparse graphs with huge ``n`` favour sets.  The
crossover is measured by ``benchmarks/bench_backend_comparison.py``.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from repro.exceptions import InvalidParameterError, InvalidVertexError
from repro.graph.adjacency import Graph

#: Named bit orders accepted wherever a ``bit_order`` knob is exposed.
#: "input" packs vertex ``v`` into bit ``v`` (the identity mapping);
#: "degeneracy" packs the degeneracy core into the low mask words.
BIT_ORDERS = ("input", "degeneracy")

#: The bitset backend's default packing.  Degeneracy packing keeps the hot
#: (high-core) vertices in the low digits, so the candidate masks of deep
#: branches are short integers; see :func:`resolve_bit_order`.
DEFAULT_BIT_ORDER = "degeneracy"


def resolve_bit_order(
    g: Graph,
    bit_order: str | Sequence[int] | None,
    *,
    degeneracy_order: Sequence[int] | None = None,
) -> Sequence[int] | None:
    """Turn a ``bit_order`` knob value into a vertex permutation (or ``None``).

    ``None`` and ``"input"`` give the identity mapping (``None`` return).
    ``"degeneracy"`` packs the *reverse* of the degeneracy peel order:
    bit 0 holds the last-peeled (highest-core) vertex.  Candidate sets of
    deep branches live inside the dense core, so under this packing their
    masks have small ``bit_length`` — CPython's arbitrary-precision ints
    drop leading zero digits, making every AND/popcount on them cheap.
    ``degeneracy_order``, when supplied, skips recomputing the peel order
    (the parallel workers already hold it).

    An explicit permutation sequence passes through unchanged (validated by
    :meth:`BitGraph.from_graph`).
    """
    if bit_order is None or bit_order == "input":
        return None
    if bit_order == "degeneracy":
        if degeneracy_order is None:
            from repro.graph.coreness import core_decomposition

            degeneracy_order = core_decomposition(g).order
        return list(reversed(degeneracy_order))
    if isinstance(bit_order, str):
        raise InvalidParameterError(
            f"unknown bit_order {bit_order!r}; expected one of {BIT_ORDERS} "
            "or an explicit vertex permutation"
        )
    return bit_order


def check_permutation(order: Sequence[int], n: int) -> list[int]:
    """``order`` as a list, provided it is a permutation of ``range(n)``.

    Entries must be exact ``int``s: ``5.0 == 5`` and ``True == 1``, so a
    float or bool entry passes the sorted-equals-range test and then fails
    (or silently indexes) when the bit tables are built.
    """
    try:
        perm = list(order)
    except TypeError:
        raise InvalidParameterError(
            "bit_order must be a named order or a vertex permutation, "
            f"got {order!r}"
        ) from None
    if not all(type(v) is int for v in perm) \
            or sorted(perm) != list(range(n)):
        raise InvalidParameterError(
            "bit_order must be a permutation of the integer vertex ids "
            f"0..{n - 1}"
        )
    return perm


def popcount(mask: int) -> int:
    """Number of set bits (vertices) in ``mask``."""
    return mask.bit_count()


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set-bit positions of ``mask`` in ascending order.

    Ascending order mirrors ``sorted(set)`` in the set backend, which keeps
    branch processing deterministic across backends.
    """
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def bits_to_tuple(mask: int) -> tuple[int, ...]:
    """The set bits of ``mask`` as an ascending tuple."""
    return tuple(iter_bits(mask))


def mask_of(vertices: Iterable[int]) -> int:
    """Bitmask with exactly the bits in ``vertices`` set."""
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


class BitGraph:
    """Bit-parallel view of a :class:`Graph`.

    ``masks[b]`` is the neighbourhood of the vertex mapped to bit ``b``,
    itself expressed in bit space.  With the default identity mapping
    (``order=None``) bit ``b`` *is* graph vertex ``b``, so engines can use
    graph vertex ids and bit positions interchangeably and cliques read off
    a mask need no translation.

    A custom ``order`` (a permutation of the vertex ids) packs vertex
    ``order[b]`` into bit ``b`` — useful to place hot vertices in the low
    digits.  ``to_vertex``/``bit_of`` translate in both directions.
    """

    __slots__ = ("n", "masks", "to_vertex", "bit_of")

    def __init__(
        self,
        n: int,
        masks: list[int],
        to_vertex: list[int],
        bit_of: list[int],
    ) -> None:
        self.n = n
        self.masks = masks
        self.to_vertex = to_vertex
        self.bit_of = bit_of

    @classmethod
    def from_graph(
        cls, g: Graph, order: str | Sequence[int] | None = None
    ) -> "BitGraph":
        """Build the bit view of ``g`` under the given vertex→bit mapping.

        ``order`` is either an explicit permutation (vertex packed into each
        bit position), a named order from :data:`BIT_ORDERS`, or ``None``
        for the identity mapping.
        """
        if isinstance(order, str):
            order = resolve_bit_order(g, order)
        n = g.n
        if order is None:
            to_vertex = list(range(n))
            bit_of = to_vertex
        else:
            to_vertex = check_permutation(order, n)
            bit_of = [0] * n
            for b, v in enumerate(to_vertex):
                bit_of[v] = b
        adj = g.adj
        masks = [0] * n
        for b, v in enumerate(to_vertex):
            mask = 0
            for w in adj[v]:
                mask |= 1 << bit_of[w]
            masks[b] = mask
        return cls(n, masks, to_vertex, bit_of)

    # ------------------------------------------------------------------
    # Queries (all in bit space)
    # ------------------------------------------------------------------
    def _check_bit(self, b: int) -> None:
        if not 0 <= b < self.n:
            raise InvalidVertexError(
                f"bit {b} is out of range for n={self.n}"
            )

    @property
    def is_identity(self) -> bool:
        """Whether bit ``b`` is graph vertex ``b`` (no translation needed)."""
        to_vertex = self.to_vertex
        return to_vertex is self.bit_of \
            or all(v == b for b, v in enumerate(to_vertex))

    def vertex_tuple(self, bits: Iterable[int]) -> tuple[int, ...]:
        """Translate an iterable of bit positions to graph vertex ids."""
        to_vertex = self.to_vertex
        return tuple(to_vertex[b] for b in bits)

    def mask_of_vertices(self, vertices: Iterable[int]) -> int:
        """Bitmask with the bit of every listed graph vertex set."""
        bit_of = self.bit_of
        mask = 0
        for v in vertices:
            mask |= 1 << bit_of[v]
        return mask

    @property
    def vertex_mask(self) -> int:
        """Mask of all vertices (the initial candidate set ``C = V``)."""
        return (1 << self.n) - 1

    def neighbors_mask(self, b: int) -> int:
        """Neighbourhood of bit ``b`` as a mask."""
        self._check_bit(b)
        return self.masks[b]

    def degree(self, b: int) -> int:
        """Number of neighbours of bit ``b``."""
        self._check_bit(b)
        return self.masks[b].bit_count()

    def has_edge(self, a: int, b: int) -> bool:
        """Whether bits ``a`` and ``b`` are adjacent."""
        self._check_bit(a)
        self._check_bit(b)
        return bool(self.masks[a] >> b & 1)

    def common_neighbors_mask(self, a: int, b: int) -> int:
        """Mask of bits adjacent to both ``a`` and ``b`` — one AND."""
        self._check_bit(a)
        self._check_bit(b)
        return self.masks[a] & self.masks[b]

    def subgraph_masks(self, members: int) -> dict[int, int]:
        """Adjacency of the subgraph induced by the bits of ``members``."""
        return {b: self.masks[b] & members for b in iter_bits(members)}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        edges = sum(m.bit_count() for m in self.masks) // 2
        return f"BitGraph(n={self.n}, m={edges})"
