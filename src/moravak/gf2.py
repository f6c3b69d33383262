"""GF(2) linear algebra on int bitsets.

Vectors are Python ints (bit i = coordinate i).  A linear map is stored
by columns: ``cols[j]`` is the image of source basis vector ``e_j``.
Row reduction always pivots on the *highest* set bit, so reduced
representatives are supported on the lowest possible coordinates; with
coordinates sorted in increasing monomial order this yields the
lexicographically least representatives everywhere downstream.

All elimination runs through the one loop in ``_eliminate``.  ``pivots``
stops after the forward pass that ``reduce_rows`` starts with and returns
its pivot mask; the rank of the rows is the mask's bit count.  The
fully reduced echelon form that ``reduce_rows`` returns (every pivot
set in exactly one row, rows by descending pivot) depends only on the
span of its input, never on the order or choice of the input rows.
Every kernel, image and quotient basis below is such a form, so any
route to the same subspace gives the same bits.

The echelon form carries a pivot index: a mask of its pivot bits and a
dict from pivot to row.  Reducing a vector XORs in the row of each
pivot bit the vector has, highest first, so its cost follows the set
bits of ``vec & mask``, not the number of rows.  Against a fully
reduced form each XOR clears one pivot bit and sets no other, so a
vector costs exactly one XOR per pivot it hits.

Kernels use the augmented-row trick: the row ``(col_j << dim) | 1 << j``
pairs the image of ``e_j`` with its tag.  Highest-bit pivoting clears
the image part first, so after reduction the rows without image bits
are exactly the reduced basis of the kernel, and the tags of the other
rows record how their image parts arose.
"""

from __future__ import annotations

from typing import Iterable, Sequence


class _Echelon(list):
    """Fully reduced rows by descending pivot, with their pivot index."""

    __slots__ = ("mask", "by_pivot")

    def __init__(self, by_pivot: dict[int, int], mask: int):
        super().__init__(by_pivot[p] for p in sorted(by_pivot, reverse=True))
        self.by_pivot = by_pivot
        self.mask = mask


def _eliminate(vec: int, mask: int, by_pivot: dict[int, int]) -> int:
    """Clear the pivot bits of vec, highest first; by_pivot[p] is the
    row with highest bit p, for each bit p of mask."""
    hit = vec & mask
    while hit:
        vec ^= by_pivot[hit.bit_length() - 1]
        hit = vec & mask
    return vec


def reduce_vector(vec: int, reduced: Sequence[int]) -> int:
    """Reduce vec against fully reduced rows (highest-pivot convention).

    ``reduced`` is the result of ``reduce_rows`` or any list of rows
    with distinct pivots in which no row has another row's pivot bit,
    such as a subset of one; a plain list is indexed on the fly."""
    if isinstance(reduced, _Echelon):
        return _eliminate(vec, reduced.mask, reduced.by_pivot)
    by_pivot = {b.bit_length() - 1: b for b in reduced}
    return _eliminate(vec, sum(1 << p for p in by_pivot), by_pivot)


def _forward(rows: Iterable[int]) -> tuple[dict[int, int], int]:
    """Forward elimination: rows with distinct highest bits, by pivot,
    and the mask of those pivots."""
    by_pivot: dict[int, int] = {}
    mask = 0
    for row in rows:
        row = _eliminate(row, mask, by_pivot)
        if row:
            pivot = row.bit_length() - 1
            by_pivot[pivot] = row
            mask |= 1 << pivot
    return by_pivot, mask


def pivots(rows: Iterable[int]) -> int:
    """Mask of the highest bits of the span of rows, from forward
    elimination alone; its bit count is the dimension of the span."""
    return _forward(rows)[1]


def reduce_rows(rows: Iterable[int]) -> list[int]:
    """Row-reduce, pivoting on highest set bits; returns nonzero rows."""
    by_pivot, mask = _forward(rows)
    # back-substitute, lowest pivot first: the rows below are final
    for pivot in sorted(by_pivot):
        row = by_pivot[pivot]
        by_pivot[pivot] = _eliminate(row, mask & ((1 << pivot) - 1), by_pivot)
    return _Echelon(by_pivot, mask)


def in_span(vec: int, reduced: Sequence[int]) -> bool:
    return reduce_vector(vec, reduced) == 0


def apply_columns(cols: Sequence[int], vec: int) -> int:
    """Apply the map with the given columns to a source vector."""
    out = 0
    while vec:
        low = vec & -vec
        out ^= cols[low.bit_length() - 1]
        vec ^= low
    return out


def compose_columns(outer: Sequence[int], inner: Sequence[int]) -> list[int]:
    """Columns of outer∘inner."""
    out = []
    for vec in inner:  # apply_columns inlined: one call per column costs more
        acc = 0
        while vec:
            low = vec & -vec
            acc ^= outer[low.bit_length() - 1]
            vec ^= low
        out.append(acc)
    return out


def _augmented(cols: Sequence[int], dim: int) -> list[int]:
    """Reduced rows of the (image, tag) pairs of the first dim columns."""
    return reduce_rows((cols[j] << dim) | 1 << j for j in range(dim))


def kernel_basis(cols: Sequence[int], source_dim: int) -> list[int]:
    """Reduced basis of the kernel of the map with the given columns."""
    return [row for row in _augmented(cols, source_dim) if not row >> source_dim]


def invert_columns(cols: Sequence[int], dim: int) -> list[int] | None:
    """Columns of the inverse map, or None if not invertible."""
    rows = _augmented(cols, dim)
    # invertible exactly when the image parts reduce to e_{dim-1}, ..., e_0
    if [row >> dim for row in rows] != [1 << i for i in reversed(range(dim))]:
        return None
    mask = (1 << dim) - 1
    return [row & mask for row in reversed(rows)]


def homology(out_cols: Sequence[int], dim: int, in_cols: Iterable[int]) -> list[int]:
    """Reduced representatives of ker(out) modulo the span of in_cols.

    ``out_cols`` are the dim columns of the outgoing map; pass zeros for
    the whole space.  Each representative is reduced against the image,
    so it avoids the image's pivots.
    """
    image = reduce_rows(in_cols)
    return reduce_rows(reduce_vector(v, image) for v in kernel_basis(out_cols, dim))


def bits(vec: int) -> list[int]:
    """Positions of set bits, ascending."""
    out = []
    while vec:
        low = vec & -vec
        out.append(low.bit_length() - 1)
        vec ^= low
    return out
