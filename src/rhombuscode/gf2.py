"""GF(2) linear algebra on int-bitmask row vectors.

Rows are Python ints; bit i of a row is column i. All routines are
deterministic (fixed pivoting order, lowest column first).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Sequence, Tuple


def _set_bits(mask: int) -> Iterator[int]:
    """The set bits of a nonnegative mask as powers of two, lowest first."""
    while mask:
        low = mask & -mask
        yield low
        mask ^= low


def row_reduce(rows: Sequence[int], n_cols: int) -> Tuple[List[int], List[int]]:
    """Reduced row echelon form; the pivot of a row is its lowest set column.

    Returns (reduced nonzero rows, pivot column per row), in pivot order.
    Each row is reduced on its lowest set bit against the pivots found so
    far, then the rows are back-substituted in descending pivot order, so a
    step touches only the pivots a row actually holds: near-linear on the
    banded generator matrices of the lattice codes, where a column-by-column
    scan over every row would cost O(rows^2) bit tests.
    """
    table: Dict[int, int] = {}  # pivot bit -> row whose lowest set bit it is
    end = 1 << n_cols
    for v in rows:
        if not 0 <= v < end:
            raise ValueError(f"row {v:#x} has bits outside columns 0..{n_cols - 1}")
        while v:
            low = v & -v
            pivot_row = table.get(low)
            if pivot_row is None:
                table[low] = v
                break
            v ^= pivot_row
    order = sorted(table)
    done = 0  # pivot bits of the rows already in reduced form
    for low in reversed(order):
        v = table[low]
        for bit in _set_bits(v & done):
            v ^= table[bit]  # reduced: holds no pivot bit but its own
        table[low] = v
        done |= low
    return [table[low] for low in order], [low.bit_length() - 1 for low in order]


def rank(rows: Sequence[int], n_cols: int) -> int:
    """Rank over GF(2)."""
    reduced, _ = row_reduce(rows, n_cols)
    return len(reduced)


def in_span(vec: int, rows: Sequence[int], n_cols: int) -> bool:
    """True iff vec lies in the GF(2) row span of rows."""
    reduced, pivots = row_reduce(rows, n_cols)
    v = vec
    for r, col in zip(reduced, pivots):
        if (v >> col) & 1:
            v ^= r
    return v == 0


def reduce_against(vec: int, reduced: Sequence[int], pivots: Sequence[int]) -> int:
    """Reduce vec against an existing echelon basis; 0 means dependent."""
    v = vec
    for r, col in zip(reduced, pivots):
        if (v >> col) & 1:
            v ^= r
    return v


def nullspace(reduced: Sequence[int], pivots: Sequence[int], n_cols: int) -> List[int]:
    """Basis of {v : parity(row & v) = 0 for every row} of a reduced row
    echelon form (reduced, pivots), as row_reduce returns it: one vector
    per free column, lowest first."""
    pivot_set = set(pivots)
    free_cols = [c for c in range(n_cols) if c not in pivot_set]
    basis = []
    for fc in free_cols:
        v = 1 << fc
        # back-substitute: pivot variable of each row fixed by the free choice
        for r, pc in zip(reduced, pivots):
            if (r >> fc) & 1:
                v |= 1 << pc
        basis.append(v)
    return basis


def invert(matrix_rows: Sequence[int], k: int) -> List[int]:
    """Invert a k x k GF(2) matrix given as bitmask rows.

    Raises ValueError when singular.
    """
    work = list(matrix_rows)
    inv = [1 << i for i in range(k)]
    r = 0
    for col in range(k):
        pivot = None
        for i in range(r, k):
            if (work[i] >> col) & 1:
                pivot = i
                break
        if pivot is None:
            raise ValueError("matrix is singular over GF(2)")
        work[r], work[pivot] = work[pivot], work[r]
        inv[r], inv[pivot] = inv[pivot], inv[r]
        for i in range(k):
            if i != r and ((work[i] >> col) & 1):
                work[i] ^= work[r]
                inv[i] ^= inv[r]
        r += 1
    return inv
