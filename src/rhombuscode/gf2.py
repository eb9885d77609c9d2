"""GF(2) linear algebra on int-bitmask row vectors.

Rows are Python ints; bit i of a row is column i. All routines are
deterministic (fixed pivoting order, lowest column first).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple


def row_reduce(rows: Sequence[int], n_cols: int) -> Tuple[List[int], List[int]]:
    """Reduced row echelon form.

    Returns (reduced nonzero rows, pivot column per row).
    """
    work = [r for r in rows]
    pivots: List[int] = []
    rank = 0
    for col in range(n_cols):
        pivot = None
        for i in range(rank, len(work)):
            if (work[i] >> col) & 1:
                pivot = i
                break
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        for i in range(len(work)):
            if i != rank and ((work[i] >> col) & 1):
                work[i] ^= work[rank]
        pivots.append(col)
        rank += 1
    return work[:rank], pivots


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


def nullspace(rows: Sequence[int], n_cols: int) -> List[int]:
    """Basis of {v : parity(row & v) = 0 for every row}."""
    reduced, pivots = row_reduce(rows, n_cols)
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
