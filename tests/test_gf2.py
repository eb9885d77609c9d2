"""GF(2) bitmask linear algebra against a numpy mod-2 oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rhombuscode import gf2


def to_matrix(rows, n_cols):
    return np.array(
        [[(r >> c) & 1 for c in range(n_cols)] for r in rows], dtype=np.int64
    ).reshape(len(rows), n_cols)


def rank_oracle(rows, n_cols):
    """Gaussian elimination over GF(2) on a dense numpy array."""
    mat = to_matrix(rows, n_cols) % 2
    rank = 0
    for col in range(n_cols):
        pivot = next(
            (r for r in range(rank, len(mat)) if mat[r, col]), None
        )
        if pivot is None:
            continue
        mat[[rank, pivot]] = mat[[pivot, rank]]
        for r in range(len(mat)):
            if r != rank and mat[r, col]:
                mat[r] ^= mat[rank]
        rank += 1
    return rank


rows_strategy = st.lists(st.integers(0, (1 << 10) - 1), min_size=0, max_size=12)


@settings(max_examples=200, deadline=None)
@given(rows_strategy)
def test_rank_matches_oracle(rows):
    assert gf2.rank(rows, 10) == rank_oracle(rows, 10)


@settings(max_examples=200, deadline=None)
@given(rows_strategy, st.integers(0, (1 << 10) - 1))
def test_in_span_matches_rank_oracle(rows, target):
    in_rows = rank_oracle(rows + [target], 10) == rank_oracle(rows, 10)
    assert gf2.in_span(target, rows, 10) == in_rows


@settings(max_examples=150, deadline=None)
@given(rows_strategy)
def test_nullspace_annihilates(rows):
    ns = gf2.nullspace(*gf2.row_reduce(rows, 10), 10)
    mat = to_matrix(rows, 10)
    assert len(ns) == 10 - gf2.rank(rows, 10)
    for v in ns:
        vec = np.array([(v >> c) & 1 for c in range(10)])
        assert not (mat @ vec % 2).any()
    # nullspace vectors are independent
    assert gf2.rank(ns, 10) == len(ns)


def test_row_reduce_idempotent_and_pivots():
    rows = [0b1011, 0b0110, 0b1101, 0b0110]
    reduced, pivots = gf2.row_reduce(rows, 4)
    assert len(reduced) == len(pivots) == gf2.rank(rows, 4)
    again, _ = gf2.row_reduce(reduced, 4)
    assert again == reduced
    for r, p in zip(reduced, pivots):
        assert (r >> p) & 1
        assert all(((other >> p) & 1) == 0 for other in reduced if other != r)


def reference_row_reduce(rows, n_cols):
    """Reduced row echelon form by a column-by-column scan over every row."""
    work = list(rows)
    pivots = []
    rank = 0
    for col in range(n_cols):
        pivot = next((i for i in range(rank, len(work)) if (work[i] >> col) & 1), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        for i in range(len(work)):
            if i != rank and ((work[i] >> col) & 1):
                work[i] ^= work[rank]
        pivots.append(col)
        rank += 1
    return work[:rank], pivots


@st.composite
def row_sets(draw):
    """Rows on up to 80 columns, dense or banded, with dependent rows mixed in."""
    n_cols = draw(st.integers(1, 80))
    if draw(st.booleans()):
        rows = draw(st.lists(st.integers(0, (1 << n_cols) - 1), max_size=24))
    else:
        band = draw(st.integers(1, min(8, n_cols)))
        rows = [draw(st.integers(0, (1 << band) - 1)) << draw(st.integers(0, n_cols - band))
                for _ in range(draw(st.integers(0, 24)))]
    for _ in range(draw(st.integers(0, 4))):
        if rows:
            i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
            rows.append(rows[i] ^ rows[j])
    return rows, n_cols


@settings(max_examples=300, deadline=None)
@given(row_sets())
def test_row_reduce_matches_column_scan(case):
    rows, n_cols = case
    assert gf2.row_reduce(rows, n_cols) == reference_row_reduce(rows, n_cols)


def test_row_reduce_matches_column_scan_on_lattice_codes():
    from rhombuscode.cli import _parse_target
    from rhombuscode.pauli import symplectic_vector

    for target in ("grid:1", "grid:4", "grid:7", "lshape:2,1,matrix", "lshape:2,2"):
        code = _parse_target(target)
        rows = [symplectic_vector(s) for s in code.stabilizers]
        assert gf2.row_reduce(rows, 2 * code.n) == reference_row_reduce(rows, 2 * code.n)


@pytest.mark.parametrize("row", [-1, 1 << 10])
def test_row_reduce_rejects_bits_outside_the_columns(row):
    with pytest.raises(ValueError, match="outside columns"):
        gf2.row_reduce([0b11, row], 10)
