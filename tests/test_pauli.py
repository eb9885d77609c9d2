"""Pauli group arithmetic against a dense Kronecker-product oracle."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rhombuscode.gf2 import _set_bits
from rhombuscode.pauli import (
    PauliOperator,
    apply,
    commutes,
    from_symplectic_vector,
    identity,
    multiply,
    parse_pauli,
    qubit_columns,
    symplectic_vector,
    to_string,
    weight,
)
from rhombuscode.states import PureState

_I = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def dense_matrix(op: PauliOperator) -> np.ndarray:
    """Oracle: build the full 2^n matrix from the masks and phase.

    Qubit 1 is bit 0 of the basis index, so it is the *last* Kronecker
    factor under numpy's row-major ordering.
    """
    mat = np.eye(1, dtype=complex)
    for q in range(op.n - 1, -1, -1):
        fx = _X if (op.x_mask >> q) & 1 else _I
        fz = _Z if (op.z_mask >> q) & 1 else _I
        mat = np.kron(mat, fx @ fz)
    return (1j) ** op.phase * mat


def random_op(rng: np.random.Generator, n: int) -> PauliOperator:
    full = (1 << n) - 1
    return PauliOperator(
        n,
        int(rng.integers(0, full + 1)),
        int(rng.integers(0, full + 1)),
        int(rng.integers(0, 4)),
    )


# --- parsing and serialization -------------------------------------------


def test_parse_examples():
    op = parse_pauli("X1X2X3X4", 6)
    assert (op.x_mask, op.z_mask, op.phase) == (0b1111, 0, 0)
    op = parse_pauli("Z1Z3Z5", 6)
    assert (op.x_mask, op.z_mask, op.phase) == (0, 0b10101, 0)
    assert parse_pauli("", 3) == identity(3)


def test_parse_y_carries_phase():
    op = parse_pauli("Y2", 3)
    assert (op.x_mask, op.z_mask, op.phase) == (0b010, 0b010, 1)
    assert np.allclose(
        dense_matrix(op), np.kron(_I, np.kron(np.array([[0, -1j], [1j, 0]]), _I))
    )


@pytest.mark.parametrize(
    "bad", ["X0", "X7", "X1X1", "Q1", "X1 Z2", "x1", "X", "X1Z",
            "+X1", "iX1", "--X1", "-i-X1", "X1-Z2", "+i+iX1", "-iiX1"]
)
def test_parse_rejects(bad):
    with pytest.raises(ValueError):
        parse_pauli(bad, 6)


def test_to_string_round_trip():
    rng = np.random.default_rng(11)
    for _ in range(300):
        n = int(rng.integers(1, 9))
        op = random_op(rng, n)
        text = to_string(op)
        for prefix in ("+i", "-i", "-"):
            if text.startswith(prefix):
                text = text[len(prefix):]
                break
        parsed = parse_pauli(text, n)
        assert (parsed.x_mask, parsed.z_mask) == (op.x_mask, op.z_mask)


def test_x_times_z_is_minus_i_y():
    prod = multiply(parse_pauli("X1", 1), parse_pauli("Z1", 1))
    assert to_string(prod) == "-iY1"
    assert np.allclose(dense_matrix(prod), _X @ _Z)


# --- multiply / commutes / apply against the dense oracle -----------------


def test_multiply_matches_dense():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(1, 6))
        a, b = random_op(rng, n), random_op(rng, n)
        assert np.allclose(
            dense_matrix(multiply(a, b)), dense_matrix(a) @ dense_matrix(b)
        )


def test_commutes_exhaustive_small():
    for n in (1, 2):
        full = (1 << n) - 1
        ops = [
            PauliOperator(n, x, z)
            for x in range(full + 1)
            for z in range(full + 1)
        ]
        for a in ops:
            for b in ops:
                ma, mb = dense_matrix(a), dense_matrix(b)
                assert commutes(a, b) == bool(
                    np.allclose(ma @ mb, mb @ ma)
                )


def test_apply_matches_dense():
    rng = np.random.default_rng(3)
    for _ in range(60):
        n = int(rng.integers(1, 6))
        op = random_op(rng, n)
        amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        state = PureState(n, amps)
        got = apply(op, state).amplitudes
        want = dense_matrix(op) @ amps
        assert np.allclose(got, want)


def test_weight_and_symplectic_round_trip():
    op = parse_pauli("X1Y3Z5", 6)
    assert weight(op) == 3
    back = from_symplectic_vector(symplectic_vector(op), 6)
    assert (back.x_mask, back.z_mask) == (op.x_mask, op.z_mask)


@pytest.mark.parametrize("x, z", [(8, 0), (0, 1 << 100), (-1, 0), (0, -2)])
def test_masks_beyond_the_qubit_count_are_refused(x, z):
    """A bit at or above n is refused, and so is a negative mask, whose
    two's-complement bits run on past every n."""
    with pytest.raises(ValueError, match="^mask has bits set beyond the qubit count$"):
        PauliOperator(3, x, z)
    assert (PauliOperator(3, 7, 7).n, PauliOperator(0).n) == (3, 0)


# --- hypothesis properties -------------------------------------------------

masks = st.integers(min_value=0, max_value=(1 << 8) - 1)
phases = st.integers(min_value=0, max_value=3)
ops8 = st.builds(lambda x, z, p: PauliOperator(8, x, z, p), masks, masks, phases)


@settings(max_examples=400, deadline=None)
@given(ops8, ops8, ops8)
def test_multiply_associative(a, b, c):
    assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))


@settings(max_examples=400, deadline=None)
@given(ops8)
def test_square_is_plus_minus_identity(a):
    sq = multiply(a, a)
    assert sq.x_mask == 0 and sq.z_mask == 0
    assert sq.phase in (0, 2)


@settings(max_examples=400, deadline=None)
@given(ops8, ops8)
def test_commutation_from_product_order(a, b):
    ab, ba = multiply(a, b), multiply(b, a)
    assert (ab == ba) == commutes(a, b)
    # anticommuting pairs differ by exactly a sign
    assert ab.phase % 2 == ba.phase % 2


@settings(max_examples=200, deadline=None)
@given(ops8, ops8)
def test_weight_subadditive(a, b):
    assert weight(multiply(a, b)) <= weight(a) + weight(b)


@settings(max_examples=100, deadline=None)
@given(
    st.builds(
        lambda x, z, p: PauliOperator(5, x, z, p),
        st.integers(0, 31),
        st.integers(0, 31),
        phases,
    ),
    st.builds(
        lambda x, z, p: PauliOperator(5, x, z, p),
        st.integers(0, 31),
        st.integers(0, 31),
        phases,
    ),
)
def test_apply_is_group_homomorphism(a, b):
    state = PureState.basis(5, 13)
    via_product = apply(multiply(a, b), state)
    via_sequence = apply(a, apply(b, state))
    assert via_product.isclose(via_sequence)


# --- support-linear kernels against their O(n) / O(m^2) definitions ---------


def reference_to_string(a: PauliOperator) -> str:
    """to_string as a walk over every qubit position."""
    parts = []
    n_y = 0
    for q in range(a.n):
        bit = 1 << q
        has_x = bool(a.x_mask & bit)
        has_z = bool(a.z_mask & bit)
        if has_x and has_z:
            parts.append(f"Y{q + 1}")
            n_y += 1
        elif has_x:
            parts.append(f"X{q + 1}")
        elif has_z:
            parts.append(f"Z{q + 1}")
    return ("", "+i", "-", "-i")[(a.phase - n_y) % 4] + "".join(parts)


@st.composite
def wide_ops(draw):
    """Operators on up to 2000 qubits, dense or sparse, any phase."""
    n = draw(st.integers(1, 2000))
    if draw(st.booleans()):
        x, z = (draw(st.integers(0, (1 << n) - 1)) for _ in range(2))
    else:
        qubits = draw(st.lists(st.integers(0, n - 1), max_size=8, unique=True))
        letters = draw(st.lists(st.sampled_from("XYZ"), min_size=len(qubits),
                                max_size=len(qubits)))
        x = sum(1 << q for q, c in zip(qubits, letters) if c != "Z")
        z = sum(1 << q for q, c in zip(qubits, letters) if c != "X")
    return PauliOperator(n, x, z, draw(phases))


@settings(max_examples=300, deadline=None)
@given(wide_ops())
def test_to_string_matches_per_qubit_walk_and_round_trips(op):
    text = to_string(op)
    assert text == reference_to_string(op)
    shown = next((i for i, p in ((1, "+i"), (3, "-i"), (2, "-")) if text.startswith(p)), 0)
    body = text[len(("", "+i", "-", "-i")[shown]):]
    back = parse_pauli(body, op.n)
    assert (back.x_mask, back.z_mask, (back.phase + shown) % 4) == (
        op.x_mask, op.z_mask, op.phase)


def test_to_string_covers_every_phase():
    op = parse_pauli("X1Y2Z4", 5)
    ops = [PauliOperator(5, op.x_mask, op.z_mask, op.phase + k) for k in range(4)]
    texts = ["X1Y2Z4", "+iX1Y2Z4", "-X1Y2Z4", "-iX1Y2Z4"]
    assert [to_string(a) for a in ops] == [reference_to_string(a) for a in ops] == texts
    assert [parse_pauli(text, 5) for text in texts] == ops


@st.composite
def y_ops(draw):
    """Operators on up to 80 qubits with at least one Y factor, any phase."""
    n = draw(st.integers(1, 80))
    x, z = (draw(st.integers(0, (1 << n) - 1)) for _ in range(2))
    y = 1 << draw(st.integers(0, n - 1))
    return PauliOperator(n, x | y, z | y, draw(phases))


@settings(max_examples=300, deadline=None)
@given(st.one_of(wide_ops(), y_ops()))
def test_parse_reads_what_to_string_writes(op):
    """Every phase prefix to_string writes, on operators with and without Y."""
    assert parse_pauli(to_string(op), op.n) == op


def first_anticommuting_pair(ops):
    """(i, j) of the first anticommuting pair in itertools.combinations
    order, or None when all of ops commute, for any ops (Y factors included).

    Bit j of the XOR of z_cols over the X-support of ops[i] and x_cols over
    its Z-support (see qubit_columns) is the symplectic product of ops[i]
    and ops[j], so the cost is O(total weight) big-int XORs, not O(m^2)
    pair tests. CodeSpec's check (lattice._first_anticommuting_pair) needs
    only the Z columns, since its operators are pure X or pure Z; this
    general form is kept as the reference for a check over non-CSS
    operators.
    """
    x_cols, z_cols = qubit_columns(ops, ops[0].n if ops else 0)
    for i, a in enumerate(ops):
        odd = 0
        for cols, mask in ((z_cols, a.x_mask), (x_cols, a.z_mask)):
            for low in _set_bits(mask):
                odd ^= cols[low.bit_length() - 1]
        later = odd >> (i + 1)
        if later:
            return i, i + (later & -later).bit_length()
    return None


def brute_first_pair(ops):
    return next(
        ((i, j) for i, j in itertools.combinations(range(len(ops)), 2)
         if not commutes(ops[i], ops[j])),
        None,
    )


FIVE_QUBIT = ("XZZXI", "IXZZX", "XIXZZ", "ZXIXZ")  # commuting, non-CSS


@st.composite
def pauli_lists(draw):
    """(ops, expected first pair or "any"): random products of commuting
    five-qubit-code generators tiled over the first n - 1 qubits (Y factors,
    non-CSS) with zero or exactly one anticommuting pair put in on the last
    qubit, or dense random operators with many pairs."""
    n = draw(st.integers(1, 200))
    mode = draw(st.sampled_from(["none", "one", "many"]))
    m = draw(st.integers(0 if mode != "one" else 2, 14))
    if mode == "many":
        mask = st.integers(0, (1 << n) - 1)
        ops = [PauliOperator(n, draw(mask), draw(mask), draw(phases)) for _ in range(m)]
        return ops, "any"
    gens = []
    for b in range(0, n - 1 - 4, 5):
        gens += [parse_pauli("".join(f"{c}{b + k + 1}" for k, c in enumerate(row) if c != "I"),
                             n) for row in FIVE_QUBIT]
    gens += [parse_pauli(f"Z{q + 1}", n) for q in range(5 * ((n - 1) // 5), n - 1)]
    ops = []
    for _ in range(m):
        pick = draw(st.integers(0, (1 << len(gens)) - 1))
        op = PauliOperator(n, phase=draw(phases))
        for g, gen in enumerate(gens):
            if pick >> g & 1:
                op = multiply(op, gen)
        ops.append(op)
    if mode == "none":
        return ops, None
    a, b = sorted(draw(st.lists(st.integers(0, m - 1), min_size=2, max_size=2, unique=True)))
    last = 1 << (n - 1)
    ops[a] = PauliOperator(n, ops[a].x_mask | last, ops[a].z_mask, ops[a].phase)
    ops[b] = PauliOperator(n, ops[b].x_mask, ops[b].z_mask | last, ops[b].phase)
    return ops, (a, b)


@settings(max_examples=300, deadline=None)
@given(pauli_lists())
def test_first_anticommuting_pair_matches_combinations_scan(case):
    ops, expected = case
    found = first_anticommuting_pair(ops)
    assert found == brute_first_pair(ops)
    if expected != "any":
        assert found == expected


def test_first_anticommuting_pair_rejects_mixed_sizes():
    assert first_anticommuting_pair([]) is None
    with pytest.raises(ValueError, match="qubit count mismatch"):
        first_anticommuting_pair([identity(2), identity(3)])
