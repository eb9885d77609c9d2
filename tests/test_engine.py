"""Codewords, logical sets, and the two independent distance methods."""

import itertools

import numpy as np
import pytest

from rhombuscode.cli import _parse_target
from rhombuscode.engine import (
    KL_TOL,
    LogicalSet,
    _pauli_of,
    _SparseCodewords,
    codeword_zero,
    distance_kl_oracle,
    distance_symplectic,
    find_logical_set,
    logical_basis_state,
    require_independent,
    stabilizer_rank,
    verify_code,
    verify_logical_set,
)
from rhombuscode.gf2 import in_span
from rhombuscode.lattice import CodeSpec, build_named, build_unit, stack_grid, stack_l_shape
from rhombuscode.pauli import (
    apply,
    commutes,
    multiply,
    parse_pauli,
    symplectic_vector,
    to_string,
    weight,
)

# basis indices of the four-term unit codewords; bit i of the index is
# the value of qubit i+1, so e.g. |110011> (qubits 1..6) is 0b110011.
ZERO_L_SUPPORT = {0b000000, 0b001111, 0b110011, 0b111100}
ONE_L_SUPPORT = {0b000101, 0b001010, 0b110110, 0b111001}


# --- codewords ---------------------------------------------------------------


def test_codeword_zero_unit_exact():
    state = codeword_zero(build_unit()).amplitudes
    for idx in range(64):
        want = 0.5 if idx in ZERO_L_SUPPORT else 0.0
        assert state[idx] == want  # exact dyadic equality


def test_codeword_one_unit_exact():
    code = build_unit()
    logicals = LogicalSet(code.logical_pairs)
    state = logical_basis_state(code, logicals, "10").amplitudes
    for idx in range(64):
        want = 0.5 if idx in ONE_L_SUPPORT else 0.0
        assert state[idx] == want


def test_logical_basis_orthonormal():
    code = build_unit()
    logicals = LogicalSet(code.logical_pairs)
    states = [
        logical_basis_state(code, logicals, bits)
        for bits in ("00", "01", "10", "11")
    ]
    for i, a in enumerate(states):
        for j, b in enumerate(states):
            assert a.inner(b) == pytest.approx(1.0 if i == j else 0.0, abs=1e-14)


def test_codeword_requires_independent_generators():
    base = build_unit()
    doubled = CodeSpec(base.n, base.stabilizers + base.stabilizers[:1])
    assert stabilizer_rank(doubled) == 4
    with pytest.raises(ValueError):
        require_independent(doubled)


# --- logical-set verification -------------------------------------------------


@pytest.mark.parametrize("name", ["unit", "two_vertical", "grid_2x2"])
def test_transcribed_logicals_verify(name):
    code = build_named(name)
    report = verify_logical_set(code, LogicalSet(code.logical_pairs))
    assert report.logicals_ok, report.logical_violations + report.degenerate


def test_two_horizontal_transcribed_logicals_fail():
    """The fifth transcribed pair is inconsistent with the stabilizer set:
    its Z part is itself a stabilizer generator and its X part anticommutes
    with that generator."""
    code = build_named("two_horizontal")
    report = verify_logical_set(code, LogicalSet(code.logical_pairs))
    assert not report.logicals_ok
    assert any("Z2Z4Z6" in v for v in report.degenerate)
    assert any("X2X7" in v for v in report.logical_violations)


@pytest.mark.parametrize(
    # grid:3 has n = 42: synthesis has no qubit cap, only the coset-scan cap
    "name", ["unit", "two_horizontal", "two_vertical", "grid_2x2", "grid:3"]
)
def test_find_logical_set_properties(name):
    code = _parse_target(name)
    logicals = find_logical_set(code)
    assert logicals.k == code.n - stabilizer_rank(code)
    report = verify_logical_set(code, logicals)
    assert report.logicals_ok
    for i, (xi, zi) in enumerate(logicals.pairs):
        assert xi.is_x_type() and zi.is_z_type()
        for j, (xj, zj) in enumerate(logicals.pairs):
            assert commutes(xi, zj) == (i != j)
            assert commutes(xi, xj) and commutes(zi, zj)


def test_find_logical_set_minimizes_unit():
    logicals = find_logical_set(build_unit())
    assert logicals.certified_minimal
    assert {weight(x) for x, _ in logicals.pairs} == {2}
    assert {weight(z) for _, z in logicals.pairs} == {2}


# --- distance ------------------------------------------------------------------


@pytest.mark.parametrize(
    "name,d,witness",
    [
        ("unit", 2, "Z1Z2"),
        ("two_horizontal", 1, "X7"),
        ("two_vertical", 2, "Z1Z2"),
        ("grid_2x2", 2, "Z1Z2"),
    ],
)
def test_distance_symplectic_named(name, d, witness):
    code = build_named(name)
    got_d, got_w = distance_symplectic(code, w_max=4)
    assert got_d == d
    assert to_string(got_w) == witness


@pytest.mark.parametrize(
    "name", ["unit", "two_horizontal", "two_vertical", "grid_2x2"]
)
def test_distance_methods_agree(name):
    code = build_named(name)
    d_sym, w_sym = distance_symplectic(code, w_max=4)
    d_kl, w_kl = distance_kl_oracle(code, find_logical_set(code), w_max=4)
    assert d_sym == d_kl
    assert weight(w_sym) == weight(w_kl)


def test_distance_not_found_below_cutoff():
    d, w = distance_symplectic(build_unit(), w_max=1)
    assert d is None and w is None


def test_distance_witness_is_undetectable_logical():
    code = build_unit()
    _, w = distance_symplectic(code, w_max=4)
    assert all(commutes(w, s) for s in code.stabilizers)
    logicals = LogicalSet(code.logical_pairs)
    sparse_violation = distance_kl_oracle(code, logicals, w_max=2)
    assert sparse_violation[0] == 2


@pytest.mark.parametrize(
    "code",
    [build_named(name) for name in ("unit", "two_horizontal", "two_vertical", "grid_2x2")]
    + [stack_grid(3), stack_l_shape(1, 1)],
    ids=["unit", "two_horizontal", "two_vertical", "grid_2x2", "grid3", "lshape1_1"],
)
def test_distance_witness_outside_stabilizer_group(code):
    d, w = distance_symplectic(code, w_max=3)
    assert weight(w) == d
    assert all(commutes(w, s) for s in code.stabilizers)
    rows = [symplectic_vector(s) for s in code.stabilizers]
    assert not in_span(symplectic_vector(w), rows, 2 * code.n)


def test_kl_oracle_rejects_logicals_outside_code_space():
    """two_horizontal's transcribed X2X7 anticommutes with Z2Z4Z6, so its
    shifted orbit is not a codeword and the codeword matrix is meaningless."""
    code = build_named("two_horizontal")
    with pytest.raises(ValueError, match="X2X7.*Z2Z4Z6"):
        distance_kl_oracle(code, LogicalSet(code.logical_pairs), w_max=2)


def y_dressed(code, logicals):
    """Each Xbar times a Z stabilizer it overlaps: same codewords, Y letters."""
    pairs = []
    for xbar, zbar in logicals.pairs:
        s = next(s for s in code.stabilizers
                 if s.is_z_type() and s.z_mask & xbar.x_mask)
        pairs.append((multiply(xbar, s), zbar))
    return LogicalSet(tuple(pairs))


def dense_violates_kl(states, op):
    """M_ij = <psi_i|op|psi_j> on dense codeword states is not a scalar * I."""
    images = [apply(op, b) for b in states]
    m = np.array([[a.inner(b) for b in images] for a in states])
    return bool(np.max(np.abs(m - m[0, 0] * np.eye(len(states)))) > KL_TOL)


@pytest.mark.parametrize("dressed", [False, True], ids=["synthesized", "y_dressed"])
@pytest.mark.parametrize("name", ["unit", "two_vertical"])
def test_violates_kl_matches_dense_codeword_matrix(name, dressed):
    code = build_named(name)
    logicals = find_logical_set(code)
    if dressed:
        logicals = y_dressed(code, logicals)
        assert not any(xbar.is_x_type() for xbar, _ in logicals.pairs)
    words = _SparseCodewords(code, [xbar for xbar, _ in logicals.pairs])
    k = logicals.k
    states = [
        logical_basis_state(code, logicals, "".join(str((j >> i) & 1) for i in range(k)))
        for j in range(1 << k)
    ]
    ops = [
        _pauli_of(support, letters, code.n)
        for w in (1, 2)
        for support in itertools.combinations(range(code.n), w)
        for letters in itertools.product("XYZ", repeat=w)
    ]
    # stabilizers give M = I and logicals a nonzero M, which weight <= 2 misses
    ops += list(code.stabilizers) + [op for pair in logicals.pairs for op in pair]
    verdicts = []
    for op in ops:
        got = words.violates_kl(op)
        assert got == dense_violates_kl(states, op), to_string(op)
        verdicts.append(got)
    assert any(verdicts) and not all(verdicts)


def test_sparse_codewords_reject_coset_collision():
    code = build_unit()
    xbar = find_logical_set(code).pairs[0][0]
    with pytest.raises(ValueError, match="coset collision"):
        _SparseCodewords(code, [xbar, xbar])


# --- full report ----------------------------------------------------------------


def test_verify_code_unit_report():
    report = verify_code(build_unit(), w_max=4, use_kl=True)
    assert report.commuting
    assert (report.rank, report.k, report.distance) == (4, 2, 2)
    assert report.logicals_ok
    doc = report.to_json()
    for key in ('"commuting"', '"rank"', '"k"', '"distance"', '"witness"'):
        assert key in doc


def test_verify_code_kl_guard():
    code = stack_grid(3)  # n = 42
    with pytest.raises(ValueError):
        verify_code(code, w_max=2, use_kl=True)


def test_noncss_logical_pair_rejected_by_verify():
    code = build_unit()
    weird = LogicalSet(
        ((parse_pauli("X1X2", 6), parse_pauli("Z1Z3Z5", 6)),)
    )
    report = verify_logical_set(code, weird)
    assert not report.logicals_ok
