"""Codewords, logical sets, and the two independent distance methods."""

import functools
import itertools
import random
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rhombuscode import engine, gf2, pauli
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
from rhombuscode.lattice import (
    NAMED_CODES,
    CodeSpec,
    build_named,
    build_unit,
    stack_grid,
    stack_l_shape,
)
from rhombuscode.pauli import (
    PauliOperator,
    basis_action,
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


def orbit_reference(code):
    """|0_L> by the rule _SparseCodewords replaced: (I + S) per stabilizer in
    code order, an X-type one doubling the orbit onto new indices, a Z-type
    one adding its phased image to every state, then normalized."""
    require_independent(code)
    indices = np.zeros(1, dtype=np.uint64)
    amps = np.ones(1, dtype=np.complex128)
    for s in code.stabilizers:
        images, phases = basis_action(s, indices)
        if s.x_mask:
            indices = np.concatenate([indices, images])
            amps = np.concatenate([amps, phases * amps])
        else:
            amps = amps + phases * amps
        if np.linalg.norm(amps) < 1e-9:
            raise ValueError(f"projector (I + {to_string(s)}) annihilates the seed state")
    return indices, amps / np.linalg.norm(amps)


def codewords_reference(code, xbars):
    """orbit_reference doubled by each Xbar in turn."""
    indices, amps = orbit_reference(code)
    for xbar in xbars:
        images, phases = basis_action(xbar, indices)
        indices = np.concatenate([indices, images])
        amps = np.concatenate([amps, phases * amps])
    return indices, amps


def with_phases(code, phase_of):
    """code with stabilizer s carrying phase phase_of(s)."""
    stabs = tuple(PauliOperator(s.n, s.x_mask, s.z_mask, phase_of(s)) for s in code.stabilizers)
    return CodeSpec(code.n, stabs, code.logical_pairs)


REFERENCE_TARGETS = ["unit", "two_horizontal", "two_vertical", "grid_2x2", "grid:1", "grid:2",
                     "lshape:0,0", "lshape:0,1", "lshape:1,0", "lshape:1,1"]


@pytest.mark.parametrize("target", REFERENCE_TARGETS)
def test_sparse_codewords_equal_the_orbit_reference(target):
    """Support and amplitudes bit for bit, on the code, the code with its
    first X-stabilizer negated and three draws of Z-stabilizer phases 1 and
    3; with all and with the first of its own (when they verify),
    synthesized, Y-dressed and phase-2 Xbars, and with none."""
    code = _parse_target(target)
    first_x = next(s for s in code.stabilizers if s.x_mask)
    rng = random.Random(target)
    variants = [code, with_phases(code, lambda s: 2 if s is first_x else 0)]
    variants += [with_phases(code, lambda s: 0 if s.x_mask else rng.choice([1, 3]))
                 for _ in range(3)]
    for variant in variants:
        synthesized = find_logical_set(variant)
        sets = [synthesized, y_dressed(variant, synthesized), LogicalSet(tuple(
            (PauliOperator(x.n, x.x_mask, x.z_mask, x.phase + 2), z) for x, z in synthesized.pairs
        ))]
        own = LogicalSet(variant.logical_pairs or ())
        if own.k and verify_logical_set(variant, own).logicals_ok:
            sets.append(own)
        for logicals in sets:
            xbars = [xbar for xbar, _ in logicals.pairs]
            for chosen in (xbars, xbars[:1], []):
                words = _SparseCodewords(variant, chosen)
                support, amps = codewords_reference(variant, chosen)
                assert words.support.tobytes() == support.tobytes()
                assert words.amps.tobytes() == amps.tobytes()


def test_negated_z_stabilizer_annihilates_the_seed_state():
    code = with_phases(build_unit(), lambda s: 2 if s.z_mask == 0b10101 else 0)
    message = re.escape("projector (I + -Z1Z3Z5) annihilates the seed state")
    for build in (orbit_reference, codeword_zero, lambda c: _SparseCodewords(c, ())):
        with pytest.raises(ValueError, match=f"^{message}$"):
            build(code)


def test_codeword_requires_independent_generators():
    base = build_unit()
    doubled = CodeSpec(base.n, base.stabilizers + base.stabilizers[:1])
    assert stabilizer_rank(doubled) == 4
    with pytest.raises(ValueError):
        require_independent(doubled)


# --- the code's GF(2) tableau ---------------------------------------------------


def dependent_unit():
    base = build_unit()
    return CodeSpec(base.n, base.stabilizers + (multiply(*base.stabilizers[:2]),))


TABLEAU_CODES = {
    **{name: build_named(name) for name in NAMED_CODES},
    "grid:2": stack_grid(2),
    "lshape:1,1": stack_l_shape(1, 1),
    "dependent": dependent_unit(),
}


@st.composite
def code_and_operator(draw):
    """A tableau code and a Pauli on it: a random product of its generators
    times, half the time, a random sign-free Pauli."""
    name = draw(st.sampled_from(sorted(TABLEAU_CODES)))
    code = TABLEAU_CODES[name]
    op = PauliOperator(code.n)
    for s, pick in zip(code.stabilizers, draw(st.lists(st.booleans(), min_size=code.m,
                                                       max_size=code.m))):
        if pick:
            op = multiply(op, s)
    if draw(st.booleans()):
        full = (1 << code.n) - 1
        noise = PauliOperator(code.n, draw(st.integers(0, full)), draw(st.integers(0, full)))
        op = multiply(op, noise)
    return code, op


@settings(max_examples=300, deadline=None)
@given(code_and_operator())
def test_tableau_matches_brute_force(case):
    """syndrome against the per-stabilizer commutes scan, the group test on
    the echelon against in_span, and rank against gf2.rank of the symplectic
    rows."""
    code, op = case
    tableau = code._tableau
    rows = [symplectic_vector(s) for s in code.stabilizers]
    want = sum(1 << g for g, s in enumerate(code.stabilizers) if not commutes(op, s))
    assert tableau.syndrome(op) == want
    in_group = not gf2.reduce_against(symplectic_vector(op), *tableau.echelon)
    assert in_group == in_span(symplectic_vector(op), rows, 2 * code.n)
    assert tableau.rank == stabilizer_rank(code) == gf2.rank(rows, 2 * code.n)


def test_tableau_is_built_once_and_requires_independence():
    code = dependent_unit()
    assert code._tableau is code._tableau
    assert stabilizer_rank(code) == 4 < code.m
    with pytest.raises(ValueError, match="^dependent stabilizer generators: rank 4 < count 5$"):
        require_independent(code)
    with pytest.raises(ValueError, match="qubit count mismatch"):
        build_unit()._tableau.syndrome(PauliOperator(5, 1))


@pytest.mark.parametrize("build", [lambda: find_logical_set(stack_grid(3)),
                                   lambda: verify_code(build_unit())],
                         ids=["find_logical_set-grid3", "verify_code-unit"])
def test_one_qubit_transpose_per_code(build, monkeypatch):
    """The tableau makes the one pauli.qubit_columns call; CodeSpec's
    commutation check makes none."""
    calls = []
    transpose = pauli.qubit_columns

    def counted(*args):
        calls.append(args)
        return transpose(*args)

    monkeypatch.setattr(pauli, "qubit_columns", counted)
    build()
    assert len(calls) == 1


@pytest.mark.parametrize("target", [*NAMED_CODES, "grid:1", "grid:2", "grid:3", "grid:6",
                                    "lshape:1,4", "lshape:2,2,matrix"])
def test_one_echelon_is_both_css_blocks(target):
    """With lowest-bit pivots the symplectic echelon is the X-type masks'
    echelon followed by the Z-type masks' echelon shifted up by n."""
    code = _parse_target(target)
    n = code.n
    x_rows, x_pivots = gf2.row_reduce([s.x_mask for s in code.stabilizers if s.x_mask], n)
    z_rows, z_pivots = gf2.row_reduce([s.z_mask for s in code.stabilizers if s.z_mask], n)
    assert code._tableau.echelon == (
        x_rows + [r << n for r in z_rows], x_pivots + [p + n for p in z_pivots])


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


# every code target the suite builds, from the catalog to lshape:6,6
SUITE_CODES = [*NAMED_CODES, "grid:1", "grid:2", "grid:3", "grid:4", "grid:6",
               "lshape:0,0", "lshape:0,1", "lshape:1,0", "lshape:1,1", "lshape:0,5",
               "lshape:1,4", "lshape:2,1", "lshape:2,2", "lshape:3,3", "lshape:4,0",
               "lshape:6,0", "lshape:6,6", "lshape:1,1,matrix", "lshape:2,1,matrix",
               "lshape:2,2,matrix"]


@pytest.mark.parametrize("target", SUITE_CODES)
def test_coset_walk_stays_within_the_cap(target, monkeypatch):
    """The X and Z weight-minimizing walks together visit at most
    EXHAUSTIVE_COSET_CAP cosets; a code past it gets no walk at all and
    unminimized, uncertified logicals."""
    walked = []
    walk = engine._min_weight_coset_rep

    def counted(mask, rows):
        walked.append(1 << len(rows))
        return walk(mask, rows)

    monkeypatch.setattr(engine, "_min_weight_coset_rep", counted)
    logicals = find_logical_set(_parse_target(target))
    assert sum(walked) <= engine.EXHAUSTIVE_COSET_CAP
    assert logicals.certified_minimal == bool(walked)


def test_find_logical_set_returns_past_the_cap():
    """lshape:6,0 (n = 58, k = 15) has 2^15 X and 2^28 Z cosets per
    logical: a Z walk alone would take 4e9 steps. Both walks count against
    the cap, so synthesis skips them and returns within a second."""
    start = time.perf_counter()
    logicals = find_logical_set(stack_l_shape(6, 0))
    assert time.perf_counter() - start < 1.0
    assert logicals.k == 15 and not logicals.certified_minimal


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


def test_distance_scans_stop_at_n(monkeypatch):
    """No 2-qubit Pauli has weight 3: with w_max = 10^4 both scans of the
    k = 0 code X1X2, Z1Z2 visit weights 1 and 2 only and find nothing."""
    code = CodeSpec(2, (parse_pauli("X1X2", 2), parse_pauli("Z1Z2", 2)))
    weights, scan = [], engine._scan_weight
    monkeypatch.setattr(
        engine, "_scan_weight", lambda n, w, accept: weights.append(w) or scan(n, w, accept)
    )
    assert distance_symplectic(code, w_max=10**4) == (None, None)
    assert distance_kl_oracle(code, LogicalSet(()), w_max=10**4) == (None, None)
    assert weights == [1, 2, 1, 2]


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
    message = (
        "Xbar X2X7 anticommutes with stabilizer Z2Z4Z6: its shifted orbit is not a codeword"
    )
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        distance_kl_oracle(code, LogicalSet(code.logical_pairs), w_max=2)


def y_dressed(code, logicals):
    """Each Xbar times a Z stabilizer it overlaps, where one does: same
    codewords, Y letters."""
    pairs = []
    for xbar, zbar in logicals.pairs:
        s = next((s for s in code.stabilizers
                  if s.is_z_type() and s.z_mask & xbar.x_mask), None)
        pairs.append((xbar if s is None else multiply(xbar, s), zbar))
    return LogicalSet(tuple(pairs))


def dense_matrix(psi, op):
    """M_ij = <psi_i|op|psi_j> on the dense codeword states (the rows of psi).
    Only basis states y where some psi_i is nonzero contribute, and op maps
    x = y ^ op.x_mask onto y."""
    cols = np.flatnonzero(np.any(psi, axis=0)).astype(np.uint64)
    sources = cols ^ np.uint64(op.x_mask)
    _, phases = basis_action(op, sources)
    return np.conj(psi[:, cols]) @ (phases * psi[:, sources]).T


def dense_violates_kl(psi, op):
    """The dense codeword matrix is not a scalar * I."""
    m = dense_matrix(psi, op)
    return bool(np.max(np.abs(m - m[0, 0] * np.eye(len(psi)))) > KL_TOL)


def assert_column_is_dense_matrix(words, psi, op):
    """M[j ^ (a >> m_x), j] = column(op)[j], and M is 0 elsewhere (everywhere
    when op moves the support off itself)."""
    m = dense_matrix(psi, op)
    want = np.zeros_like(m)
    column = words.column(op)
    if column is not None:
        j = np.arange(words.count)
        want[j ^ (words.coordinate(op.x_mask) >> words.m_x), j] = column
    np.testing.assert_allclose(m, want, rtol=0, atol=1e-12, err_msg=to_string(op))


def weight_two_paulis(n):
    """Every weight 1 and 2 candidate, in scan order."""
    return [
        _pauli_of(support, letters, n)
        for w in (1, 2)
        for support in itertools.combinations(range(n), w)
        for letters in itertools.product("XYZ", repeat=w)
    ]


def paulis(code, words, extra):
    """Paulis of any weight and phase: random masks (an X-part almost always
    outside the codeword span), X-parts drawn from words.support (inside
    it) with any Z-part, and the operators in extra."""
    n, full = code.n, (1 << code.n) - 1
    masks, phases = st.integers(0, full), st.integers(0, 3)
    anywhere = st.builds(PauliOperator, st.just(n), masks, masks, phases)
    inside = st.builds(
        lambda p, z, phase: PauliOperator(n, int(words.support[p]), z, phase),
        st.integers(0, len(words.support) - 1), masks, phases,
    )
    return st.one_of(anywhere, inside, st.sampled_from(extra))


KL_CASES = [(name, dressed) for name in ("unit", "two_vertical") for dressed in (False, True)]
KL_CASES += [("grid:1", False), ("lshape:0,0", False), ("two_horizontal", False)]
KL_IDS = [f"{name}-{'y_dressed' if dressed else 'synthesized'}" for name, dressed in KL_CASES]


@functools.lru_cache(maxsize=None)
def dense_codewords(name, dressed):
    """(code, logicals, _SparseCodewords, dense codeword states as rows) for
    the synthesized logicals, Y-dressed when dressed."""
    code = _parse_target(name)
    logicals = find_logical_set(code)
    if dressed:
        logicals = y_dressed(code, logicals)
        assert not any(xbar.is_x_type() for xbar, _ in logicals.pairs)
    words = _SparseCodewords(code, [xbar for xbar, _ in logicals.pairs])
    k = logicals.k
    bits = ["".join(str((j >> i) & 1) for i in range(k)) for j in range(1 << k)]
    psi = np.array([logical_basis_state(code, logicals, b).amplitudes for b in bits])
    return code, logicals, words, psi


@pytest.mark.parametrize("name,dressed", KL_CASES, ids=KL_IDS)
def test_violates_kl_matches_dense_codeword_matrix(name, dressed):
    """Weight <= 2 Paulis with phases 0-3 in turn, the same times each Xbar
    (X-parts carrying coset bits), the stabilizers (M = I) and the logicals
    (a nonzero M, which weight <= 2 misses)."""
    code, logicals, words, psi = dense_codewords(name, dressed)
    ops = weight_two_paulis(code.n)
    ops = [PauliOperator(code.n, op.x_mask, op.z_mask, i % 4) for i, op in enumerate(ops)]
    ops += [multiply(xbar, op) for xbar, _ in logicals.pairs for op in ops[: 3 * code.n]]
    ops += list(code.stabilizers) + [op for pair in logicals.pairs for op in pair]
    verdicts = []
    for op in ops:
        got = words.violates_kl(op)
        assert got == dense_violates_kl(psi, op), to_string(op)
        assert_column_is_dense_matrix(words, psi, op)
        verdicts.append(got)
    assert any(verdicts) and not all(verdicts)


@pytest.mark.parametrize("name,dressed", KL_CASES, ids=KL_IDS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_violates_kl_matches_dense_codeword_matrix_on_any_pauli(name, dressed, data):
    code, logicals, words, psi = dense_codewords(name, dressed)
    op = data.draw(paulis(code, words, [op for pair in logicals.pairs for op in pair]))
    assert words.violates_kl(op) == dense_violates_kl(psi, op), to_string(op)
    assert_column_is_dense_matrix(words, psi, op)


SPECTRUM_CASES = [(t, own) for t in ("unit", "two_vertical", "grid_2x2") for own in (True, False)]
SPECTRUM_CASES += [("lshape:1,0", False)]


@pytest.mark.parametrize("target,own", SPECTRUM_CASES)
def test_spectrum_is_the_blockwise_walsh_hadamard_sum(target, own):
    """_spectrum(a)[j, s] = sum_r conj(amps[p ^ a]) amps[p] (-1)^popcount(r & s)
    with p = j 2^m_x + r, at every s, for shifts inside and across cosets."""
    code = _parse_target(target)
    logicals = LogicalSet(code.logical_pairs) if own else find_logical_set(code)
    words = _SparseCodewords(code, [xbar for xbar, _ in logicals.pairs])
    r = np.arange(1 << words.m_x)
    hadamard = 1.0 - 2.0 * (np.bitwise_count(r[:, None] & r) & 1)
    last = len(words.support) - 1
    for a in (0, 1, last >> 1, 1 << words.m_x, (1 << words.m_x) | 1, last):
        blocks = (np.conj(words.amps[words.position ^ a]) * words.amps).reshape(words.count, -1)
        np.testing.assert_allclose(words._spectrum(a), blocks @ hadamard, rtol=0, atol=1e-12)


@pytest.mark.parametrize("target", ["two_vertical", "grid_2x2"])
@pytest.mark.parametrize("slots", [0, 1])
def test_spectrum_cache_bound_leaves_verdicts_unchanged(target, slots, monkeypatch):
    """Over every weight <= 2 candidate, a cache bound of one spectrum (or
    less) evicts, never holds more bytes than the bound, and changes no verdict."""
    code = _parse_target(target)
    xbars = [xbar for xbar, _ in find_logical_set(code).pairs]
    ops = weight_two_paulis(code.n)
    unbounded = _SparseCodewords(code, xbars)
    want = [unbounded.violates_kl(op) for op in ops]
    words = _SparseCodewords(code, xbars)
    bound = slots * 16 * len(words.support) + 8
    monkeypatch.setattr(engine, "SPECTRUM_CACHE_BYTES", bound)
    got = []
    for op in ops:
        got.append(words.violates_kl(op))
        assert len(words._spectra) <= slots
        assert sum(f.nbytes for f in words._spectra.values()) <= bound
    assert got == want
    assert len(unbounded._spectra) > 1 and any(want)


def test_sparse_codewords_reject_coset_collision():
    """An Xbar repeated, an Xbar whose X-part lies in the X-stabilizer span,
    and a third Xbar equal to the product of two others each shift the
    orbit onto a coset already taken."""
    code = build_unit()
    x1, x2 = (xbar for xbar, _ in find_logical_set(code).pairs)
    x_stabs = [s for s in code.stabilizers if s.is_x_type()]
    z_stab = next(s for s in code.stabilizers if s.is_z_type())
    message = re.escape("codeword basis not orthonormal (coset collision)")
    for xbars in (
        [x1, x1],
        [multiply(x_stabs[0], x_stabs[1])],
        [x1, multiply(x_stabs[0], z_stab)],
        [x1, x2, multiply(x1, x2)],
    ):
        with pytest.raises(ValueError, match=f"^{message}$"):
            _SparseCodewords(code, xbars)


# --- coordinate layout of the codeword support ---------------------------------

LAYOUT_TARGETS = ["unit", "two_vertical", "grid_2x2", "lshape:1,1"]


@functools.lru_cache(maxsize=None)
def frame_codewords(target):
    """(code, logicals, _SparseCodewords) of a dephasing frame: the code's
    own logicals (else synthesized ones) and the first Xbar alone."""
    code = _parse_target(target)
    if code.logical_pairs is not None:
        logicals = LogicalSet(code.logical_pairs)
    else:
        logicals = find_logical_set(code)
    return code, logicals, _SparseCodewords(code, [logicals.pairs[0][0]])


@pytest.mark.parametrize("target", LAYOUT_TARGETS)
def test_support_in_coordinate_order(target):
    """support[p] is the XOR of the generator x-masks (X-stabilizers, then
    Xbar) chosen by the bits of p, so codeword p >> m_x holds position p."""
    code, logicals, words = frame_codewords(target)
    masks = [s.x_mask for s in code.stabilizers if s.x_mask] + [logicals.pairs[0][0].x_mask]
    assert len(words.support) == 1 << len(masks)
    assert words.m_x == len(masks) - 1
    for p, state in enumerate(words.support.tolist()):
        want = 0
        for j, mask in enumerate(masks):
            if p >> j & 1:
                want ^= mask
        assert state == want


def signed_permutation(words, op):
    """(perm, sign) with op|support[p]> = sign[p] |support[perm[p]]> for the
    _SparseCodewords words: perm[p] = p ^ a, a = words.coordinate(op.x_mask),
    and sign[p] = i^phase (-1)^popcount(p & t), t = words.parity(op.z_mask);
    sign is 0 (perm the identity) if op leaves the support."""
    a = words.coordinate(op.x_mask)
    if a is None:
        return words.position, np.zeros(len(words.support), dtype=np.complex128)
    odd = np.bitwise_count(words.position & words.parity(op.z_mask)) & 1
    return words.position ^ a, (1j) ** op.phase * (1.0 - 2.0 * odd)


def searchsorted_signed_permutation(words, op):
    """signed_permutation by the sorted-support lookup it replaced."""
    order = np.argsort(words.support)
    ordered = words.support[order]
    images, phases = basis_action(op, words.support)
    at = np.minimum(np.searchsorted(ordered, images), len(ordered) - 1)
    return order[at], phases * (ordered[at] == images)


@pytest.mark.parametrize("target", LAYOUT_TARGETS)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_signed_permutation_matches_sorted_lookup(target, data):
    """Any Pauli, including a Zbar dressed with an X-stabilizer and the
    Y-dressed Xbars (the other pairs' X-parts lie outside the span)."""
    code, logicals, words = frame_codewords(target)
    x_stab = next(s for s in code.stabilizers if s.x_mask)
    extra = [multiply(zbar, x_stab) for _, zbar in logicals.pairs]
    extra += [xbar for xbar, _ in y_dressed(code, logicals).pairs]
    op = data.draw(paulis(code, words, extra))
    perm, sign = signed_permutation(words, op)
    want_perm, want_sign = searchsorted_signed_permutation(words, op)
    assert np.array_equal(sign, want_sign)
    assert np.array_equal(perm[sign != 0], want_perm[sign != 0])


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
