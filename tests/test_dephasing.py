"""Dephasing engine vs closed forms and the trajectory Monte Carlo oracle."""

import dataclasses
import itertools
import math
import os

import numpy as np
import pytest

from rhombuscode import dephasing, pauli
from rhombuscode.cli import _parse_target
from rhombuscode.dephasing import (
    KINDS,
    MC_BATCH,
    NoiseModel,
    _CosetKernel,
    _Frame,
    _PhasorKernel,
    _combine,
    _components,
    _normals,
    _phase_minus_one,
    _popcount,
    bloch_and_leakage,
    closed_form,
    code_space_operator,
    decoherence_factor,
    dephased_pauli_expectation,
    format_float,
    magnetization,
    monte_carlo_grid,
    monte_carlo_oracle,
    prepare_logical_state,
    sweep_row,
)
from rhombuscode.engine import (
    LogicalSet,
    _SparseCodewords,
    _states,
    codeword_zero,
    find_logical_set,
    logical_basis_state,
)
from rhombuscode.gf2 import _set_bits
from rhombuscode.lattice import NAMED_CODES, CodeSpec, build_named, build_unit
from rhombuscode.pauli import PauliOperator, apply, multiply, parse_pauli
from rhombuscode.states import PureState
from test_engine import signed_permutation
from test_scripts import load_script

# a copy of a frame with every generator in one component: its _CosetKernel
# is the S-state reference (scripts/kernel_ns.py times it the same way)
one_component = load_script("kernel_ns").one_component

THETAS = [0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4, math.pi]
PHIS = [0.0, math.pi / 3, math.pi / 2, math.pi, 3 * math.pi / 2]
GAMMA_TS = [0.0, 0.1, 0.5, 1.0, 5.0]


def unit_and_logicals():
    code = build_unit()
    return code, LogicalSet(code.logical_pairs)


def target_and_logicals(target):
    """The code of a CLI target and its own logicals, else synthesized ones."""
    code = _parse_target(target)
    if code.logical_pairs is not None:
        return code, LogicalSet(code.logical_pairs)
    return code, find_logical_set(code)


def logical_paulis(logicals):
    """(Xbar, Ybar = i Zbar Xbar, Zbar) of the first pair."""
    xbar, zbar = logicals.pairs[0]
    prod = multiply(zbar, xbar)
    return xbar, PauliOperator(prod.n, prod.x_mask, prod.z_mask, prod.phase + 1), zbar


def block_coefficients(code, logicals):
    """The six forms' coefficients as 4 x S blocks, from _SparseCodewords
    alone: for L in (Xbar, Ybar, Zbar) with L|support[c]> = sign[c]
    |support[perm c]>, cr[2j + k, c] = conj(b_j[perm c]) sign[c] b_k[c], and
    cg[2i + k, c] = conj(b_i[c]) b_k[c], b_k the amplitudes of |k_L> (zero
    off its coset). Returns ([(perm, cr) per L], cg)."""
    paulis = logical_paulis(logicals)
    words = _SparseCodewords(code, paulis[:1])
    b = np.where(words.position >> words.m_x == np.arange(2)[:, None], words.amps, 0.0)
    terms = [
        (perm, (np.conj(b[:, perm])[:, None] * sign * b).reshape(4, -1))
        for perm, sign in (signed_permutation(words, op) for op in paulis)
    ]
    return terms, (np.conj(b)[:, None] * b).reshape(4, -1)


def sparse_support(code, logicals):
    """The S basis states of |0_L> and |1_L> in _SparseCodewords' order (the
    X-type stabilizers, then Xbar), the order of block_coefficients."""
    return _SparseCodewords(code, logical_paulis(logicals)[:1]).support


def support_spins(code, logicals, kind):
    """spins[k, p] couples noise field k to support state p: one field, half
    the magnetization (global), or one per qubit, its z-spin/2 (local)."""
    support = sparse_support(code, logicals)
    if kind == "global":
        return magnetization(support, code.n)[None, :] / 2.0
    bits = (support[None, :] >> np.arange(code.n, dtype=np.uint64)[:, None]) & 1
    return 0.5 - bits.astype(np.float64)


def point_values(forms, theta, phi):
    """sum_jk conj(c_j) c_k forms[:, j, k] for (6, 2, 2, ...) dense forms and
    the state c_0|0_L> + c_1|1_L>, c = (cos(theta/2), e^{i phi} sin(theta/2)):
    the contraction the engine's Re(y G) replaces, kept as its reference."""
    c = np.array([math.cos(theta / 2.0), np.exp(1j * phi) * math.sin(theta / 2.0)])
    return np.einsum("jk,ojk...->o...", np.outer(np.conj(c), c), forms)


# --- building blocks ----------------------------------------------------------


def test_magnetization():
    assert magnetization(0b000000, 6) == 6
    assert magnetization(0b111111, 6) == -6
    assert magnetization(0b001111, 6) == -2


def test_decoherence_factor_values():
    model = NoiseModel("global", 1.0)
    # adjacent magnetization sectors (dm = +-2) decay as exp(-gamma t / 2)
    assert decoherence_factor(0b0, 0b1, model, 1.0, 6) == pytest.approx(
        math.exp(-0.5)
    )
    assert decoherence_factor(0b11, 0b0, model, 1.0, 6) == pytest.approx(
        math.exp(-2.0)
    )
    local = NoiseModel("local", 1.0)
    assert decoherence_factor(0b11, 0b0, local, 1.0, 6) == pytest.approx(
        math.exp(-1.0)
    )
    assert decoherence_factor(5, 5, model, 3.0, 6) == 1.0
    # uint64 arrays (indices up to 64 bits) equal the elementwise scalar calls
    rng = np.random.default_rng(3)
    for n in (6, 64):
        a = rng.integers(0, 1 << n, size=40, dtype=np.uint64, endpoint=False)
        b = rng.integers(0, 1 << n, size=40, dtype=np.uint64, endpoint=False)
        assert magnetization(a, n).tolist() == [magnetization(int(x), n) for x in a]
        for m in (model, local, NoiseModel("local", 0.7, convention=2.0)):
            got = decoherence_factor(a, b, m, 0.9, n)
            want = [decoherence_factor(int(x), int(y), m, 0.9, n) for x, y in zip(a, b)]
            assert got.tolist() == want


def test_noise_model_validation():
    with pytest.raises(ValueError):
        NoiseModel("radial", 1.0)
    with pytest.raises(ValueError):
        NoiseModel("global", -0.1)
    with pytest.raises(ValueError):
        NoiseModel("global", 1.0, convention=0.0)


@pytest.mark.parametrize(
    "t, gamma, convention",
    [(-1.0, 0.9, 1.0), (math.nan, 0.9, 1.0), (math.inf, 0.9, 1.0), (0.7, math.nan, 1.0),
     (0.7, math.inf, 1.0), (0.7, 0.9, math.nan), (0.7, 0.9, math.inf),
     (1e300, 1e300, 1.0)],
    ids=["t-negative", "t-nan", "t-inf", "gamma-nan", "gamma-inf", "convention-nan",
         "convention-inf", "gamma-t-overflow"],
)
def test_bad_time_or_noise_is_rejected(t, gamma, convention):
    """Both methods raise ValueError for t outside [0, inf) or a product
    convention * gamma * t that is not finite, and NoiseModel for gamma
    outside [0, inf) or convention outside (0, inf). The Monte Carlo oracle
    used to return the t = 0 values with standard errors 0 for a negative or
    NaN t or a NaN gamma, and NaN for an infinite gamma; both methods returned
    NaN when gamma * t overflowed."""
    code, logicals = unit_and_logicals()
    methods = (
        lambda model: bloch_and_leakage(code, logicals, 1.0, 0.5, model, [t]),
        lambda model: monte_carlo_oracle(code, logicals, 1.0, 0.5, model, t, 100, seed=1),
    )
    for method in methods:
        with pytest.raises(ValueError):
            method(NoiseModel("local", gamma, convention))


@pytest.mark.parametrize("target", ["grid:4", "lshape:1,5"])  # n = 72, 68
def test_codewords_past_64_qubits_are_refused(target):
    """_SparseCodewords holds basis indices as uint64, so a code on more than
    64 qubits is refused with a ValueError naming the limit, not numpy's
    OverflowError from deep inside the doubling pass. The dephasing frame
    lists each component's states on its own qubits (at most 18 here), so
    the engine runs on these codes: r_z stays at cos(theta), and the Bloch
    rows decay as e^{-w gamma t / 2}, w the x-weight of the Pauli."""
    code = _parse_target(target)
    logicals = find_logical_set(code)
    message = f"basis indices are uint64: codewords need n <= 64, got n = {code.n}"
    with pytest.raises(ValueError, match=f"^{message}$"):
        _SparseCodewords(code, ())
    rec = bloch_and_leakage(code, logicals, 1.0, 0.5, NoiseModel("local", 1.0), [0.5])[0]
    weights = [bin(op.x_mask).count("1") for op in logical_paulis(logicals)]
    assert abs(rec.r_z - math.cos(1.0)) <= 1e-12
    assert abs(rec.r_x - math.sin(1.0) * math.cos(0.5) * math.exp(-weights[0] / 4)) <= 1e-12


def test_prepare_logical_state_bloch():
    code, logicals = unit_and_logicals()
    zero_l = codeword_zero(code)
    one_l = logical_basis_state(code, logicals, "10")
    psi = prepare_logical_state(math.pi / 2, math.pi / 3, zero_l, one_l)
    assert psi.norm() == pytest.approx(1.0)
    assert psi.inner(zero_l) == pytest.approx(math.cos(math.pi / 4))
    with pytest.raises(ValueError):
        prepare_logical_state(0.1, 0.2, zero_l, zero_l)  # not orthogonal


def test_dephased_expectation_reduces_to_pure_at_t0():
    code, logicals = unit_and_logicals()
    zero_l = codeword_zero(code)
    one_l = logical_basis_state(code, logicals, "10")
    psi = prepare_logical_state(1.0, 0.7, zero_l, one_l)
    model = NoiseModel("global", 2.0)
    op = logicals.pairs[0][0]
    pure = psi.inner(apply(op, psi))
    assert dephased_pauli_expectation(psi, op, model, 0.0) == pytest.approx(pure)


def test_trace_preserved():
    code, logicals = unit_and_logicals()
    zero_l = codeword_zero(code)
    one_l = logical_basis_state(code, logicals, "10")
    psi = prepare_logical_state(2.0, 0.3, zero_l, one_l)
    ident = parse_pauli("", 6)
    for model in (NoiseModel("global", 1.3), NoiseModel("local", 1.3)):
        for t in (0.0, 0.7, 4.0):
            assert dephased_pauli_expectation(psi, ident, model, t) == pytest.approx(
                1.0
            )


def test_code_space_operator_projector_idempotent():
    code = build_unit()
    terms = code_space_operator(code, "projector")
    assert len(terms) == 2**code.m
    dim = 1 << code.n
    mat = np.zeros((dim, dim), dtype=complex)
    basis = np.eye(dim)
    for c, op in terms:
        for col in range(dim):
            mat[:, col] += c * apply(op, PureState(code.n, basis[col])).amplitudes
    assert np.allclose(mat @ mat, mat)
    # 'paper' normalization differs from the projector by 2^(m-n)
    paper = code_space_operator(code, "paper")
    assert paper[0][0] == pytest.approx(terms[0][0] * 2 ** (code.m - code.n))


# --- engine vs closed form ------------------------------------------------------


def test_global_engine_matches_closed_form_grid():
    code, logicals = unit_and_logicals()
    for theta in THETAS:
        for phi in PHIS:
            model = NoiseModel("global", 1.0)
            records = bloch_and_leakage(code, logicals, theta, phi, model, GAMMA_TS)
            for gt, rec in zip(GAMMA_TS, records):
                want = closed_form("global", theta, phi, 1.0, gt)
                for a, b in zip(rec.values(), want.values()):
                    assert abs(a - b) < 1e-12


def test_t0_leakage_prefactor():
    code, logicals = unit_and_logicals()
    for kind in ("global", "local"):
        for theta, phi in [(0.4, 1.1), (2.2, 4.0)]:
            rec = bloch_and_leakage(
                code, logicals, theta, phi, NoiseModel(kind, 1.0), [0.0]
            )[0]
            assert abs(rec.p_x - rec.r_x / 4) < 1e-12
            assert abs(rec.p_y - rec.r_y / 4) < 1e-12
            assert abs(rec.p_z - rec.r_z / 4) < 1e-12


def test_r_z_time_invariant_and_transverse_decay_monotone():
    code, logicals = unit_and_logicals()
    ts = [0.0, 0.2, 0.9, 2.5]
    for kind in ("global", "local"):
        recs = bloch_and_leakage(
            code, logicals, 1.0, 0.5, NoiseModel(kind, 1.0), ts
        )
        r_z0 = recs[0].r_z
        mags = [math.hypot(r.r_x, r.r_y) for r in recs]
        for rec in recs:
            assert abs(rec.r_z - r_z0) < 1e-12
        assert all(a >= b - 1e-12 for a, b in zip(mags, mags[1:]))


def test_local_engine_convention_2_matches_closed_form_bloch_only():
    """With a doubled decay exponent the engine reproduces the published
    local-dephasing Bloch vector exactly; the leakage components still
    disagree, so the closed form is archived as reference output only."""
    code, logicals = unit_and_logicals()
    model = NoiseModel("local", 1.0, convention=2.0)
    theta, phi = 1.1, 0.8
    gts = [0.3, 1.0]
    recs = bloch_and_leakage(code, logicals, theta, phi, model, gts)
    leak_mismatch = 0.0
    for gt, rec in zip(gts, recs):
        want = closed_form("local", theta, phi, 1.0, gt)
        assert abs(rec.r_x - want.r_x) < 1e-12
        assert abs(rec.r_y - want.r_y) < 1e-12
        assert abs(rec.r_z - want.r_z) < 1e-12
        leak_mismatch = max(
            leak_mismatch,
            abs(rec.p_x - want.p_x),
            abs(rec.p_y - want.p_y),
            abs(rec.p_z - want.p_z),
        )
    assert leak_mismatch > 1e-3  # genuinely different, not a tolerance issue


def dense_reference(code, logicals, theta, phi, model, t):
    """The six observables from dense 2^n states and the 2^m-term expansion
    of the paper-normalized code-space operator."""
    one_l = logical_basis_state(code, logicals, "1" + "0" * (logicals.k - 1))
    psi = prepare_logical_state(theta, phi, codeword_zero(code), one_l)
    paulis = logical_paulis(logicals)
    pc_terms = code_space_operator(code, "paper")
    bloch = [dephased_pauli_expectation(psi, op, model, t) for op in paulis]
    leakage = [
        sum(c * dephased_pauli_expectation(psi, multiply(op, term), model, t)
            for c, term in pc_terms)
        for op in paulis
    ]
    return bloch + leakage


# the unit code with its first pair dressed by a stabilizer: Xbar times
# Z1Z3Z5, or Zbar times X1X2X3X4 (its coset-keeping row permutes the support)
DRESSED_UNIT = {"unit-xbar-y-dressed": ("Y1Y3Z5", "Z1Z4Z6"),
                "unit-zbar-x-dressed": ("X1X3", "Y1X2X3Y4Z6")}


@pytest.mark.parametrize("name", ["unit", "two_vertical", "two_horizontal", *DRESSED_UNIT])
@pytest.mark.parametrize("kind", ["global", "local"])
def test_engine_equals_dense_reference(name, kind):
    if name in DRESSED_UNIT:
        code = build_unit()
        pair = tuple(parse_pauli(text, code.n) for text in DRESSED_UNIT[name])
        logicals = LogicalSet([pair, *code.logical_pairs[1:]])
        assert (_Frame(code, logicals).x_weight[2] != 0) == ("zbar" in name)
    else:
        code = build_named(name)
        logicals = LogicalSet(code.logical_pairs)
    ts = [0.0, 0.3, 1.1, 2.7]
    for convention in (1.0, 2.0):
        model = NoiseModel(kind, 0.9, convention)
        for theta, phi in [(0.0, 0.0), (1.1, 0.8), (2.5, 4.0)]:
            recs = bloch_and_leakage(code, logicals, theta, phi, model, ts)
            for t, rec in zip(ts, recs):
                want = dense_reference(code, logicals, theta, phi, model, t)
                for got, ref in zip(rec.values(), want):
                    assert abs(got - ref) < 1e-12


def square_damping_forms(code, logicals, blocks, model, t):
    """The dense (6, 2, 2) forms behind _Frame.expected, through the full S x S
    damping matrix exp(-gt |spins_p - spins_q|^2 / 2) on the S-state support,
    its kernel written out here, and the block_coefficients of the code and
    logicals."""
    terms, cg = blocks
    spins = support_spins(code, logicals, "local")
    if model.kind == "global":
        spins = spins.sum(axis=0, keepdims=True)
    sq = (spins * spins).sum(axis=0)
    dist2 = sq[:, None] + sq[None, :] - 2.0 * (spins.T @ spins)
    damping = np.exp(-dist2 * model.convention * model.gamma * t / 2.0)
    right = damping @ cg.T
    forms = np.empty((6, 2, 2), dtype=np.complex128)
    for o, (perm, cr) in enumerate(terms):
        forms[o] = (cr @ damping[perm, np.arange(len(perm))]).reshape(2, 2)
        pairs = (cr @ right[perm]).reshape(2, 2, 2, 2)
        forms[3 + o] = 2.0 ** (code.m - code.n) * (pairs[:, 0, 0] + pairs[:, 1, 1])
    return forms


@pytest.mark.parametrize("target", ["grid_2x2", "lshape:1,1"])
@pytest.mark.parametrize("kind", ["global", "local"])
def test_engine_equals_square_damping_reference(target, kind):
    """The coset/popcount kernel sums against the S x S matrix they replace,
    on supports (S = 128, 512) larger than any dense-reference code."""
    code, logicals = target_and_logicals(target)
    blocks = block_coefficients(code, logicals)
    ts = [0.0, 0.3, 1.1, 2.7]
    for convention in (1.0, 2.0):
        model = NoiseModel(kind, 0.9, convention)
        for theta, phi in [(0.0, 0.0), (1.1, 0.8), (2.5, 4.0)]:
            recs = bloch_and_leakage(code, logicals, theta, phi, model, ts)
            for t, rec in zip(ts, recs):
                want = point_values(square_damping_forms(code, logicals, blocks, model, t), theta, phi)
                for got, ref in zip(rec.values(), want):
                    assert abs(got - ref) < 1e-12


@pytest.mark.parametrize("target", ["unit", "two_vertical", "grid_2x2", "lshape:1,1"])
def test_frame_rows_are_the_nonzero_block_entries(target):
    """Each block row cr[2j + k] is nonzero only at coset c = k, j = k ^ flip:
    on the S-state support Pauli o maps state c to c ^ s, s = perm[0], whose
    popcount is the frame's x_weight[o]; coef[o, k] scattered on coset k
    gives the blocks, Xbar and Ybar flip the coset and Zbar keeps it, and cg
    summed over its rows is weight on every state. The frame's constants
    are exact: weight is 2/S and each coef[o, k] / weight is a unit in
    {1, i, -1, -i}, equal to the blocks divided by the weight and rounded.
    The blocks round the amplitudes' squares, so only they are held to
    1e-15 of those units."""
    code, logicals = target_and_logicals(target)
    frame = _Frame(code, logicals)
    terms, cg = block_coefficients(code, logicals)
    support = sparse_support(code, logicals)
    assert frame.flipping.tolist() == [True, True, False] * 2
    assert frame.weight == 2.0 / len(support)
    units = frame.coef / frame.weight
    assert np.isin(units, [1, 1j, -1, -1j]).all()
    columns = np.arange(len(support))
    coset = columns // (len(columns) // 2)
    for o, (perm, cr) in enumerate(terms):
        assert np.array_equal(perm, columns ^ perm[0])
        assert frame.x_weight[o] == bin(int(support[perm[0]])).count("1")
        scattered = np.zeros_like(cr)
        scattered[2 * coset[perm] + coset, columns] = units[o, coset]
        assert np.array_equal(np.round(cr / frame.weight), scattered)
        assert abs(cr / frame.weight - scattered).max() <= 1e-15
        assert np.array_equal(coset[perm], coset ^ frame.flipping[o])
    assert (np.round(cg.sum(axis=0) / frame.weight) == 1).all()
    assert abs(cg.sum(axis=0) / frame.weight - 1).max() <= 1e-15


def test_frame_keeps_no_per_state_array():
    """On lshape:1,4 (S = 2^18, 96 component states) the frame keeps its
    per-coset constants and the enumerators W (2, n + 1) and N (3, 2, n + 1),
    not per-state rows: no ndarray attribute has more than 6 (n + 1)
    entries."""
    frame = _Frame(*target_and_logicals("lshape:1,4"))
    assert len(frame.generators) == 18 and frame.size == 96
    sizes = {name: value.size for name, value in vars(frame).items()
             if isinstance(value, np.ndarray)}
    assert {"coef", "flipping", "enumerator", "overlap"} <= set(sizes)
    assert max(sizes.values()) <= 6 * (frame.n + 1)


@pytest.mark.parametrize("name", ["unit", "two_vertical", "two_horizontal", "grid_2x2", "grid:1",
                                  "grid:2", "grid:3", "lshape:0,0", "lshape:0,1", "lshape:1,1",
                                  *DRESSED_UNIT])
def test_local_bloch_decays_as_the_x_weight(name):
    """Under local noise each Bloch row is its t = 0 value times e^{-w c
    gamma t / 2}, w the x-weight of Xbar, Ybar or Zbar and c the
    convention: support[c ^ s] ^ support[c] is the Pauli's x-mask for
    every support state c."""
    code, logicals = named_pair(name)
    frame = _Frame(code, logicals)
    weights = np.array([bin(op.x_mask).count("1") for op in logical_paulis(logicals)])
    for convention in (1.0, 2.0):
        model = NoiseModel("local", 0.9, convention)
        start = frame.expected(model, 0.0)[:3]
        for t in (0.3, 1.1, 2.7):
            decay = np.exp(-weights * convention * 0.9 * t / 2.0)
            assert abs(frame.expected(model, t)[:3] - start * decay).max() <= 1e-12


def squared_hamming(monkeypatch):
    """Patch dephasing._damping so that the local distance enters squared,
    K(a, b) = e^{-|a ^ b|^2 c gamma t / 2}; global noise is unchanged."""
    damping = dephasing._damping
    monkeypatch.setattr(dephasing, "_damping", lambda distance, model, t: damping(
        np.square(distance) if model.kind == "local" else distance, model, t))


@pytest.mark.parametrize("theta, phi, gt", [(1.1, 0.3, 0.1), (0.4, 2.0, 0.05), (2.5, 4.0, 0.7),
                                            (math.pi / 2, 0.0, 2.0)])
def test_published_local_form_is_the_squared_hamming_damping(theta, phi, gt, monkeypatch):
    """The published local closed form is the engine on the unit code with
    the Hamming distance squared in the damping (convention 1): all six
    observables agree to 1e-12. It is the global formula with |dm| / 2
    replaced by the Hamming distance, one shared field that counts every
    differing qubit with the same sign."""
    squared_hamming(monkeypatch)
    code, logicals = unit_and_logicals()
    got = bloch_and_leakage(code, logicals, theta, phi, NoiseModel("local", 1.0), [gt])[0]
    want = closed_form("local", theta, phi, 1.0, gt)
    assert max(abs(a - b) for a, b in zip(got.values(), want.values())) <= 1e-12


def test_published_local_form_is_no_dephasing_channel(monkeypatch):
    """The unit support is a group of 8 states with coset 0 an index-2
    subgroup, so for any damping k(a ^ b) the character that is +1 on coset
    0 and -1 on coset 1 gives the kernel's eigenvalue sum_{coset 0} k -
    sum_{coset 1} k. The published local leakage fixes both sums (16 p_z at
    theta = 0 and 16 p_x at theta = pi / 2, phi = 0), so that eigenvalue is
    1 + e^{-8 gamma t} - 2 e^{-2 gamma t}, -0.188 at gamma t = 0.1: no
    damping of a ^ b alone (independent symmetric phases per qubit
    included) gives the published form. Under the squared-Hamming kernel
    that gives it, the dense dephased unit-code state at theta = 1.1, phi =
    0.3 has the eigenvalue -0.019."""
    squared_hamming(monkeypatch)
    code, logicals = unit_and_logicals()
    model, gt = NoiseModel("local", 1.0), 0.1
    sums = [16 * closed_form("local", 0.0, 0.0, 1.0, gt).p_z,
            16 * closed_form("local", math.pi / 2, 0.0, 1.0, gt).p_x]
    support = _SparseCodewords(code, logicals.pairs[0][:1]).support  # coset 0, then coset 1
    kernel = decoherence_factor(support[:, None], support, model, gt, code.n)
    assert abs(kernel[0].reshape(2, -1).sum(1) - sums).max() <= 1e-12
    coefficient = sums[0] - sums[1]
    assert abs(coefficient - (1 + math.exp(-8 * gt) - 2 * math.exp(-2 * gt))) <= 1e-12
    assert -0.189 < coefficient < -0.188
    assert abs(np.linalg.eigvalsh(kernel) - coefficient).min() <= 1e-12
    one_l = logical_basis_state(code, logicals, "10")
    psi = prepare_logical_state(1.1, 0.3, codeword_zero(code), one_l).amplitudes
    index = np.arange(1 << code.n, dtype=np.uint64)
    rho = np.outer(psi, np.conj(psi)) * decoherence_factor(index[:, None], index, model, gt, code.n)
    assert -0.020 < np.linalg.eigvalsh(rho).min() < -0.019


def times_i(op):
    """i op."""
    return PauliOperator(op.n, op.x_mask, op.z_mask, op.phase + 1)


@pytest.mark.parametrize("pauli, delta", [(0, 1e-6), (1, 1e-6), (2, 1e-6j)])
def test_expected_raises_on_non_hermitian_forms(pauli, delta, monkeypatch):
    """The frame checks the part of the forms that G discards: one Pauli's
    signs on coset 0 times 1 + delta keep its coefficient constant per coset
    but break F_1 = conj(F_0) on the coset-flipping rows (Xbar, Ybar) or the
    realness of F_0 on the coset-keeping rows (Zbar). The unit code has one
    component, Xbar's, whose first half is coset 0. Building the frame
    raises, and so does the engine, which builds it, even at theta = 0,
    where y is 0 on the flipping rows."""
    code, logicals = unit_and_logicals()
    model = NoiseModel("local", 0.9)
    listing = dephasing._listing

    def perturbed(frame, generators):
        piece, amps, signs = listing(frame, generators)
        signs = signs.astype(complex)
        signs[pauli, : len(amps) // 2] *= 1 + delta
        return piece, amps, signs

    monkeypatch.setattr(dephasing, "_listing", perturbed)
    with pytest.raises(ValueError, match="not Hermitian"):
        _Frame(code, logicals)
    with pytest.raises(ValueError, match="not Hermitian"):
        bloch_and_leakage(code, logicals, 0.0, 0.0, model, [0.3])


@pytest.mark.parametrize("dressed", ["xbar", "zbar"])
def test_expected_raises_on_dressed_logicals(dressed):
    """The frame checks the part of the forms that G discards: an i Xbar
    (which also makes Ybar i times Hermitian) breaks F_1 = conj(F_0) on the
    coset-flipping rows, an i Zbar the realness of F_0 on the coset-keeping
    row, while every coefficient stays constant per coset. Building the
    frame raises, and so does the engine, which builds it, even at theta =
    0, where y is 0 on the flipping rows."""
    code, logicals = unit_and_logicals()
    xbar, zbar = logicals.pairs[0]
    pair = (times_i(xbar), zbar) if dressed == "xbar" else (xbar, times_i(zbar))
    logicals = LogicalSet([pair, *logicals.pairs[1:]])
    model = NoiseModel("local", 0.9)
    with pytest.raises(ValueError, match="not Hermitian"):
        _Frame(code, logicals)
    with pytest.raises(ValueError, match="not Hermitian"):
        bloch_and_leakage(code, logicals, 0.0, 0.0, model, [0.3])


# --- Monte Carlo oracle ----------------------------------------------------------


def test_mc_exact_at_gamma_zero():
    code, logicals = unit_and_logicals()
    model = NoiseModel("local", 0.0)
    rec_mc = monte_carlo_oracle(code, logicals, 1.1, 0.9, model, 0.6, 50, seed=3)
    rec_en = bloch_and_leakage(code, logicals, 1.1, 0.9, model, [0.6])[0]
    for a, b in zip(rec_mc.values(), rec_en.values()):
        assert abs(a - b) < 1e-12


@pytest.mark.parametrize("kind", ["global", "local"])
def test_mc_draws_no_sample_at_phase_scale_zero(kind):
    """At t = 0 and at gamma = 0 every phase is 1, so the kernel is not run
    and each record is v_ref with standard errors 0, bit for bit the
    engine's value (G_ref is the engine's E[G] there); at t > 0 it is run."""
    code, logicals = target_and_logicals("grid_2x2")
    frame = _Frame(code, logicals)
    kernel = frame.kernel(kind)
    calls, moments = [], kernel.moments
    kernel.moments = lambda *args: calls.append(args) or moments(*args)
    points = [(1.1, 0.3), (2.5, 4.0)]
    for model, t in ((NoiseModel(kind, 0.9), 0.0), (NoiseModel(kind, 0.0), 0.7)):
        recs = monte_carlo_grid(code, logicals, points, model, [t], 4097, 3, threads=2,
                                frame=frame)[0]
        engine = [bloch_and_leakage(code, logicals, *p, model, [t])[0] for p in points]
        for rec, want in zip(recs, engine):
            assert list(map(format_float, rec.values())) == list(map(format_float, want.values()))
            assert rec.errors() == (0.0,) * 6
    assert calls == []
    monte_carlo_grid(code, logicals, points, NoiseModel(kind, 0.9), [0.7], 10, 3, frame=frame)
    assert len(calls) == 1


@pytest.mark.parametrize("kind", ["global", "local"])
def test_mc_agrees_with_engine(kind):
    code, logicals = unit_and_logicals()
    model = NoiseModel(kind, 0.8)
    theta, phi, t = 1.9, 2.4, 0.7
    rec_mc = monte_carlo_oracle(
        code, logicals, theta, phi, model, t, 200_000, seed=11
    )
    rec_en = bloch_and_leakage(code, logicals, theta, phi, model, [t])[0]
    for a, b, se in zip(rec_en.values(), rec_mc.values(), rec_mc.errors()):
        assert abs(a - b) <= max(4.0 * se, 1e-12)


def test_mc_deterministic_and_thread_invariant():
    code, logicals = unit_and_logicals()
    model = NoiseModel("local", 0.5)
    args = (code, logicals, 1.1, 0.9, model, 0.6, 40_000)
    rec1 = monte_carlo_oracle(*args, seed=7)
    rec2 = monte_carlo_oracle(*args, seed=7)
    rec4 = monte_carlo_oracle(*args, seed=7, threads=4)
    assert rec1 == rec2 == rec4
    other = monte_carlo_oracle(*args, seed=8)
    assert other != rec1


def test_mc_grid_matches_pointwise():
    code, logicals = unit_and_logicals()
    model = NoiseModel("global", 1.0)
    points = [(0.9, 0.2), (2.0, 4.1)]
    grid = monte_carlo_grid(code, logicals, points, model, [0.5], 20_000, seed=5)[0]
    for (theta, phi), rec in zip(points, grid):
        single = monte_carlo_oracle(
            code, logicals, theta, phi, model, 0.5, 20_000, seed=5
        )
        assert single == rec  # same trajectories, same arithmetic


def box_muller(gen, count):
    """count standard normals from gen's uniforms as the kernels draw them
    (dephasing._normals), here by numpy's log, cos and sin: each two
    uniforms (u_0, u_1) give r (cos 2h, sin 2h) with r = sqrt(-2 log(1 -
    u_0)) and h = pi (u_1 - 1/2); an odd count draws one more uniform."""
    u = gen.random(count + count % 2)
    r, angle = np.sqrt(-2.0 * np.log(1.0 - u[::2])), 2.0 * np.pi * (u[1::2] - 0.5)
    return np.stack([r * np.cos(angle), r * np.sin(angle)], 1).ravel()[:count]


def qubit_classes(spins):
    """The noise fields of the coset kernel, derived from support_spins on
    every support state: the qubits (spin rows; the one global row) whose
    rows relative to state 0 are equal form a class, a constant row is left
    out, and the classes are ordered by their lowest qubit."""
    classes = {}
    for qubit, row in enumerate(spins - spins[:, :1]):
        if row.any():
            classes.setdefault(row.tobytes(), []).append(qubit)
    return list(classes.values())


def class_normals(fields, seed, start, count):
    """(count, fields) standard normals of the batch from sample start, one
    per qubit class: PCG64(seed) advanced by start x stride, the stride the
    class count rounded up to even."""
    gen = np.random.Generator(np.random.PCG64(seed).advance(start * (fields + fields % 2)))
    return box_muller(gen, count * fields).reshape(count, -1)


def per_sample_reference(code, logicals, points, model, t, samples, seed):
    """Monte Carlo means and SEs from the per-sample estimator the coset
    kernel replaces, on the per-qubit model: each qubit of class c gets the
    normal z_c / sqrt(m_c), z_c the class's normal from the kernel's stream
    and m_c its size (a qubit in no class gets 0), and each batch's phases
    are exp(-i normals . spins) over the qubits of the S-state support, in
    pieces of at most 4096 samples; then dense (6, 2, 2) forms from the
    block_coefficients, point_values per sample, and the two-pass mean and
    variance of v. The batches split as the oracle's, on the frame's
    component state count."""
    frame = _Frame(code, logicals)
    terms, cg = block_coefficients(code, logicals)
    spins = support_spins(code, logicals, model.kind)
    classes = qubit_classes(spins)
    spread = np.zeros((len(classes), len(spins)))  # class normal -> its qubits' normals
    for c, qubits in enumerate(classes):
        spread[c, qubits] = 1.0 / math.sqrt(len(qubits))
    batch = max(1, min(MC_BATCH, (MC_BATCH << 5) // frame.size))
    scale = math.sqrt(model.convention * model.gamma * t)
    values = []
    for start in range(0, samples, batch):
        drawn = class_normals(len(classes), seed, start, min(batch, samples - start))
        for piece in np.split(drawn, range(4096, len(drawn), 4096)):
            u = np.exp(-1j * ((piece @ spread * scale) @ spins)).T
            uc = np.conj(u)
            right = (cg @ u).reshape(2, 2, -1)
            forms = np.empty((6, 2, 2, len(piece)), dtype=np.complex128)
            for o, (perm, cr) in enumerate(terms):
                forms[o] = (cr @ (uc[perm] * u)).reshape(2, 2, -1)
                left = (cr @ uc[perm]).reshape(2, 2, -1)
                forms[3 + o] = frame.pc * (left[:, :1] * right[0] + left[:, 1:] * right[1])
            values.append([point_values(forms, theta, phi).real for theta, phi in points])
    v = np.concatenate(values, axis=-1)  # (points, 6, samples)
    means = v.sum(axis=-1) / samples
    var = ((v - means[:, :, None]) ** 2).sum(axis=-1) / (samples - 1)
    return means, np.sqrt(var / samples)


@pytest.mark.parametrize(
    "target, samples",  # batches of 2^21 / size samples, at most 2^16: >= 3, the last
    # ragged, on unit, two_vertical and lshape:2,0 (size 256, 15 fields); one
    # on grid_2x2 (size 24) and lshape:1,1 (size 72)
    [("unit", 3 * MC_BATCH + 4321), ("two_vertical", 3 * MC_BATCH + 999),
     ("grid_2x2", 3 * (1 << 14) + 2500), ("lshape:1,1", 3 * (1 << 12) + 777),
     ("lshape:2,0", 3 * (1 << 13) + 555)],
)
@pytest.mark.parametrize("kind", ["global", "local"])
def test_mc_moments_match_per_sample_reference(target, samples, kind):
    """The point-independent coset moments reproduce the per-sample
    estimator: means to 1e-14, SEs to 1e-9 relative. r_z is constant per
    sample, so both SEs of it are round-off (below 1e-8), checked to 1e-10
    absolute. The reference sums the phases qubit by qubit, each qubit of a
    class of m taking z / sqrt(m) of the class's normal z, so on grid_2x2
    and lshape:1,1, whose classes hold several qubits, this also checks that
    one normal times sqrt(m) per class is the per-qubit model."""
    code, logicals = target_and_logicals(target)
    model = NoiseModel(kind, 0.9)
    points = [(0.4, 0.3), (1.7, 2.2), (2.9, 5.1)]
    recs = monte_carlo_grid(code, logicals, points, model, [0.7], samples, seed=31, threads=2)[0]
    means, ses = per_sample_reference(code, logicals, points, model, 0.7, samples, 31)
    for rec, mean, se in zip(recs, means, ses):
        assert np.abs(np.array(rec.values()) - mean).max() < 1e-14
        for got, want in zip(rec.errors(), se):
            if want > 1e-8:
                assert abs(got - want) <= 1e-9 * want
            else:
                assert abs(got - want) <= 1e-10


# normals per local-noise sample: one per class of qubits touched by the
# same generators (the X-type stabilizers and Xbar), qubits touched by none left out
CLASS_COUNTS = {"unit": 5, "two_vertical": 8, "two_horizontal": 8, "grid_2x2": 13,
                "grid:2": 12, "lshape:1,1": 16}


@pytest.mark.parametrize("name", CLASS_COUNTS)
def test_one_normal_per_qubit_class(name):
    """The local kernels draw one normal per qubit class, the classes
    qubit_classes derives from the spins on every support state, for the
    frame's components and for one component holding every generator; both
    global kernels draw one."""
    code, logicals = named_pair(name)
    frame = _Frame(code, logicals)
    assert len(qubit_classes(support_spins(code, logicals, "local"))) == CLASS_COUNTS[name] < frame.n
    whole = one_component(frame)
    assert frame.kernel("local").fields == _CosetKernel(whole, "local").fields == CLASS_COUNTS[name]
    assert frame.kernel("global").fields == _CosetKernel(whole, "global").fields == 1


@pytest.mark.parametrize("name", ["unit", "two_vertical", "two_horizontal", "grid_2x2",
                                  "unit-zbar-x-dressed"])
def test_skipped_rows_give_sums_of_exactly_zero(name):
    """The phasor kernel multiplies only the nonzero rows of its (12 x 2K)
    matrix, 8 of 12 on the catalog codes, and a skipped Re or Im row adds
    exactly 0 to every moment. The coset kernel leaves out r_z when Zbar is
    undressed, as its constant is G_ref's and D is 0: its moments are
    exactly 0. A dressed Zbar, or a constant that misses G_ref, keeps r_z."""
    frame = named_frame(name)
    phasor = frame.kernel("global")
    if name in CLASS_COUNTS:
        assert len(phasor.order) == 8
    got = phasor.moments(5, 0, 999, [0.8])[0]
    skipped = np.ones(12, dtype=bool)
    skipped[phasor.order] = False
    re, im = skipped.reshape(2, 6)
    assert (got[re & im] == 0).all()
    assert (got[re, 0].real == 0).all() and (got[im, 0].imag == 0).all()
    assert (got[re & ~im, 1].imag == 0).all() and (got[im & ~re, 1].imag == 0).all()
    coset = frame.kernel("local")
    assert (2 in coset.varying) == (name == "unit-zbar-x-dressed")
    got = coset.moments(5, 0, 999, [0.8])[0]
    assert (got[[o for o in range(6) if o not in coset.varying]] == 0).all()
    shifted = frame.expected(NoiseModel("local", 0.0), 0.0) + 1e-3 * np.eye(6)[2]
    frame.expected = lambda model, t: shifted
    assert 2 in _CosetKernel(frame, "local").varying


@pytest.mark.parametrize("target", ["unit", "grid_2x2"])
@pytest.mark.parametrize("kind", ["global", "local"])
def test_mc_se_of_constant_form_is_round_off_free(target, kind):
    """r_z is the same on every sample, so its true SE is 0. The moments are
    centred on the forms at u = 1, so only the rounding of |u|^2 = 1 is
    left: at most 1e-15 over 2^17 samples, where uncentred sums of v and v^2
    gave about 1e-11."""
    code = build_named(target)
    logicals = LogicalSet(code.logical_pairs)
    points = [(1.1, 0.3), (2.5, 4.0)]
    model = NoiseModel(kind, 0.9)
    recs = monte_carlo_grid(code, logicals, points, model, [0.7], 1 << 17, seed=3, threads=2)[0]
    assert all(rec.se_r_z <= 1e-15 for rec in recs)


def test_mc_thread_and_batch_invariant_beyond_unit_cell():
    """grid_2x2 (S = 128, 16 + 8 component states) splits into batches of
    MC_BATCH samples and sub-chunks of 2 MC_CHUNK / (16 + 8) component
    states, rounded down to even; a sample count that is no multiple of
    either gives the same records for any thread count, and a grid equals its
    points run one at a time (two_vertical)."""
    code = build_named("grid_2x2")
    logicals = LogicalSet(code.logical_pairs)
    model = NoiseModel("local", 0.8)
    args = (code, logicals, 1.3, 0.6, model, 0.9, 3 * MC_BATCH + 77)
    assert len({monte_carlo_oracle(*args, seed=4, threads=k) for k in (1, 2, 3)}) == 1
    code = build_named("two_vertical")
    logicals = LogicalSet(code.logical_pairs)
    points = [(0.5, 0.1), (2.2, 3.3), (1.0, 5.9)]
    model = NoiseModel("global", 1.1)
    grid = monte_carlo_grid(code, logicals, points, model, [0.4], 70_001, seed=6, threads=2)[0]
    for (theta, phi), rec in zip(points, grid):
        assert rec == monte_carlo_oracle(code, logicals, theta, phi, model, 0.4, 70_001, seed=6)


def named_pair(name):
    """(code, logicals) of a CLI target, of a DRESSED_UNIT pair on the unit
    code, of a SPANNING pair on two_horizontal or of the NEGATED code."""
    if name == NEGATED:
        code = build_named("two_horizontal")
        negated = parse_pauli("-X7X8X9X10", code.n)
        code = dataclasses.replace(code, stabilizers=tuple(
            negated if s.x_mask == negated.x_mask else s for s in code.stabilizers))
        xbar, zbar = code.logical_pairs[0]
        return code, LogicalSet([(xbar, multiply(zbar, negated)), *code.logical_pairs[1:]])
    if name in DRESSED_UNIT:
        code = build_unit()
        pair = tuple(parse_pauli(text, code.n) for text in DRESSED_UNIT[name])
        return code, LogicalSet([pair, *code.logical_pairs[1:]])
    if name in SPANNING:
        return two_horizontal_pair(*SPANNING[name])
    return target_and_logicals(name)


def named_frame(name):
    """The _Frame of named_pair(name)."""
    return _Frame(*named_pair(name))


PHASOR_CODES = ["unit", "two_horizontal", "two_vertical", "grid_2x2", *DRESSED_UNIT,
                "grid:1", "grid:2", "lshape:0,0", "lshape:1,1"]


@pytest.mark.parametrize("name", PHASOR_CODES)
@pytest.mark.parametrize("scale", [0.8, 1e-2])
def test_phasor_kernel_matches_coset_kernel(name, scale):
    """Global noise: on the same draws, the phasor kernel's moments equal the
    coset kernel's, over two full sub-chunks and a ragged third. The coset
    kernel rounds D = G - G_ref at the size of G, so the sums of D are
    compared relative to count * max |G_ref| and the second moments relative
    to count * max |G_ref| * rms(D), to 1e-13."""
    frame = named_frame(name)
    new, old = _PhasorKernel(frame), _CosetKernel(one_component(frame), "global")
    assert old.fields == 1 and new.size == old.size  # same draws, same batch split
    count = 2 * new.chunk + 37
    got = new.moments(5, 12345, count, [scale])[0]
    want = old.moments(5, 12345, count, [scale])[0]
    size = abs(old.reference).max() * count
    rms = math.sqrt(want[:, 2].real.max() / count)
    assert abs(got[:, 0] - want[:, 0]).max() <= 1e-13 * size
    assert abs(got[:, 1:] - want[:, 1:]).max() <= 1e-13 * size * rms


def test_phasor_kernel_checks_its_folded_forms_at_u_one():
    """The folded polynomials at x = 0 must give G_ref, the engine's E[G] at
    t = 0, which sums the same enumerators another way: a G_ref off by 1e-3
    in one row is refused."""
    frame = named_frame("grid_2x2")
    shifted = frame.expected(NoiseModel("global", 0.0), 0.0) + 1e-3 * np.eye(6)[4]
    frame.expected = lambda model, t: shifted
    with pytest.raises(ValueError, match="folded forms miss G at u = 1"):
        _PhasorKernel(frame)


def long_double_moments(name, seed, start, count, scale):
    """(6, 3) sums of D, D^2 and |D|^2 from the per-sample forms in long
    double for named_pair(name), on the phasor kernel's draws: one normal x
    per sample, u[p] = e^{i x popcount(support[p])} (the common phase
    e^{-i x n / 2} cancels)."""
    gen = np.random.Generator(np.random.PCG64(seed).advance(start * 2))  # stride 2
    x = box_muller(gen, count) * scale
    return long_double_d_moments(name, x[:, None], _popcount(sparse_support(*named_pair(name)))[None, :])


def long_double_local_moments(name, seed, start, count, scale):
    """long_double_moments under local noise, on the coset kernel's draws:
    one normal per qubit class (qubit_classes) and u = e^{-i normals .
    spins}, a class's row of spins its qubits' common row from
    support_spins, relative to state 0, times sqrt(class size)."""
    spins = support_spins(*named_pair(name), "local")
    classes = qubit_classes(spins)
    spins = (spins - spins[:, :1]).astype(np.longdouble)
    rows = np.array([spins[c[0]] * np.sqrt(np.longdouble(len(c))) for c in classes])
    x = class_normals(len(classes), seed, start, count) * scale
    return long_double_d_moments(name, x, -rows)


def long_double_d_moments(name, x, spins):
    """The moments of D in long double for named_pair(name) and u[p] = e^{i x
    . spins[:, p]}, x the (samples, fields) normals, with the coefficients
    of its block_coefficients (each column of a block holds one nonzero
    entry, at the coset of |k_L>): every phase difference enters as e^{i
    theta} - 1 = -2 sin^2(theta / 2) + i sin(theta), theta summed over the
    fields on which its two states differ, so D carries no cancellation
    against G_ref."""
    code, logicals = named_pair(name)
    terms, cg = block_coefficients(code, logicals)
    pc = 2.0 ** (code.m - code.n)
    x, spins = x.astype(np.longdouble), spins.astype(np.longdouble)

    def phase_minus_one(change):
        theta = x @ change
        half = np.sin(theta / 2)
        return -2 * half * half + 1j * np.sin(theta)

    weight = cg.sum(axis=0).astype(np.clongdouble)
    forms = np.zeros((6, 2, len(x)), dtype=np.clongdouble)
    flipping = np.empty(6, dtype=bool)
    right = weight * phase_minus_one(spins)
    for o, (perm, cr) in enumerate(terms):
        coefs = cr.sum(axis=0).astype(np.clongdouble)
        flipping[[o, 3 + o]] = (cr[1] != 0).any()  # <0_L| L |1_L>
        bloch = coefs * phase_minus_one(spins - spins[:, perm])
        left = coefs * phase_minus_one(-spins[:, perm])
        for k in range(2):
            cell = cg[3 * k] != 0  # coset k, where |k_L> lives
            left0, right0 = coefs[cell].sum(), weight[cell].sum()
            dleft, dright = left[:, cell].sum(1), right[:, cell].sum(1)
            forms[o, k] = bloch[:, cell].sum(1)
            forms[3 + o, k] = pc * (dleft * (right0 + dright) + left0 * dright)
    d = _combine(forms, flipping)
    return np.stack([d.sum(-1), (d * d).sum(-1), (d * np.conj(d)).sum(-1)], 1)


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="needs 80-bit long double")
@pytest.mark.parametrize("name, count", [("unit", 20_000), ("two_vertical", 20_000),
                                         ("grid_2x2", 3_000)])
@pytest.mark.parametrize("scale", [1e-3, 1e-5])
def test_phasor_kernel_is_as_accurate_as_coset_kernel(name, count, scale):
    """At small phase scales the coset kernel's D = G - G_ref cancels to
    eps / D, while the phasor kernel builds D from centred phasors. Against a
    long-double reference, each moment column's worst relative error over
    the rows is no larger for the phasor kernel; a row that is 0 (r_z) is 0."""
    frame = named_frame(name)
    want = long_double_moments(name, 3, 777, count, scale)
    zero = want == 0

    def run(kernel):
        got = kernel.moments(3, 777, count, [scale])[0]
        relative = abs(got - want) / np.where(zero, 1, abs(want))
        return got, np.where(zero, 0, relative).astype(float).max(0)

    got, error = run(_PhasorKernel(frame))
    _, coset_error = run(_CosetKernel(one_component(frame), "global"))
    assert (got[zero] == 0).all()
    assert (error <= coset_error).all()


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="needs 80-bit long double")
def test_phase_minus_one_is_accurate_relative_to_its_size():
    """e^{2ih} - 1 from tan h: each part's error is within a few eps of
    |e^{2ih} - 1| = 2 |sin h|, from h ~ 1e-8 (where cos 2h - 1 cancels) to
    h ~ 1e7; offset 1 adds 1 to the real part, exactly."""
    h = np.random.default_rng(0).normal(size=(7, 1000)) * np.logspace(-8, 7, 7)[:, None]
    out = [np.empty(h.shape, dtype=np.complex128) for _ in range(2)]
    for offset, w in enumerate(out):
        _phase_minus_one(h.copy(), w, np.empty(h.shape), float(offset))
    exact = h.astype(np.longdouble)
    want = -2 * np.sin(exact) ** 2 + 1j * np.sin(2 * exact)
    assert (abs(out[0] - want) / (2 * abs(np.sin(exact)))).astype(float).max() < 4e-16
    assert (out[1] == out[0] + 1).all()


def draw_normals(seed, count, start=0):
    """count normals of _normals from PCG64(seed) advanced by start draws."""
    gen = np.random.Generator(np.random.PCG64(seed).advance(start))
    return _normals(gen, np.empty(count), np.empty(3 * (count // 2)))


def test_normals_match_scalar_box_muller():
    """Each pair of uniforms (u_0, u_1) gives r (cos 2h, sin 2h), r =
    sqrt(-2 log(1 - u_0)), h = pi (u_1 - 1/2), to 1e-14 absolute against
    math's log, cos and sin; an odd count keeps the first of the last pair."""
    count = 4097
    u = np.random.Generator(np.random.PCG64(11).advance(5)).random(count + 1).tolist()
    want = []
    for u0, u1 in zip(u[::2], u[1::2]):
        r, angle = math.sqrt(-2.0 * math.log(1.0 - u0)), 2.0 * math.pi * (u1 - 0.5)
        want += [r * math.cos(angle), r * math.sin(angle)]
    assert abs(draw_normals(11, count, 5) - want[:count]).max() <= 1e-14


@pytest.mark.parametrize("cuts", [[2], [4, 6, 1000], [2, 2, 2, 2], [998, 1000], [1500]])
@pytest.mark.parametrize("count", [3001, 3000])
def test_normals_split_at_even_boundaries(cuts, count):
    """Draws cut at even boundaries, each into its own buffers, give the
    one-call normals bit for bit: a normal depends on its position in the
    stream only, also where the last piece is odd or a single pair."""
    gen = np.random.Generator(np.random.PCG64(4))
    edges = [0, *np.cumsum(cuts), count]
    pieces = [_normals(gen, np.empty(hi - lo), np.empty(3 * ((hi - lo) // 2)))
              for lo, hi in zip(edges, edges[1:])]
    assert np.array_equal(np.concatenate(pieces), draw_normals(4, count))


def test_odd_normals_draw_one_extra_uniform_inside_the_batch():
    """An odd count consumes count + 1 uniforms. A batch of the kernels
    starts at advance(start * stride), one 64-bit draw per double, stride
    the field count rounded up to even, so with odd fields (1, 7) and batch
    sizes 1, 3 and 5 each count * fields (+ 1) uniforms of a batch, full or
    a shorter last one, end before the next batch's first."""
    gen = np.random.Generator(np.random.PCG64(9))
    _normals(gen, np.empty(7), np.empty(9))
    stream = np.random.Generator(np.random.PCG64(9)).random(9)
    assert gen.random() == stream[8]
    for fields, batch in itertools.product((1, 7), (1, 3, 5)):
        stride = fields + 1
        words = np.random.Generator(np.random.PCG64(9)).random(3 * batch * stride)
        for count in range(1, batch + 1):
            gen = dephasing._stream(9, batch, fields)  # the second batch
            _normals(gen, np.empty(count * fields), np.empty(3 * (count * fields // 2)))
            end = batch * stride + count * fields + count * fields % 2  # its next uniform
            assert gen.random() == words[end]
            assert end <= 2 * batch * stride  # the third batch's first


def test_normals_are_standard_normal():
    """2^20 fixed-seed normals: mean, variance and kurtosis within five
    standard errors of 0, 1 and 3, and the Kolmogorov-Smirnov distance to
    the normal CDF below its 1% critical value 1.63 / sqrt(N)."""
    n = 1 << 20
    x = draw_normals(2024, n)
    assert abs(x.mean()) <= 5 * math.sqrt(1 / n)
    assert abs(x.var() - 1) <= 5 * math.sqrt(2 / n)
    assert abs((x**4).mean() / x.var() ** 2 - 3) <= 5 * math.sqrt(24 / n)
    x.sort()
    cdf = 0.5 * (1 + np.frompyfunc(math.erf, 1, 1)(x / math.sqrt(2)).astype(float))
    ks = max((np.arange(1, n + 1) / n - cdf).max(), (cdf - np.arange(n) / n).max())
    assert ks < 1.63 / math.sqrt(n)


# (sample count, {scale: worst relative error of the three moment columns})
# of the coset kernel when it built its phases from sin and cos of the full
# angles, against long_double_local_moments on the draws (seed 3, start 777)
LOCAL_ERRORS = {
    "unit": (20_000, {0.8: 2.0e-16, 1e-3: 1.6e-12, 1e-5: 1.1e-8}),
    "two_vertical": (20_000, {0.8: 6.0e-16, 1e-3: 1.5e-10, 1e-5: 1.5e-6}),
    "grid_2x2": (3_000, {0.8: 2.3e-16, 1e-3: 1.4e-11, 1e-5: 1.5e-7}),
    "unit-zbar-x-dressed": (20_000, {0.8: 2.1e-16, 1e-3: 1.4e-12, 1e-5: 8.8e-9}),
}


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="needs 80-bit long double")
@pytest.mark.parametrize("name", LOCAL_ERRORS)
@pytest.mark.parametrize("scale", [0.8, 1e-3, 1e-5])
def test_coset_kernel_tan_phases_keep_sin_cos_accuracy(name, scale):
    """Local noise: phases from tan half-angles leave each moment column's
    worst relative error against a long-double reference within twice that
    of sin and cos; at small scales both are set by D = G - G_ref cancelling
    to eps / D. Entries that are 0 in the reference (r_z when Zbar is
    diagonal) hold round-off only and are not compared."""
    frame = named_frame(name)
    count, errors = LOCAL_ERRORS[name]
    want = long_double_local_moments(name, 3, 777, count, scale)
    got = _CosetKernel(one_component(frame), "local").moments(3, 777, count, [scale])[0]
    zero = want == 0
    relative = np.where(zero, 0, abs(got - want) / np.where(zero, 1, abs(want)))
    assert relative.astype(float).max() <= 2 * errors[scale]


# sorted component sizes of the frame (X-type stabilizers, then Xbar) and of
# the X-type stabilizers alone, from the join on the generators' qubit columns
FRAME_COMPONENTS = {"unit": [3], "two_vertical": [4], "two_horizontal": [2, 3],
                    "grid_2x2": [3, 4], "grid:2": [3, 4], "lshape:1,1": [3, 6],
                    "lshape:1,4": [3, 3, 3, 3, 6]}
X_COMPONENTS = {"grid:1": [2], "grid:2": [3, 3], "grid:3": [4, 4, 4],
                "lshape:0,5": [3] * 6, "lshape:6,6": [3] * 6 + [15]}


def x_stabilizers(code):
    return [s for s in code.stabilizers if s.x_mask]


@pytest.mark.parametrize("name", FRAME_COMPONENTS)
def test_frame_components_put_xbar_first(name):
    """The frame's components partition its generators, each ascending;
    Xbar, the last generator, is the top bit of the first component."""
    frame = named_frame(name)
    parts = frame.components
    assert sorted(map(len, parts)) == FRAME_COMPONENTS[name]
    generators = len(frame.generators)
    assert sorted(g for part in parts for g in part) == list(range(generators))
    assert all(part == sorted(part) for part in parts)
    assert parts[0][-1] == generators - 1


@pytest.mark.parametrize("name", X_COMPONENTS)
def test_x_stabilizer_components(name):
    code = _parse_target(name)
    assert sorted(map(len, _components(x_stabilizers(code)))) == X_COMPONENTS[name]


def union_find_components(generators):
    """_components by one union-find over every pair of generators: i and j
    join when their x-masks overlap or the z-mask of one meets the x-mask
    of the other. Classes ascending, the last generator's first, then the
    others by descending last index."""
    parent = list(range(len(generators)))

    def find(i):
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        return i

    for i, a in enumerate(generators):
        for j, b in enumerate(generators[:i]):
            if a.x_mask & (b.x_mask | b.z_mask) or a.z_mask & b.x_mask:
                parent[find(i)] = find(j)
    classes = {}
    for i in range(len(generators)):
        classes.setdefault(find(i), []).append(i)
    return sorted(classes.values(), key=lambda part: -part[-1])


@pytest.mark.parametrize("name", [*NAMED_CODES, *(f"grid:{p}" for p in range(1, 15)),
                                  *(f"lshape:{v},{h}" for v in range(7) for h in range(7))])
def test_components_equal_the_pairwise_union_find(name):
    """The join on qubit columns gives the pairwise union-find's classes, in
    its order, on the X-type stabilizers alone and with the designated Xbar
    (transcribed, else synthesized)."""
    code, logicals = target_and_logicals(name)
    generators = x_stabilizers(code)
    for ops in (generators, generators + [logicals.pairs[0][0]]):
        assert _components(ops) == union_find_components(ops)


def test_components_join_on_z_meeting_x():
    """A Y-dressed Xbar whose z-part stays on its own component keeps the
    two_horizontal split; one whose z-part meets the other component's
    x-masks joins the two. Both equal the pairwise union-find's classes."""
    code = build_named("two_horizontal")
    xbar = code.logical_pairs[0][0]
    kept, joined = (multiply(xbar, parse_pauli(text, code.n)) for text in ("Z2Z4Z6", "Z8Z10Z12"))
    assert kept.x_mask & kept.z_mask  # Y factors
    assert _components(x_stabilizers(code) + [kept]) == [[0, 1, 4], [2, 3]]
    assert _components(x_stabilizers(code) + [joined]) == [[0, 1, 2, 3, 4]]
    for dressed in (kept, joined):
        ops = x_stabilizers(code) + [dressed]
        assert _components(ops) == union_find_components(ops)


def test_an_xbar_that_meets_no_x_mask_is_its_own_component():
    """On the unit code widened by a seventh qubit that no stabilizer
    touches, Xbar = Z7 (paired with Zbar = X7) has no X, and its Z lies
    where no generator has an X: no qubit column joins it, so _components
    keeps it as its own class, first, as the pairwise union-find does, and
    the frame refuses it (it shifts no state) rather than dephasing a frame
    that leaves Xbar out."""
    code = CodeSpec(7, tuple(parse_pauli(str(s), 7) for s in build_unit().stabilizers))
    xbar, zbar = parse_pauli("Z7", 7), parse_pauli("X7", 7)
    ops = x_stabilizers(code) + [xbar]
    assert _components(ops) == union_find_components(ops) == [[2], [0, 1]]
    with pytest.raises(ValueError, match="coset collision"):
        _Frame(code, LogicalSet([(xbar, zbar)]))


def two_horizontal_pair(xbar_dressing, zbar_dressing):
    """two_horizontal with its first pair's Xbar and Zbar times the given
    stabilizers: (code, logicals)."""
    code = build_named("two_horizontal")
    xbar, zbar = code.logical_pairs[0]
    xbar = multiply(xbar, parse_pauli(xbar_dressing, code.n)) if xbar_dressing else xbar
    zbar = multiply(zbar, parse_pauli(zbar_dressing, code.n))
    return code, LogicalSet([(xbar, zbar), *code.logical_pairs[1:]])


# two_horizontal pairs whose logical shifts span both components: Zbar times
# an X-stabilizer of the component without Xbar, and the same with Xbar
# carrying Y factors
SPANNING = {"two_horizontal-zbar-x-dressed": (None, "X7X8X9X10"),
            "two_horizontal-xbar-y-dressed": ("Z2Z4Z6", "X9X10X11X12")}
# two_horizontal with its X-stabilizer X7X8X9X10 negated and Zbar dressed by
# it: the component without Xbar has amplitudes -1, and Zbar's factor there
# is -1
NEGATED = "two_horizontal-negated-zbar-x-dressed"


def listed_part(frame, generators):
    """The component of the frame's generators with these indices listed
    as qubit masks, the reference for _listing: (place, masks, amps, signs,
    shifts). place maps a qubit mask onto the component's own bits (other
    qubits dropped, its qubits renumbered upwards from bit 0), masks are
    its states (engine._states on the generators placed so, as 64-qubit
    Paulis), per logical Pauli L (Xbar, Ybar, Zbar) signs holds (-1)^|mask &
    z| there, and shifts the index of the state that is L's x-mask there
    (None where no state is)."""
    ops = [frame.generators[g] for g in generators]
    span = dephasing._span(ops)
    qubits = {low: 1 << j for j, low in enumerate(_set_bits(span))}

    def place(mask):
        return sum(qubits[low] for low in _set_bits(mask & span))

    masks, amps = _states([PauliOperator(64, place(g.x_mask), place(g.z_mask), g.phase) for g in ops])
    x, z = np.array([(place(L.x_mask), place(L.z_mask)) for L in frame.paulis], dtype=np.uint64).T
    signs = 1.0 - 2.0 * (np.bitwise_count(masks & z[:, None]) & 1)
    hits = masks == x[:, None]
    shifts = [int(i) if hit else None for i, hit in zip(hits.argmax(1), hits.any(1))]
    return place, masks, amps, signs, shifts


def listed_steps(frame, kind, generators):
    """The step tables of _Component built from listed_part's masks: spins
    per class the component holds (the bit of its lowest qubit, times the
    square root of its size), or the popcount under global noise."""
    place, masks, _, _, _ = listed_part(frame, generators)
    if kind == "global":
        own, spins = np.zeros(1, dtype=int), _popcount(masks)[None, :].astype(np.float64)
    else:
        columns = pauli.qubit_columns(frame.generators, frame.n)[0]
        classes = [(1 << columns.index(c), columns.count(c)) for c in dict.fromkeys(columns) if c]
        own = np.array([f for f, (low, _) in enumerate(classes) if place(low)], dtype=int)
        bits = np.array([place(classes[f][0]) for f in own], dtype=np.uint64)
        spins = ((masks & bits[:, None]) != 0) * np.sqrt([classes[f][1] for f in own])[:, None]
    steps, lo, size = [], 1, len(masks)
    hi = size if kind == "global" else min(size, dephasing.MC_DIRECT)
    while lo < size:
        change = spins[:, lo:hi] - (spins[:, : hi - lo] if lo > 1 else 0.0)
        rows = np.flatnonzero(np.any(change, axis=1))
        table, index = np.unique(change[rows].T, axis=0, return_inverse=True)
        steps.append((lo, hi, own[rows], 0.5 * table, index.ravel()))
        lo, hi = hi, 2 * hi
    return steps


@pytest.mark.parametrize("name", [*NAMED_CODES, *(f"grid:{p}" for p in range(1, 5)),
                                  *(f"lshape:{v},{h}" for v in range(3) for h in range(3)),
                                  *DRESSED_UNIT, *SPANNING, NEGATED])
def test_listing_equals_the_mask_listing(name):
    """On every component, the states as sets of generators give what the
    qubit-mask listing gives, exactly: amplitudes, signs and shifts; the
    popcounts W (_popcounts, from the classes) and the levels of N, |c &
    x| = (|c| + |x| - |c ^ x|) / 2, c ^ x being state i ^ shift; and the
    kernel's step tables under both noise kinds, array by array."""
    frame = named_frame(name)
    kernels = {kind: _CosetKernel(frame, kind) for kind in KINDS}
    for c, generators in enumerate(frame.components):
        (fields, columns, sizes, shifts), amps, signs = dephasing._listing(frame, generators)
        _, masks, want_amps, want_signs, want_shifts = listed_part(frame, generators)
        assert np.array_equal(amps, want_amps) and np.array_equal(signs, want_signs)
        assert shifts == want_shifts and frame.parts[c] == (fields, columns, sizes, shifts)
        w = dephasing._popcounts(columns, sizes, len(amps))
        assert np.array_equal(w, _popcount(masks))
        for s in (s for s in shifts if s is not None):
            levels = (w + w[s] - w[np.arange(len(amps)) ^ s]) // 2
            assert np.array_equal(levels, _popcount(masks & masks[s]))
        for kind, kernel in kernels.items():
            for got, want in zip(kernel.parts[c].steps, listed_steps(frame, kind, generators), strict=True):
                assert all(np.array_equal(a, b) for a, b in zip(got, want, strict=True))


@pytest.mark.parametrize("name", ["unit", "two_vertical"])
@pytest.mark.parametrize("kind", ["global", "local"])
def test_one_component_kernel_is_the_reference_bit_for_bit(name, kind):
    """A code whose generators form one component runs the S-sized kernel's
    operations one for one: the moments are equal bit for bit over two full
    sub-chunks and a ragged third."""
    frame = named_frame(name)
    assert len(frame.components) == 1
    new, old = _CosetKernel(frame, kind), _CosetKernel(one_component(frame), kind)
    count = 2 * new.chunk + 37
    for scale in (0.8, 1e-3):
        got = new.moments(5, 12345, count, [scale])[0]
        want = old.moments(5, 12345, count, [scale])[0]
        assert np.array_equal(got, want)


@pytest.mark.parametrize("name", ["two_horizontal", "grid_2x2", "grid:2", "lshape:1,1", *SPANNING])
@pytest.mark.parametrize("kind", ["global", "local"])
def test_component_kernel_matches_reference(name, kind):
    """On the same draws the component product gives the S-sized kernel's
    moments to 1e-12 of each column's largest entry, at scale 0.8, over two
    full sub-chunks and a ragged third; the draws and batch split match."""
    frame = named_frame(name)
    assert len(frame.components) == 2
    new, old = _CosetKernel(frame, kind), _CosetKernel(one_component(frame), kind)
    assert (new.fields, new.size) == (old.fields, old.size)
    assert new.chunk > old.chunk
    count = 2 * new.chunk + 37
    got = new.moments(5, 12345, count, [0.8])[0]
    want = old.moments(5, 12345, count, [0.8])[0]
    assert (abs(got - want) / abs(want).max(0)).max() <= 1e-12


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="needs 80-bit long double")
@pytest.mark.parametrize("name, count", [("two_horizontal", 5_000), ("grid_2x2", 3_000),
                                         ("grid:2", 3_000), ("lshape:1,1", 1_000),
                                         *((name, 5_000) for name in SPANNING)])
@pytest.mark.parametrize("scale", [1e-3, 1e-5])
def test_component_kernel_keeps_the_reference_accuracy(name, count, scale):
    """Local noise at small scales: against the long-double reference, the
    component kernel's worst relative moment error stays within twice the
    S-sized kernel's on the same draws, and within twice LOCAL_ERRORS where
    that records the code (grid_2x2). Entries that are 0 in the reference
    are not compared."""
    frame = named_frame(name)
    want = long_double_local_moments(name, 3, 777, count, scale)
    zero = want == 0

    def error(kernel):
        got = kernel.moments(3, 777, count, [scale])[0]
        return np.where(zero, 0, abs(got - want) / np.where(zero, 1, abs(want))).astype(float).max()

    got = error(frame.kernel("local"))
    assert got <= 2 * error(_CosetKernel(one_component(frame), "local"))
    if name in LOCAL_ERRORS:
        assert got <= 2 * LOCAL_ERRORS[name][1][scale]


@pytest.mark.parametrize("name", ["unit", "two_vertical", "grid_2x2", "grid:2", "grid:3",
                                  "lshape:0,1", "lshape:1,0", "lshape:1,1", *DRESSED_UNIT,
                                  *SPANNING, NEGATED])
def test_coefficients_are_one_constant_per_coset(name):
    """The fact the coset kernel rests on: a verified logical Pauli maps
    |k_L> onto a phase times |k'_L>, and every codeword amplitude has the
    modulus sqrt(2 / S), so each form's coefficient is one constant on each
    coset, exactly, and so is the weight, 2 / S up to the rounding of the
    amplitude's square. Transcribed (catalog), synthesized (grid, lshape),
    Y-dressed Xbar and X-dressed Zbar pairs. The coefficients come from the
    block_coefficients. The frame builds its constants from unit amplitudes
    per component, so they are exact: its weight is 2 / S and each
    coef / weight is a unit in {1, i, -1, -i}, equal to the blocks' constant
    divided by their weight and rounded; the blocks' constants, which round,
    are within 1e-15 of it."""
    code, logicals = named_pair(name)
    terms, cg = block_coefficients(code, logicals)
    weight = cg.sum(axis=0)
    assert (weight == weight[0]).all()
    assert abs(weight[0] - 2.0 / len(weight)) <= 1e-15 * weight[0].real
    coefs = np.array([cr.sum(axis=0) for _, cr in terms]).reshape(3, 2, -1)  # per coset
    assert (coefs == coefs[:, :, :1]).all()
    frame = _Frame(code, logicals)
    assert frame.weight == 2.0 / len(weight)
    units = frame.coef / frame.weight
    assert np.isin(units, [1, 1j, -1, -1j]).all()
    assert np.array_equal(units, np.round(coefs[:, :, 0] / weight[0]))
    assert abs(coefs[:, :, 0] / weight[0] - units).max() <= 1e-15


def support_engine(code, logicals, model, t):
    """(6,) E[G] from the S-state support of _SparseCodewords, the sums the
    frame's enumerators replace: per logical Pauli (perm, sign) from
    signed_permutation and its block constant at each coset's first state;
    Bloch F_k the sum of K(c ^ s, c) over coset k, leakage F_k = pc (2/S)
    T[k ^ flip, k], T under local noise (S/2) times the coset sums of K(., 0)
    and under global noise hist K hist^T of the per-coset popcount
    histograms."""
    words = _SparseCodewords(code, logical_paulis(logicals)[:1])
    support, half, n = words.support, len(words.support) // 2, code.n
    if model.kind == "local":
        sums = decoherence_factor(support, 0, model, t, n).reshape(2, -1).sum(-1)
        table = half * np.array([sums, sums[::-1]])  # [j, k] -> (S/2) sums[j ^ k]
    else:
        hist = np.array([np.bincount(w, minlength=n + 1) for w in _popcount(support).reshape(2, -1)])
        reps = np.array([(1 << w) - 1 for w in range(n + 1)], dtype=np.uint64)
        table = hist @ decoherence_factor(reps[:, None], reps, model, t, n) @ hist.T
    forms, flipping = np.empty((6, 2), dtype=np.complex128), np.empty(6, dtype=bool)
    for o, op in enumerate(logical_paulis(logicals)):
        perm, sign = signed_permutation(words, op)
        coef = (np.conj(words.amps[perm]) * sign * words.amps).reshape(2, -1)[:, 0]
        flipping[[o, 3 + o]] = flip = perm[0] >= half
        damped = decoherence_factor(support[perm], support, model, t, n).reshape(2, -1).sum(-1)
        forms[o] = coef * damped
        forms[3 + o] = 2.0 ** (code.m - code.n) / half * coef * table[np.arange(2) ^ flip, np.arange(2)]
    return _combine(forms, flipping)


ENGINE_CODES = ["unit", "two_vertical", "two_horizontal", "grid_2x2", "grid:1", "grid:2",
                "grid:3", *(f"lshape:{v},{h}" for v in range(3) for h in range(4)),
                "lshape:1,4", "lshape:0,5", *DRESSED_UNIT, *SPANNING, NEGATED]


@pytest.mark.parametrize("name", ENGINE_CODES)
@pytest.mark.parametrize("kind", ["global", "local"])
def test_component_engine_equals_support_engine(name, kind):
    """The frame's engine, built from per-component weight enumerators,
    equals the S-state support engine to 1e-12 at conventions 1 and 2 and t
    in {0, 0.3, 1.7}: transcribed (catalog), synthesized (grid, lshape),
    dressed and spanning pairs, S up to 2^18 (lshape:1,4), and a component
    other than Xbar's whose factor is -1 (NEGATED)."""
    code, logicals = named_pair(name)
    frame = _Frame(code, logicals)
    for convention in (1.0, 2.0):
        model = NoiseModel(kind, 0.9, convention)
        for t in (0.0, 0.3, 1.7):
            assert abs(frame.expected(model, t) - support_engine(code, logicals, model, t)).max() <= 1e-12


@pytest.mark.parametrize("target", ["grid:4", "grid:6", "lshape:6,6"])
@pytest.mark.parametrize("kind", ["global", "local"])
def test_mc_agrees_with_engine_past_the_support(target, kind):
    """On codes whose S-state support no longer fits (grid:4, n = 72; grid:6,
    n = 156; lshape:6,6, S = 2^34), the Monte Carlo means agree with the
    engine within 5 standard errors at two points, also on the leakage
    rows, which are below 1e-13 there (r_z, constant per sample, has SE 0
    and matches to round-off)."""
    code, logicals = target_and_logicals(target)
    frame = _Frame(code, logicals)
    model = NoiseModel(kind, 0.9)
    points = [(1.1, 0.3), (2.5, 4.0)]
    samples = 1000 if target == "lshape:6,6" and kind == "local" else 20_000
    recs = monte_carlo_grid(code, logicals, points, model, [0.7], samples, 5, frame=frame)[0]
    for (theta, phi), rec in zip(points, recs):
        want = bloch_and_leakage(code, logicals, theta, phi, model, [0.7], frame=frame)[0]
        for a, b, se in zip(want.values(), rec.values(), rec.errors()):
            assert abs(a - b) <= 5 * se + 1e-15 * abs(a)


@pytest.mark.parametrize("name", ["unit-zbar-x-dressed", "two_horizontal-zbar-x-dressed"])
def test_mc_matches_per_sample_reference_on_dressed_zbar(name):
    """An X-dressed Zbar shifts the support without flipping the coset, so
    the kernel forms quadratic sums at more than one nonzero shift (on the
    first component, or on the other one): the means still match the
    per-sample estimator to 1e-14 and the SEs to 1e-9 relative."""
    code, logicals = named_pair(name)
    frame = _Frame(code, logicals)
    shifts = [len(part.shifts) for part in frame.kernel("local").parts]
    assert sum(shifts) >= 2
    model = NoiseModel("local", 0.9)
    points = [(0.4, 0.3), (1.7, 2.2)]
    samples = MC_BATCH + 999
    recs = monte_carlo_grid(code, logicals, points, model, [0.7], samples, seed=17, threads=2)[0]
    means, ses = per_sample_reference(code, logicals, points, model, 0.7, samples, 17)
    for rec, mean, se in zip(recs, means, ses):
        assert np.abs(np.array(rec.values()) - mean).max() < 1e-14
        for got, want in zip(rec.errors(), se):
            assert abs(got - want) <= (1e-9 * want if want > 1e-8 else 1e-10)


def test_component_kernel_checks_its_factors(monkeypatch):
    """One amplitude of Xbar's two_horizontal component off by 1e-6 relative
    leaves each logical Pauli's factor there no longer constant on its
    coset, and the frame, which keeps one constant per coset for the
    kernels, refuses it. _part lists each component on renumbered
    generators, so Xbar's is told by its generator count: 3 there, against
    2 on the other component."""
    code, logicals = named_pair("two_horizontal")
    frame = _Frame(code, logicals)
    assert [len(part) for part in frame.components] == [3, 2]
    states = dephasing._states

    def perturbed(generators):
        masks, amps = states(generators)
        if len(generators) == len(frame.components[0]):  # Xbar's component
            amps[3] *= 1 + 1e-6  # state 3: neither half's first state
        return masks, amps

    monkeypatch.setattr(dephasing, "_states", perturbed)
    with pytest.raises(ValueError, match="not constant per coset"):
        _Frame(code, logicals)


def test_mc_thread_pool_is_capped_by_batches_and_cores(monkeypatch):
    """The pool runs min(threads, batches, usable cores) threads, and the
    records stay the same for every pool size."""
    import concurrent.futures

    sizes = []

    class Pool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Pool)
    code, logicals = unit_and_logicals()
    args = (code, logicals, [(1.1, 0.3)], NoiseModel("global", 0.9), [0.7])
    records = {}
    for cores, threads, batches in ((1, 4, 4), (3, 8, 4), (8, 8, 4), (8, 2, 4), (8, 8, 2)):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cores: set(range(n)))
        samples = (batches - 1) * MC_BATCH + 5
        records.setdefault(batches, []).append(
            monte_carlo_grid(*args, samples, 13, threads=threads))
    assert sizes == [1, 3, 4, 2, 2]
    assert records[4] == [records[4][0]] * 4


@pytest.mark.parametrize("target", ["unit", "grid_2x2", "lshape:1,1"])
@pytest.mark.parametrize("kind", ["global", "local"])
def test_mc_sweep_shares_one_kernel_across_t(target, kind, monkeypatch):
    """Calls at several t on one frame equal fresh single-t calls bit for
    bit, and the frame builds one kernel per noise kind, on first use: a
    _PhasorKernel for global noise and a _CosetKernel for local."""
    built = []

    def counted(name):
        class Counted(getattr(dephasing, name)):
            def __init__(self, *args):
                built.append(name)
                super().__init__(*args)

        return Counted

    for name in ("_CosetKernel", "_PhasorKernel"):
        monkeypatch.setattr(dephasing, name, counted(name))
    classes = {"global": "_PhasorKernel", "local": "_CosetKernel"}
    other = "local" if kind == "global" else "global"
    code, logicals = target_and_logicals(target)
    frame = _Frame(code, logicals)
    assert built == []
    model = NoiseModel(kind, 0.7)
    t_grid = [0.0, 0.35, 1.2]
    point = [(1.1, 0.3)]
    sweep = [
        monte_carlo_grid(code, logicals, point, model, [t], 5001, 9, threads=2, frame=frame)[0][0]
        for t in t_grid
    ]
    assert built == [classes[kind]]
    monte_carlo_grid(code, logicals, point, NoiseModel(other, 0.7), [0.5], 10, 9, frame=frame)
    assert frame.kernel(kind) is frame.kernel(kind)
    assert built == [classes[kind], classes[other]]
    assert sweep == [
        monte_carlo_oracle(code, logicals, 1.1, 0.3, model, t, 5001, seed=9) for t in t_grid
    ]


@pytest.mark.parametrize("target", ["unit", "two_horizontal", "lshape:1,1"])
@pytest.mark.parametrize("kind", ["global", "local"])
def test_moments_over_scales_equal_single_scale_calls(target, kind):
    """One call over several scales reuses each sub-chunk's normals and
    returns, row for row, the single-scale calls bit for bit, over two full
    sub-chunks and a ragged third, with a repeated scale."""
    kernel = _Frame(*target_and_logicals(target)).kernel(kind)
    scales = [0.8, 1e-3, 2.5, 0.8]
    count = 2 * kernel.chunk + 37
    got = kernel.moments(5, 12345, count, scales)
    assert got.shape == (len(scales), 6, 3)
    assert np.array_equal(got, np.stack([kernel.moments(5, 12345, count, [s])[0] for s in scales]))


@pytest.mark.parametrize("kind", ["global", "local"])
def test_mc_grid_over_t_equals_one_element_grids(kind):
    """A grid over several t, one of them 0, gives each t the records of a
    one-element grid and of monte_carlo_oracle bit for bit, for threads 1, 2
    and 3 over batches of which the last is ragged; so it does at gamma = 0,
    where no t draws a sample."""
    code, logicals = target_and_logicals("grid_2x2")
    frame = _Frame(code, logicals)
    points = [(1.1, 0.3), (2.5, 4.0)]
    t_grid = [0.4, 0.0, 1.3, 0.4]
    samples = 2 * MC_BATCH + 77  # grid_2x2: 16 + 8 component states, batches of MC_BATCH
    for gamma in (0.8, 0.0):
        model = NoiseModel(kind, gamma)
        single = [monte_carlo_grid(code, logicals, points, model, [t], samples, 6, frame=frame)[0]
                  for t in t_grid]
        for threads in (1, 2, 3):
            assert monte_carlo_grid(code, logicals, points, model, t_grid, samples, 6,
                                    threads=threads, frame=frame) == single
        assert single == [[monte_carlo_oracle(code, logicals, *p, model, t, samples, seed=6)
                           for p in points] for t in t_grid]


@pytest.mark.parametrize(
    "gamma, t_grid",
    [(0.7, [0.5, -0.1]), (0.7, [0.0, math.nan, 0.5]), (0.7, [0.5, math.inf]),
     (1e300, [0.0, 1e10])],
)
def test_mc_grid_checks_every_t_before_sampling(gamma, t_grid):
    """A negative or non-finite t, or a gamma * t that overflows, anywhere in
    the grid raises ValueError before the kernel draws a sample."""
    code, logicals = unit_and_logicals()
    frame = _Frame(code, logicals)
    kernel = frame.kernel("local")
    calls, moments = [], kernel.moments
    kernel.moments = lambda *args: calls.append(args) or moments(*args)
    with pytest.raises(ValueError):
        monte_carlo_grid(code, logicals, [(1.1, 0.3)], NoiseModel("local", gamma), t_grid, 100, 3,
                         frame=frame)
    assert calls == []


def test_mc_runs_without_sched_getaffinity(monkeypatch):
    """Where os has no sched_getaffinity (macOS, Windows) the pool is capped
    by os.cpu_count() instead, and the records are unchanged."""
    code, logicals = unit_and_logicals()
    args = (code, logicals, [(1.1, 0.3)], NoiseModel("local", 0.9), [0.0, 0.7])
    want = monte_carlo_grid(*args, 2 * MC_BATCH + 5, 13, threads=2)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert dephasing._usable_cores() == (os.cpu_count() or 1)
    assert monte_carlo_grid(*args, 2 * MC_BATCH + 5, 13, threads=2) == want


# --- CSV formatting ---------------------------------------------------------------


def test_format_float_round_trips():
    for v in (0.1, 1 / 3, 2.5e-17, -0.0, 123456.789):
        assert float(format_float(v)) == v


def test_sweep_row_shape():
    rec = closed_form("global", 1.0, 2.0, 1.0, 0.5)
    row = sweep_row(rec, 1.0, 1.0, 2.0, "global", "closed_form")
    fields = row.split(",")
    assert len(fields) == 18
    assert fields[4:6] == ["global", "closed_form"]
    assert fields[12:] == [""] * 6  # no standard errors for analytic sources
