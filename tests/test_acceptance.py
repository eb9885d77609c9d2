"""Acceptance suite: one test (or test group) per shipped criterion.

Every assertion states the claimed value verbatim. Where an independent
recomputation contradicts a claimed code distance, the test is left to
fail honestly rather than weakened; see the README section on
verification findings for the witnesses.
"""

import math
import time

import pytest

from rhombuscode.cli import main as cli_main
from rhombuscode.dephasing import (
    NoiseModel,
    _Frame,
    bloch_and_leakage,
    closed_form,
    monte_carlo_grid,
)
from rhombuscode.engine import (
    LogicalSet,
    codeword_zero,
    distance_kl_oracle,
    distance_symplectic,
    find_logical_set,
    logical_basis_state,
    stabilizer_rank,
    verify_logical_set,
)
from rhombuscode.lattice import (
    build_named,
    build_unit,
    family_parameters,
    stack_grid,
    stack_l_shape,
)
from rhombuscode.pauli import apply, commutes, parse_pauli
from rhombuscode.states import PureState

NAMED_PARAMS = [
    ("unit", 6, 2, 2),
    ("two_horizontal", 12, 5, 2),
    ("two_vertical", 10, 3, 3),
    ("grid_2x2", 20, 8, 3),
]

THETAS = [0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4, math.pi]
PHIS = [0.0, math.pi / 3, math.pi / 2, math.pi, 3 * math.pi / 2]
GAMMA_TS = [0.0, 0.1, 0.5, 1.0, 5.0]


# --- criterion 1: code-parameter reproduction [[n,k,d]] -----------------------


@pytest.mark.parametrize("name,n,k,d", NAMED_PARAMS)
def test_criterion1_code_parameters(name, n, k, d):
    code = build_named(name)
    assert code.n == n
    rank = stabilizer_rank(code)
    assert code.n - rank == k
    d_sym, _ = distance_symplectic(code, w_max=4)
    d_kl, _ = distance_kl_oracle(code, find_logical_set(code), w_max=4)
    assert d_sym == d_kl  # the two methods must agree exactly
    assert d_sym == d


def test_criterion1_runtime_budget():
    started = time.monotonic()
    for name, _, _, _ in NAMED_PARAMS:
        code = build_named(name)
        distance_symplectic(code, w_max=4)
        distance_kl_oracle(code, find_logical_set(code), w_max=4)
    assert time.monotonic() - started < 5.0


# --- criterion 2: codeword exactness ------------------------------------------


def test_criterion2_codeword_zero_exact():
    # (|000000> + |001111> + |111100> + |110011>)/2, qubit 1 leftmost
    state = codeword_zero(build_unit()).amplitudes
    support = {0b000000, 0b111100, 0b001111, 0b110011}
    want = {int(f"{b:06b}"[::-1], 2) for b in support}  # qubit i+1 -> bit i
    for idx in range(64):
        assert state[idx] == (0.5 if idx in want else 0.0)


def test_criterion2_codeword_one_exact():
    # (|101000> + |100111> + |010100> + |011011>)/2
    code = build_unit()
    state = logical_basis_state(code, LogicalSet(code.logical_pairs), "10").amplitudes
    support = {0b101000, 0b100111, 0b010100, 0b011011}
    want = {int(f"{b:06b}"[::-1], 2) for b in support}
    for idx in range(64):
        assert state[idx] == (0.5 if idx in want else 0.0)


# --- criterion 3: transcribed logical sets -------------------------------------


@pytest.mark.parametrize("name", [p[0] for p in NAMED_PARAMS])
def test_criterion3_transcribed_logicals_verify(name):
    code = build_named(name)
    report = verify_logical_set(code, LogicalSet(code.logical_pairs))
    assert report.logical_violations == []
    assert report.degenerate == []


# --- criterion 4: family scaling ------------------------------------------------


@pytest.mark.parametrize("p", [1, 2, 3])
def test_criterion4_grid_counts(p):
    code = stack_grid(p)
    fam = family_parameters(p)
    assert code.n == fam.n == 2 * p * (2 * p + 1)
    assert code.m == fam.m == 2 * p * (p + 1)
    assert code.n - stabilizer_rank(code) == fam.k == 2 * p * p


@pytest.mark.parametrize("p,d", [(1, 2), (2, 3), (3, 3)])
def test_criterion4_grid_distances(p, d):
    found, _ = distance_symplectic(stack_grid(p), w_max=max(d, 4) if p < 3 else 3)
    assert found == d


@pytest.mark.parametrize("v", range(4))
@pytest.mark.parametrize("h", range(4))
def test_criterion4_l_shape_counts(v, h):
    code = stack_l_shape(v, h)
    assert code.n == 10 + 8 * v + 10 * h
    assert code.m == 7 + 6 * v + 5 * h
    assert code.n - stabilizer_rank(code) == 3 + 2 * v + 5 * h


@pytest.mark.parametrize("v,h,d", [(0, 0, 3), (0, 1, 3), (1, 0, 4)])
def test_criterion4_l_shape_distances(v, h, d):
    found, _ = distance_symplectic(stack_l_shape(v, h), w_max=d)
    assert found == d


# --- criterion 5: global dephasing closed form -----------------------------------


def test_criterion5_global_closed_form_grid():
    code = build_unit()
    logicals = LogicalSet(code.logical_pairs)
    for theta in THETAS:
        for phi in PHIS:
            model = NoiseModel("global", 1.0)
            recs = bloch_and_leakage(code, logicals, theta, phi, model, GAMMA_TS)
            for gt, rec in zip(GAMMA_TS, recs):
                want = closed_form("global", theta, phi, 1.0, gt)
                for a, b in zip(rec.values(), want.values()):
                    assert abs(a - b) < 1e-12


def test_criterion5_t0_leakage_prefactor():
    code = build_unit()
    logicals = LogicalSet(code.logical_pairs)
    for theta in THETAS:
        for phi in PHIS:
            rec = bloch_and_leakage(
                code, logicals, theta, phi, NoiseModel("global", 1.0), [0.0]
            )[0]
            assert abs(rec.p_x - rec.r_x / 4) < 1e-12
            assert abs(rec.p_y - rec.r_y / 4) < 1e-12
            assert abs(rec.p_z - rec.r_z / 4) < 1e-12


# --- criterion 6: local dephasing, engine vs Monte Carlo --------------------------


def test_criterion6_local_mc_agreement_and_report(tmp_path):
    """10^6 trajectories, shared across the 25 (theta, phi) points and, in
    one monte_carlo_grid call, across the gamma*t grid; gate is engine/MC
    agreement within 4 SE (with a 1e-12 floor for observables whose
    estimator is numerically constant, where the SE underestimates float
    roundoff). The published local closed form is archived alongside for
    the reconciliation report; matching it is not the gate."""
    code = build_unit()
    logicals = LogicalSet(code.logical_pairs)
    points = [(th, ph) for th in THETAS for ph in PHIS]
    started = time.monotonic()
    report_lines = [
        "gamma_t,theta,phi,source,r_x,r_y,r_z,p_x,p_y,p_z"
    ]
    model = NoiseModel("local", 1.0)
    frame = _Frame(code, logicals)  # one codeword frame serves every call
    engine_records = {
        point: bloch_and_leakage(code, logicals, *point, model, GAMMA_TS, frame=frame)
        for point in points
    }
    mc_grid = monte_carlo_grid(
        code, logicals, points, model, GAMMA_TS, 1_000_000, seed=20260823, threads=4,
        frame=frame,
    )
    for i, (gt, mc) in enumerate(zip(GAMMA_TS, mc_grid)):
        for (theta, phi), rec in zip(points, mc):
            eng = engine_records[theta, phi][i]
            for a, b, se in zip(eng.values(), rec.values(), rec.errors()):
                assert abs(a - b) <= max(4.0 * se, 1e-12)
            ref = closed_form("local", theta, phi, 1.0, gt)
            for source, vals in (
                ("engine", eng.values()),
                ("monte_carlo", rec.values()),
                ("closed_form", ref.values()),
            ):
                report_lines.append(
                    ",".join(
                        [repr(gt), repr(theta), repr(phi), source]
                        + [repr(v) for v in vals]
                    )
                )
    elapsed = time.monotonic() - started
    (tmp_path / "local_reconciliation.csv").write_text(
        "\n".join(report_lines) + "\n"
    )
    assert elapsed < 120.0


def test_criterion6_convention_2_reconciliation_status():
    """Documented outcome of the doubled-exponent trial: it reproduces
    the published local Bloch vector exactly but not the leakage."""
    code = build_unit()
    logicals = LogicalSet(code.logical_pairs)
    model = NoiseModel("local", 1.0, convention=2.0)
    bloch_gap, leak_gap = 0.0, 0.0
    for theta, phi, gt in [(1.1, 0.8, 0.5), (2.0, 4.2, 1.0)]:
        rec = bloch_and_leakage(code, logicals, theta, phi, model, [gt])[0]
        want = closed_form("local", theta, phi, 1.0, gt)
        bloch_gap = max(
            bloch_gap,
            abs(rec.r_x - want.r_x),
            abs(rec.r_y - want.r_y),
            abs(rec.r_z - want.r_z),
        )
        leak_gap = max(
            leak_gap,
            abs(rec.p_x - want.p_x),
            abs(rec.p_y - want.p_y),
            abs(rec.p_z - want.p_z),
        )
    assert bloch_gap < 1e-12
    assert leak_gap > 1e-3


# --- criterion 7: invariant property suite -----------------------------------------


def test_criterion7_stabilizer_commutativity():
    codes = [build_named(n) for n, *_ in NAMED_PARAMS]
    codes += [stack_grid(2), stack_l_shape(2, 2), stack_l_shape(1, 1, True)]
    for code in codes:
        for i, a in enumerate(code.stabilizers):
            for b in code.stabilizers[i + 1:]:
                assert commutes(a, b)


def test_criterion7_projector_idempotent():
    from rhombuscode.dephasing import code_space_operator

    code = build_unit()
    terms = code_space_operator(code, "projector")
    # P^2 = P checked on the action over the full basis
    import numpy as np

    dim = 1 << code.n
    mat = np.zeros((dim, dim), dtype=complex)
    for c, op in terms:
        for col in range(dim):
            mat[:, col] += c * apply(op, PureState.basis(code.n, col)).amplitudes
    assert np.allclose(mat @ mat, mat)


def test_criterion7_rz_invariance_and_trace():
    code = build_unit()
    logicals = LogicalSet(code.logical_pairs)
    ident = parse_pauli("", 6)
    zero_l = codeword_zero(code)
    one_l = logical_basis_state(code, logicals, "10")
    from rhombuscode.dephasing import dephased_pauli_expectation, prepare_logical_state

    psi = prepare_logical_state(1.3, 0.4, zero_l, one_l)
    for kind in ("global", "local"):
        model = NoiseModel(kind, 1.0)
        recs = bloch_and_leakage(code, logicals, 1.3, 0.4, model, [0.0, 0.6, 2.0])
        assert len({round(r.r_z, 12) for r in recs}) == 1
        for t in (0.0, 0.6, 2.0):
            assert abs(dephased_pauli_expectation(psi, ident, model, t) - 1) < 1e-12


def test_criterion7_thread_invariance():
    unit = build_unit()
    logicals = LogicalSet(unit.logical_pairs)
    from rhombuscode.dephasing import monte_carlo_oracle

    model = NoiseModel("local", 0.9)
    recs = {
        monte_carlo_oracle(
            unit, logicals, 1.0, 0.5, model, 0.4, 30_000, seed=5, threads=t
        )
        for t in (1, 2, 4)
    }
    assert len(recs) == 1


# --- criterion 8: CLI determinism ----------------------------------------------------


def test_criterion8_byte_identical_cli_outputs(tmp_path, capsys):
    def dephase(out):
        return cli_main(
            [
                "dephase",
                "--kind", "global",
                "--theta", "0.7",
                "--phi", "1.9",
                "--gamma", "0.5",
                "--t-grid", "0:3:7",
                "--mc-samples", "4000",
                "--seed", "99",
                "--out", str(out),
            ]
        )

    assert dephase(tmp_path / "x.csv") == 0
    assert dephase(tmp_path / "y.csv") == 0
    capsys.readouterr()
    assert (tmp_path / "x.csv").read_bytes() == (tmp_path / "y.csv").read_bytes()

    for name in ("p.json", "q.json"):
        assert cli_main(["build", "lshape:1,2", "--out", str(tmp_path / name)]) == 0
    capsys.readouterr()
    assert (tmp_path / "p.json").read_bytes() == (tmp_path / "q.json").read_bytes()
