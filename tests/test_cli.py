"""CLI workbench: exit codes, output formats, and byte-level determinism."""

import contextlib
import hashlib
import io
import json
import math
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rhombuscode import cli, dephasing, engine, gf2, lattice
from rhombuscode.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# --- build -----------------------------------------------------------------


def test_build_unit_stdout(capsys):
    code, out, _ = run(capsys, "build", "unit")
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 6
    assert len(doc["stabilizers"]) == 4


def test_build_grid2(capsys):
    code, out, _ = run(capsys, "build", "grid:2")
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 20
    assert len(doc["stabilizers"]) == 12


def test_build_lshape_base_equals_two_vertical(capsys):
    code, out_l, _ = run(capsys, "build", "lshape:0,0")
    assert code == 0
    code, out_tv, _ = run(capsys, "build", "two_vertical")
    assert code == 0
    assert json.loads(out_l)["stabilizers"] == json.loads(out_tv)["stabilizers"]


@pytest.mark.parametrize("target", ["bogus", "grid:0", "lshape:1", "lshape:a,b"])
def test_build_bad_target_usage_error(capsys, target):
    code, _, err = run(capsys, "build", target)
    assert code == 64
    assert err


@pytest.mark.parametrize("target, digest", [
    ("grid:12", "aae7b6c659531d72a006d2224cfee1cfaf1a8e86be207f5cd04cb543d51b1c19"),
    ("grid:20", "d014779bc3c62713fda415840d2a4d0a88c64f1b493ff892c308ae0cff193fec"),
    ("lshape:2,1,matrix", "53888c51006af4c8af0f60e79814c1d3dc9493492bbd008e5c02c04f51ae5143"),
    ("lshape:3,3", "348ded230bc3cb3436c420473395a37d40ed65dd1e780eabb210ea31b5770020"),
])
def test_build_output_pinned(capsys, target, digest):
    """sha256 of the build JSON, so that construction and serialization
    cannot drift."""
    code, out, _ = run(capsys, "build", target)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# --- verify ----------------------------------------------------------------


def write_code(capsys, tmp_path, target, name="code.json"):
    code, out, _ = run(capsys, "build", target)
    assert code == 0
    path = tmp_path / name
    path.write_text(out)
    return path


def test_verify_unit_passes(capsys, tmp_path):
    path = write_code(capsys, tmp_path, "unit")
    code, out, _ = run(capsys, "verify", str(path), "--w-max", "4", "--kl")
    assert code == 0
    doc = json.loads(out)
    assert doc["distance"] == 2 and doc["rank"] == 4 and doc["k"] == 2


def test_verify_injected_distance_claim_fails(capsys, tmp_path):
    path = write_code(capsys, tmp_path, "unit")
    doc = json.loads(path.read_text())
    doc["declared"] = [6, 2, 3]
    path.write_text(json.dumps(doc))
    code, _, _ = run(capsys, "verify", str(path))
    assert code == 1


@pytest.mark.parametrize("pairs, message", [(0, "0 logical pairs given, k = 2"),
                                            (1, "1 logical pair given, k = 2")])
@pytest.mark.parametrize("kl", [[], ["--kl"]], ids=["symplectic", "kl"])
def test_verify_flags_a_logical_set_of_other_than_k_pairs(capsys, tmp_path, pairs, message, kl):
    """A set of other than k pairs is a claim mismatch; the codeword-matrix
    oracle then runs on a synthesized set and agrees (d = 2)."""
    path = write_code(capsys, tmp_path, "unit")
    doc = json.loads(path.read_text())
    doc["logical_pairs"] = doc["logical_pairs"][:pairs]
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", str(path), *kl)
    assert code == 1
    report = json.loads(out)
    assert (report["logical_violations"], report["distance"]) == ([message], 2)


def test_verify_kl_infeasible_for_large_code(capsys, tmp_path):
    path = write_code(capsys, tmp_path, "grid:3")
    code, _, err = run(capsys, "verify", str(path), "--kl")
    assert code == 2
    assert "infeasible" in err


def test_verify_missing_file_usage_error(capsys, tmp_path):
    code, _, _ = run(capsys, "verify", str(tmp_path / "nope.json"))
    assert code == 64


@pytest.mark.parametrize("n", [6.5, "6", True], ids=["float", "string", "bool"])
def test_verify_rejects_non_integer_qubit_count(capsys, tmp_path, n):
    path = write_code(capsys, tmp_path, "unit")
    doc = json.loads(path.read_text())
    doc["n"] = n
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", str(path))
    assert (code, out) == (64, "")
    assert err == f"verify: cannot load code: n must be an integer, got {n!r}\n"


def test_verify_refuses_a_layout_with_an_isolated_ancilla(capsys, tmp_path):
    """code_from_json builds the layout, which checks at construction that
    every ancilla is at unit distance from a data qubit."""
    path = write_code(capsys, tmp_path, "unit")
    doc = json.loads(path.read_text())
    doc["layout"]["x_ancilla"][0] = [100, 100]
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", str(path))
    assert (code, out) == (64, "")
    assert err == "verify: cannot load code: every ancilla must measure at least one data qubit\n"


BAD_UNIT_PAIRS = [["Z3", "X1"], ["X4X6", "Z2Z4Z5"], ["Z1Z3Z5", "X2"]]


@pytest.mark.parametrize("target, status, rank, k, distance, witness, violations", [
    ("unit", 0, 4, 2, 2, "Z1Z2", []),
    ("two_horizontal", 1, 7, 5, 1, "X7", [
        "Xbar5=X2X7 anticommutes with stabilizer Z2Z4Z6",
        "Zbar5=Z2Z4Z6 lies in the stabilizer group",
    ]),
    ("two_vertical", 1, 7, 3, 2, "Z1Z2", []),
    ("grid_2x2", 1, 12, 8, 2, "Z1Z2", []),
    ("grid:1", 0, 4, 2, 2, "Z1Z2", []),
    ("grid:2", 1, 12, 8, 2, "Z1Z2", []),
    ("lshape:0,0", 1, 7, 3, 2, "Z1Z2", []),
    ("unit-bad-pairs", 1, 4, 2, 2, "Z1Z2", [
        "Xbar1=Z3 anticommutes with stabilizer X1X2X3X4",
        "Xbar1=Z3 anticommutes with stabilizer X3X4X5X6",
        "Zbar1=X1 anticommutes with stabilizer Z1Z3Z5",
        "Zbar3=X2 anticommutes with stabilizer Z2Z4Z6",
        "Xbar1 commutes with Zbar1",
        "Zbar2 anticommutes with Zbar3",
        "Xbar3 anticommutes with Zbar1",
        "Xbar3 commutes with Zbar3",
        "3 logical pairs given, k = 2",
        "Xbar3=Z1Z3Z5 lies in the stabilizer group",
    ]),
])
def test_verify_output_pinned(capsys, tmp_path, target, status, rank, k, distance,
                              witness, violations):
    """The whole verify report, byte for byte: the violation texts and their
    order (per pair: stabilizers in code order, then the group test; then
    the pairing checks, the pair count and the degenerate representatives)."""
    path = write_code(capsys, tmp_path, target.replace("-bad-pairs", ""))
    if target.endswith("-bad-pairs"):
        doc = json.loads(path.read_text())
        doc["logical_pairs"] = BAD_UNIT_PAIRS
        path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", str(path))
    want = {"commuting": True, "rank": rank, "k": k, "distance": distance,
            "witness": witness, "logical_violations": violations}
    assert (code, out) == (status, json.dumps(want, indent=2) + "\n")


# --- dephase -----------------------------------------------------------------


def parse_csv(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def test_dephase_engine_matches_closed_form(capsys):
    code, out, _ = run(
        capsys,
        "dephase",
        "--kind", "global",
        "--theta", "1.5707963",
        "--phi", "0",
        "--gamma", "1",
        "--t-grid", "0:5:50",
    )
    assert code == 0
    rows = parse_csv(out)
    engine = [r for r in rows if r["source"] == "engine"]
    closed = [r for r in rows if r["source"] == "closed_form"]
    assert len(engine) == len(closed) == 50
    for e, c in zip(engine, closed):
        for col in ("r_x", "r_y", "r_z", "p_x", "p_y", "p_z"):
            assert abs(float(e[col]) - float(c[col])) < 1e-12


def test_dephase_gamma_zero_constant(capsys):
    code, out, _ = run(
        capsys,
        "dephase",
        "--kind", "local",
        "--theta", "0.8",
        "--phi", "0.3",
        "--gamma", "0",
        "--t-grid", "0:4:5",
    )
    assert code == 0
    engine = [r for r in parse_csv(out) if r["source"] == "engine"]
    for col in ("r_x", "r_y", "r_z", "p_x", "p_y", "p_z"):
        assert len({r[col] for r in engine}) == 1


def test_dephase_mc_rows_and_seed_requirement(capsys):
    code, _, err = run(
        capsys,
        "dephase",
        "--kind", "local",
        "--theta", "1",
        "--phi", "1",
        "--gamma", "1",
        "--t-grid", "0:1:2",
        "--mc-samples", "1000",
    )
    assert code == 64 and "--seed" in err
    code, out, _ = run(
        capsys,
        "dephase",
        "--kind", "local",
        "--theta", "1",
        "--phi", "1",
        "--gamma", "1",
        "--t-grid", "0:1:2",
        "--mc-samples", "20000",
        "--seed", "7",
    )
    assert code == 0
    rows = parse_csv(out)
    mc = [r for r in rows if r["source"] == "monte_carlo"]
    engine = [r for r in rows if r["source"] == "engine"]
    assert len(mc) == len(engine) == 2
    for e, m in zip(engine, mc):
        for col in ("r_x", "r_y", "r_z", "p_x", "p_y", "p_z"):
            se = float(m["se_" + col]) if m["se_" + col] else 0.0
            assert abs(float(e[col]) - float(m[col])) <= max(4 * se, 1e-12)


def test_dephase_takes_a_seed_above_2_to_128(capsys):
    """PCG64 takes any nonnegative integer seed: --seed 2^130 runs a small
    Monte Carlo sweep, and a rerun gives the same bytes."""
    argv = ["dephase", "--kind", "local", "--theta", "1", "--phi", "1", "--gamma", "1",
            "--t-grid", "0:1:2", "--mc-samples", "500", "--seed", str(2**130)]
    outs = []
    for _ in range(2):
        code, out, err = run(capsys, *argv)
        assert code == 0, err
        outs.append(out)
    assert outs[0] == outs[1]
    assert len([r for r in parse_csv(outs[0]) if r["source"] == "monte_carlo"]) == 2


def test_dephase_runs_on_wider_support(capsys, tmp_path):
    """grid_2x2 (n = 20, 16 + 8 component states) is within the state cap;
    its MC batches (MC_BATCH samples, 2^21 / 24 being more) split the same
    way for any --threads: two full batches and a ragged third."""
    path = write_code(capsys, tmp_path, "grid_2x2")
    outs = []
    for threads in ("1", "2"):
        code, out, err = run(
            capsys, "dephase", "--code", str(path), "--kind", "local",
            "--theta", "1.1", "--phi", "0.3", "--gamma", "0.9", "--t-grid", "0:1.5:3",
            "--mc-samples", "140000", "--seed", "9", "--threads", threads,
        )
        assert code == 0, err
        outs.append(out)
    assert outs[0] == outs[1]
    rows = parse_csv(outs[0])
    mc = [r for r in rows if r["source"] == "monte_carlo"]
    engine = [r for r in rows if r["source"] == "engine"]
    assert len(mc) == len(engine) == 3
    for e, m in zip(engine, mc):
        for col in ("r_x", "r_y", "r_z", "p_x", "p_y", "p_z"):
            se = float(m["se_" + col])
            assert abs(float(e[col]) - float(m[col])) <= max(5 * se, 1e-12)


@pytest.mark.parametrize("target", ["grid:4", "grid:10", "lshape:3,3", "lshape:6,6"])
def test_dephase_runs_past_the_old_support_cap(capsys, tmp_path, target):
    """The frame lists each component's states, not the S = 2^(m_x + 1)
    support: grid:4 (n = 72), grid:10 (n = 420), lshape:3,3 (S = 2^19) and
    lshape:6,6 (S = 2^34, 65584 component states) run an engine sweep and a
    short Monte Carlo sweep."""
    path = write_code(capsys, tmp_path, target)
    code, out, err = run(
        capsys, "dephase", "--code", str(path), "--kind", "global",
        "--theta", "1", "--phi", "1", "--gamma", "1", "--t-grid", "0:1:2",
        "--mc-samples", "64", "--seed", "1",
    )
    assert code == 0, err
    rows = parse_csv(out)
    assert [r["source"] for r in rows] == ["engine", "closed_form", "monte_carlo"] * 2


def test_dephase_refuses_oversized_code(capsys, tmp_path, monkeypatch):
    """grid:14 has 13 x 2^15 + 2^16 = 491520 component states, above the
    cap of 2^18 (grid:13, 229376, is within it), and its X-type stabilizers
    alone, 14 x 2^15 = 458752, already are: exit 2 with one stderr line,
    before logicals are synthesized or the frame lists any state."""
    path = write_code(capsys, tmp_path, "grid:14")

    def refuse(*args):
        raise AssertionError("a state was listed or logicals were synthesized")

    monkeypatch.setattr(dephasing, "_states", refuse)
    monkeypatch.setattr(engine, "find_logical_set", refuse)
    code, out, err = run(
        capsys, "dephase", "--code", str(path), "--kind", "global",
        "--theta", "1", "--phi", "1", "--gamma", "1", "--t-grid", "0:1:2",
    )
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
    assert "458752 states" in err and "lower bounds" in err


def test_dephase_runs_a_component_past_64_qubits(capsys, tmp_path):
    """One X-type stabilizer on 65 of 66 qubits, with the synthesized Xbar
    on one of them, makes a component on 65 qubits with 4 states. Its
    states are sets of generators, not qubit masks, so dephase runs it:
    under local noise r_x is sin(theta) cos(phi) z^|Xbar|, z = e^{-gamma t /
    2}, to 1e-12 at three t points, and the Monte Carlo rows lie within 5
    standard errors of the engine rows."""
    path = write_code(capsys, tmp_path, "unit")
    doc = json.loads(path.read_text())
    doc.update({"n": 66, "stabilizers": ["".join(f"X{q}" for q in range(1, 66))],
                "logical_pairs": None, "declared": None, "layout": None})
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "dephase", "--code", str(path), *DEPHASE_ARGS, "--t-grid", "0.5:1.5:3",
                         "--mc-samples", "4000", "--seed", "3")
    assert code == 0, err
    wide = lattice.code_from_json(path.read_text())
    frame = dephasing._Frame(wide, engine.find_logical_set(wide))
    xbar = frame.paulis[0]
    assert frame.components == [[0, 1]] and dephasing._span(frame.generators).bit_count() == 65
    rows = parse_csv(out)
    engine_rows = [r for r in rows if r["source"] == "engine"]
    mc_rows = [r for r in rows if r["source"] == "monte_carlo"]
    assert len(engine_rows) == len(mc_rows) == 3
    for e, m in zip(engine_rows, mc_rows):
        z = math.exp(-float(e["t"]) / 2)  # gamma = 1
        assert abs(float(e["r_x"]) - math.sin(1) * math.cos(1) * z ** xbar.x_mask.bit_count()) <= 1e-12
        for col in ("r_x", "r_y", "r_z", "p_x", "p_y", "p_z"):
            want, got = float(e[col]), float(m[col])
            assert abs(got - want) <= 5 * float(m["se_" + col]) + 1e-15 * abs(want)


def test_dephase_synthesizes_past_the_coset_cap(capsys, tmp_path):
    """An lshape:6,0 file (n = 58, S = 2^16) has no logicals, and its Z
    cosets are too many to minimize over: synthesis skips the walk and the
    engine-only sweep exits 0."""
    path = write_code(capsys, tmp_path, "lshape:6,0")
    code, out, err = run(
        capsys, "dephase", "--code", str(path), "--kind", "local",
        "--theta", "1", "--phi", "0.5", "--gamma", "1", "--t-grid", "0:1:2",
    )
    assert code == 0, err
    assert sum(r["source"] == "engine" for r in parse_csv(out)) == 2


def refuse_mc_work(capsys, tmp_path, monkeypatch, samples):
    """dephase on grid:10 with samples at 3 t points, listing no state:
    (exit code, stdout, stderr)."""
    path = write_code(capsys, tmp_path, "grid:10")

    def refuse(*args):
        raise AssertionError("a state was listed")

    monkeypatch.setattr(dephasing, "_states", refuse)
    return run(
        capsys, "dephase", "--code", str(path), "--kind", "local",
        "--theta", "1", "--phi", "1", "--gamma", "1", "--t-grid", "0:1:3",
        "--mc-samples", str(samples), "--seed", "1",
    )


def test_dephase_refuses_unbounded_monte_carlo(capsys, tmp_path, monkeypatch):
    """grid:10 (22528 component states) is within the state cap, but 10^6
    samples at 3 t points exceed DEPHASE_MAX_MC_WORK, already on the bound
    of its X-type stabilizers alone: exit 2 before the frame lists any
    state."""
    code, out, err = refuse_mc_work(capsys, tmp_path, monkeypatch, 1_000_000)
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
    assert "--mc-samples" in err and "lower bounds" in err


def test_dephase_refuses_monte_carlo_past_the_frame_count(capsys, tmp_path, monkeypatch):
    """66000 samples at 3 t points pass the bound of grid:10's X-type
    stabilizers alone (20480 states) and exceed DEPHASE_MAX_MC_WORK on the
    frame's own count (22528 states), checked after synthesis: exit 2
    before the frame lists any state."""
    code, out, err = refuse_mc_work(capsys, tmp_path, monkeypatch, 66_000)
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
    assert "66000 x 22528 x 3" in err and "lower bounds" not in err


def test_dephase_bad_grid_usage_error(capsys):
    code, _, _ = run(
        capsys,
        "dephase",
        "--kind", "global",
        "--theta", "1",
        "--phi", "1",
        "--gamma", "1",
        "--t-grid", "5:0:10",
    )
    assert code == 64


DEPHASE_ARGS = ("--kind", "local", "--theta", "1", "--phi", "1", "--gamma", "1")
# edits of the unit code's JSON that make it unloadable, or (the last four)
# leave dephase no usable designated logical pair
BAD_CODES = {
    "DECLARED_PAIR": {"declared": [6, 2]},
    "DECLARED_TEXT": {"declared": ["a", "b", "c"]},
    "DECLARED_SCALAR": {"declared": 5},
    "DEPENDENT": {"stabilizers": ["X1X2X3X4", "X3X4X5X6", "Z1Z3Z5", "Z2Z4Z6", "Z1Z3Z5"]},
    "NO_PAIR": {"n": 2, "stabilizers": ["X1X2", "Z1Z2"], "logical_pairs": None,
                "declared": None, "layout": None},
    "BAD_XBAR": {"logical_pairs": [["X1", "Z1Z4Z6"], ["X4X6", "Z2Z4Z5"]]},
    "BAD_ZBAR": {"logical_pairs": [["X1X3", "Z1"], ["X4X6", "Z2Z4Z5"]]},
    "COMMUTING_PAIR": {"logical_pairs": [["X1X3", "Z2Z4Z5"]]},
}


@pytest.mark.parametrize(
    "argv",
    [
        ("dephase", *DEPHASE_ARGS, "--t-grid", "0:1:2", "--gamma", "-1"),
        ("dephase", *DEPHASE_ARGS, "--t-grid", "0:1:2", "--mc-samples", "10", "--seed", "-1"),
        ("dephase", *DEPHASE_ARGS, "--t-grid", "0:1:2", "--theta", "nan"),
        ("dephase", *DEPHASE_ARGS, "--t-grid", "0:nan:2"),
        ("dephase", *DEPHASE_ARGS, "--t-grid", "0:1:2", "--threads", "0"),
        ("dephase", *DEPHASE_ARGS, "--t-grid", "0:1:2", "--mc-samples", "-5"),
        ("verify", "CODE", "--w-max", "0"),
        ("verify", "DECLARED_PAIR"),
        ("verify", "DECLARED_TEXT"),
        ("verify", "DECLARED_SCALAR"),
        ("verify", "DEPENDENT"),
        ("dephase", *DEPHASE_ARGS, "--t-grid", "0:1:2", "--code", "DECLARED_PAIR"),
        ("dephase", *DEPHASE_ARGS, "--t-grid", "0:1:2", "--code", "DECLARED_TEXT"),
        ("dephase", *DEPHASE_ARGS, "--t-grid", "0:1:2", "--code", "DEPENDENT"),
        ("dephase", *DEPHASE_ARGS, "--t-grid", "0:1:2", "--code", "NO_PAIR"),
        ("dephase", *DEPHASE_ARGS, "--t-grid", "0:1:2", "--code", "BAD_XBAR"),
        ("dephase", *DEPHASE_ARGS, "--t-grid", "0:1:2", "--code", "BAD_ZBAR"),
        ("dephase", *DEPHASE_ARGS, "--t-grid", "0:1:2", "--code", "COMMUTING_PAIR"),
        ("build", "unit", "--out", "UNWRITABLE"),
        ("verify", "CODE", "--out", "UNWRITABLE"),
        ("dephase", *DEPHASE_ARGS, "--t-grid", "0:1:2", "--out", "UNWRITABLE"),
        ("dephase", *DEPHASE_ARGS, "--gamma", "1e300", "--t-grid", "0:1e300:2"),
        ("dephase", *DEPHASE_ARGS, "--kind", "global", "--gamma", "1e300",
         "--t-grid", "0:1e300:2"),
    ],
    ids=["gamma", "seed", "theta", "t-grid", "dephase-threads", "mc-samples", "w-max",
         "verify-declared-pair", "verify-declared-text", "verify-declared-scalar",
         "verify-dependent",
         "dephase-declared-pair", "dephase-declared-text", "dephase-dependent",
         "dephase-no-pair", "dephase-bad-xbar", "dephase-bad-zbar", "dephase-commuting-pair",
         "build-out", "verify-out", "dephase-out", "gamma-t-overflow-local",
         "gamma-t-overflow-global"],
)
def test_bad_input_is_a_one_line_usage_error(capsys, tmp_path, argv):
    paths = {"CODE": str(write_code(capsys, tmp_path, "unit")),
             "UNWRITABLE": str(tmp_path / "missing" / "out.csv")}
    for name, edit in BAD_CODES.items():
        doc = json.loads((tmp_path / "code.json").read_text())
        doc.update(edit)
        paths[name] = str(tmp_path / f"{name}.json")
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    code, out, err = run(capsys, *(paths.get(a, a) for a in argv))
    assert code == 64
    assert out == ""
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err


def test_dephase_builds_one_frame(capsys, monkeypatch):
    """The engine and the MC at every t share one codeword frame and one MC
    kernel per call."""
    built, kernels = [], []

    class CountedFrame(dephasing._Frame):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    class CountedKernel(dephasing._CosetKernel):
        def __init__(self, *args):
            kernels.append(args)
            super().__init__(*args)

    monkeypatch.setattr(dephasing, "_Frame", CountedFrame)
    monkeypatch.setattr(dephasing, "_CosetKernel", CountedKernel)
    code, out, _ = run(
        capsys, "dephase", *DEPHASE_ARGS, "--t-grid", "0:1:3",
        "--mc-samples", "1000", "--seed", "5",
    )
    assert code == 0
    assert len(built) == len(kernels) == 1
    assert sum(r["source"] == "monte_carlo" for r in parse_csv(out)) == 3


def test_local_dephase_lists_each_component_once(capsys, tmp_path, monkeypatch):
    """A local dephase with a Monte Carlo sweep lists each component's
    states once, when the frame is built: the kernel reads the frame's
    per-class columns and shifts. two_horizontal has two components, so
    _listing runs twice."""
    path = write_code(capsys, tmp_path, "two_horizontal")
    calls = []
    listing = dephasing._listing

    def counted(frame, generators):
        calls.append(list(generators))
        return listing(frame, generators)

    monkeypatch.setattr(dephasing, "_listing", counted)
    code, out, err = run(capsys, "dephase", "--code", str(path), *DEPHASE_ARGS, "--t-grid", "0:1:3",
                         "--mc-samples", "1024", "--seed", "5")
    assert code == 0, err
    assert sum(r["source"] == "monte_carlo" for r in parse_csv(out)) == 3
    assert calls == [[0, 1, 4], [2, 3]]


@pytest.mark.parametrize("argv, target, most", [
    (("dephase", *DEPHASE_ARGS, "--t-grid", "0:1:3"), None, 2),
    (("dephase", *DEPHASE_ARGS, "--t-grid", "0:1:3", "--code"), "grid:2", 2),
    (("verify",), "unit", 1),
    (("verify", "--kl"), "unit", 2),
], ids=["dephase-unit", "dephase-grid2-synthesized", "verify-unit", "verify-kl-unit"])
def test_one_stabilizer_echelon_per_code(capsys, tmp_path, monkeypatch, argv, target, most):
    """The stabilizer rows are reduced once per code, by its tableau; the
    other reduction is the codeword echelon (dephase, verify --kl). A
    logical synthesis (grid:2, whose file has no pairs) takes both kernels
    from the tableau's echelon and reduces nothing again."""
    path = [str(write_code(capsys, tmp_path, target))] if target else []
    calls = []
    row_reduce = gf2.row_reduce

    def counted(*args):
        calls.append(args)
        return row_reduce(*args)

    monkeypatch.setattr(gf2, "row_reduce", counted)
    status, _, err = run(capsys, *argv, *path)
    assert (status, err) == (0, "")
    assert len(calls) <= most


# --- family / usage -------------------------------------------------------------


def test_family_table(capsys):
    code, out, _ = run(capsys, "family", "--p-max", "10")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 11
    assert lines[1].startswith("1,6,4,2,2,0.333333")
    assert lines[2].startswith("2,20,12,8,3,0.400000")
    assert lines[10].startswith("10,420,220,200,7,0.476190")


def test_unknown_subcommand_usage_error(capsys):
    assert run(capsys, "frobnicate")[0] == 64


# --- one parser per process -------------------------------------------------------


def reference_main(argv):
    """main as it was before the parser was shared: a fresh parser per call."""
    parser = cli.build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handlers = {"build": cli.cmd_build, "verify": cli.cmd_verify,
                "dephase": cli.cmd_dephase, "family": cli.cmd_family}
    return handlers[args.command](args)


def captured(entry, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = entry(list(argv))
    return code, out.getvalue(), err.getvalue()


def captured_with_manifest(entry, argv, out):
    """captured(entry, argv) plus the manifest written for out, without its
    duration, and the manifest removed; None when none was written."""
    manifest = pathlib.Path(out + ".manifest.json")
    result = captured(entry, argv)
    if not manifest.exists():
        return result + (None,)
    doc = json.loads(manifest.read_text())
    manifest.unlink()
    del doc["duration_seconds"]
    return result + (doc,)


@pytest.fixture(scope="module")
def shared_parser_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("shared-parser")
    code = str(root / "unit.json")
    assert captured(main, ["build", "unit", "--out", code])[0] == 0
    return {"CODE": code, "OUT": str(root / "out.txt")}


PARSER_ARGVS = [
    ("build", "unit"),
    ("build", "grid:1"),
    ("build", "unit", "--out", "OUT"),
    ("family", "--p-max", "2"),
    ("verify", "CODE"),
    ("verify", "CODE", "--w-max", "1", "--out", "OUT"),
    ("dephase", *DEPHASE_ARGS, "--t-grid", "0:1:2"),
    ("frobnicate",),
    ("build",),
    ("build", "unit", "--bogus"),
    ("family", "--p-max", "two"),
    ("dephase", "--kind", "radial"),
    ("--version",),
    ("--help",),
    ("verify", "--help"),
]


@settings(max_examples=25, deadline=None)
@given(st.lists(st.sampled_from(PARSER_ARGVS), min_size=1, max_size=6))
def test_shared_parser_behaves_like_a_fresh_one(shared_parser_paths, argvs):
    """The same calls in the same order give the same exit code, stdout,
    stderr and manifest (which records every parsed argument) through main
    and through a parser built per call."""
    out = shared_parser_paths["OUT"]
    for argv in argvs:
        argv = [shared_parser_paths.get(a, a) for a in argv]
        assert captured_with_manifest(main, argv, out) == captured_with_manifest(
            reference_main, argv, out)


def test_main_builds_its_parser_once(monkeypatch):
    built = []
    build_parser = cli.build_parser

    def counted():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._shared_parser.cache_clear()
    for _ in range(20):
        assert captured(main, ["family", "--p-max", "1"])[0] == 0
    assert len(built) == 1


def test_handler_rebound_after_the_parser_is_built_runs(monkeypatch):
    assert captured(main, ["family", "--p-max", "1"])[0] == 0
    seen = []
    monkeypatch.setattr(cli, "cmd_family", lambda args: seen.append(args.p_max) or 7)
    assert captured(main, ["family", "--p-max", "3"]) == (7, "", "")
    assert seen == [3]


# --- determinism across reruns ----------------------------------------------------


def test_outputs_byte_identical(capsys, tmp_path):
    for name in ("a", "b"):
        out_csv = tmp_path / f"{name}.csv"
        code, _, _ = run(
            capsys,
            "dephase",
            "--kind", "global",
            "--theta", "0.9",
            "--phi", "0.4",
            "--gamma", "0.7",
            "--t-grid", "0:2:9",
            "--mc-samples", "5000",
            "--seed", "42",
            "--threads", "2" if name == "b" else "1",
            "--out", str(out_csv),
        )
        assert code == 0
        assert (tmp_path / f"{name}.csv.manifest.json").exists()
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    for name in ("c", "d"):
        out_json = tmp_path / f"{name}.json"
        assert run(capsys, "build", "grid:2", "--out", str(out_json))[0] == 0
    assert (tmp_path / "c.json").read_bytes() == (tmp_path / "d.json").read_bytes()


# --- cold start -------------------------------------------------------------------

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
LAZY_MODULES = ("concurrent.futures", "scipy")
# Imports a module (a JSON string) or runs cli.main (a JSON list) with its
# stdout swallowed, then prints the exit code and which LAZY_MODULES loaded.
COLD_PROBE = f"""
import contextlib, importlib, io, json, sys
arg = json.loads(sys.argv[1])
if isinstance(arg, str):
    importlib.import_module(arg)
    code = 0
else:
    from rhombuscode import cli
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(arg)
print(json.dumps([code, [m for m in {LAZY_MODULES!r} if m in sys.modules]]))
"""


def cold_start(arg, cwd):
    """(exit code, loaded LAZY_MODULES) of arg in a fresh interpreter."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", COLD_PROBE, json.dumps(arg)],
        cwd=cwd, env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    code, loaded = json.loads(proc.stdout.strip().splitlines()[-1])
    return code, loaded


@pytest.mark.parametrize(
    "arg",
    [
        "rhombuscode",
        "rhombuscode.cli",
        ["build", "unit"],
        ["verify", "CODE"],
        ["family", "--p-max", "3"],
        ["dephase", *DEPHASE_ARGS, "--t-grid", "0:1:3"],
    ],
    ids=["import", "import-cli", "build", "verify", "family", "dephase-engine"],
)
def test_cold_start_loads_neither_scipy_nor_threads(capsys, tmp_path, arg):
    if "CODE" in arg:
        arg = [str(write_code(capsys, tmp_path, "unit")) if a == "CODE" else a for a in arg]
    code, loaded = cold_start(arg, tmp_path)
    assert code == 0
    assert loaded == []


def test_cold_start_monte_carlo_loads_threads_but_not_scipy_with_same_bytes(capsys, tmp_path):
    """A Monte Carlo dephase loads the thread pool on its first call and
    never scipy (the normals are numpy's); a fresh interpreter writes the
    bytes this one does."""
    argv = ["dephase", *DEPHASE_ARGS, "--t-grid", "0:1:3", "--mc-samples", "2000", "--seed", "3"]
    code, loaded = cold_start(argv + ["--out", str(tmp_path / "fresh.csv")], tmp_path)
    assert code == 0
    assert loaded == ["concurrent.futures"]
    assert run(capsys, *argv, "--out", str(tmp_path / "here.csv"))[0] == 0
    assert (tmp_path / "fresh.csv").read_bytes() == (tmp_path / "here.csv").read_bytes()
