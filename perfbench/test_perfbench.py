"""Tests of the benchmark's own parts: scan-order counts, tracer, smoke runs.

Run from the root of the repository:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import itertools
import json
import os
import shutil
import subprocess
import sys
import tempfile

import pytest

import scan_order
import spans
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from rhombuscode import cli, dephasing, engine, gf2, lattice, pauli  # noqa: E402

LAYERS = {"cli": cli, "lattice": lattice, "pauli": pauli, "gf2": gf2,
          "engine": engine, "dephasing": dephasing}


def brute_force_position(n: int, w_max: int, hit) -> int:
    """Count candidates in the documented scan order up to and including hit."""
    count = 0
    for w in range(1, w_max + 1):
        for support in itertools.combinations(range(n), w):
            for letters in itertools.product("XYZ", repeat=w):
                count += 1
                if hit is not None and scan_order.letters_of(hit.x_mask, hit.z_mask, n) == list(
                    zip(support, letters)
                ):
                    return count
    assert hit is None, "witness not found in the scan order"
    return count


@pytest.mark.parametrize("name", ["unit", "two_vertical"])
@pytest.mark.parametrize("w_max", [1, 3])
def test_symplectic_candidates_match_brute_force(name, w_max):
    code = lattice.build_named(name)
    d, witness = engine.distance_symplectic(code, w_max=w_max)
    computed = scan_order.candidates_scanned(
        code.n, w_max, d, *((witness.x_mask, witness.z_mask) if witness else ()))
    assert computed == brute_force_position(code.n, w_max, witness)


@pytest.mark.parametrize("name", ["unit", "two_vertical"])
@pytest.mark.parametrize("w_max", [1, 3])
def test_kl_candidates_match_brute_force_and_oracle_calls(name, w_max, monkeypatch):
    code = lattice.build_named(name)
    logicals = engine.find_logical_set(code)
    calls = []
    original = engine._SparseCodewords.violates_kl

    def counting(self, op, *args, **kwargs):
        calls.append(op)
        return original(self, op, *args, **kwargs)

    monkeypatch.setattr(engine._SparseCodewords, "violates_kl", counting)
    d, witness = engine.distance_kl_oracle(code, logicals, w_max)
    computed = scan_order.candidates_scanned(
        code.n, w_max, d, *((witness.x_mask, witness.z_mask) if witness else ()))
    assert computed == brute_force_position(code.n, w_max, witness) == len(calls)


def test_support_rank_is_combination_index():
    for index, support in enumerate(itertools.combinations(range(7), 3)):
        assert scan_order.support_rank(support, 7) == index


def test_pauli_text_matches_program():
    op = pauli.parse_pauli("X1Y3Z7", 8)
    assert scan_order.pauli_text(op.x_mask, op.z_mask, 8) == "X1Y3Z7"


def make_tracer():
    return spans.Tracer(LAYERS, list(LAYERS.values()),
                        is_leaf=lambda name: name.startswith("pauli."))


def test_tracer_patches_every_binding_and_restores_them():
    originals = {(ns.__name__, name): obj for ns in LAYERS.values()
                 for name, obj in vars(ns).items()}
    tracer = make_tracer()
    tracer.install()
    try:
        for ns, name in [(engine, "commutes"), (engine, "to_string"), (lattice, "parse_pauli"),
                         (dephasing, "codeword_zero"), (dephasing, "apply"), (pauli, "multiply")]:
            assert hasattr(getattr(ns, name), spans.MARK), f"{ns.__name__}.{name}"
        assert not hasattr(engine._scan_weight, spans.MARK)  # private: not wrapped
    finally:
        tracer.uninstall()
    assert spans.find_wrappers(LAYERS.values()) == []
    for ns in LAYERS.values():
        for name, obj in vars(ns).items():
            assert originals[(ns.__name__, name)] is obj


def test_tracer_self_times_and_spans():
    tracer = make_tracer()
    tracer.install()
    try:
        tracer.active = True
        engine.verify_code(lattice.build_named("unit"), w_max=2)
        tracer.active = False
        lattice.build_named("unit")  # inactive: not recorded
    finally:
        tracer.uninstall()
    totals = tracer.totals()
    calls, total, own = totals["engine.verify_code"]
    assert calls == 1 and 0 < own < total
    assert totals["lattice.build_named"][0] == 1
    assert totals["pauli.commutes"][0] > 0
    ids = {s[0]: s for s in tracer.spans()}
    root = [s for s in ids.values() if s[1] == "lattice.build_named"]
    assert len(root) == 1 and root[0][4] is None
    child = [s for s in ids.values() if s[1] == "engine.distance_symplectic"]
    assert ids[child[0][4]][1] == "engine.verify_code"
    assert not any(s[1].startswith("pauli.") for s in ids.values())  # leaves aggregate only


def run_bench(*args):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    return proc


def declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return ({m["name"] for m in bench["end_to_end"]}, {m["name"] for m in bench["per_layer"]},
            [w["name"] for w in bench["workloads"]])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "5", "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    e2e, layer, names = declared_metrics()
    assert workload in names
    assert set(result["metrics"]) == (layer if trace == "1" else e2e)
    known = proc.stdout.count("[known program defect]")
    if workload == "verify-family":
        assert known == 1
        assert f"failed {result['failed']}x: verify two_horizontal --kl" in proc.stdout
    else:
        assert result["failed"] == 0 and known == 0


def test_no_program_means_exit_without_result():
    os.makedirs(os.path.join(ROOT, ".perfbench-work"), exist_ok=True)
    bare = tempfile.mkdtemp(dir=os.path.join(ROOT, ".perfbench-work"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "mc-unit", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
