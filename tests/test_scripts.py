"""The scripts under scripts/ still import against the package API, and the
artifacts they wrote match what the package computes today."""

import importlib.util
import json
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

from rhombuscode.dephasing import NoiseModel, _Frame, bloch_and_leakage, closed_form
from rhombuscode.engine import LogicalSet
from rhombuscode.lattice import build_unit

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"


def load_script(name):
    """scripts/<name>.py as a module, registered in sys.modules (dataclasses
    look their module up there); loading it does not call main."""
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def load_reconciliation_report():
    return load_script("make_reconciliation_report")


def test_reconciliation_report_script_imports():
    """Loading the script binds every name it imports from rhombuscode;
    main, which runs 10^6 Monte Carlo samples per grid point, is not called."""
    assert callable(load_reconciliation_report().main)


def test_reconciliation_artifact_is_current():
    """The artifact's engine, engine_conv2 and closed_form rows equal today's
    output string for string, on the script's grid and with its row format.
    The monte_carlo rows (10^6 samples per gamma*t) are not recomputed."""
    script = load_reconciliation_report()
    code = build_unit()
    logicals = LogicalSet(code.logical_pairs)
    frame = _Frame(code, logicals)
    engines = (("engine", NoiseModel("local", 1.0)),
               ("engine_conv2", NoiseModel("local", 1.0, convention=2.0)))
    want = []
    for gt in script.GAMMA_TS:
        for theta in script.THETAS:
            for phi in script.PHIS:
                for source, model in engines:
                    [record] = bloch_and_leakage(code, logicals, theta, phi, model, [gt],
                                                 frame=frame)
                    want.append(script.row(gt, theta, phi, source, record))
                record = closed_form("local", theta, phi, 1.0, gt)
                want.append(script.row(gt, theta, phi, "closed_form", record))
    lines = (ROOT / "artifacts" / "local_closed_form_comparison.csv").read_text().splitlines()
    assert [line for line in lines[1:] if line.split(",")[3] != "monte_carlo"] == want


def test_ab_summary_claims_a_gain_only_by_the_pair_rule():
    ab = load_script("ab_pairs")
    parent = [0.170, 0.172, 0.174, 0.176, 0.177, 0.178, 0.180, 0.181, 0.183, 0.190]
    change = [0.125, 0.130, 0.128, 0.131, 0.127, 0.129, 0.180, 0.126, 0.133, 0.132]
    summary = ab.summarize(parent, change)
    assert summary.parent_quartiles == pytest.approx([0.1745, 0.1775, 0.18075])
    assert summary.change_quartiles[1] == pytest.approx(0.1295)
    # pair 7 is a tie: it counts for neither side
    assert (summary.change_wins, summary.parent_wins, summary.pairs) == (9, 0, 10)
    assert summary.parent_spread == pytest.approx(0.00625)
    assert summary.gain_holds
    text = ab.format_summary("wall_s", summary)
    assert "median 0.177500" in text and "wins change 9, parent 0, of 10 pairs" in text
    assert text.endswith(": holds")

    # eight wins of ten are too few
    assert not ab.summarize(parent, change[:8] + [0.2, 0.2]).gain_holds
    # every pair won, but the medians are closer than the parent's spread
    assert not ab.summarize(parent, [p - 0.001 for p in parent]).gain_holds
    # nine pairs are too few, however clear the gain
    assert not ab.summarize(parent[:9], change[:9]).gain_holds
    with pytest.raises(ValueError):
        ab.summarize(parent, change[:9])


def test_ab_out_writes_every_pair_and_the_summaries(tmp_path, monkeypatch, capsys):
    """main with --out, its git export, working-tree copy and benchmark runs
    replaced by fixed numbers: both sides run in their own temporary copy,
    never in the checkout, and the JSON holds each pair in run order and the
    printed summary."""
    ab = load_script("ab_pairs")
    walls = iter([0.30, 0.20, 0.21, 0.31, 0.32, 0.22])  # parent first, then change first
    calls, trees = [], {}

    def run_bench(tree, workload, seconds, seed):
        calls.append((tree, workload, seconds, seed))
        return {"wall_s": next(walls), "setup_s": 0.1, "failed_frac": 0.0}

    monkeypatch.setattr(ab, "export", lambda rev, into: trees.setdefault(into, "parent"))
    monkeypatch.setattr(ab, "snapshot", lambda into: trees.setdefault(into, "change"))
    monkeypatch.setattr(ab, "run_bench", run_bench)
    out = tmp_path / "bench.json"
    assert ab.main(["HEAD", "--workload", "mc-unit", "--pairs", "3", "--seconds", "2",
                    "--seed", "7", "--out", str(out)]) == 0
    assert len(trees) == 2 and ab.ROOT not in trees
    assert [trees[c[0]] for c in calls] == ["parent", "change", "change", "parent",
                                            "parent", "change"]
    assert {c[1:] for c in calls} == {("mc-unit", 2.0, 7)}
    doc = json.loads(out.read_text())
    assert (doc["workload"], doc["parent_rev"], doc["seed"], doc["seconds"]) == (
        "mc-unit", "HEAD", 7, 2.0)
    assert doc["cores"] >= 1 and set(doc["versions"]) == {"python", "numpy", "scipy"}
    assert [(p["first"], p["parent"]["wall_s"], p["change"]["wall_s"]) for p in doc["pairs"]] == [
        ("parent", 0.30, 0.20), ("change", 0.31, 0.21), ("parent", 0.32, 0.22)]
    wall = doc["summary"]["wall_s"]
    assert wall["parent"]["median"] == pytest.approx(0.31)
    assert wall["change"] == pytest.approx({"q1": 0.205, "median": 0.21, "q3": 0.215})
    assert (wall["change_wins"], wall["parent_wins"], wall["pairs"]) == (3, 0, 3)
    assert wall["gain_holds"] is False  # three pairs are too few
    assert doc["summary"]["setup_s"]["change_wins"] == 0  # ties count for neither side
    assert doc["gain_rule"]["min_pairs"] == ab.MIN_PAIRS
    assert "wins change 3, parent 0, of 3 pairs" in capsys.readouterr().out


def test_ab_snapshot_copies_the_working_tree_without_ignored_files(tmp_path, monkeypatch):
    """The change side's copy of a checkout holds its tracked files as they
    are on disk and its untracked ones git does not ignore; ignored files
    and tracked files deleted on disk are left out."""
    ab = load_script("ab_pairs")
    repo, copy = tmp_path / "repo", tmp_path / "copy"
    (repo / "src").mkdir(parents=True)
    copy.mkdir()
    files = {".gitignore": "ignored.txt\n", "src/tracked.py": "x = 1\n", "src/gone.py": "",
             "new.txt": "untracked\n", "ignored.txt": "leftover\n"}
    for name, text in files.items():
        (repo / name).write_text(text)
    subprocess.run(["git", "init", "-q", str(repo)], check=True)
    subprocess.run(["git", "-C", str(repo), "add", ".gitignore", "src"], check=True)
    (repo / "src" / "gone.py").unlink()
    (repo / "src" / "tracked.py").write_text("x = 2\n")  # edited after staging
    monkeypatch.setattr(ab, "ROOT", str(repo))
    ab.snapshot(str(copy))
    copied = sorted(p.relative_to(copy).as_posix() for p in copy.rglob("*") if p.is_file())
    assert copied == [".gitignore", "new.txt", "src/tracked.py"]
    assert (copy / "src" / "tracked.py").read_text() == "x = 2\n"


def copy_program(into):
    """The src/ and perfbench/ of this checkout, as both sides of an
    in-process A/B run need them."""
    for name in ("src", "perfbench"):
        shutil.copytree(ROOT / name, pathlib.Path(into) / name,
                        ignore=shutil.ignore_patterns("__pycache__", ".perfbench-*"))


def test_ab_in_process_alternates_op_by_op_on_each_sides_modules(tmp_path, monkeypatch, capsys):
    """Each side imports its own copy's rhombuscode and perfbench modules;
    activate swaps them into sys.modules, and after the run the modules this
    process had are back. The run checks every op on both sides (the one
    known defect fails on both) and writes per-pass and per-op summaries."""
    ab = load_script("ab_pairs")
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.delenv(name, raising=False)  # load_side sets them; restored after the test
    own = sys.modules["rhombuscode"]
    sides = {}
    for label in ("a", "b"):
        copy_program(tmp_path / label)
        sides[label] = ab.load_side(str(tmp_path / label), "verify-family", 1)
        assert sys.modules["rhombuscode"] is own
    for label, side in sides.items():
        assert side.modules["rhombuscode"].__file__.startswith(str(tmp_path / label) + os.sep)
        assert side.modules["workloads"].__file__.startswith(str(tmp_path / label) + os.sep)
    sys_modules = dict(sys.modules)
    try:
        sides["a"].activate()
        assert sys.modules["rhombuscode.lattice"] is sides["a"].modules["rhombuscode.lattice"]
        sides["b"].activate()
        assert sys.modules["rhombuscode.lattice"] is sides["b"].modules["rhombuscode.lattice"]
    finally:
        sys.modules.clear()
        sys.modules.update(sys_modules)

    monkeypatch.setattr(ab, "export", lambda rev, into: copy_program(into))
    monkeypatch.setattr(ab, "snapshot", copy_program)
    out = tmp_path / "bench.json"
    assert ab.main(["HEAD", "--in-process", "--workload", "verify-family", "--pairs", "2",
                    "--seed", "1", "--out", str(out)]) == 0
    assert sys.modules["rhombuscode"] is own
    doc = json.loads(out.read_text())
    assert (doc["mode"], doc["workload"], doc["passes"]) == ("in-process", "verify-family", 2)
    assert [w["first"] for w in doc["pass_walls"]] == ["change", "parent"]
    assert len(doc["ops"]) == 46 and doc["ops"]["build grid:20"]["pairs"] == 2
    assert doc["failed_frac"]["parent"] == doc["failed_frac"]["change"] == pytest.approx(2 / 92)
    assert doc["summary"]["pass_wall"]["gain_holds"] is False  # two passes are too few
    assert "sum of per-op medians: parent" in capsys.readouterr().out


def test_kernel_ns_times_both_kernels_per_code_and_kind(capsys):
    """A tiny run: the settings line, then one row per code and kind with
    S, the component states, the normals per sample, both kernels' ns per
    sample and the ms to build the frame, run the engine and build the
    kernel. On grid:10 (S = 2^111, 2^12 + 9 x 2^11 component states) the
    one-component reference cannot list its states: its column is empty."""
    script = load_script("kernel_ns")
    argv = ["--codes", "unit", "two_horizontal", "grid:10", "--runs", "1", "--samples", "16",
            "--seed", "3"]
    assert script.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("seed 3, scale 0.8, median of 1 runs, ")
    assert lines[1] == ("code,S,component_states,fields,kind,samples,production_ns,reference_ns,"
                        "frame_ms,engine_ms,build_ms")
    rows = [line.split(",") for line in lines[2:]]
    grid = "+".join(["4096"] + ["2048"] * 9)
    assert [row[:6] for row in rows[:4]] == [
        ["unit", "8", "8", "5", "local", "16"], ["unit", "8", "8", "1", "global", "16"],
        ["two_horizontal", "32", "8+4", "8", "local", "16"],
        ["two_horizontal", "32", "8+4", "1", "global", "16"]]
    assert [row[:3] + row[4:6] for row in rows[4:]] == [
        ["grid:10", str(2**111), grid, "local", "16"], ["grid:10", str(2**111), grid, "global", "16"]]
    assert [row[7] for row in rows[4:]] == ["", ""]
    assert all(float(value) > 0 for row in rows for value in row[6:] if value)
