"""The scripts under scripts/ still import against the package API, and the
artifacts they wrote match what the package computes today."""

import importlib.util
import pathlib
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
