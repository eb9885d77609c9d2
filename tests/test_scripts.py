"""The scripts under scripts/ still import against the package API, and the
artifacts they wrote match what the package computes today."""

import importlib.util
import pathlib

from rhombuscode.dephasing import NoiseModel, _Frame, bloch_and_leakage, closed_form
from rhombuscode.engine import LogicalSet
from rhombuscode.lattice import build_unit

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"


def load_reconciliation_report():
    """The script as a module; loading it does not call main."""
    path = SCRIPTS / "make_reconciliation_report.py"
    spec = importlib.util.spec_from_file_location("make_reconciliation_report", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
