"""The scripts under scripts/ still import against the package API."""

import importlib.util
import pathlib

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"


def test_reconciliation_report_script_imports():
    """Loading the script binds every name it imports from rhombuscode;
    main, which runs 10^6 Monte Carlo samples per grid point, is not called."""
    path = SCRIPTS / "make_reconciliation_report.py"
    spec = importlib.util.spec_from_file_location("make_reconciliation_report", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
