#!/usr/bin/env python3
"""Regenerate artifacts/local_closed_form_comparison.csv.

Compares three sources for the local-dephasing observables of the unit
code on the acceptance (theta, phi, gamma*t) grid:

  engine        analytic per-qubit damping factors (convention = 1)
  engine_conv2  same engine with the decay exponent doubled
  monte_carlo   10^6 phase trajectories, fixed seed, shared by every gamma*t
  closed_form   the published local-dephasing expressions

The doubled-exponent trial reproduces the published Bloch vector exactly
but not the leakage components; the artifact records both gaps.
"""

import math
import pathlib

from rhombuscode.dephasing import (
    NoiseModel,
    _Frame,
    bloch_and_leakage,
    closed_form,
    format_float,
    monte_carlo_grid,
)
from rhombuscode.engine import LogicalSet
from rhombuscode.lattice import build_unit

THETAS = [0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4, math.pi]
PHIS = [0.0, math.pi / 3, math.pi / 2, math.pi, 3 * math.pi / 2]
GAMMA_TS = [0.0, 0.1, 0.5, 1.0, 5.0]
SAMPLES = 1_000_000
SEED = 20260823


def row(gt: float, theta: float, phi: float, source: str, record) -> str:
    """One artifact line: the grid point, the source and its six observables."""
    values = [format_float(v) for v in record.values()]
    return ",".join([format_float(gt), format_float(theta), format_float(phi), source] + values)


def main() -> None:
    code = build_unit()
    logicals = LogicalSet(code.logical_pairs)
    points = [(th, ph) for th in THETAS for ph in PHIS]
    lines = ["gamma_t,theta,phi,source,r_x,r_y,r_z,p_x,p_y,p_z"]
    model = NoiseModel("local", 1.0)
    model2 = NoiseModel("local", 1.0, convention=2.0)
    frame = _Frame(code, logicals)  # one codeword frame serves every call
    engine_records = {
        (point, m): bloch_and_leakage(code, logicals, *point, m, GAMMA_TS, frame=frame)
        for point in points for m in (model, model2)
    }
    mc_grid = monte_carlo_grid(
        code, logicals, points, model, GAMMA_TS, SAMPLES, seed=SEED, threads=4, frame=frame
    )
    for i, (gt, mc) in enumerate(zip(GAMMA_TS, mc_grid)):
        for (theta, phi), rec in zip(points, mc):
            rows = [
                ("engine", engine_records[(theta, phi), model][i]),
                ("engine_conv2", engine_records[(theta, phi), model2][i]),
                ("monte_carlo", rec),
                ("closed_form", closed_form("local", theta, phi, 1.0, gt)),
            ]
            lines += [row(gt, theta, phi, source, r) for source, r in rows]
    out = pathlib.Path(__file__).resolve().parent.parent / "artifacts"
    out.mkdir(exist_ok=True)
    (out / "local_closed_form_comparison.csv").write_text("\n".join(lines) + "\n")
    print(f"wrote {out / 'local_closed_form_comparison.csv'}")


if __name__ == "__main__":
    main()
