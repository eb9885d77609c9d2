"""Command-line workbench: build codes, verify claims, run noise sweeps.

Exit codes: 0 all checks pass, 1 claim mismatch, 2 infeasible request
(dephase: component states sum_c 2^m_c above DEPHASE_MAX_SUPPORT, or
Monte Carlo work --mc-samples x states x t points above
DEPHASE_MAX_MC_WORK, each refused before the
frame lists a state, and before logicals are synthesized when the X-type
stabilizers alone, a lower bound, are past a cap), 64 usage error. Data
outputs (CSV/JSON) are byte-identical across reruns with the same flags;
each --out file gets an <out>.manifest.json sidecar.
main builds its argument parser on the first call and reuses it for every
later call in the process.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from . import __version__, dephasing, engine, lattice

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INFEASIBLE = 2
EXIT_USAGE = 64

# largest sum_c 2^m_c of the states the dephasing frame lists, one list per
# component of its generators (dephasing._components), state i the set of
# its generators chosen by the bits of i
DEPHASE_MAX_SUPPORT = 1 << 18
# samples * sum_c 2^m_c * t points. A local-noise sample costs one normal
# per qubit class (at most n) and sum_c 2^m_c states (dephasing._CosetKernel):
# about 0.2-0.3 us on the unit code (8 states, so 2^29 sample-t at the cap,
# ~2-3 min) and 1.1 us on lshape:1,1 (72 states) on a 2-core Xeon; a
# global-noise sample costs O(K), K <= n.
DEPHASE_MAX_MC_WORK = 1 << 32


class _Parser(argparse.ArgumentParser):
    """argparse with the BSD sysexits usage code instead of 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


@dataclass
class RunManifest:
    """Reproducibility sidecar written next to every --out file."""

    command: str
    parameters: Dict[str, object]
    version: str
    inputs: List[str] = field(default_factory=list)
    outputs: List[str] = field(default_factory=list)
    duration_seconds: float = 0.0

    def write(self, out_path: str) -> None:
        with open(out_path + ".manifest.json", "w") as fh:
            json.dump(asdict(self), fh, indent=2)
            fh.write("\n")


def _emit(text: str, out: Optional[str], manifest: RunManifest) -> bool:
    """Write text to out (stdout when None) and its manifest sidecar; False
    after a one-line "cannot write" message on stderr when that fails."""
    if out is None:
        sys.stdout.write(text)
        return True
    try:
        with open(out, "w") as fh:
            fh.write(text)
        manifest.outputs.append(out)
        manifest.write(out)
    except OSError as exc:
        print(f"{manifest.command}: cannot write output: {exc}", file=sys.stderr)
        return False
    return True


def _parse_target(target: str) -> lattice.CodeSpec:
    if target in lattice.NAMED_CODES:
        return lattice.build_named(target)
    if target.startswith("grid:"):
        p = int(target[len("grid:"):])
        if p < 1:
            raise ValueError("grid size p must be >= 1")
        return lattice.stack_grid(p)
    if target.startswith("lshape:"):
        parts = target[len("lshape:"):].split(",")
        if len(parts) == 3 and parts[2] == "matrix":
            fill = True
        elif len(parts) == 2:
            fill = False
        else:
            raise ValueError(f"cannot parse lshape target {target!r}")
        return lattice.stack_l_shape(int(parts[0]), int(parts[1]), fill)
    raise ValueError(f"unknown build target {target!r}")


def _load_code(path: str, command: str) -> Optional[lattice.CodeSpec]:
    """The CodeSpec in the JSON file at path, or None after a one-line
    "cannot load code" message on stderr."""
    try:
        with open(path) as fh:
            code = lattice.code_from_json(fh.read())
        engine.require_independent(code)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"{command}: cannot load code: {exc}", file=sys.stderr)
        return None
    return code


def _manifest(args: argparse.Namespace) -> RunManifest:
    return RunManifest(
        command=args.command, parameters=dict(vars(args)), version=__version__
    )


# --- subcommands --------------------------------------------------------------


def cmd_build(args: argparse.Namespace) -> int:
    manifest = _manifest(args)
    started = time.monotonic()
    try:
        code = _parse_target(args.target)
    except ValueError as exc:
        print(f"build: {exc}", file=sys.stderr)
        return EXIT_USAGE
    text = lattice.code_to_json(code)
    manifest.duration_seconds = time.monotonic() - started
    return EXIT_OK if _emit(text, args.out, manifest) else EXIT_USAGE


def cmd_verify(args: argparse.Namespace) -> int:
    if args.w_max < 1:
        print("verify: --w-max must be >= 1", file=sys.stderr)
        return EXIT_USAGE
    manifest = _manifest(args)
    started = time.monotonic()
    code = _load_code(args.code, "verify")
    if code is None:
        return EXIT_USAGE
    manifest.inputs.append(args.code)
    if args.kl and code.n > engine.KL_MAX_QUBITS:
        print(
            f"verify: codeword-matrix oracle infeasible for n = {code.n} > {engine.KL_MAX_QUBITS}",
            file=sys.stderr,
        )
        return EXIT_INFEASIBLE
    if code.logical_pairs is None and code.n > engine.SYNTHESIS_MAX_QUBITS:
        print(
            f"verify: no logical set given and synthesis infeasible for n = {code.n}",
            file=sys.stderr,
        )
        return EXIT_INFEASIBLE
    report = engine.verify_code(code, w_max=args.w_max, use_kl=args.kl)
    manifest.duration_seconds = time.monotonic() - started
    if not _emit(report.to_json(), args.out, manifest):
        return EXIT_USAGE

    status = EXIT_OK
    if not report.commuting or not report.logicals_ok:
        status = EXIT_MISMATCH
    if code.declared is not None:
        dn, dk, dd = code.declared
        if dn != code.n or dk != report.k:
            status = EXIT_MISMATCH
        if report.distance is None:
            if args.w_max >= dd:
                status = EXIT_MISMATCH  # true distance exceeds the claim
            elif status == EXIT_OK:
                print(
                    f"verify: w_max = {args.w_max} too small to confirm d = {dd}",
                    file=sys.stderr,
                )
                status = EXIT_INFEASIBLE
        elif report.distance != dd:
            status = EXIT_MISMATCH
    return status


def _parse_t_grid(text: str) -> List[float]:
    try:
        start_s, stop_s, steps_s = text.split(":")
        start, stop, steps = float(start_s), float(stop_s), int(steps_s)
    except ValueError:
        raise ValueError(f"cannot parse t grid {text!r}, expected start:stop:steps")
    if steps < 1 or not 0.0 <= start <= stop < math.inf:
        raise ValueError(f"invalid t grid {text!r}")
    if steps == 1:
        return [start]
    return [start + (stop - start) * i / (steps - 1) for i in range(steps)]


def _dephase_refused(states: int, args: argparse.Namespace, points: int, bound: str = "") -> bool:
    """Print one line and return True when a dephasing frame of sum_c 2^m_c
    states (dephasing._layout's size, or a lower bound of it, which bound
    names) is past the caps at args.mc_samples samples over points t
    points."""
    work = args.mc_samples * states * points
    if states <= DEPHASE_MAX_SUPPORT and work <= DEPHASE_MAX_MC_WORK:
        return False
    print(f"dephase: needs component states sum_c 2^m_c <= {DEPHASE_MAX_SUPPORT} and --mc-samples x "
          f"states x t points <= {DEPHASE_MAX_MC_WORK}, got {states} states, "
          f"{args.mc_samples} x {states} x {points}{bound}", file=sys.stderr)
    return True


def cmd_dephase(args: argparse.Namespace) -> int:
    manifest = _manifest(args)
    started = time.monotonic()
    if args.mc_samples > 0 and args.seed is None:
        print("dephase: --seed is required when --mc-samples > 0", file=sys.stderr)
        return EXIT_USAGE
    for ok, message in (
        (math.isfinite(args.theta), "--theta must be finite"),
        (math.isfinite(args.phi), "--phi must be finite"),
        (0.0 <= args.gamma < math.inf, "--gamma must be finite and >= 0"),
        (args.seed is None or args.seed >= 0, "--seed must be >= 0"),
        (args.threads >= 1, "--threads must be >= 1"),
        (args.mc_samples >= 0, "--mc-samples must be >= 0"),
    ):
        if not ok:
            print(f"dephase: {message}", file=sys.stderr)
            return EXIT_USAGE
    try:
        t_grid = _parse_t_grid(args.t_grid)
    except ValueError as exc:
        print(f"dephase: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if not math.isfinite(args.gamma * t_grid[-1]):
        print("dephase: --gamma x largest t must be finite", file=sys.stderr)
        return EXIT_USAGE
    if args.code is None:
        code = lattice.build_unit()
    else:
        code = _load_code(args.code, "dephase")
        if code is None:
            return EXIT_USAGE
        manifest.inputs.append(args.code)
    # the stabilizers alone bound the frame from below: a code refused there skips synthesis
    if _dephase_refused(dephasing._layout(code, [])[2], args, len(t_grid), " (lower bounds, no Xbar)"):
        return EXIT_INFEASIBLE
    pairs = code.logical_pairs
    logicals = engine.LogicalSet(pairs) if pairs is not None else engine.find_logical_set(code)
    if _dephase_refused(dephasing._layout(code, [x for x, _ in logicals.pairs[:1]])[2], args, len(t_grid)):
        return EXIT_INFEASIBLE
    model = dephasing.NoiseModel(args.kind, args.gamma)
    try:
        frame = dephasing._Frame(code, logicals)  # shared by the engine and MC
    except ValueError as exc:
        print(f"dephase: {exc}", file=sys.stderr)
        return EXIT_USAGE

    lines = [dephasing.SWEEP_COLUMNS]
    point = (args.theta, args.phi)
    engine_records = dephasing.bloch_and_leakage(code, logicals, *point, model, t_grid, frame=frame)
    mc_records = [None] * len(t_grid)
    if args.mc_samples > 0:
        grid = dephasing.monte_carlo_grid(code, logicals, [point], model, t_grid, args.mc_samples,
                                          args.seed, threads=args.threads, frame=frame)
        mc_records = [records[0] for records in grid]
    for t, rec, mc in zip(t_grid, engine_records, mc_records):
        closed = dephasing.closed_form(args.kind, args.theta, args.phi, args.gamma, t)
        for record, source in ((rec, "engine"), (closed, "closed_form"), (mc, "monte_carlo")):
            if record is not None:
                lines.append(dephasing.sweep_row(
                    record, args.gamma, args.theta, args.phi, args.kind, source))
    manifest.duration_seconds = time.monotonic() - started
    return EXIT_OK if _emit("\n".join(lines) + "\n", args.out, manifest) else EXIT_USAGE


def cmd_family(args: argparse.Namespace) -> int:
    if args.p_max < 1:
        print("family: --p-max must be >= 1", file=sys.stderr)
        return EXIT_USAGE
    print("p,n,m,k,d,rate,distance_check")
    for p in range(1, args.p_max + 1):
        fam = lattice.family_parameters(p)
        rate = fam.k / fam.n
        if fam.n <= engine.SYNTHESIS_MAX_QUBITS:
            code = lattice.stack_grid(p)
            found, _ = engine.distance_symplectic(code, w_max=fam.d)
            if found == fam.d:
                check = "verified"
            elif found is not None:
                check = f"refuted:min_weight={found}"
            else:
                check = f"refuted:d>{fam.d}"
        else:
            check = "unchecked"
        print(f"{p},{fam.n},{fam.m},{fam.k},{fam.d},{rate:.6f},{check}")
    return EXIT_OK


# --- entry point --------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="rhombuscode", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_build = sub.add_parser("build", help="emit a CodeSpec as JSON")
    p_build.add_argument(
        "target",
        help="unit | two_horizontal | two_vertical | grid_2x2 | "
        "grid:<p> | lshape:<v>,<h>[,matrix]",
    )
    p_build.add_argument("--out", default=None)

    p_verify = sub.add_parser("verify", help="verify a CodeSpec JSON file")
    p_verify.add_argument("code", help="path to CodeSpec JSON")
    p_verify.add_argument("--w-max", type=int, default=4)
    p_verify.add_argument("--kl", action="store_true",
                          help="cross-check with the codeword-matrix oracle")
    p_verify.add_argument("--out", default=None)

    p_deph = sub.add_parser("dephase", help="run a dephasing sweep to CSV")
    p_deph.add_argument("--code", default=None, help="CodeSpec JSON path (default: unit)")
    p_deph.add_argument("--kind", choices=dephasing.KINDS, required=True)
    p_deph.add_argument("--theta", type=float, required=True)
    p_deph.add_argument("--phi", type=float, required=True)
    p_deph.add_argument("--gamma", type=float, required=True)
    p_deph.add_argument("--t-grid", required=True, help="start:stop:steps")
    p_deph.add_argument("--mc-samples", type=int, default=0)
    p_deph.add_argument("--seed", type=int, default=None)
    p_deph.add_argument("--threads", type=int, default=1)
    p_deph.add_argument("--out", default=None)

    p_family = sub.add_parser("family", help="tabulate grid-family parameters")
    p_family.add_argument("--p-max", type=int, required=True)
    return parser


@functools.cache
def _shared_parser() -> _Parser:
    """The parser every main call uses, built on the first call, not at import."""
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _shared_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # looked up per call, so a handler rebound on this module (a test's
    # monkeypatch, a tracing wrapper) runs even though the parser is shared
    handlers = {"build": cmd_build, "verify": cmd_verify, "dephase": cmd_dephase,
                "family": cmd_family}
    return handlers[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
