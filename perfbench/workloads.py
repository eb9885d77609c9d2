"""The benchmark's workloads: inputs made from the seed, op lists, output checks.

Every op is one call into rhombuscode as a user makes it: almost always
``rhombuscode.cli.main([...])`` with ``--out`` into the work directory,
and, for codes the CLI refuses, ``engine.distance_symplectic`` as the
acceptance suite calls it. Each op carries the check of its own output;
ops with equal ``identity`` must also produce byte-identical output (the
same command across passes, or across ``--threads`` values).

This module imports nothing from rhombuscode at import time: ``prepare``
does, so that set-up time includes the import.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from scan_order import pauli_text

WORKLOADS = ("mc-unit", "dephase-wide", "verify-family")

NAMED = ("unit", "two_horizontal", "two_vertical", "grid_2x2")
CATALOG = {  # name -> (n, m, declared (n, k, d)), as transcribed in the paper
    "unit": (6, 4, (6, 2, 2)),
    "two_horizontal": (12, 7, (12, 5, 2)),
    "two_vertical": (10, 7, (10, 3, 3)),
    "grid_2x2": (20, 12, (20, 8, 3)),
}
GAMMA = "1.0"
MC_SE_LIMIT = 5.0  # an MC mean may sit at most this many SEs from the engine
MC_ABS_FLOOR = 1e-9  # for observables whose SE is (numerically) zero
CLOSED_FORM_TOL = 1e-12
ENGINE_TOL = 1e-9
KNOWN_DEFECT = "verify two_horizontal --kl"  # raises: distance methods disagree


@dataclass(frozen=True)
class Sizes:
    """How much work one pass of each workload does."""

    mc_unit_samples: int
    wide_sweep_points: int
    wide_mc_samples: int
    build_targets: Tuple[str, ...]
    verify_targets: Tuple[str, ...]
    distance_targets: Tuple[str, ...]
    family_p_max: int


FULL = Sizes(
    mc_unit_samples=1 << 17,  # two Philox batches of 2^16: both threads get one
    wide_sweep_points=10,
    wide_mc_samples=1 << 14,
    build_targets=NAMED
    + ("grid:1", "grid:2", "grid:3")
    + ("lshape:0,0", "lshape:1,0", "lshape:0,1", "lshape:1,1", "lshape:1,1,matrix",
       "lshape:2,1,matrix")
    + ("grid:12", "grid:16", "grid:20"),
    verify_targets=NAMED
    + ("grid:1", "grid:2", "lshape:0,0", "lshape:1,0", "lshape:0,1"),
    distance_targets=tuple(f"grid:{p}" for p in range(3, 11))
    + ("lshape:2,2", "lshape:3,3"),
    family_p_max=10,
)

SMOKE = Sizes(
    mc_unit_samples=1 << 12,
    wide_sweep_points=3,
    wide_mc_samples=1 << 10,
    build_targets=NAMED + ("grid:1", "grid:3", "lshape:0,0", "lshape:1,1,matrix", "grid:4"),
    verify_targets=("unit", "two_horizontal", "two_vertical", "grid:1", "lshape:0,0"),
    distance_targets=("grid:3", "lshape:2,2"),
    family_p_max=3,
)


# --- expected values, derived independently of the program ------------------


def expected_shape(target: str) -> Tuple[int, int, Tuple[int, int, int]]:
    """(n, m, declared) of a build target from the paper's formulas."""
    if target in CATALOG:
        return CATALOG[target]
    if target.startswith("grid:"):
        p = int(target[5:])
        n, m, k = 2 * p * (2 * p + 1), 2 * p * (p + 1), 2 * p * p
        return n, m, (n, k, 2 + p // 2)
    parts = target[len("lshape:"):].split(",")
    v, h, fill = int(parts[0]), int(parts[1]), len(parts) == 3
    n = 10 + 8 * v + 10 * h + (8 * v * h if fill else 0)
    k = 3 + 2 * v + 5 * h + (4 * v * h if fill else 0)
    return n, n - k, (n, k, v + 3)


def expected_verify(target: str) -> Tuple[int, int, str]:
    """(exit code, distance, witness): the golden verify table.

    The declared distances of every code but the unit cell are refuted by
    the program's two distance methods (see the repository README).
    """
    if target in ("unit", "grid:1"):
        return 0, 2, "Z1Z2"
    if target == "two_horizontal":
        return 1, 1, "X7"
    return 1, 2, "Z1Z2"


def family_table(p_max: int) -> str:
    lines = ["p,n,m,k,d,rate,distance_check"]
    for p in range(1, p_max + 1):
        n, m, (_, k, d) = expected_shape(f"grid:{p}")
        check = {1: "verified", 2: "refuted:min_weight=2"}.get(p, "unchecked")
        lines.append(f"{p},{n},{m},{k},{d},{k / n:.6f},{check}")
    return "\n".join(lines) + "\n"


def t_points(start: float, stop: float, steps: int) -> List[float]:
    if steps == 1:
        return [start]
    return [start + (stop - start) * i / (steps - 1) for i in range(steps)]


# --- ops ----------------------------------------------------------------------


@dataclass
class Outcome:
    exit_code: Optional[int] = None
    text: str = ""
    stderr: str = ""
    error: Optional[str] = None  # the op raised instead of returning


@dataclass
class Op:
    name: str
    identity: str
    check: Callable[[Outcome], List[str]]
    argv: Optional[List[str]] = None  # a CLI call ...
    func: Optional[Callable[[], object]] = None  # ... or a library call
    render: Optional[Callable[[object], str]] = None
    out: Optional[str] = None
    mc_samples: int = 0  # samples x MC t points
    sweep_points: int = 0  # engine-only t points
    threads: int = 0


@dataclass
class Prepared:
    """Set-up products: the imported program and the generated inputs."""

    modules: Dict[str, object]
    workdir: str
    codes: Dict[str, object] = field(default_factory=dict)


def prepare(workload: str, sizes: Sizes, workdir: str) -> Prepared:
    """Import rhombuscode and generate the input files of one workload."""
    import rhombuscode
    from rhombuscode import cli, dephasing, engine, gf2, lattice, pauli

    modules = {
        "rhombuscode": rhombuscode,
        "cli": cli,
        "lattice": lattice,
        "pauli": pauli,
        "gf2": gf2,
        "engine": engine,
        "dephasing": dephasing,
    }
    os.makedirs(workdir, exist_ok=True)
    prepared = Prepared(modules, workdir)
    if workload == "dephase-wide":
        inputs = ("two_horizontal", "two_vertical")
    elif workload == "verify-family":
        inputs = sizes.verify_targets + ("grid:3",)
    else:
        inputs = ()
    for target in inputs:
        status = cli.main(["build", target, "--out", input_path(workdir, target)])
        if status != 0:
            raise RuntimeError(f"set-up: build {target} exited {status}")
    if workload == "verify-family":
        for target in sizes.distance_targets:
            prepared.codes[target] = _library_code(lattice, target)
    return prepared


def _library_code(lattice, target: str):
    """A family member the CLI refuses to verify, built as the tests build it."""
    kind, _, spec = target.partition(":")
    if kind == "grid":
        return lattice.stack_grid(int(spec))
    v, h = spec.split(",")
    return lattice.stack_l_shape(int(v), int(h))


def input_path(workdir: str, target: str) -> str:
    return os.path.join(workdir, "in-" + target.replace(":", "_").replace(",", "_") + ".json")


def make_ops(workload: str, seed: int, sizes: Sizes, prepared: Prepared, nproc: int) -> List[Op]:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "mc-unit":
        return _mc_unit_ops(rng, sizes, prepared.workdir, nproc)
    if workload == "dephase-wide":
        return _dephase_wide_ops(rng, sizes, prepared.workdir)
    if workload == "verify-family":
        return _verify_family_ops(sizes, prepared)
    raise ValueError(f"unknown workload {workload!r}")


def _angles(rng: random.Random) -> Tuple[float, float]:
    return rng.uniform(0.3, 2.8), rng.uniform(0.0, 2.0 * math.pi)


def _dephase_op(name, workdir, kind, theta, phi, grid, samples, seed, threads,
                code_path=None, unit_closed_form=False) -> Op:
    start, stop, steps = grid
    argv = ["dephase"]
    if code_path is not None:
        argv += ["--code", code_path]
    argv += [
        "--kind", kind, "--theta", repr(theta), "--phi", repr(phi), "--gamma", GAMMA,
        "--t-grid", f"{start!r}:{stop!r}:{steps}",
    ]
    if samples:
        argv += ["--mc-samples", str(samples), "--seed", str(seed)]
    identity = " ".join(argv)
    argv += ["--threads", str(threads)]
    out = os.path.join(workdir, f"{name}-t{threads}.csv")
    points = t_points(start, stop, steps)
    return Op(
        name=f"{name} threads={threads}",
        identity=identity,
        argv=argv + ["--out", out],
        out=out,
        check=_sweep_check(theta, phi, points, bool(samples),
                           unit_closed_form and kind == "global"),
        mc_samples=samples * len(points),
        sweep_points=0 if samples else len(points),
        threads=threads,
    )


def _mc_unit_ops(rng, sizes, workdir, nproc) -> List[Op]:
    ops = []
    for kind in ("local", "global"):
        theta, phi = _angles(rng)
        t = rng.uniform(0.2, 1.5)
        seed = rng.randrange(1, 2**31)
        for threads in sorted({1, nproc}):
            ops.append(_dephase_op(
                f"mc-unit-{kind}", workdir, kind, theta, phi, (t, t, 1),
                sizes.mc_unit_samples, seed, threads, unit_closed_form=True,
            ))
    return ops


def _dephase_wide_ops(rng, sizes, workdir) -> List[Op]:
    ops = []
    for target in ("two_horizontal", "two_vertical"):
        path = input_path(workdir, target)
        for kind in ("local", "global"):
            theta, phi = _angles(rng)
            stop = rng.uniform(3.0, 6.0)
            ops.append(_dephase_op(
                f"sweep-{target}-{kind}", workdir, kind, theta, phi,
                (0.0, stop, sizes.wide_sweep_points), 0, 0, 1, code_path=path,
            ))
            t1 = rng.uniform(0.2, 0.8)
            t2 = t1 + rng.uniform(0.3, 1.0)
            ops.append(_dephase_op(
                f"mc-{target}-{kind}", workdir, kind, theta, phi, (t1, t2, 2),
                sizes.wide_mc_samples, rng.randrange(1, 2**31), 1, code_path=path,
            ))
    return ops


def _verify_family_ops(sizes, prepared) -> List[Op]:
    workdir = prepared.workdir
    engine = prepared.modules["engine"]
    ops = []
    for target in sizes.build_targets:
        out = os.path.join(workdir, "build-" + os.path.basename(input_path(workdir, target)))
        ops.append(Op(
            name=f"build {target}", identity=f"build {target}",
            argv=["build", target, "--out", out], out=out, check=_build_check(target),
        ))
    for target in sizes.verify_targets:
        for kl in (False, True):
            flag = ["--kl"] if kl else []
            name = f"verify {target}" + (" --kl" if kl else "")
            out = os.path.join(workdir, f"report-{len(ops)}.json")
            ops.append(Op(
                name=name, identity=name,
                argv=["verify", input_path(workdir, target), *flag, "--out", out],
                out=out, check=_verify_check(target),
            ))
    ops.append(Op(
        name="verify grid:3", identity="verify grid:3",
        argv=["verify", input_path(workdir, "grid:3")], check=_infeasible_check,
    ))
    ops.append(Op(
        name=f"family --p-max {sizes.family_p_max}",
        identity="family", argv=["family", "--p-max", str(sizes.family_p_max)],
        check=_text_check(family_table(sizes.family_p_max)),
    ))
    for target in sizes.distance_targets:
        code = prepared.codes[target]
        ops.append(Op(
            name=f"distance_symplectic {target} w_max=3",
            identity=f"distance {target}",
            func=lambda code=code: engine.distance_symplectic(code, w_max=3),
            render=_render_distance,
            check=_text_check("2 Z1Z2"),
        ))
    return ops


def _render_distance(value) -> str:
    d, witness = value
    if witness is None:
        return f"{d} -"
    return f"{d} {pauli_text(witness.x_mask, witness.z_mask, witness.n)}"


# --- checks -------------------------------------------------------------------


def _text_check(expected: str):
    def check(o: Outcome) -> List[str]:
        if o.exit_code not in (None, 0):
            return [f"exit {o.exit_code}, want 0"]
        return [] if o.text == expected else [f"output {o.text[:80]!r} != {expected[:80]!r}"]

    return check


def _build_check(target: str):
    n, m, declared = expected_shape(target)

    def check(o: Outcome) -> List[str]:
        if o.exit_code != 0:
            return [f"exit {o.exit_code}, want 0"]
        doc = json.loads(o.text)
        got = (doc["n"], len(doc["stabilizers"]), tuple(doc["declared"]))
        return [] if got == (n, m, declared) else [f"(n, m, declared) {got} != {(n, m, declared)}"]

    return check


def _verify_check(target: str):
    want_exit, want_d, want_witness = expected_verify(target)
    want_k = expected_shape(target)[2][1]

    def check(o: Outcome) -> List[str]:
        problems = []
        if o.exit_code != want_exit:
            problems.append(f"exit {o.exit_code}, want {want_exit}")
        doc = json.loads(o.text)
        got = (doc["commuting"], doc["k"], doc["distance"], doc["witness"])
        want = (True, want_k, want_d, want_witness)
        if got != want:
            problems.append(f"(commuting, k, d, witness) {got} != {want}")
        return problems

    return check


def _infeasible_check(o: Outcome) -> List[str]:
    if o.exit_code != 2 or "infeasible" not in o.stderr:
        return [f"exit {o.exit_code} ({o.stderr.strip()!r}), want 2 infeasible"]
    return []


VALUE_COLUMNS = ("r_x", "r_y", "r_z", "p_x", "p_y", "p_z")


def _sweep_check(theta, phi, points, with_mc, unit_closed_form):
    ideal = (math.sin(theta) * math.cos(phi), -math.sin(theta) * math.sin(phi), math.cos(theta))

    def check(o: Outcome) -> List[str]:
        if o.exit_code != 0:
            return [f"exit {o.exit_code}, want 0"]
        rows = list(csv.DictReader(io.StringIO(o.text)))
        per_t = 3 if with_mc else 2
        if len(rows) != per_t * len(points):
            return [f"{len(rows)} rows, want {per_t * len(points)}"]
        problems = []
        for i, t in enumerate(points):
            block = {r["source"]: r for r in rows[per_t * i: per_t * (i + 1)]}
            engine = block.get("engine")
            if engine is None or abs(float(engine["t"]) - t) > 1e-12:
                problems.append(f"no engine row at t={t!r}")
                continue
            e = [float(engine[c]) for c in VALUE_COLUMNS]
            if abs(e[2] - ideal[2]) > ENGINE_TOL or math.hypot(*e[:3]) > 1 + ENGINE_TOL:
                problems.append(f"engine Bloch vector {e[:3]} off the dephasing bounds at t={t!r}")
            if t == 0.0 and max(abs(a - b) for a, b in zip(e[:3], ideal)) > ENGINE_TOL:
                problems.append(f"engine t=0 Bloch vector {e[:3]} != prepared {ideal}")
            if unit_closed_form:
                c = [float(block["closed_form"][col]) for col in VALUE_COLUMNS]
                worst = max(abs(a - b) for a, b in zip(e, c))
                if worst > CLOSED_FORM_TOL:
                    problems.append(f"engine vs closed_form differ by {worst:.3e} at t={t!r}")
            if with_mc:
                mc = block.get("monte_carlo")
                if mc is None:
                    problems.append(f"no monte_carlo row at t={t!r}")
                    continue
                for col, ev in zip(VALUE_COLUMNS, e):
                    dev = abs(float(mc[col]) - ev)
                    limit = MC_SE_LIMIT * float(mc["se_" + col]) + MC_ABS_FLOOR
                    if dev > limit:
                        problems.append(f"MC {col} {dev:.3e} from engine > {limit:.3e} at t={t!r}")
        return problems

    return check
