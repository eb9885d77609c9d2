"""Benchmark of the rhombuscode toolkit: closed-loop CLI workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload mc-unit --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20
    python3 perfbench/run.py --workload all --seed 1 --smoke

One client process runs a workload's op list pass after pass (a closed
loop: the next op starts when the previous one returned) until
``--seconds`` is used up, checks every op's output, and prints each metric
by name with its unit. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.

``--trace 0`` reports the end-to-end metrics of an untraced run.
``--trace 1`` runs untraced passes, then the same passes with every public
function of rhombuscode's layers wrapped (see spans.py), and reports the
per-layer metrics. ``--workload all`` runs every workload both ways, each
in its own interpreter, and merges the result lines.
``--smoke`` runs one pass of every op at a tiny size.

The program is imported from ``src/`` of the checkout, never from an
installed copy; without it the benchmark exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

import scan_order
import spans
import workloads
from workloads import FULL, SMOKE, WORKLOADS, Op, Outcome

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SCRATCH = os.path.join(ROOT, ".perfbench-work")
RESULTS = os.path.join(ROOT, ".perfbench-out")
SETUP_REPEATS = 7
MIN_BEYOND = 10  # a percentile is reported only with this many ops beyond it
LAYERS = ("cli", "lattice", "pauli", "gf2", "engine", "dephasing")
# Workloads whose ops all run at --threads 1 hold numpy's BLAS pool to one
# thread. On a shared 2-core host the pool's threads wait on each other at
# every matrix product of the MC kernel, and dephase-wide's run-to-run
# spread was three times wider with the pool than without. mc-unit keeps
# the default pool: it compares --threads values, and the pool competing
# with the MC workers is what makes --threads nproc slower there today.
ONE_BLAS_THREAD = ("dephase-wide", "verify-family")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
LEAF_FUNCTIONS = {
    "dephasing.dephased_pauli_expectation",
    "dephasing.decoherence_factor",
    "dephasing.magnetization",
    "dephasing.format_float",
    "dephasing.sweep_row",
}
LATTICE_BUILD = ("build_named", "build_unit", "stack_grid", "stack_l_shape",
                 "layout_coordinates", "family_parameters")
LATTICE_JSON = ("code_to_json", "code_from_json")


class SetupError(Exception):
    """The checkout has no usable program to benchmark."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def import_program() -> None:
    """Put the checkout's src/ first on sys.path and check where the import resolves."""
    if not os.path.isfile(os.path.join(SRC, "rhombuscode", "__init__.py")):
        raise SetupError(f"no rhombuscode sources under {SRC}")
    sys.path.insert(0, SRC)
    import rhombuscode

    if not os.path.abspath(rhombuscode.__file__).startswith(SRC + os.sep):
        raise SetupError(f"rhombuscode resolved to {rhombuscode.__file__}, not {SRC}")


# --- set-up -------------------------------------------------------------------


def setup_probe(workload: str, smoke: bool) -> float:
    """One cold set-up in this (fresh) interpreter: import plus inputs."""
    workdir = os.path.join(SCRATCH, f"probe-{os.getpid()}")
    try:
        start = time.perf_counter()
        import_program()
        workloads.prepare(workload, SMOKE if smoke else FULL, workdir)
        return time.perf_counter() - start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure_setup(workload: str, smoke: bool) -> List[float]:
    """Set-up times of SETUP_REPEATS fresh interpreters, one after another."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe", "--workload", workload]
    if smoke:
        cmd.append("--smoke")
    times = []
    for _ in range(1 if smoke else SETUP_REPEATS):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


# --- running ops --------------------------------------------------------------


class Runner:
    """Runs ops, times them, checks outputs, and counts failures."""

    def __init__(self, prepared: workloads.Prepared, ops: List[Op], seed: int):
        self.cli = prepared.modules["cli"]
        self.namespaces = list(prepared.modules.values())
        self.ops = ops
        self.order = random.Random(f"order:{seed}")
        self.digests: Dict[str, str] = {}
        self.attempted = 0
        self.failed: Dict[str, int] = {}
        self.problems: List[str] = []  # wrong outputs (not crashes)
        self.tracer: Optional[spans.Tracer] = None

    def run_pass(self) -> List[Tuple[Op, float]]:
        ops = list(self.ops)
        self.order.shuffle(ops)
        return [(op, self.run_op(op)) for op in ops]

    def run_op(self, op: Op) -> float:
        if self.tracer is None and spans.find_wrappers(self.namespaces):
            raise RuntimeError("tracer wrappers installed during an untraced run")
        if op.out is not None and os.path.exists(op.out):
            os.remove(op.out)
        outcome = Outcome()
        stdout, stderr = io.StringIO(), io.StringIO()
        value = None
        if self.tracer is not None:
            self.tracer.active = True
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                if op.argv is not None:
                    outcome.exit_code = self.cli.main(op.argv)
                else:
                    value = op.func()
        except Exception as exc:  # a crash of the program is a failed op, not a stop
            outcome.error = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if self.tracer is not None:
            self.tracer.active = False
        self.attempted += 1
        if outcome.error is not None:
            self.failed[op.name] = self.failed.get(op.name, 0) + 1
            return elapsed
        outcome.stderr = stderr.getvalue()
        if op.render is not None:
            outcome.text = op.render(value)
        elif op.out is not None and os.path.exists(op.out):
            with open(op.out) as fh:
                outcome.text = fh.read()
        else:
            outcome.text = stdout.getvalue()
        found = op.check(outcome)
        digest = hashlib.sha256(outcome.text.encode()).hexdigest()
        if self.digests.setdefault(op.identity, digest) != digest:
            found.append("output differs from an earlier run of the same inputs")
        if found:
            self.failed[op.name] = self.failed.get(op.name, 0) + 1
            self.problems += [f"{op.name}: {p}" for p in found]
        return elapsed


def run_passes(runner: Runner, seconds: float, min_passes: int) -> List[List[Tuple[Op, float]]]:
    """Passes until the next one would overrun ``seconds`` (at least min_passes)."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(runner.run_pass())
        elapsed = time.perf_counter() - start
        if len(passes) >= min_passes and elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes


def pass_wall(one_pass) -> float:
    return sum(t for _, t in one_pass)


def median_pass_wall(passes) -> float:
    """One pass over the op list with each op at its median time over the passes."""
    return sum(statistics.median(ts) for ts in op_times(passes).values())


def op_times(passes) -> Dict[str, List[float]]:
    """Each op's times across passes."""
    times: Dict[str, List[float]] = {}
    for one_pass in passes:
        for op, t in one_pass:
            times.setdefault(op.name, []).append(t)
    return times


# --- metrics ------------------------------------------------------------------


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


def ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def end_to_end(passes, setup_times, runner) -> Tuple[Dict, List[str]]:
    """End-to-end metrics of an untraced run, and the report lines."""
    walls = [pass_wall(p) for p in passes]
    times = [t for p in passes for _, t in p]
    ops = [(op, t) for p in passes for op, t in p]
    mc = [(op, t) for op, t in ops if op.mc_samples]
    sweep = [(op, t) for op, t in ops if op.sweep_points]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = {
        "wall_s": metric(median_pass_wall(passes), "s"),
        "setup_s": metric(statistics.median(setup_times), "s"),
    }
    n_ops = len(times)
    lines = [
        f"wall_s = {result['wall_s']['value']:.6f} s  ({len(runner.ops)} ops, each at its "
        f"median over {len(walls)} passes; whole passes: median {statistics.median(walls):.4f}, "
        f"quartiles {quartiles(walls)})",
        f"op_p50_s = {statistics.median(times):.6f} s  ({n_ops} ops"
        + ("" if n_ops >= 2 * MIN_BEYOND else f"; fewer than {2 * MIN_BEYOND}, not a valid p50")
        + ")",
    ]
    if n_ops * 0.1 >= MIN_BEYOND:
        lines.append(f"op_p90_s = {statistics.quantiles(times, n=10)[8]:.6f} s  ({n_ops} ops)")
    else:
        lines.append(f"op_p90_s = n/a  ({n_ops} ops; needs {10 * MIN_BEYOND})")
    if mc:
        samples = sum(op.mc_samples for op, _ in mc)
        wall = sum(t for _, t in mc)
        lines.append(f"mc_samples_per_s = {samples / wall:.1f} 1/s  "
                     f"({samples} samples x t points over {wall:.4f} s of {len(mc)} MC ops)")
    if sweep:
        points = sum(op.sweep_points for op, _ in sweep)
        wall = sum(t for _, t in sweep)
        lines.append(f"sweep_points_per_s = {points / wall:.3f} 1/s  "
                     f"({points} engine t points over {wall:.4f} s of {len(sweep)} sweep ops)")
    threaded = [t for op, t in mc if op.threads > 1]
    if threaded:
        serial = sum(t for op, t in mc if op.threads == 1)
        lines.append(f"threads_speedup = {serial / sum(threaded):.4f}  "
                     f"(threads=1 {serial:.4f} s / threads={nproc()} {sum(threaded):.4f} s, "
                     "same ops)")
    lines += [
        f"setup_s = {result['setup_s']['value']:.6f} s  (median of {len(setup_times)} "
        f"fresh interpreters: {', '.join(f'{t:.4f}' for t in setup_times)})",
        f"peak_rss_mb = {rss_mb:.1f} MB",
        failed_line(runner),
    ]
    return result, lines


def failed_line(runner: Runner) -> str:
    failed = sum(runner.failed.values())
    text = (f"ops_failed_frac = {ratio(failed, runner.attempted):.6f}  "
            f"(failed {failed} / attempted {runner.attempted})")
    for name, count in sorted(runner.failed.items()):
        known = " [known program defect]" if name == workloads.KNOWN_DEFECT else ""
        text += f"\n    failed {count}x: {name}{known}"
    return text


def quartiles(values: List[float]) -> str:
    if len(values) < 2:
        return "n/a"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{q1:.4f}..{q3:.4f}"


def per_layer(tracer: spans.Tracer, traced, untraced) -> Tuple[Dict, List[str]]:
    """Per-layer metrics of the traced passes, averaged per pass."""
    n = len(traced)
    traced_wall = sum(pass_wall(p) for p in traced) / n
    totals = tracer.totals()
    counters = tracer.counters()
    dephase_ops = sum(1 for op, _ in traced[0] if op.argv and op.argv[0] == "dephase")

    def calls(*names):
        return sum(totals.get(name, (0, 0.0, 0.0))[0] for name in names) / n

    def self_s(*names):
        return sum(totals.get(name, (0, 0.0, 0.0))[2] for name in names) / n

    def layer_self(layer):
        return sum(v[2] for name, v in totals.items() if name.startswith(layer + ".")) / n

    def pct(seconds):
        return 100.0 * seconds / traced_wall

    mc_self = self_s("dephasing.monte_carlo_grid", "dephasing.monte_carlo_oracle")
    pe_calls = calls("dephasing.dephased_pauli_expectation")
    pe_total = totals.get("dephasing.dephased_pauli_expectation", (0, 0.0, 0.0))[1] / n
    build_self = self_s(*(f"lattice.{f}" for f in LATTICE_BUILD))
    json_self = self_s(*(f"lattice.{f}" for f in LATTICE_JSON))
    searches = {
        kind: (f"engine.{fn}", counters.get(f"engine.{kind}.candidates", 0) / n)
        for kind, fn in (("symplectic", "distance_symplectic"), ("kl", "distance_kl_oracle"))
    }
    overhead = (statistics.median(pass_wall(p) for p in traced)
                - statistics.median(pass_wall(p) for p in untraced))
    result = {
        "dephasing.pauli_expectation.calls": metric(pe_calls, "count"),
        "dephasing.code_space_operator.calls_per_op": metric(
            ratio(calls("dephasing.code_space_operator"), dephase_ops), "calls/op"),
        "dephasing.mc.samples": metric(counters.get("dephasing.mc.samples", 0) / n, "count"),
        "engine.codeword_zero.calls": metric(calls("engine.codeword_zero"), "count"),
        "engine.symplectic.candidates": metric(searches["symplectic"][1], "count"),
        "engine.kl.candidates": metric(searches["kl"][1], "count"),
        "gf2.in_span.calls": metric(calls("gf2.in_span"), "count"),
        "gf2.row_reduce.calls": metric(calls("gf2.row_reduce"), "count"),
        "pauli.commutes.calls": metric(calls("pauli.commutes"), "count"),
        "pauli.multiply.calls": metric(calls("pauli.multiply"), "count"),
        "pauli.apply.calls": metric(calls("pauli.apply"), "count"),
        "pauli.to_string.calls": metric(calls("pauli.to_string"), "count"),
        "cli.self_s": metric(layer_self("cli"), "s"),
        "lattice.self_s": metric(layer_self("lattice"), "s"),
        "pauli.self_s": metric(layer_self("pauli"), "s"),
        "gf2.self_s": metric(layer_self("gf2"), "s"),
        "engine.self_s": metric(layer_self("engine"), "s"),
        "trace.overhead_s": metric(overhead, "s"),
        "dephasing.mc.self_pct": metric(pct(mc_self), "%"),
        "dephasing.engine.self_pct": metric(pct(self_s("dephasing.bloch_and_leakage")), "%"),
        "dephasing.pauli_expectation.self_pct": metric(
            pct(self_s("dephasing.dephased_pauli_expectation")), "%"),
        "engine.codeword_zero.self_pct": metric(pct(self_s("engine.codeword_zero")), "%"),
        "engine.distance_symplectic.self_pct": metric(
            pct(self_s("engine.distance_symplectic")), "%"),
        "engine.distance_kl_oracle.self_pct": metric(pct(self_s("engine.distance_kl_oracle")), "%"),
        "engine.find_logical_set.self_pct": metric(pct(self_s("engine.find_logical_set")), "%"),
        "lattice.build.self_pct": metric(pct(build_self), "%"),
        "lattice.json.self_pct": metric(pct(json_self), "%"),
    }
    lines = [f"traced passes: {n}, mean traced pass {traced_wall:.6f} s; "
             f"untraced passes: {len(untraced)}; values are per pass"]
    lines += [f"{name} = {m['value']:.6g} {m['unit']}" for name, m in result.items()]
    # absolute forms of the shares above, and rates; named as in the issue
    lines += [
        f"dephasing.mc.self_s = {mc_self:.6f} s",
        "dephasing.mc.samples_per_s = "
        f"{ratio(result['dephasing.mc.samples']['value'], mc_self):.1f} 1/s"
        " (samples per MC self second)",
        f"dephasing.engine.self_s = {self_s('dephasing.bloch_and_leakage'):.6f} s",
        f"dephasing.pauli_expectation.us_per_call = {1e6 * ratio(pe_total, pe_calls):.3f} us",
        f"engine.codeword_zero.self_s = {self_s('engine.codeword_zero'):.6f} s",
        f"engine.distance_symplectic.self_s = {self_s('engine.distance_symplectic'):.6f} s",
        f"engine.distance_kl_oracle.self_s = {self_s('engine.distance_kl_oracle'):.6f} s",
        f"engine.find_logical_set.self_s = {self_s('engine.find_logical_set'):.6f} s",
        f"lattice.build.self_s = {build_self:.6f} s",
        f"lattice.json.self_s = {json_self:.6f} s",
        f"lattice.build.qubits_per_s = "
        f"{ratio(counters.get('lattice.build.qubits', 0) / n, build_self):.1f} 1/s",
        f"dephasing.self_s = {layer_self('dephasing'):.6f} s",
    ]
    for kind, (fn, count) in searches.items():
        lines.append(f"engine.{kind}.candidates_per_s = {ratio(count, self_s(fn)):.1f} 1/s "
                     f"(computed count {count:g} / {fn} self time)")
    return result, lines


def hooks() -> Dict[str, spans.Hook]:
    """Counters taken from the arguments and results of traced calls."""

    def candidates(counter):
        def hook(counters, bound, result):
            d, witness = result
            code, w_max = bound.arguments["code"], bound.arguments["w_max"]
            count = scan_order.candidates_scanned(
                code.n, w_max, d,
                witness.x_mask if witness is not None else 0,
                witness.z_mask if witness is not None else 0,
            )
            counters[counter] = counters.get(counter, 0) + count
        return hook

    def qubits(counters, bound, result):
        counters["lattice.build.qubits"] = counters.get("lattice.build.qubits", 0) + result.n

    def samples(counters, bound, result):
        counters["dephasing.mc.samples"] = (
            counters.get("dephasing.mc.samples", 0) + bound.arguments["samples"])

    return {
        "engine.distance_symplectic": candidates("engine.symplectic.candidates"),
        "engine.distance_kl_oracle": candidates("engine.kl.candidates"),
        "lattice.build_named": qubits,
        "lattice.stack_grid": qubits,
        "lattice.stack_l_shape": qubits,
        "dephasing.monte_carlo_grid": samples,
    }


def make_tracer(prepared: workloads.Prepared) -> spans.Tracer:
    modules = prepared.modules
    return spans.Tracer(
        layers={layer: modules[layer] for layer in LAYERS},
        namespaces=modules.values(),
        is_leaf=lambda name: name.split(".")[0] in ("pauli", "gf2") or name in LEAF_FUNCTIONS,
        hooks=hooks(),
    )


# --- environment and output ------------------------------------------------------


def environment(seed: int) -> Dict[str, object]:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    sha = "unknown (not a git checkout)"
    if os.path.exists(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        if proc.returncode == 0:
            sha = proc.stdout.strip()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": nproc(),
        "cpu": cpu,
        "git_sha": sha,
        "seed": seed,
        "blas_threads": {name: os.environ.get(name, "default") for name in BLAS_THREAD_VARS},
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool, smoke: bool,
                 workdir: str) -> Tuple[Dict, Runner, Dict]:
    """One run of one workload; returns (metrics, runner, record for the results file)."""
    sizes = SMOKE if smoke else FULL
    setup_times = [] if trace else measure_setup(workload, smoke)
    prepared = workloads.prepare(workload, sizes, os.path.join(workdir, workload))
    runner = Runner(prepared, workloads.make_ops(workload, seed, sizes, prepared, nproc()), seed)
    min_passes = 1 if smoke else 3
    if smoke:
        seconds = 0.0
    runner.run_pass()  # warm-up: outputs checked and counted, times dropped
    tag = f"[{workload}]"
    if not trace:
        passes = run_passes(runner, seconds, min_passes)
        result, lines = end_to_end(passes, setup_times, runner)
        record = {"passes": [pass_wall(p) for p in passes], "op_times": op_times(passes)}
    else:
        untraced = run_passes(runner, seconds / 2, min_passes)
        runner.tracer = tracer = make_tracer(prepared)
        tracer.install()
        try:
            traced = run_passes(runner, seconds / 2, 1)
        finally:
            tracer.uninstall()
            runner.tracer = None
        result, lines = per_layer(tracer, traced, untraced)
        lines.append(failed_line(runner))
        record = {
            "untraced_passes": [pass_wall(p) for p in untraced],
            "traced_passes": [pass_wall(p) for p in traced],
            "totals": tracer.totals(),
            "counters": tracer.counters(),
            "spans": tracer.spans(),
        }
    for line in lines:
        print(f"{tag} {line}")
    for problem in runner.problems[:20]:
        print(f"{tag} WRONG OUTPUT {problem}")
    return result, runner, record


def run_all(args) -> int:
    """Every workload, untraced then traced, one after another, each in a fresh
    interpreter as the benchmark command runs it; one merged result line."""
    metrics: Dict[str, Dict] = {}
    correct, attempted, failed = True, 0, 0
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)] + (["--smoke"] if args.smoke else [])
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=4 * args.seconds + 600)
            lines = proc.stdout.strip().splitlines()
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                for line in lines:
                    print(line)
                return proc.returncode
            print("\n".join(lines[:-1]))
            result = json.loads(lines[-1])
            metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
            correct = correct and result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one pass of every op at a tiny size")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.workload == "all":
        return run_all(args)
    if args.workload in ONE_BLAS_THREAD:
        os.environ.update({name: "1" for name in BLAS_THREAD_VARS})  # before numpy loads
    try:
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_probe(args.workload, args.smoke)}))
            return 0
        import_program()
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    workdir = os.path.join(SCRATCH, str(os.getpid()))
    env = environment(args.seed)
    print("env " + json.dumps(env, sort_keys=True))
    try:
        metrics, runner, record = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), args.smoke, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(RESULTS, exist_ok=True)
    out = {"env": env, "args": vars(args), "metrics": metrics,
           "runs": {f"{args.workload}.trace{args.trace}": record}}
    path = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(out, fh)
    print(json.dumps({"correct": not runner.problems, "attempted": runner.attempted,
                      "failed": sum(runner.failed.values()), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
