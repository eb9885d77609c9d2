"""Alternating A/B pairs of the benchmark: a parent revision against this checkout.

Usage, from the root of a checkout:

    python3 scripts/ab_pairs.py <parent-rev> --workload verify-family --pairs 10 \\
        --seconds 10 --seed 7 [--out BENCH.json]

The parent revision is exported with ``git archive`` into a temporary
directory, and this checkout's working tree (its tracked files and the
untracked ones git does not ignore, as ``git ls-files --cached --others
--exclude-standard`` lists them) is copied into another, so both sides run
from fresh copies with no build or run leftovers and no ``.git``; both
directories are removed afterwards. Each pair runs
``perfbench/run.py --workload W --seed K --seconds S --trace 0`` once in
each copy, each with its own ``perfbench/`` and ``src/``; the parent runs
first in even pairs and second in odd ones.
For each end-to-end metric (wall_s, setup_s; lower is better) the script
prints both sides per pair, each side's median and quartiles, the wins of
each side (a tie counts for neither) and whether a gain may be claimed: at
least ten pairs, the change wins at least nine tenths of them, and the
parent's median exceeds the change's by more than the distance between the
parent's quartiles. --out PATH also writes every pair's metrics, each
metric's summary (medians, quartiles, wins, whether the gain rule holds),
the rule itself, the core count and the Python, numpy and scipy versions
as JSON.

``--in-process`` runs both sides in this one interpreter instead, so that
the noise of separate processes (start-up, scheduling, memory layout) is
shared by the two sides. Each side's ``perfbench/run.py`` is loaded from
its copy; it imports that copy's ``rhombuscode`` and
``perfbench/workloads.py`` (with ``scan_order`` and ``spans``), prepares
the workload's inputs and makes its op list, once. The ``sys.modules``
entries of those modules are swapped between the sides before every op,
so each op runs on its own side's modules, lazy imports included. After
one warm-up pass per side, ``--pairs`` passes run the op list in an order
shuffled per pass, alternating op by op: parent then change on one op,
change then parent on the next, and the side that goes first on a pass's
first op alternates between passes. Each op is run and checked by its
side's ``run.Runner``; ``--seconds`` is not used. The script prints each
op's medians and wins, then the gain rule over the per-pass walls (the sum
of a pass's op times, one pair per pass) and each side's sum of per-op
medians, which is how ``perfbench/run.py`` reports ``wall_s``. ``setup_s``
and ``threads_speedup`` need separate processes and are not reported.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
METRICS = ("wall_s", "setup_s")
MIN_PAIRS = 10
WIN_SHARE = 0.9


@dataclass(frozen=True)
class Summary:
    """One lower-is-better metric over paired runs."""

    parent_quartiles: Sequence[float]  # q1, median, q3
    change_quartiles: Sequence[float]
    change_wins: int
    parent_wins: int
    pairs: int

    @property
    def parent_spread(self) -> float:
        return self.parent_quartiles[2] - self.parent_quartiles[0]

    @property
    def gain_holds(self) -> bool:
        return (
            self.pairs >= MIN_PAIRS
            and self.change_wins >= WIN_SHARE * self.pairs
            and self.parent_quartiles[1] - self.change_quartiles[1] > self.parent_spread
        )


def quartiles(values: Sequence[float]) -> List[float]:
    """q1, median, q3 (statistics.quantiles, inclusive method)."""
    if len(values) == 1:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def summarize(parent: Sequence[float], change: Sequence[float]) -> Summary:
    """Compare paired values, parent[i] against change[i]."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same positive number of parent and change values")
    return Summary(
        parent_quartiles=quartiles(parent),
        change_quartiles=quartiles(change),
        change_wins=sum(c < p for p, c in zip(parent, change)),
        parent_wins=sum(p < c for p, c in zip(parent, change)),
        pairs=len(parent),
    )


def summary_json(summary: Summary) -> Dict[str, object]:
    def side(q):
        return {"q1": q[0], "median": q[1], "q3": q[2]}

    return {
        "parent": side(summary.parent_quartiles),
        "change": side(summary.change_quartiles),
        "change_over_parent_median": summary.change_quartiles[1] / summary.parent_quartiles[1],
        "change_wins": summary.change_wins,
        "parent_wins": summary.parent_wins,
        "pairs": summary.pairs,
        "parent_spread": summary.parent_spread,
        "gain_holds": summary.gain_holds,
    }


def report_json(args: argparse.Namespace, runs: Dict[str, List[Dict[str, float]]],
                summaries: Dict[str, Summary]) -> Dict:
    """The --out document: the run settings, the machine, every pair and the
    per-metric summaries."""
    return {
        **machine_json(args),
        "seconds": args.seconds,
        "pairs": [{"first": "parent" if i % 2 == 0 else "change", "parent": p, "change": c}
                  for i, (p, c) in enumerate(zip(runs["parent"], runs["change"]))],
        "summary": {name: summary_json(summary) for name, summary in summaries.items()},
    }


def machine_json(args: argparse.Namespace) -> Dict:
    """What both modes' --out documents record of the run and the machine."""
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "parent_rev": args.parent_rev,
        "seed": args.seed,
        "cores": os.cpu_count(),
        "versions": {"python": platform.python_version(), "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
        "gain_rule": {"min_pairs": MIN_PAIRS, "min_change_win_share": WIN_SHARE,
                      "median_gap_exceeds": "parent q3 - q1"},
    }


def format_summary(name: str, summary: Summary) -> str:
    def side(label, q):
        return f"  {label:<6} median {q[1]:.6f}  q1 {q[0]:.6f}  q3 {q[2]:.6f}"

    verdict = "holds" if summary.gain_holds else "does not hold"
    ratio = summary.change_quartiles[1] / summary.parent_quartiles[1]
    return "\n".join([
        f"{name}:",
        side("parent", summary.parent_quartiles),
        side("change", summary.change_quartiles),
        f"  change/parent median {ratio:.3f}; wins change {summary.change_wins}, "
        f"parent {summary.parent_wins}, of {summary.pairs} pairs; "
        f"parent quartile spread {summary.parent_spread:.6f}",
        f"  gain rule (>= {MIN_PAIRS} pairs, change wins >= {WIN_SHARE:.0%}, medians "
        f"apart by more than the parent's spread): {verdict}",
    ])


def export(rev: str, into: str) -> None:
    """Write the tree of rev (committed files only) into the directory into."""
    git = subprocess.Popen(["git", "-C", ROOT, "archive", "--format=tar", rev],
                           stdout=subprocess.PIPE)
    untar = subprocess.run(["tar", "-x", "-C", into], stdin=git.stdout)
    git.stdout.close()
    if git.wait() != 0 or untar.returncode != 0:
        raise RuntimeError(f"cannot export {rev!r} with git archive")


def snapshot(into: str) -> None:
    """Copy this checkout's working tree into the directory into: the
    tracked files (as they are on disk; one deleted there is skipped) and
    the untracked ones git does not ignore."""
    listed = subprocess.run(
        ["git", "-C", ROOT, "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        capture_output=True, check=True).stdout
    for name in filter(None, listed.decode().split("\0")):
        source = os.path.join(ROOT, name)
        if os.path.isfile(source):
            target = os.path.join(into, name)
            os.makedirs(os.path.dirname(target), exist_ok=True)
            shutil.copy2(source, target)


def run_bench(tree: str, workload: str, seconds: float, seed: int) -> Dict[str, float]:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    values = {name: result["metrics"][name]["value"] for name in METRICS}
    values["failed_frac"] = result["failed"] / max(1, result["attempted"])
    return values


def _owned(name: str) -> bool:
    """The modules each side of an in-process run imports from its own copy."""
    return name.split(".")[0] in ("rhombuscode", "workloads", "scan_order", "spans")


@dataclass
class Side:
    """One side of an in-process run: its copy's benchmark runner and modules."""

    runner: object  # the copy's perfbench run.Runner
    modules: Dict[str, object]  # its sys.modules entries, swapped in before each op

    def activate(self) -> None:
        _take_owned()
        sys.modules.update(self.modules)


def _take_owned() -> Dict[str, object]:
    """Remove the modules a side owns from sys.modules and return them."""
    return {name: sys.modules.pop(name) for name in list(sys.modules) if _owned(name)}


def load_side(tree: str, workload: str, seed: int) -> Side:
    """Import the copy at tree (its perfbench/run.py, which imports its
    src/rhombuscode), prepare the workload's inputs in the copy and make its
    op list; then put sys.modules and sys.path back as they were, so that
    the other side imports its own copy."""
    saved_path, saved = list(sys.path), _take_owned()
    sys.path.insert(0, os.path.join(tree, "perfbench"))
    try:
        spec = importlib.util.spec_from_file_location(
            "ab_perfbench_run", os.path.join(tree, "perfbench", "run.py"))
        run = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(run)
        if workload in run.ONE_BLAS_THREAD:  # as run.py's main sets it, before numpy loads
            os.environ.update({name: "1" for name in run.BLAS_THREAD_VARS})
        run.import_program()
        prepared = run.workloads.prepare(workload, run.FULL,
                                         os.path.join(tree, ".perfbench-work", "in-process"))
        ops = run.workloads.make_ops(workload, seed, run.FULL, prepared, run.nproc())
        return Side(run.Runner(prepared, ops, seed), _take_owned())
    finally:
        sys.path[:] = saved_path
        _take_owned()
        sys.modules.update(saved)


def run_in_process(sides: Dict[str, Side], passes: int, seed: int
                   ) -> Tuple[Dict[str, Dict[str, List[float]]], List[Tuple[str, float, float]]]:
    """Alternate the two sides op by op over a warm-up pass and then passes
    passes. Returns each side's times per op name and, per pass, the side
    that went first and both sides' pass walls."""
    names = [op.name for op in sides["parent"].runner.ops]
    if names != [op.name for op in sides["change"].runner.ops]:
        raise RuntimeError("the two sides make different op lists")
    order = random.Random(f"order:{seed}")
    times = {side: {name: [] for name in names} for side in sides}
    walls = []
    for i in range(passes + 1):  # pass 0 is the warm-up
        indices = list(range(len(names)))
        order.shuffle(indices)
        wall = {side: 0.0 for side in sides}
        for j, index in enumerate(indices):
            for side in (("parent", "change") if (i + j) % 2 == 0 else ("change", "parent")):
                sides[side].activate()
                elapsed = sides[side].runner.run_op(sides[side].runner.ops[index])
                if i:
                    times[side][names[index]].append(elapsed)
                    wall[side] += elapsed
        if i:
            walls.append(("parent" if i % 2 == 0 else "change", wall["parent"], wall["change"]))
            print(f"pass {i:3d} ({walls[-1][0]} first): parent {wall['parent']:.6f} "
                  f"change {wall['change']:.6f}", flush=True)
    return times, walls


def failed_frac(runner) -> float:
    return sum(runner.failed.values()) / max(1, runner.attempted)


def main_in_process(args: argparse.Namespace) -> int:
    with tempfile.TemporaryDirectory(prefix="ab-parent-") as parent_tree, \
            tempfile.TemporaryDirectory(prefix="ab-change-") as change_tree:
        export(args.parent_rev, parent_tree)
        snapshot(change_tree)
        sides = {"parent": load_side(parent_tree, args.workload, args.seed),
                 "change": load_side(change_tree, args.workload, args.seed)}
        print(f"workload {args.workload}, seed {args.seed}, in process, "
              f"{args.pairs} passes alternating op by op, parent {args.parent_rev}")
        saved = _take_owned()
        try:
            times, walls = run_in_process(sides, args.pairs, args.seed)
        finally:
            _take_owned()
            sys.modules.update(saved)
    ops = {name: summarize(times["parent"][name], times["change"][name])
           for name in times["parent"]}
    width = max(map(len, ops))
    for name, summary in ops.items():
        print(f"{name:<{width}}  parent {summary.parent_quartiles[1]:.6f}  "
              f"change {summary.change_quartiles[1]:.6f}  "
              f"change/parent {summary.change_quartiles[1] / summary.parent_quartiles[1]:.3f}  "
              f"wins change {summary.change_wins}, parent {summary.parent_wins}")
    per_pass = summarize([p for _, p, _ in walls], [c for _, _, c in walls])
    op_medians = {side: sum(statistics.median(ts) for ts in times[side].values())
                  for side in times}
    failed = {side: failed_frac(sides[side].runner) for side in sides}
    print(format_summary("pass wall", per_pass))
    print(f"sum of per-op medians: parent {op_medians['parent']:.6f}  "
          f"change {op_medians['change']:.6f}  change/parent "
          f"{op_medians['change'] / op_medians['parent']:.3f}")
    print(f"failed: parent {failed['parent']:.4f} change {failed['change']:.4f}")
    if args.out:
        doc = {
            "mode": "in-process",
            **machine_json(args),
            "passes": args.pairs,
            "pass_walls": [{"first": first, "parent": p, "change": c} for first, p, c in walls],
            "summary": {"pass_wall": summary_json(per_pass)},
            "sum_of_op_medians": op_medians,
            "failed_frac": failed,
            "ops": {name: summary_json(summary) for name, summary in ops.items()},
        }
        with open(args.out, "w") as handle:
            json.dump(doc, handle, indent=2)
            handle.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_rev")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=MIN_PAIRS)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", help="also write the pairs and summaries as JSON here")
    parser.add_argument("--in-process", action="store_true",
                        help="run both sides in this interpreter, alternating op by op; "
                             "--pairs counts passes")
    args = parser.parse_args(argv)
    if args.in_process:
        return main_in_process(args)

    runs = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="ab-parent-") as parent_tree, \
            tempfile.TemporaryDirectory(prefix="ab-change-") as change_tree:
        export(args.parent_rev, parent_tree)
        snapshot(change_tree)
        trees = {"parent": parent_tree, "change": change_tree}
        print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s per run, "
              f"parent {args.parent_rev}")
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(run_bench(trees[side], args.workload, args.seconds,
                                            args.seed))
            p, c = runs["parent"][-1], runs["change"][-1]
            print(f"pair {i + 1:2d} ({order[0]} first): " + "  ".join(
                f"{name} parent {p[name]:.6f} change {c[name]:.6f}" for name in METRICS)
                + f"  failed parent {p['failed_frac']:.4f} change {c['failed_frac']:.4f}",
                flush=True)
    summaries = {name: summarize([r[name] for r in runs["parent"]],
                                 [r[name] for r in runs["change"]]) for name in METRICS}
    for name, summary in summaries.items():
        print(format_summary(name, summary))
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(report_json(args, runs, summaries), handle, indent=2)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
