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
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from typing import Dict, List, Sequence

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
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "parent_rev": args.parent_rev,
        "seed": args.seed,
        "seconds": args.seconds,
        "cores": os.cpu_count(),
        "versions": {"python": platform.python_version(), "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
        "gain_rule": {"min_pairs": MIN_PAIRS, "min_change_win_share": WIN_SHARE,
                      "median_gap_exceeds": "parent q3 - q1"},
        "pairs": [{"first": "parent" if i % 2 == 0 else "change", "parent": p, "change": c}
                  for i, (p, c) in enumerate(zip(runs["parent"], runs["change"]))],
        "summary": {name: summary_json(summary) for name, summary in summaries.items()},
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_rev")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=MIN_PAIRS)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", help="also write the pairs and summaries as JSON here")
    args = parser.parse_args(argv)

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
