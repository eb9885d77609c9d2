"""Monte Carlo kernel time per sample, production kernel against the one-component reference,
and the time to build the frame, to run the engine once and to build the kernel.

Usage, from the root of a checkout:

    PYTHONPATH=src python3 scripts/kernel_ns.py [--codes unit two_vertical ...] \\
        [--kinds local global] [--runs 15] [--seed 7] [--scale 0.8] [--samples N]

For each code (a CLI target) and noise kind the script builds the code's
dephasing frame once and times ``moments`` over one batch of samples at
one phase scale, --scale (a one-element scale list, as a single-t sweep
runs): --samples, else the batch monte_carlo_grid runs (MC_BATCH * 32 /
size samples, at most MC_BATCH, size the frame's component states sum_c
2^m_c). The production kernel is ``frame.kernel(kind)``: the
component-factored _CosetKernel under local noise, _PhasorKernel under
global noise. The reference is ``_CosetKernel(one_component(frame), kind)``:
the same coset-sum kernel with every generator in one component, on all S =
2^generators states, run only where S is at most 2^12 (reference_ns is
empty otherwise): a batch is sized by the component states, so past that
the reference would take minutes per call. The two run alternately in one
process, each --runs times on the same draws, after one untimed call each;
the script prints each one's median nanoseconds per sample, with S, the
component states, the production kernel's normals per sample (fields: one
per qubit class under local noise, one under global), the settings, the
core count and the Python, numpy and scipy versions. Three more columns
hold medians over --runs calls, in milliseconds: frame_ms builds the
code's _Frame (the same in both of its rows), engine_ms runs one
``frame.expected`` at phase variance --scale squared, and build_ms builds
the production kernel.
"""

from __future__ import annotations

import argparse
import copy
import os
import platform
import statistics
import time
from typing import List, Optional

import numpy as np

from rhombuscode import dephasing
from rhombuscode.cli import _parse_target
from rhombuscode.engine import LogicalSet, find_logical_set

CODES = ("unit", "two_vertical", "two_horizontal", "grid_2x2", "lshape:1,1")


def pair_of(target: str):
    """(code, logicals) of a CLI target: its own logicals, else synthesized ones."""
    code = _parse_target(target)
    if code.logical_pairs is not None:
        return code, LogicalSet(code.logical_pairs)
    return code, find_logical_set(code)


def one_component(frame: dephasing._Frame) -> dephasing._Frame:
    """A copy of frame whose components are one part holding every
    generator, its per-class data built by the frame's own helper
    (dephasing._listing), with no kernel built yet: its _CosetKernel lists
    all S states per sample on the same draws and batch split (size is
    kept), the reference the production kernel is held to."""
    whole = copy.copy(frame)
    whole.components, whole._kernels = [list(range(len(frame.generators)))], {}
    whole.parts = [dephasing._listing(whole, whole.components[0])[0]]
    return whole


def median_ms(call, runs: int) -> float:
    """Median milliseconds of runs calls of call()."""
    spent = []
    for _ in range(runs):
        begin = time.perf_counter()
        call()
        spent.append(time.perf_counter() - begin)
    return statistics.median(spent) * 1e3


def rebuild(frame: dephasing._Frame, kind: str):
    """The frame's production kernel for kind, built anew."""
    frame._kernels.pop(kind, None)
    return frame.kernel(kind)


def median_ns(kernels, seed: int, samples: int, scale: float, runs: int) -> List[float]:
    """Median ns per sample of each kernel's moments, the kernels taking turns."""
    times = [[] for _ in kernels]
    for kernel in kernels:
        kernel.moments(seed, 0, samples, [scale])
    for _ in range(runs):
        for kernel, spent in zip(kernels, times):
            begin = time.perf_counter()
            kernel.moments(seed, 0, samples, [scale])
            spent.append(time.perf_counter() - begin)
    return [statistics.median(spent) / samples * 1e9 for spent in times]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--codes", nargs="+", default=CODES)
    parser.add_argument("--kinds", nargs="+", default=dephasing.KINDS[::-1])
    parser.add_argument("--runs", type=int, default=15)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--scale", type=float, default=0.8)
    parser.add_argument("--samples", type=int, help="samples per call (default: one batch)")
    args = parser.parse_args(argv)
    import scipy

    print(f"seed {args.seed}, scale {args.scale:g}, median of {args.runs} runs, "
          f"{os.cpu_count()} cores, python {platform.python_version()}, "
          f"numpy {np.__version__}, scipy {scipy.__version__}")
    print("code,S,component_states,fields,kind,samples,production_ns,reference_ns,"
          "frame_ms,engine_ms,build_ms")
    for target in args.codes:
        code, logicals = pair_of(target)
        frame_ms = median_ms(lambda: dephasing._Frame(code, logicals), args.runs)
        frame = dephasing._Frame(code, logicals)
        size = 1 << len(frame.generators)  # S
        samples = args.samples or max(1, min(dephasing.MC_BATCH, (dephasing.MC_BATCH << 5) // frame.size))
        parts = "+".join(str(1 << len(part)) for part in frame.components)
        for kind in args.kinds:
            model = dephasing.NoiseModel(kind, 1.0)
            engine_ms = median_ms(lambda: frame.expected(model, args.scale**2), args.runs)
            build_ms = median_ms(lambda: rebuild(frame, kind), args.runs)
            kernels = [frame.kernel(kind)]
            if size <= 1 << 12:  # the reference lists all S states per sample
                kernels.append(dephasing._CosetKernel(one_component(frame), kind))
            ns = [f"{value:.0f}" for value in median_ns(kernels, args.seed, samples, args.scale, args.runs)]
            print(f"{target},{size},{parts},{kernels[0].fields},{kind},{samples},"
                  f"{ns[0]},{ns[1] if len(ns) > 1 else ''},{frame_ms:.3f},{engine_ms:.3f},{build_ms:.3f}",
                  flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
