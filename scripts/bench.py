#!/usr/bin/env python3
"""Time ``symkit.convolve`` at fixed sizes and write ``BENCH_<label>.json``.

    PYTHONPATH=src python scripts/bench.py LABEL [--repeats R] [--calls C]

Two cases, each with a Coulomb kernel |z|^-1 on the full displacement grid:
a 128x128 field and a 32x32x32 field (the Choquard descent's size).  Each
case is timed in two modes:

* ``reused_kernel``: C calls on one kernel, alternating two data fields, as
  the Choquard descent and the fft seminorm route call it;
* ``fresh_kernel``: C calls, each on a kernel whose values differ from the
  previous call's, so nothing about the kernel can be reused.

A repeat times C calls; the file records the per-call median over R repeats
(at least 5), the spread (interquartile range over median), the extremes,
``nproc`` and the Python, numpy and scipy versions.  The fields and kernels
are built before the timed region.  Run it once per source tree on the same
host, e.g. with ``PYTHONPATH`` pointing at each tree's ``src``.
"""

import argparse
import json
import os
import platform
import time
from pathlib import Path

import numpy as np
import scipy

from symkit import Grid, PowerLaw, ScalarField, convolve, displacement_grid, sample_kernel

CASES = {"convolve_128x128": ((128, 128), 1.0 / 128), "convolve_32x32x32": ((32, 32, 32), 0.25)}


def _time_case(shape, h, repeats, calls, mode):
    grid = Grid(shape, h)
    rng = np.random.default_rng(0)
    fields = [ScalarField(grid, rng.random(shape)) for _ in range(2)]
    kernel = sample_kernel(PowerLaw(1.0), displacement_grid(grid))
    if mode == "reused_kernel":
        kernels = [kernel] * calls
    else:
        kernels = [ScalarField(kernel.grid, kernel.values * (1.0 + 1e-3 * (i + 1))) for i in range(calls)]
    convolve(kernel, fields[0])  # warm-up: imports, FFT plan caches
    per_call = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for i, k in enumerate(kernels):
            convolve(k, fields[i % 2])
        per_call.append((time.perf_counter() - t0) / calls)
    q1, med, q3 = np.percentile(per_call, [25, 50, 75])
    return {
        "field_shape": list(shape),
        "kernel_shape": list(kernel.grid.shape),
        "calls_per_repeat": calls,
        "repeats": repeats,
        "median_ms": 1e3 * float(med),
        "spread": float((q3 - q1) / med),
        "min_ms": 1e3 * min(per_call),
        "max_ms": 1e3 * max(per_call),
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("label")
    ap.add_argument("--repeats", type=int, default=7)
    ap.add_argument("--calls", type=int, default=10)
    args = ap.parse_args()
    if args.repeats < 5 or args.calls < 1:
        ap.error("need --repeats >= 5 and --calls >= 1")
    results = {}
    for name, (shape, h) in CASES.items():
        for mode in ("reused_kernel", "fresh_kernel"):
            results[f"{name}.{mode}"] = r = _time_case(shape, h, args.repeats, args.calls, mode)
            print(f"{name}.{mode}: {r['median_ms']:.2f} ms/call (spread {r['spread']:.3f})")
    doc = {
        "label": args.label,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "statistics": "per-call wall time: median, (q3 - q1) / median, min and max over repeats",
        "results": results,
    }
    out = Path(f"BENCH_{args.label}.json")
    out.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
