#!/usr/bin/env python3
"""Time symkit's per-layer primitives at fixed sizes and write ``BENCH_<label>.json``.

    PYTHONPATH=src python scripts/bench.py LABEL [--repeats R]

Cases, each at one fixed size:

* ``convolve`` with a Coulomb kernel |z|^-1 on the full displacement grid, on
  a 128x128 field and a 32x32x32 field (the Choquard descent's size), in two
  modes: ``reused_kernel`` alternates two data fields on one kernel, as the
  Choquard descent and the fft seminorm route call it; ``fresh_kernel`` gives
  every call a kernel whose values differ from the previous call's, so
  nothing about the kernel can be reused;
* the Choquard descent's stencils on a 32x32x32 field: ``kinetic_gradient``
  and ``gradient_pnorm`` at p = 2;
* ``choquard_descent`` of a 32x32x32 Gaussian for 10 steps: 13 convolutions
  on one Coulomb kernel between the stencils and two rearrangements.  This
  is the ``choquard`` verb's pattern of allocations, under which arrays
  freed by ``convolve`` went back to the system and were faulted in again;
  the convolve cases on their own barely show that;
* ``rearrange`` of a 1000x1000 field (10^6 cells);
* ``dirichlet_spectrum``: the lowest eigenvalue of the Faber-Krahn disk at
  h = 1/64 (4,104 cells), built as ``experiments.faber_krahn_pair`` builds it;
* ``dirichlet_eigenvalues``: the full spectrum of the 64x64 square;
* ``bll_integral``: 10^6 samples of a three-factor 1-d integral on 128 cells;
* the fractional seminorm at s = 1/2, p = 2 on a 64x64 field: ``.direct``
  times the displacement loop ``functionals._seminorm_direct``, the oracle
  of the tests, and ``.fft`` times ``fractional_seminorm``, which takes the
  fft route at p = 2 (the case names are kept, so BENCH files compare);
* ``continuity_probe`` of the default 64x64 plateau field of
  ``probe-continuity`` in W^(1/2,2) (``space="wsp"``, 8 steps, 16 seminorms);
* ``field.save`` and ``field.load`` of a 1000x1000 field (10^6 values).

Every case runs in its own freshly spawned interpreter and is timed by the
same loop: one warm-up call, then R repeats (at least 5) of the case's
fixed number of calls, each repeat followed by one timed control op, an
in-place sort of a copy of 10^6 seeded normal values.  The file records,
per case, the sizes, the per-call median over repeats, the spread
(interquartile range over median), the extremes, the median control time
and ``median_ratio_to_control``: the median over repeats of the per-call
time over that repeat's control time.  Host load slows the control as it
slows the case, so the ratio compares runs taken under different load
better than the raw time does.  ``minor_faults_per_call`` is the number of
minor page faults of the case's process (``getrusage(RUSAGE_SELF).ru_minflt``)
during its repeats, control ops excluded, over the number of calls: pages
touched for the first time, whose kernel time no Python profiler sees.
How many pages a freed array returns to the system depends on what the
process freed before, so no case shares its process with another, and the
control op allocates nothing.  The file also records ``nproc`` and the
Python, numpy and scipy versions.  Inputs are built before the timed
region.  Run it once per source tree on the same host, e.g. with
``PYTHONPATH`` pointing at each tree's ``src``, alternating the trees.
"""

import argparse
import json
import math
import multiprocessing
import os
import platform
import resource
import tempfile
import time
from pathlib import Path

import numpy as np
import scipy

from symkit.choquard import choquard_descent
from symkit.field import Grid, GridSet, ScalarField, load, save
from symkit.functionals import (
    BLLSpec,
    _seminorm_direct,
    bll_integral,
    convolve,
    fractional_seminorm,
    gradient_pnorm,
    kinetic_gradient,
)
from symkit.kernels import PowerLaw, displacement_grid, sample_kernel
from symkit.random_fields import plateau_field
from symkit.rearrange import rearrange
from symkit.spectral import dirichlet_eigenvalues, dirichlet_spectrum
from symkit.stability import continuity_probe

MEGA = (1000, 1000)  # 10^6 cells


def _convolve(shape, h, mode, calls=10):
    def setup(tmp):
        grid = Grid(shape, h)
        rng = np.random.default_rng(0)
        fields = [ScalarField(grid, rng.random(shape)) for _ in range(2)]
        kernel = sample_kernel(PowerLaw(1.0), displacement_grid(grid))
        if mode == "reused_kernel":
            kernels = [kernel] * calls
        else:
            kernels = [
                ScalarField(kernel.grid, kernel.values * (1.0 + 1e-3 * (i + 1))) for i in range(calls)
            ]
        sizes = {"field_shape": list(shape), "kernel_shape": list(kernel.grid.shape)}
        return lambda i: convolve(kernels[i], fields[i % 2]), calls, sizes

    return setup


def _stencil(name, calls=20):
    def setup(tmp):
        shape = (32, 32, 32)
        u = ScalarField(Grid(shape, 0.25), np.random.default_rng(4).random(shape))
        if name == "kinetic_gradient":
            return (lambda i: kinetic_gradient(u)), calls, {"field_shape": list(shape)}
        return (lambda i: gradient_pnorm(u, 2.0)), calls, {"field_shape": list(shape)}

    return setup


def _descent(tmp):
    shape, steps = (32, 32, 32), 10
    g = Grid(shape, 0.5)
    u0 = ScalarField(g, np.exp(-g.radius2() / 8.0))
    return lambda i: choquard_descent(u0, steps=steps), 1, {"field_shape": list(shape), "steps": steps}


def _rearrange(tmp):
    f = ScalarField(Grid(MEGA, 1.0 / MEGA[0]), np.random.default_rng(1).standard_normal(MEGA))
    return lambda i: rearrange(f), 3, {"cells": f.grid.ncells}


def _faber_krahn_disk(tmp):
    h = 1.0 / 64
    radius = 1.0 / math.sqrt(math.pi)
    m = round((2 * radius + 4 * h) / h)
    grid = Grid((m, m), h)
    disk = GridSet(grid, grid.radius2() < radius * radius)
    return lambda i: dirichlet_spectrum(disk, None, 1), 1, {"cells": disk.count(), "k": 1}


def _square_spectrum(tmp):
    square = GridSet(Grid((64, 64), 1.0 / 64), np.ones((64, 64), dtype=bool))
    return lambda i: dirichlet_eigenvalues(square, None), 1, {"cells": square.count()}


def _bll(tmp):
    grid = Grid((128,), 8.0 / 128)
    x = grid.axis_coords(0)
    fields = tuple(ScalarField(grid, np.exp(-(x / w) ** 2)) for w in (0.8, 1.0, 1.3))
    spec = BLLSpec(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, -1.0]]), fields)
    samples = 10**6
    return lambda i: bll_integral(spec, samples, seed=0), 1, {"samples": samples, "cells": 128}


def _seminorm(seminorm, calls):
    def setup(tmp):
        u = ScalarField(Grid((64, 64), 4.0 / 64), np.random.default_rng(2).random((64, 64)))
        return lambda i: seminorm(u, 0.5, 2.0), calls, {"cells": 64 * 64}

    return setup


def _probe(tmp):
    u = plateau_field(Grid((64, 64), 4.0 / 64), top_radius=0.7, outer_radius=1.4)
    run = lambda i: continuity_probe(u, "plateau", space="wsp")
    return run, 1, {"cells": 64 * 64, "steps": 8}


def _field(op):
    def setup(tmp):
        f = ScalarField(Grid(MEGA, 1.0 / MEGA[0]), np.random.default_rng(3).standard_normal(MEGA))
        path = Path(tmp) / f"field_{op}.sk"
        save(f, path)
        run = (lambda i: save(f, path)) if op == "save" else (lambda i: load(path))
        return run, 1, {"values": f.grid.ncells, "bytes": path.stat().st_size}

    return setup


CASES = {
    "convolve_128x128.reused_kernel": _convolve((128, 128), 1.0 / 128, "reused_kernel"),
    "convolve_128x128.fresh_kernel": _convolve((128, 128), 1.0 / 128, "fresh_kernel"),
    "convolve_32x32x32.reused_kernel": _convolve((32, 32, 32), 0.25, "reused_kernel"),
    "convolve_32x32x32.fresh_kernel": _convolve((32, 32, 32), 0.25, "fresh_kernel"),
    "kinetic_gradient_32x32x32": _stencil("kinetic_gradient"),
    "gradient_pnorm_32x32x32": _stencil("gradient_pnorm"),
    "choquard_descent_32x32x32.10_steps": _descent,
    "rearrange_1000x1000": _rearrange,
    "dirichlet_spectrum_lambda1_disk_4104": _faber_krahn_disk,
    "dirichlet_eigenvalues_64x64": _square_spectrum,
    "bll_integral_1e6_samples": _bll,
    "fractional_seminorm_64x64.direct": _seminorm(_seminorm_direct, 1),
    "fractional_seminorm_64x64.fft": _seminorm(fractional_seminorm, 10),
    "continuity_probe_64x64.plateau_wsp": _probe,
    "field_save_1e6": _field("save"),
    "field_load_1e6": _field("load"),
}


CONTROL_VALUES = np.random.default_rng(5).standard_normal(10**6)
# sorted in place: np.sort would allocate and free 8 MB after every repeat,
# and a freed block that large raises malloc's trim threshold, after which
# the case's own freed pages stay mapped and its page faults no longer show
CONTROL_BUF = np.empty_like(CONTROL_VALUES)


def _control_s():
    t0 = time.perf_counter()
    np.copyto(CONTROL_BUF, CONTROL_VALUES)
    CONTROL_BUF.sort()
    return time.perf_counter() - t0


def _time_case(op, calls, repeats):
    # warm up with the last call, so each repeat's first call follows the
    # same call as in steady state (a fresh kernel is then always a miss)
    op(calls - 1)
    per_call, control, faults = [], [], 0
    for _ in range(repeats):
        f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        t0 = time.perf_counter()
        for i in range(calls):
            op(i)
        per_call.append((time.perf_counter() - t0) / calls)
        faults += resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0
        control.append(_control_s())
    q1, med, q3 = np.percentile(per_call, [25, 50, 75])
    return {
        "calls_per_repeat": calls,
        "repeats": repeats,
        "median_ms": 1e3 * float(med),
        "median_ratio_to_control": float(np.median(np.divide(per_call, control))),
        "spread": float((q3 - q1) / med),
        "min_ms": 1e3 * min(per_call),
        "max_ms": 1e3 * max(per_call),
        "control_median_ms": 1e3 * float(np.median(control)),
        "minor_faults_per_call": faults / (repeats * calls),
    }


def _run_case(name, tmp, repeats):
    op, calls, sizes = CASES[name](tmp)
    return {**sizes, **_time_case(op, calls, repeats)}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("label")
    ap.add_argument("--repeats", type=int, default=7)
    args = ap.parse_args()
    if args.repeats < 5:
        ap.error("need --repeats >= 5")
    results = {}
    # one fresh interpreter per case, so that no case inherits the allocator
    # state (and hence the page faults) that the cases before it left
    spawn = multiprocessing.get_context("spawn")
    with tempfile.TemporaryDirectory() as tmp, spawn.Pool(1, maxtasksperchild=1) as pool:
        for name in CASES:
            results[name] = r = pool.apply(_run_case, (name, tmp, args.repeats))
            print(
                f"{name}: {r['median_ms']:.2f} ms/call (spread {r['spread']:.3f}, "
                f"{r['median_ratio_to_control']:.3f} x control, "
                f"{r['minor_faults_per_call']:.0f} minor faults)",
                flush=True,
            )
    doc = {
        "label": args.label,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "statistics": (
            "per-call wall time: median, (q3 - q1) / median, min and max over repeats; "
            "median_ratio_to_control: median over repeats of per-call time / that repeat's "
            "control time (an in-place sort of a copy of 10^6 seeded normal values, timed once "
            "after every repeat); control_median_ms: median control time over the case's repeats; "
            "minor_faults_per_call: ru_minflt delta over the case's repeats (control ops excluded) "
            "/ (repeats * calls); every case runs in its own freshly spawned interpreter"
        ),
        "results": results,
    }
    out = Path(f"BENCH_{args.label}.json")
    out.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
