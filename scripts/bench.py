#!/usr/bin/env python3
"""Time symkit's per-layer primitives at fixed sizes and write ``BENCH_<label>.json``.

    PYTHONPATH=src python scripts/bench.py LABEL [--repeats R]

Cases, each at one fixed size:

* ``cli_import``: a fresh ``python -c "import symkit.cli"`` process, timed
  from spawn to exit, so interpreter start-up is in it; the case records
  how many modules, and how many of them scipy's, such an import leaves
  loaded;
* convolution with a Coulomb kernel |z|^-1 on the full displacement grid,
  on a 128x128 field and a 32x32x32 field (the Choquard descent's size), in
  two modes: ``reused_kernel`` applies one ``convolution_plan``, built
  before the timed region, to two alternating data fields, as the Choquard
  descent and the fft seminorm route do; ``fresh_kernel`` calls the
  one-shot ``convolve`` with a kernel whose values differ from the previous
  call's, so every call transforms its kernel; at 32x32x32 also
  ``shared_helper``, the ``reused_kernel`` plan called as the Choquard
  descent calls it, with a live one-thread executor that shares its stages
  (``plan(f, helper=ex)``);
* the Choquard descent's stencils on a 32x32x32 field: the forward
  differences and the kinetic gradient from them
  (``functionals._forward_diffs`` then ``_kinetic_gradient_of``, as the
  descent calls them), and ``gradient_pnorm``;
* ``choquard_descent`` of a 32x32x32 Gaussian for 10 steps, with the
  ``coulomb_potential`` plan built inside the timed call: the kernel's
  sampling and transform, then 13 convolutions between the stencils and two
  rearrangements.  This
  is the ``choquard`` verb's pattern of allocations, under which arrays
  freed by ``convolve`` went back to the system and were faulted in again;
  the convolve cases on their own barely show that;
* ``rearrange`` of a 1000x1000 field (10^6 cells);
* ``dirichlet_lambda1``, which takes no potential: the lowest eigenvalue of
  the Faber-Krahn disk, ``experiments.unit_area_disk`` at h = 1/64 (4,104
  cells in 526 orbits of its symmetries) and at h = 1/128 (16,380 cells in
  2,073 orbits), both by the certified banded inverse iteration from the
  shift 0, and of the Faber-Krahn square, 64x64 cells at h = 1/64, which
  takes the closed form of a box;
* ``dirichlet_eigenvalues``: the full spectrum of the 64x64 square, which
  takes the closed form, and of ``unit_area_disk`` at h = 1/40 (1,605
  cells), which takes the dense route;
* ``bll_integral``: 10^6 samples of a three-factor 1-d integral on 128 cells;
* ``bump_field`` of a seeded six-bump sum: the potential V of the ``spectral``
  heat-trace ladder on its finest 64x64 rung, drawn as
  ``experiments._heat_trace_pairs`` draws it, and a signed field of
  ``verify`` on its 16x16 grid;
* the fractional seminorm (W^(1/2,2)) on a 64x64 field: ``.fft``
  times ``fractional_seminorm``, building the evaluator and evaluating it
  once per call (the case name is kept, so BENCH files compare);
* ``continuity_probe`` of the default 64x64 plateau field of
  ``probe-continuity`` in W^(1/2,2) (``space="wsp"``, 8 steps, 16 seminorms);
* ``field.save`` and ``field.load`` of a 1000x1000 field (10^6 values), and
  ``_set`` of a 100x100x100 set (10^6 values, 30% of them 1).

Every case runs in its own freshly spawned interpreter and is timed by the
same loop: one warm-up call, then R repeats (at least 5) of the case's
fixed number of calls.  The file records, per case, the sizes, the per-call
median over repeats, the spread (interquartile range over median) and the
extremes.  ``minor_faults_per_call`` is the number of minor page faults of
the case's process (``getrusage(RUSAGE_SELF).ru_minflt``) during its
repeats, over the number of calls: pages touched for the first time, whose
kernel time no Python profiler sees.  How many pages a freed array returns
to the system depends on what the process freed before, so no case shares
its process with another.  ``cli_import``'s faults happen in its child
processes, which ``RUSAGE_SELF`` does not count.  The file also records
``nproc`` and the Python, numpy and scipy versions; scipy's is ``null``
when it is not installed, since no case needs it.  Inputs are built before the timed
region.  Run it once per source tree on the same host, e.g. with
``PYTHONPATH`` pointing at each tree's ``src``, alternating the trees.

One such pair of files cannot resolve a per-call change below about 25%
at 32x32x32: a case's time varies between fresh processes by more than
the within-run ``spread`` says (``convolve_32x32x32.reused_kernel`` read
1.96-2.96 ms over twelve fresh-process runs on one 2-core host).  A smaller change needs
repeated fresh-process runs of the case per tree, alternating the trees.
No time is divided by a control op timed in the same process: host drift,
the spread between fresh processes and what the case leaves behind (its
freed pages, its cache footprint) move the control too, so such a ratio
hides none of them.
"""

import argparse
import json
import multiprocessing
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

import symkit
from symkit.choquard import choquard_descent, coulomb_potential
from symkit.cli import DEFAULT_SEED
from symkit.experiments import unit_area_disk
from symkit.field import Grid, GridSet, ScalarField, load, save
from symkit.functionals import (
    BLLSpec,
    _forward_diffs,
    _kinetic_gradient_of,
    bll_integral,
    convolution_plan,
    convolve,
    fractional_seminorm,
    gradient_pnorm,
)
from symkit.kernels import PowerLaw, displacement_grid, sample_kernel
from symkit.random_fields import bump_field, plateau_field, rng_for, sample_bumps
from symkit.rearrange import rearrange
from symkit.spectral import dirichlet_eigenvalues, dirichlet_lambda1
from symkit.stability import continuity_probe

MEGA = (1000, 1000)  # 10^6 cells


def _cli_import(tmp):
    src = str(Path(symkit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    count = "import sys, symkit.cli; print(len(sys.modules), sum(m.split('.')[0] == 'scipy' for m in sys.modules))"
    out = subprocess.run([sys.executable, "-c", count], env=env, capture_output=True, text=True, check=True)
    modules, scipy_modules = map(int, out.stdout.split())
    cmd = [sys.executable, "-c", "import symkit.cli"]
    run = lambda i: subprocess.run(cmd, env=env, check=True)
    return run, 1, {"modules": modules, "scipy_modules": scipy_modules}


def _convolve(shape, h, mode, calls=10):
    def setup(tmp):
        grid = Grid(shape, h)
        rng = np.random.default_rng(0)
        fields = [ScalarField(grid, rng.random(shape)) for _ in range(2)]
        kernel = sample_kernel(PowerLaw(1.0), displacement_grid(grid))
        sizes = {"field_shape": list(shape), "kernel_shape": list(kernel.grid.shape)}
        if mode == "reused_kernel":
            plan = convolution_plan(kernel, shape)
            return lambda i: plan(fields[i % 2]), calls, sizes
        if mode == "shared_helper":
            # the executor lives as long as the case's process
            plan, helper = convolution_plan(kernel, shape), ThreadPoolExecutor(1)
            return lambda i: plan(fields[i % 2], helper=helper), calls, sizes
        kernels = [ScalarField(kernel.grid, kernel.values * (1.0 + 1e-3 * (i + 1))) for i in range(calls)]
        return lambda i: convolve(kernels[i], fields[i % 2]), calls, sizes

    return setup


def _stencil(name, calls=20):
    def setup(tmp):
        shape = (32, 32, 32)
        u = ScalarField(Grid(shape, 0.25), np.random.default_rng(4).random(shape))
        if name == "descent_stencils":
            run = lambda i: _kinetic_gradient_of(_forward_diffs(u.values, u.h), u.h)
            return run, calls, {"field_shape": list(shape)}
        return (lambda i: gradient_pnorm(u)), calls, {"field_shape": list(shape)}

    return setup


def _descent(tmp):
    shape, steps = (32, 32, 32), 10
    g = Grid(shape, 0.5)
    u0 = ScalarField(g, np.exp(-g.radius2() / 8.0))
    run = lambda i: choquard_descent(u0, coulomb_potential(g), steps=steps)
    return run, 1, {"field_shape": list(shape), "steps": steps}


def _rearrange(tmp):
    f = ScalarField(Grid(MEGA, 1.0 / MEGA[0]), np.random.default_rng(1).standard_normal(MEGA))
    return lambda i: rearrange(f), 3, {"cells": f.grid.ncells}


def _faber_krahn_disk(h):
    def setup(tmp):
        disk = unit_area_disk(h)
        return lambda i: dirichlet_lambda1(disk), 1, {"cells": disk.count()}

    return setup


def _unit_square():
    """The Faber-Krahn square, 64x64 cells at h = 1/64."""
    return GridSet(Grid((64, 64), 1.0 / 64), np.ones((64, 64), dtype=bool))


def _faber_krahn_square(tmp):
    square = _unit_square()
    return lambda i: dirichlet_lambda1(square), 1, {"cells": square.count()}


def _square_spectrum(tmp):
    square = _unit_square()
    return lambda i: dirichlet_eigenvalues(square, None), 1, {"cells": square.count()}


def _disk_spectrum(tmp):
    disk = unit_area_disk(1.0 / 40)
    return lambda i: dirichlet_eigenvalues(disk, None), 1, {"cells": disk.count()}


def _bll(tmp):
    grid = Grid((128,), 8.0 / 128)
    x = grid.axis_coords(0)
    fields = tuple(ScalarField(grid, np.exp(-(x / w) ** 2)) for w in (0.8, 1.0, 1.3))
    spec = BLLSpec(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, -1.0]]), fields)
    samples = 10**6
    return lambda i: bll_integral(spec, samples, seed=0), 1, {"samples": samples, "cells": 128}


def _bump_case(sample, grid, calls):
    return lambda i: bump_field(sample, grid), calls, {"field_shape": list(grid.shape), "bumps": 6}


def _heat_trace_potential(tmp):
    rng = rng_for(DEFAULT_SEED, 41, 0)  # the first heat-trace key draws the domain's bumps, then V's
    sample_bumps(rng, 2, 2.0, 6, 0.45)
    return _bump_case(sample_bumps(rng, 2, 2.0, 6, 0.6), Grid((64, 64), 1.0 / 16), 20)


def _verify_field(tmp):
    sample = sample_bumps(rng_for(DEFAULT_SEED, 12, 0), 2, 2.0, 6, 0.6, signed=True)
    return _bump_case(sample, Grid((16, 16), 0.25), 50)


def _seminorm(tmp):
    # each call builds the evaluator and evaluates once, as the earlier BENCH files measured
    u = ScalarField(Grid((64, 64), 4.0 / 64), np.random.default_rng(2).random((64, 64)))
    return lambda i: fractional_seminorm(u.grid)(u), 10, {"cells": 64 * 64}


def _probe(tmp):
    u = plateau_field(Grid((64, 64), 4.0 / 64), top_radius=0.7, outer_radius=1.4)
    run = lambda i: continuity_probe(u, "plateau", space="wsp")
    return run, 1, {"cells": 64 * 64, "steps": 8}


def _field(op, kind="field"):
    def setup(tmp):
        if kind == "set":  # the audit workload's cube-set: 30% of a 100^3 cube, ten calls a repeat
            cube, calls = (100, 100, 100), 10
            f = GridSet(Grid(cube, 0.08), np.random.default_rng(3).random(cube) < 0.3)
        else:
            calls = 1
            f = ScalarField(Grid(MEGA, 1.0 / MEGA[0]), np.random.default_rng(3).standard_normal(MEGA))
        path = Path(tmp) / f"{kind}_{op}.sk"
        save(f, path)
        run = (lambda i: save(f, path)) if op == "save" else (lambda i: load(path))
        return run, calls, {"values": f.grid.ncells, "bytes": path.stat().st_size}

    return setup


CASES = {
    "cli_import": _cli_import,
    "convolve_128x128.reused_kernel": _convolve((128, 128), 1.0 / 128, "reused_kernel"),
    "convolve_128x128.fresh_kernel": _convolve((128, 128), 1.0 / 128, "fresh_kernel"),
    "convolve_32x32x32.reused_kernel": _convolve((32, 32, 32), 0.25, "reused_kernel"),
    "convolve_32x32x32.fresh_kernel": _convolve((32, 32, 32), 0.25, "fresh_kernel"),
    "convolve_32x32x32.shared_helper": _convolve((32, 32, 32), 0.25, "shared_helper"),
    "forward_diffs_kinetic_gradient_of_32x32x32": _stencil("descent_stencils"),
    "gradient_pnorm_32x32x32": _stencil("gradient_pnorm"),
    "choquard_descent_32x32x32.10_steps": _descent,
    "rearrange_1000x1000": _rearrange,
    "dirichlet_lambda1_disk_4104": _faber_krahn_disk(1.0 / 64),
    "dirichlet_lambda1_disk_h128": _faber_krahn_disk(1.0 / 128),
    "dirichlet_lambda1_square_4096": _faber_krahn_square,
    "dirichlet_eigenvalues_64x64": _square_spectrum,
    "dirichlet_eigenvalues_dense_disk_1605": _disk_spectrum,
    "bll_integral_1e6_samples": _bll,
    "bump_field_64x64.heat_trace_v": _heat_trace_potential,
    "bump_field_16x16.verify": _verify_field,
    "fractional_seminorm_64x64.fft": _seminorm,
    "continuity_probe_64x64.plateau_wsp": _probe,
    "field_save_1e6": _field("save"),
    "field_load_1e6": _field("load"),
    "field_save_set_1e6": _field("save", "set"),
    "field_load_set_1e6": _field("load", "set"),
}


def _time_case(op, calls, repeats):
    # warm up with the last call, so each repeat's first call follows the
    # same call as in steady state
    op(calls - 1)
    per_call, faults = [], 0
    for _ in range(repeats):
        f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        t0 = time.perf_counter()
        for i in range(calls):
            op(i)
        per_call.append((time.perf_counter() - t0) / calls)
        faults += resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0
    q1, med, q3 = np.percentile(per_call, [25, 50, 75])
    return {
        "calls_per_repeat": calls,
        "repeats": repeats,
        "median_ms": 1e3 * float(med),
        "spread": float((q3 - q1) / med),
        "min_ms": 1e3 * min(per_call),
        "max_ms": 1e3 * max(per_call),
        "minor_faults_per_call": faults / (repeats * calls),
    }


def _scipy_version():
    """scipy's version, or None: scipy is only the tests' oracle, and no case imports it."""
    try:
        import scipy
    except ImportError:
        return None
    return scipy.__version__


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
                f"{r['minor_faults_per_call']:.0f} minor faults)",
                flush=True,
            )
    doc = {
        "label": args.label,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": _scipy_version(),
        "statistics": (
            "per-call wall time: median, (q3 - q1) / median, min and max over repeats; "
            "minor_faults_per_call: ru_minflt delta over the case's repeats / (repeats * calls); "
            "every case runs in its own freshly spawned interpreter"
        ),
        "results": results,
    }
    out = Path(f"BENCH_{args.label}.json")
    out.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
