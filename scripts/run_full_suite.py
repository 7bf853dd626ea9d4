#!/usr/bin/env python3
"""Run every experiment verb and the file verbs, collecting outputs under one directory.

    python scripts/run_full_suite.py DIR

Each experiment verb of ``symkit.experiments.VERBS`` writes its reports to
``DIR/<verb>``.  ``DIR/files`` holds a seeded signed 64x64 field and a
seeded 12^3 set written with ``symkit.field.save``, their images under the CLI's
``rearrange`` verb, and the ``info`` output of all four files as
``<name>.info.json``, so that ``scripts/compare_reports.py`` also checks
save, load, rearrange, set_symmetrize and info byte for byte.

The script imports the ``symkit`` of its own tree (``../src``), ahead of
``PYTHONPATH`` and any installed copy, and prints that package's directory on
its first line, next to the ``OPENBLAS_NUM_THREADS`` and ``OMP_NUM_THREADS``
it ran under, which it also writes to ``DIR/threads.txt``: report bytes hold at
a fixed BLAS thread count of 2 or more (DECISIONS.md D22), so
``scripts/compare_reports.py`` names two runs under different settings as a
differing ``threads.txt``.  To check a refactor, run each tree's own copy of
the script under the same thread settings.
"""

import contextlib
import io
import os
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import symkit  # noqa: E402
from symkit.cli import main  # noqa: E402
from symkit.experiments import VERBS  # noqa: E402
from symkit.field import Grid, GridSet, ScalarField, save  # noqa: E402

FILES_SEED = 20260808


def write_threads(out) -> str:
    """Write the BLAS thread variables of this run to ``out/threads.txt``; returns that line."""
    threads = " ".join(f"{k}={os.environ.get(k, 'unset')}" for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"))
    Path(out).mkdir(parents=True, exist_ok=True)
    (Path(out) / "threads.txt").write_text(threads + "\n")
    return threads


def write_field_files(out) -> int:
    """Write the file-verb inputs and outputs under ``out``; returns the worst exit code."""
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(FILES_SEED)
    save(ScalarField(Grid((64, 64), 1.0 / 16), rng.standard_normal((64, 64))), out / "field.sk")
    save(GridSet(Grid((12, 12, 12), 0.25), rng.random((12, 12, 12)) < 0.4), out / "set.sk")
    worst = 0
    for name in ("field", "set"):
        rearranged = f"{name}.rearranged"
        code = main(["rearrange", str(out / f"{name}.sk"), str(out / f"{rearranged}.sk")])
        worst = max(worst, code)
        for stem in (name, rearranged):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                worst = max(worst, main(["info", str(out / f"{stem}.sk")]))
            (out / f"{stem}.info.json").write_text(buf.getvalue())
    return worst


if __name__ == "__main__":
    out = sys.argv[1] if len(sys.argv) > 1 else "symkit-out"
    print(f"symkit from {Path(symkit.__file__).parent} ({write_threads(out)})")
    worst = 0
    for verb in VERBS:
        print(f"== symkit {verb} ==")
        code = main(["--out", str(Path(out) / verb), verb])
        worst = max(worst, code)
    print("== symkit rearrange, info ==")
    worst = max(worst, write_field_files(Path(out) / "files"))
    raise SystemExit(worst)
