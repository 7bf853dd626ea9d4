#!/usr/bin/env python3
"""Run every experiment verb and the file verbs, collecting outputs under one directory.

    python scripts/run_full_suite.py DIR

Each experiment verb of ``symkit.experiments.VERBS`` writes its reports to
``DIR/<verb>``.  ``DIR/files`` holds a seeded signed 64x64 field and a
seeded 12^3 set written with ``symkit.save``, their images under the CLI's
``rearrange`` verb, and the ``info`` output of all four files as
``<name>.info.json``, so that ``scripts/compare_reports.py`` also checks
save, load, rearrange, set_symmetrize and info byte for byte.
"""

import contextlib
import io
import sys
from pathlib import Path

import numpy as np

from symkit import Grid, GridSet, ScalarField, save
from symkit.cli import main
from symkit.experiments import VERBS

FILES_SEED = 20260808


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
    worst = 0
    for verb in VERBS:
        print(f"== symkit {verb} ==")
        code = main(["--out", str(Path(out) / verb), verb])
        worst = max(worst, code)
    print("== symkit rearrange, info ==")
    worst = max(worst, write_field_files(Path(out) / "files"))
    raise SystemExit(worst)
