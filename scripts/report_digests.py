#!/usr/bin/env python3
"""Rewrite ``tests/report_digests.json``, the bytes of every report tier-1 runs.

    PYTHONPATH=src python scripts/report_digests.py

The table holds the SHA-256 of each report's canonical JSON (sorted keys, no
whitespace, ``wall_time_s`` dropped): the six suite verbs at the default
config seed and the five other than ``choquard`` at the seven seeds after it,
the reports of tier-1's session runs.  Report bytes hold at a fixed BLAS
thread count of 2 or more (DECISIONS.md D22), so the script refuses to run on
one OpenBLAS thread; where it cannot read the count, it builds
``refine-heat-trace-2d`` again in a subprocess under ``OPENBLAS_NUM_THREADS=2``,
as the tier-1 check does.  It stores that report's one-thread digest apart,
from a subprocess under ``OPENBLAS_NUM_THREADS=1``.  A change that moves a
report reruns the script and names each moved id.
"""

import ctypes
import glob
import hashlib
import json
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

_ROOT = Path(__file__).resolve().parents[1]
TABLE = _ROOT / "tests" / "report_digests.json"
# the one report whose bytes follow the BLAS thread count (DECISIONS.md D22)
THREAD_BOUND = "refine-heat-trace-2d"


def digest(payload: dict) -> str:
    """SHA-256 of the payload's canonical JSON without ``wall_time_s``."""
    kept = {k: v for k, v in payload.items() if k != "wall_time_s"}
    return hashlib.sha256(json.dumps(kept, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def session_runs(default_seed: int, verbs) -> list[tuple[str, int]]:
    """The (verb, seed) runs of the table: every verb at the default seed, all but
    ``choquard`` at the seven seeds after it."""
    runs = [(verb, default_seed) for verb in verbs]
    return runs + [(verb, seed) for seed in range(default_seed + 1, default_seed + 8) for verb in verbs if verb != "choquard"]


def digests(suite_run, default_seed: int, verbs) -> dict[str, dict[str, str]]:
    """``{seed: {report id: digest}}`` of the session runs; ``suite_run(verb, seed)``
    returns ``(reports, seconds)``."""
    table: dict[str, dict[str, str]] = {}
    for verb, seed in session_runs(default_seed, verbs):
        for rep in suite_run(verb, seed)[0]:
            table.setdefault(str(seed), {})[rep.experiment_id] = digest(asdict(rep))
    return {seed: dict(sorted(ids.items())) for seed, ids in table.items()}


def openblas_threads() -> int | None:
    """The thread count of the OpenBLAS that numpy loaded, or None when it cannot be read."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "libscipy_openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            if hasattr(lib, name):
                return int(getattr(lib, name)())
    return None


def session_digests(suite_run, default_seed: int, verbs) -> dict[str, dict[str, str]]:
    """``digests`` at a thread count the table holds: when the OpenBLAS count cannot
    be read, ``THREAD_BOUND`` is built again in a subprocess at 2 threads."""
    table = digests(suite_run, default_seed, verbs)
    if openblas_threads() is None:
        table[str(default_seed)][THREAD_BOUND] = thread_bound_digest(default_seed, 2)
    return table


def build_table(suite_run, default_seed: int, verbs) -> dict:
    """The table ``TABLE`` holds; refused at one OpenBLAS thread."""
    if openblas_threads() == 1:
        raise SystemExit("report bytes are pinned at 2 or more BLAS threads; unset OPENBLAS_NUM_THREADS")
    return {
        "reports": session_digests(suite_run, default_seed, verbs),
        "one_blas_thread": {THREAD_BOUND: thread_bound_digest(default_seed, 1)},
    }


def thread_bound_digest(seed: int, threads: int) -> str:
    """``THREAD_BOUND``'s digest at ``seed``, built in a subprocess under ``OPENBLAS_NUM_THREADS=threads``."""
    code = (
        "import json, sys; from dataclasses import asdict; from symkit.experiments import _contract_report; "
        "json.dump(asdict(_contract_report(int(sys.argv[1]), 'heat-trace', 2)), sys.stdout)"
    )
    path = os.pathsep.join([str(_ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), PYTHONPATH=path)
    out = subprocess.run([sys.executable, "-c", code, str(seed)], env=env, capture_output=True, text=True, check=True)
    return digest(json.loads(out.stdout))


if __name__ == "__main__":
    sys.path.insert(0, str(_ROOT / "src"))
    from symkit import experiments
    from symkit.cli import DEFAULT_SEED

    def suite_run(verb, seed):
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return getattr(experiments, experiments.VERBS[verb][0])(seed), 0.0

    table = build_table(suite_run, DEFAULT_SEED, experiments.VERBS)
    TABLE.write_text(json.dumps(table, indent=1) + "\n")
    print(f"wrote {sum(map(len, table['reports'].values()))} digests to {TABLE}")
