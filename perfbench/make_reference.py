"""Write ``reference/<workload>.json``: the reports of one untraced pass per pooled config seed.

Usage (from the repository root): ``python3 perfbench/make_reference.py [WORKLOAD ...]``.

A reference records what the program computed at the commit it was made on,
so regenerating it after a change to ``src/`` defeats the value checks; do it
only when the workload itself changes.  It refuses to write when a verb exits
unexpectedly or a verdict differs from ``expected_verdicts.json``.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

import run
import workloads


def reference_for(workload: str, cseed: int, runner: run.Runner) -> dict:
    out_root = runner.work / f"out-{cseed}"
    runner.t_start = time.monotonic()
    result = runner.run(workloads.ops(workload, cseed, out_root))
    reports = {}
    for verb, rec in zip(workloads.SUITE_VERBS[workload], result["ops"]):
        want = workloads.expected_verdicts(verb, cseed)
        if rec["error"] or rec["exit_code"] != workloads.expected_exit(want):
            raise SystemExit(f"{verb} at seed {cseed}: exit {rec['exit_code']} {rec['error'] or ''}")
        got = {
            p.stem: workloads.read_report(p) for p in sorted((out_root / verb).glob("*.json"))
        }
        verdicts = {k: v["verdict"] for k, v in got.items()}
        if verdicts != want:
            raise SystemExit(f"{verb} at seed {cseed}: verdicts {verdicts} differ from {want}")
        reports.update(got)
    shutil.rmtree(out_root)
    return reports


def main(names) -> int:
    work = run.ROOT / ".perfbench-run" / "reference"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    nproc = len(os.sched_getaffinity(0))
    runner = run.Runner(work, run.child_env(nproc), time.monotonic(), nproc)
    for workload in names or workloads.SUITE_VERBS:
        ref = {}
        for k in range(workloads.POOL):
            cseed = workloads.DEFAULT_SEED + k
            ref[str(cseed)] = reference_for(workload, cseed, runner)
            print(f"{workload} {cseed}: {len(ref[str(cseed)])} reports", flush=True)
        path = workloads.BENCH_DIR / "reference" / f"{workload}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
