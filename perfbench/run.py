"""symkit benchmark: seeded workloads through ``symkit.cli.main``, checked against references.

Usage (from the repository root):

    python3 perfbench/run.py --workload descent|spectra|audit \\
        --seed N --seconds S --trace 0|1

Each pass runs in a fresh process (``child.py``) that first times
``import symkit.cli`` and then makes the workload's CLI calls in sequence.
Passes repeat until ``--seconds`` have elapsed, at least one.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (median pass time,
first call to last report or file written), ``setup_s`` (median of at least
three fresh-interpreter import times) and ``peak_rss_mb`` (median peak
resident memory of the pass processes).  ``--trace 1`` runs one untraced pass
and at least two traced passes and reports the per-layer metrics of
``spans.py``, the tracing overhead (traced minus untraced wall time), and
checks that traced payloads are byte-identical to the untraced ones and that
work counts repeat exactly.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
record the environment and a readable summary including ``error_rate``.
Exit codes: 0 all checks passed, 1 a correctness check failed, 2 the
benchmark could not run here (no sources, or more threads than cores).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import uuid
from pathlib import Path

import fieldio
import spans
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("descent", "spectra", "audit")
SETUP_SAMPLES = 3
MIN_TRACED_PASSES = 2
RUN_LIMIT_S = 170.0  # every child is killed once the run has lasted this long
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class Refused(Exception):
    """The benchmark cannot run comparably in this environment."""


def child_env(nproc: int) -> dict:
    """Environment for pass processes; thread counts are pinned and never exceed nproc."""
    env = dict(os.environ)
    for var in THREAD_VARS:
        value = env.get(var)
        if value is None:
            continue
        if not value.isdigit() or not 1 <= int(value) <= nproc:
            raise Refused(f"{var}={value!r} is not a thread count in [1, nproc={nproc}]")
    env.setdefault("OPENBLAS_NUM_THREADS", str(nproc))
    env.setdefault("OMP_NUM_THREADS", str(nproc))
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


class Runner:
    """Starts pass processes and collects their results."""

    def __init__(self, work: Path, env: dict, t_start: float, nproc: int):
        self.work = work
        self.nproc = nproc
        self.env = env
        self.t_start = t_start
        self.count = 0
        self.run_id = uuid.uuid4().hex[:12]
        self.environment = None

    def elapsed(self) -> float:
        return time.monotonic() - self.t_start

    def run(self, ops: list, trace: bool = False) -> dict:
        """One child process; returns its result plus ``dir``, ``elapsed_s`` and ``peak_rss_mb``."""
        return self.run_side_by_side([ops], trace)[0]

    def run_side_by_side(self, jobs: list, trace: bool = False) -> list[dict]:
        """Start one child per op list at once, then wait for each."""
        started = []
        try:
            for ops in jobs:
                pass_dir = self.work / f"pass{self.count:03d}"
                self.count += 1
                pass_dir.mkdir(parents=True)
                (pass_dir / "job.json").write_text(
                    json.dumps({"ops": ops, "trace": trace, "run_id": self.run_id})
                )
                with open(pass_dir / "child.log", "wb") as log:
                    proc = subprocess.Popen(
                        [sys.executable, str(BENCH_DIR / "child.py"), str(pass_dir)],
                        cwd=ROOT,
                        env=self.env,
                        stdout=log,
                        stderr=log,
                    )
                started.append((proc, pass_dir, time.monotonic()))
            return [self._wait(*s) for s in started]
        except BaseException:  # interrupted or failed: leave no child behind
            for proc, _, _ in started:
                if proc.returncode is None:
                    proc.kill()
                    proc.wait()
            raise

    def _wait(self, proc, pass_dir: Path, t0: float) -> dict:
        budget = max(1.0, RUN_LIMIT_S - self.elapsed())
        timer = threading.Timer(budget, proc.send_signal, (signal.SIGKILL,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        result_path = pass_dir / "result.json"
        if proc.returncode == 3:
            raise Refused(json.loads(result_path.read_text())["refused"])
        if proc.returncode != 0 or not result_path.exists():
            tail = (pass_dir / "child.log").read_text(errors="replace")[-2000:]
            raise RuntimeError(f"pass process exited with {proc.returncode}:\n{tail}")
        result = json.loads(result_path.read_text())
        result["dir"] = pass_dir
        result["elapsed_s"] = time.monotonic() - t0
        result["peak_rss_mb"] = usage.ru_maxrss / 1024.0  # kilobytes on Linux
        self.environment = self.environment or result["env"]
        return result


class Workload:
    """The CLI calls of one pass: suite verbs, then for ``audit`` the file verbs.

    Each part writes under its own subdirectory of the pass's output directory.
    """

    def __init__(self, name: str, seed: int, work: Path):
        self.suite = workloads.Suite(name, seed)
        self.parts = [("reports", self.suite)]
        if name == "audit":
            self.parts.append(("files", fieldio.FieldIO(seed, work)))

    def ops(self, out_dir: Path) -> list:
        argv = []
        for sub, part in self.parts:
            (out_dir / sub).mkdir(parents=True)
            argv += part.ops(out_dir / sub)
        return argv

    def check(self, records: list, out_dir: Path) -> tuple[int, dict]:
        attempted, failures = 0, {}
        for sub, part in self.parts:
            n, fails = part.check(records[: part.n_ops], out_dir / sub)
            records = records[part.n_ops :]
            attempted += n
            failures.update(fails)
        return attempted, failures

    def payload(self, out_dir: Path) -> dict:
        return {(sub, k): v for sub, part in self.parts for k, v in part.payload(out_dir / sub).items()}


def run_pass(runner: Runner, wl: Workload, trace: bool, tally: dict) -> dict:
    out_dir = runner.work / f"out{runner.count:03d}"
    result = runner.run(wl.ops(out_dir), trace=trace)
    attempted, failures = wl.check(result["ops"], out_dir)
    tally["attempted"] += attempted
    tally["failures"] += [f"pass {result['dir'].name}: {op}: {why}" for op, why in failures.items()]
    result["out_dir"] = out_dir
    return result


def measure(args, runner: Runner, wl: Workload, tally: dict) -> dict:
    """End-to-end metrics, tracing off."""
    # the set-up-only samples run side by side, one per core, to keep runs short
    setup = []
    while len(setup) < SETUP_SAMPLES - 1:
        batch = min(runner.nproc, SETUP_SAMPLES - 1 - len(setup))
        setup += [r["setup_s"] for r in runner.run_side_by_side([[]] * batch)]
    passes = []
    t0 = time.monotonic()
    while not passes or time.monotonic() - t0 < args.seconds:
        if passes and runner.elapsed() + 1.25 * passes[-1]["elapsed_s"] > RUN_LIMIT_S:
            tally["notes"].append(f"stopped after {len(passes)} pass(es): no time left")
            break
        res = run_pass(runner, wl, False, tally)
        shutil.rmtree(res["out_dir"])
        passes.append(res)
    setup += [p["setup_s"] for p in passes]
    tally["samples"] = {"passes": len(passes), "setup": len(setup)}
    return {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }


def measure_traced(args, runner: Runner, wl: Workload, tally: dict) -> dict:
    """Per-layer metrics from traced passes, checked against an untraced pass."""
    plain = run_pass(runner, wl, False, tally)
    reference_payload = wl.payload(plain["out_dir"])
    traced = []
    t0 = time.monotonic()
    while len(traced) < MIN_TRACED_PASSES or time.monotonic() - t0 < args.seconds:
        if traced and runner.elapsed() + 1.25 * traced[-1]["elapsed_s"] > RUN_LIMIT_S:
            tally["notes"].append(f"stopped after {len(traced)} traced pass(es): no time left")
            break
        res = run_pass(runner, wl, True, tally)
        if wl.payload(res["out_dir"]) != reference_payload:
            tally["check_failures"].append(f"pass {res['dir'].name}: traced payload differs from untraced")
        shutil.rmtree(res["out_dir"])
        res["layers"] = spans.layer_metrics(
            spans.load_spans(res["dir"] / "spans.json"), res["wall_s"], res["cell_order_cache"]
        )
        traced.append(res)
    shutil.rmtree(plain["out_dir"])
    first = traced[0]["layers"]
    for res in traced[1:]:
        for name in spans.COUNTS:
            if res["layers"][name] != first[name]:
                tally["check_failures"].append(
                    f"{name} did not repeat: {first[name]} then {res['layers'][name]}"
                )
    metrics = spans.median_metrics([t["layers"] for t in traced])
    metrics["trace.overhead_s"] = (
        statistics.median(t["wall_s"] for t in traced) - plain["wall_s"]
    )
    tally["samples"] = {"passes": 1, "traced_passes": len(traced)}
    return metrics


def declared_metrics(trace: bool) -> dict:
    """name -> unit of the metrics BENCHMARK.json declares for this mode."""
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "symkit" / "cli.py").is_file():
        print(f"perfbench: no symkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    t_start = time.monotonic()
    nproc = len(os.sched_getaffinity(0))
    work = ROOT / ".perfbench-run" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tally = {"attempted": 0, "failures": [], "check_failures": [], "notes": []}
    try:
        runner = Runner(work, child_env(nproc), t_start, nproc)
        wl = Workload(args.workload, args.seed, work)
        values = (measure_traced if args.trace else measure)(args, runner, wl, tally)
    except Refused as exc:
        print(f"perfbench: refusing to run: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    units = declared_metrics(bool(args.trace))
    if set(units) != set(values):
        print(f"perfbench: metrics differ from BENCHMARK.json: {sorted(set(units) ^ set(values))}",
              file=sys.stderr)
        return 1
    failed = len(tally["failures"])
    attempted = max(tally["attempted"], 1)
    out = {
        "correct": failed == 0 and not tally["check_failures"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "config_seed": wl.suite.cseed,
        "trace": args.trace,
        "env": runner.environment,
        "samples": tally["samples"],
        "failures": tally["failures"] + tally["check_failures"],
        "notes": tally["notes"],
        "result": out,
    }
    (work / "record.json").write_text(json.dumps(record, indent=1))
    for line in (tally["failures"] + tally["check_failures"])[:20]:
        print(f"FAIL {line}", file=sys.stderr)
    for line in tally["notes"]:
        print(f"note: {line}")
    print("env " + json.dumps(runner.environment, sort_keys=True))
    print(f"{args.workload} seed={args.seed} samples={json.dumps(tally['samples'])} "
          f"error_rate={failed / attempted:.6g} ({failed}/{attempted} operations)")
    for name, unit in units.items():
        print(f"  {name} {values[name]:.6g} {unit}")
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
