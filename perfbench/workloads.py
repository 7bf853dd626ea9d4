"""The suite workloads: what each pass runs, and how its reports are checked.

``descent``, ``spectra`` and ``audit`` run CLI suite verbs on the default
config with the config seed ``DEFAULT_SEED + seed % POOL``; every such config
seed has a reference run stored under ``reference/``.  Each report is one
operation.  It fails when its verb raises or exits with an unexpected code,
when its verdict differs from ``expected_verdicts.json``, or when a recorded
number is outside the stated tolerance of the reference run.  Report
``wall_time_s`` is never read: the benchmark times calls itself.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
DEFAULT_SEED = 20260808  # SuiteConfig().seed
POOL = 8

SUITE_VERBS = {
    "descent": ("choquard",),
    "spectra": ("spectral",),
    "audit": ("verify", "refine", "stability", "probe-continuity"),
}

# |got - ref| <= rtol * max(|got|, |ref|, report scale) + ATOL, where the report
# scale is the largest magnitude among the report's values, deficits and series.
RTOL = 1e-9
ATOL = 1e-13
# plain relative tolerances that replace the rule above for single values
STRICT_RTOL = {("choquard-descent", "values.final_energy"): 1e-10}


def config_seed(seed: int) -> int:
    return DEFAULT_SEED + seed % POOL


def expected_verdicts(verb: str, cseed: int) -> dict:
    """Expected verdict per report id of ``verb`` at config seed ``cseed``."""
    with open(BENCH_DIR / "expected_verdicts.json") as fh:
        table = json.load(fh)
    want = dict(table["verdicts"][verb])
    for exc in table["seed_exceptions"]:
        if exc["config_seed"] == cseed and exc["id"] in want:
            want[exc["id"]] = exc["verdict"]
    return want


def expected_exit(verdicts: dict) -> int:
    return 1 if "fail" in verdicts.values() else 0


def load_reference(workload: str) -> dict:
    with open(BENCH_DIR / "reference" / f"{workload}.json") as fh:
        return json.load(fh)


def ops(workload: str, cseed: int, out_root: Path) -> list[list[str]]:
    return [
        ["--seed", str(cseed), "--out", str(out_root / verb), "--jobs", "1", verb]
        for verb in SUITE_VERBS[workload]
    ]


def read_report(path: Path) -> dict:
    with open(path) as fh:
        rep = json.load(fh)
    rep.pop("wall_time_s", None)
    return rep


_WALL_LINE = re.compile(rb'\n "wall_time_s": [^\n]*')


def payload_bytes(out_root: Path) -> dict:
    """Every report file of a pass, with its ``wall_time_s`` line removed."""
    return {
        str(p.relative_to(out_root)): _WALL_LINE.sub(b"", p.read_bytes())
        for p in sorted(out_root.rglob("*"))
        if p.is_file()
    }


def _scale(rep: dict) -> float:
    nums = []

    def walk(x):
        if isinstance(x, bool):
            return
        if isinstance(x, (int, float)):
            nums.append(abs(x))
        elif isinstance(x, dict):
            for v in x.values():
                walk(v)
        elif isinstance(x, list):
            for v in x:
                walk(v)

    for key in ("values", "deficits", "series"):
        walk(rep.get(key))
    return max(nums, default=0.0)


def compare(rep_id: str, got, ref, scale: float, path: str = "") -> str | None:
    """First difference between a report and its reference, or None."""
    if isinstance(ref, dict):
        if not isinstance(got, dict) or set(got) != set(ref):
            return f"{path or 'report'}: keys differ"
        for k in sorted(ref):
            diff = compare(rep_id, got[k], ref[k], scale, f"{path}.{k}" if path else k)
            if diff:
                return diff
        return None
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return f"{path}: length differs"
        for i, (g, r) in enumerate(zip(got, ref)):
            diff = compare(rep_id, g, r, scale, f"{path}.{i}")
            if diff:
                return diff
        return None
    if isinstance(ref, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        strict = STRICT_RTOL.get((rep_id, path))
        if strict is not None:
            ok = abs(got - ref) <= strict * max(abs(got), abs(ref))
        else:
            ok = abs(got - ref) <= RTOL * max(abs(got), abs(ref), scale) + ATOL
        return None if ok else f"{path}: {got!r} vs reference {ref!r}"
    return None if got == ref and type(got) is type(ref) else f"{path}: {got!r} vs reference {ref!r}"


def check_pass(workload: str, cseed: int, records: list, out_root: Path, reference: dict):
    """Returns (operations attempted, {failed operation: reason}) for one pass."""
    attempted, failures = 0, {}
    ref_seed = reference.get(str(cseed), {})
    for verb, rec in zip(SUITE_VERBS[workload], records):
        want = expected_verdicts(verb, cseed)
        attempted += len(want)
        code = expected_exit(want)
        if rec["error"] or rec["exit_code"] != code:
            reason = f"{verb}: exit {rec['exit_code']} (expected {code}) {rec['error'] or ''}"
            failures.update({rep_id: reason for rep_id in want})
            continue
        found = {p.stem for p in (out_root / verb).glob("*.json")}
        for extra in sorted(found - set(want)):
            attempted += 1
            failures[extra] = "report not in the expected-verdict table"
        for rep_id, verdict in want.items():
            if rep_id not in found:
                failures[rep_id] = "report missing"
                continue
            rep = read_report(out_root / verb / f"{rep_id}.json")
            if rep.get("verdict") != verdict:
                failures[rep_id] = f"verdict {rep.get('verdict')!r}, expected {verdict!r}"
            elif rep_id not in ref_seed:
                failures[rep_id] = f"no reference at config seed {cseed}"
            else:
                diff = compare(rep_id, rep, ref_seed[rep_id], _scale(ref_seed[rep_id]))
                if diff:
                    failures[rep_id] = diff
    return attempted, failures


class Suite:
    """A suite workload at one seed: the CLI calls of a pass and their checks."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.cseed = config_seed(seed)
        self.reference = load_reference(name)
        self.n_ops = len(SUITE_VERBS[name])

    def ops(self, out_dir: Path) -> list:
        return ops(self.name, self.cseed, out_dir)

    def check(self, records: list, out_dir: Path) -> tuple[int, dict]:
        return check_pass(self.name, self.cseed, records, out_dir, self.reference)

    def payload(self, out_dir: Path) -> dict:
        return payload_bytes(out_dir)
