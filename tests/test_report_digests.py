"""Every report tier-1 runs keeps its bytes: the SHA-256 table of ``tests/report_digests.json``.

The session runs of ``conftest.default_seed_run`` already make all 321 reports,
so the check costs their hashing; ``scripts/report_digests.py`` rewrites the
table.  ``refine-heat-trace-2d`` follows the BLAS thread count, and the test
reads that count from the OpenBLAS numpy loaded (DECISIONS.md D22).
"""

import importlib.util
import json
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from symkit import experiments
from symkit.cli import DEFAULT_SEED

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "report_digests.py"
_spec = importlib.util.spec_from_file_location("report_digests", _SCRIPT)
report_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(report_digests)

TABLE = json.loads(report_digests.TABLE.read_text())
BOUND = report_digests.THREAD_BOUND


def _moved(suite_run) -> list[tuple[str, str]]:
    """(seed, id) of each session report whose digest differs from the table's for this BLAS thread count."""
    got = report_digests.session_digests(suite_run, DEFAULT_SEED, experiments.VERBS)
    want = {seed: dict(ids) for seed, ids in TABLE["reports"].items()}
    if report_digests.openblas_threads() == 1:
        want[str(DEFAULT_SEED)][BOUND] = TABLE["one_blas_thread"][BOUND]
    seeds = sorted(set(got) | set(want))
    return [(seed, rid) for seed in seeds for rid in sorted(set(got.get(seed, {})) | set(want.get(seed, {})))
            if got.get(seed, {}).get(rid) != want.get(seed, {}).get(rid)]


def test_every_session_report_keeps_its_bytes(default_seed_run):
    moved = _moved(default_seed_run)
    assert not moved, f"{len(moved)} reports moved (rerun scripts/report_digests.py and name them): {moved}"
    assert sum(map(len, TABLE["reports"].values())) == 321


def test_the_script_builds_the_table_where_the_thread_count_is_unknown(default_seed_run, monkeypatch):
    # another BLAS, or a system OpenBLAS: the script rebuilds the thread-bound
    # report at 2 threads, as the check above does, and writes the same table
    built = []
    real = report_digests.thread_bound_digest
    monkeypatch.setattr(report_digests, "openblas_threads", lambda: None)
    monkeypatch.setattr(report_digests, "thread_bound_digest", lambda seed, threads: built.append(threads) or real(seed, threads))
    assert report_digests.build_table(default_seed_run, DEFAULT_SEED, experiments.VERBS) == TABLE
    assert sorted(built) == [1, 2]


def test_the_script_refuses_one_blas_thread(monkeypatch):
    monkeypatch.setattr(report_digests, "openblas_threads", lambda: 1)
    with pytest.raises(SystemExit):
        report_digests.build_table(None, DEFAULT_SEED, experiments.VERBS)


def test_the_thread_bound_report_keeps_its_one_thread_bytes():
    assert report_digests.thread_bound_digest(DEFAULT_SEED, 1) == TABLE["one_blas_thread"][BOUND]


def _float_slots(node):
    """(container, key) of every float leaf of a parsed payload."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        if isinstance(value, float):
            yield node, key
        else:
            yield from _float_slots(value)


def test_a_one_ulp_step_in_any_value_moves_its_digest(default_seed_run):
    # every float of every session report, one at a time, one ulp toward the finite side
    steps = 0
    for verb, seed in report_digests.session_runs(DEFAULT_SEED, experiments.VERBS):
        for rep in default_seed_run(verb, seed)[0]:
            payload = asdict(rep)
            del payload["wall_time_s"]
            want = report_digests.digest(payload)
            for node, key in _float_slots(payload):
                value = node[key]
                node[key] = float(np.nextafter(value, -np.inf if value > 0 else np.inf))
                assert report_digests.digest(payload) != want, (seed, rep.experiment_id, key, value)
                node[key] = value
                steps += 1
            assert report_digests.digest(payload) == want
    assert steps > 3000
