"""Machine-readable reports.

Each experiment produces one JSON document, named by its id.  Report
payloads are deterministic for a fixed seed except for the wall-time field,
which auditors strip before byte comparison.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field as dc_field
from pathlib import Path

VERDICT_PASS = "pass"
VERDICT_FAIL = "fail"
VERDICT_TREND = "trend-pass"


@dataclass
class ExperimentReport:
    """Auditable record: the verdict is derivable from the recorded numbers alone.

    ``wall_time_s`` is the wall time of the experiment call that produced the
    report; reports returned by one call (the ``verify`` checks, which share
    one pass over the cases) carry that call's time.  It is the only field
    that varies between runs of the same seed.
    """

    experiment_id: str
    inputs_digest: str = ""
    values: dict = dc_field(default_factory=dict)
    deficits: dict = dc_field(default_factory=dict)
    standard_errors: dict = dc_field(default_factory=dict)
    tolerances: dict = dc_field(default_factory=dict)
    series: dict = dc_field(default_factory=dict)
    warnings: list = dc_field(default_factory=list)
    verdict: str = VERDICT_PASS
    wall_time_s: float = 0.0


def digest_inputs(*parts) -> str:
    """Stable hash of input scalars, strings, and arrays."""
    hasher = hashlib.sha256()
    for p in parts:
        if hasattr(p, "tobytes"):
            hasher.update(p.tobytes())
        else:
            hasher.update(repr(p).encode())
    return hasher.hexdigest()[:16]


def write_reports(reports: list[ExperimentReport], out_dir) -> Path:
    """Write one JSON per report, ``<experiment_id>.json``; returns the directory."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for rep in reports:
        path = out / f"{rep.experiment_id}.json"
        with open(path, "w") as fh:
            json.dump(asdict(rep), fh, indent=1, sort_keys=True)
            fh.write("\n")
    return out
