"""Experiment configuration and machine-readable reports.

Config files are JSON with a version tag ``symkit-config 1``.  Each
experiment produces one JSON document plus a row in a flat CSV summary
(id, verdict, value, tolerance).  Report payloads are deterministic for a
fixed config and seed except for the wall-time field, which auditors strip
before byte comparison.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import asdict, dataclass, field as dc_field
from pathlib import Path

__all__ = ["SCHEMA_TAG", "SuiteConfig", "ExperimentReport", "write_reports", "load_config"]

SCHEMA_TAG = "symkit-config 1"

VERDICT_PASS = "pass"
VERDICT_FAIL = "fail"
VERDICT_TREND = "trend-pass"


# Integer config keys and their least allowed values.  Seed 0 is a valid
# Philox key; negative seeds are not, nor seeds of 2^64 or more, which
# ``rng_for`` masks to 64 bits and so to the key of a smaller seed.
_INT_MINIMUM = {
    "seed": 0,
    "verify_cases": 0,
    "verify_shape_1d": 1,
    "verify_shape_2d": 1,
    "n_bumps": 1,
    "mc_samples": 1,
    "jobs": 1,
}

# Float config keys; each must be a finite real number in (0, 1].
_UNIT_INTERVAL_KEYS = ("support_fraction", "contraction_factor", "final_violation_fraction")


@dataclass(frozen=True)
class SuiteConfig:
    """Suite parameters; the ladder is a list of (d, n, h) triples, h halving per d."""

    seed: int = 20260808
    ladder: tuple[tuple[int, int, float], ...] = (
        (1, 128, 8.0 / 128),
        (1, 256, 8.0 / 256),
        (1, 512, 8.0 / 512),
        (2, 32, 4.0 / 32),
        (2, 64, 4.0 / 64),
        (2, 128, 4.0 / 128),
    )
    verify_cases: int = 200
    verify_shape_1d: int = 64
    verify_shape_2d: int = 16
    support_fraction: float = 0.6
    n_bumps: int = 6
    mc_samples: int = 200_000
    contraction_factor: float = 0.7
    final_violation_fraction: float = 1e-3
    out_dir: str = "symkit-out"
    jobs: int = 1  # accepted and validated; currently no effect (DECISIONS.md D6)

    def __post_init__(self):
        object.__setattr__(self, "ladder", _checked_ladder(self.ladder))
        if not isinstance(self.out_dir, str):
            raise ValueError(f"out_dir must be a string, got {self.out_dir!r}")
        for key in _UNIT_INTERVAL_KEYS:
            value = getattr(self, key)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(f"{key} must be a real number, got {value!r}")
            if not (math.isfinite(value) and 0 < value <= 1):
                raise ValueError(f"{key} must be finite and in (0, 1], got {value!r}")
        for key, least in _INT_MINIMUM.items():
            value = getattr(self, key)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{key} must be an integer, got {value!r}")
            if value < least:
                raise ValueError(f"{key} must be at least {least}, got {value}")
        if self.seed >= 2**64:
            raise ValueError(f"seed must be at most 2**64 - 1, got {self.seed}")

    def rungs(self, d: int) -> list[tuple[int, float]]:
        return [(n, h) for dd, n, h in self.ladder if dd == d]


def _checked_ladder(ladder) -> tuple[tuple[int, int, float], ...]:
    """The ladder as (d, n, h) tuples; raises unless every rung is valid.

    d is 1 or 2, n an integer >= 1 and h a finite real number > 0 (bools are
    rejected), and each dimension has at least 3 rungs, each halving h.
    """
    if not isinstance(ladder, (list, tuple)):
        raise ValueError(f"ladder must be a list of (d, n, h) rungs, got {ladder!r}")
    out = []
    for rung in ladder:
        if not isinstance(rung, (list, tuple)) or len(rung) != 3:
            raise ValueError(f"ladder rung must be a (d, n, h) triple, got {rung!r}")
        d, n, h = rung
        if isinstance(d, bool) or not isinstance(d, int) or d not in (1, 2):
            raise ValueError(f"ladder dimension must be 1 or 2, got {d!r}")
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            raise ValueError(f"ladder extent must be an integer >= 1, got {n!r}")
        if isinstance(h, bool) or not isinstance(h, (int, float)):
            raise ValueError(f"ladder spacing must be a real number, got {h!r}")
        if not (math.isfinite(h) and h > 0):
            raise ValueError(f"ladder spacing must be a finite real number > 0, got {h!r}")
        out.append((d, n, float(h)))
    for d in (1, 2):
        rungs = [(n, h) for dd, n, h in out if dd == d]
        if len(rungs) < 3:
            raise ValueError(f"ladder for d={d} must have at least 3 rungs, got {len(rungs)}")
        for (n1, h1), (n2, h2) in zip(rungs, rungs[1:]):
            if not (n2 == 2 * n1 and abs(h2 - h1 / 2) <= 1e-12 * h1):
                raise ValueError(f"ladder for d={d} must refine by halving h: {rungs}")
    return tuple(out)


def load_config(path) -> SuiteConfig:
    with open(path) as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError(f"config must be a JSON object, got {type(raw).__name__}")
    tag = raw.pop("schema", None)
    if tag != SCHEMA_TAG:
        raise ValueError(f"config schema must be {SCHEMA_TAG!r}, got {tag!r}")
    known = {f for f in SuiteConfig.__dataclass_fields__}
    unknown = set(raw) - known
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return SuiteConfig(**raw)


@dataclass
class ExperimentReport:
    """Auditable record: the verdict is derivable from the recorded numbers alone.

    ``wall_time_s`` is the wall time of the experiment call that produced the
    report; reports returned by one call (the ``verify`` checks, which share
    one pass over the cases) carry that call's time.  It is the only field
    that varies between runs of the same config.
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

    def primary_value(self) -> float | None:
        for v in self.values.values():
            return v
        return None

    def primary_tolerance(self) -> float | None:
        for v in self.tolerances.values():
            return v
        return None


def digest_inputs(*parts) -> str:
    """Stable hash of configuration scalars, strings, and arrays."""
    hasher = hashlib.sha256()
    for p in parts:
        if hasattr(p, "tobytes"):
            hasher.update(p.tobytes())
        else:
            hasher.update(repr(p).encode())
    return hasher.hexdigest()[:16]


def write_reports(reports: list[ExperimentReport], out_dir) -> Path:
    """Write one JSON per report plus the flat CSV summary; returns the directory."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for rep in reports:
        path = out / f"{rep.experiment_id}.json"
        with open(path, "w") as fh:
            json.dump(asdict(rep), fh, indent=1, sort_keys=True)
            fh.write("\n")
    with open(out / "summary.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "verdict", "value", "tolerance"])
        for rep in reports:
            writer.writerow(
                [rep.experiment_id, rep.verdict, rep.primary_value(), rep.primary_tolerance()]
            )
    return out
