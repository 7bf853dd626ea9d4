"""Machine-readable reports and the rule table that judges them.

Each experiment produces one JSON document, named by its id.  Report
payloads are deterministic for a fixed seed except for the wall-time field,
which auditors strip before byte comparison.  ``judge`` reads a payload's
verdict off it by the rule of its id in ``RULES`` (DECISIONS.md D22).
"""

from __future__ import annotations

import fnmatch
import hashlib
import json
from dataclasses import asdict, dataclass, field as dc_field
from pathlib import Path

VERDICT_PASS = "pass"
VERDICT_FAIL = "fail"
VERDICT_TREND = "trend-pass"


@dataclass
class ExperimentReport:
    """Auditable record: ``verdict`` is ``judge`` of the other recorded fields.

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


# Inputs of a rule that no payload records yet (DECISIONS.md D22).
LADDER_ATOL = 1e-14  # a ladder's rounding allowance per unit of max(scales, 1)
MONOTONE_NOISE = 1e-3  # the dip a quotient ladder may take per rung


def _at_most(value: str, tolerance: str):
    return lambda v, t, s: v[value] <= t[tolerance]


def _ladder(v, t, s) -> bool:
    """Violations contract by the factor per rung, up to rounding, to the final fraction of scale."""
    viols, scales = s["violations"], s["scales"]
    atol = LADDER_ATOL * max(scales + [1.0])
    contracts = all(b <= t["contraction_factor"] * a + atol for a, b in zip(viols, viols[1:]))
    return contracts and viols[-1] <= t["final_fraction"] * max(scales[-1], 1e-300)


def _quotients(gap: str, noise: float | None = None):
    """Quotients that dip by at most the noise (the payload's if None) and end within ``gap``."""
    def rule(v, t, s):
        q, eps = s["quotients"], t["monotone_noise"] if noise is None else noise
        return all(b >= a - eps for a, b in zip(q, q[1:])) and v[gap] <= t[gap]
    return rule


def _continuity(v, t, s) -> bool:
    """Decay: the last distance within its fraction of the first.  Nonvanishing: none below it."""
    d = s["distances"]
    if "final_over_initial" in t:
        return d[-1] <= t["final_over_initial"] * d[0]
    return min(d) >= t["min_over_initial"] * d[0]


def _choquard(v, t, s) -> bool:
    flags = ("strictly_decreasing_first50", "symmetric_sequence_nonincreasing", "fixed_point")
    restarted = v["restart_max_step_change"] < t["restart_step_change"]
    return all(v[k] for k in flags) and v["worst_sort_cost"] <= t["sort_cost_slack"] and restarted


# Report id pattern (fnmatch, first match wins) -> (rule, verdict when it holds).  A rule
# reads the payload's values v, tolerances t and series s.
RULES = {
    "verify-*": (_at_most("max_relative_violation", "relative"), VERDICT_PASS),
    "refine-young-quotient-1d": (_quotients("final_gap"), VERDICT_TREND),
    "refine-hls-quotient-1d": (_quotients("final_relative_gap", MONOTONE_NOISE), VERDICT_TREND),
    "refine-bll-1d": (_at_most("worst_margin_in_se", "margin_se"), VERDICT_PASS),
    "refine-*-[12]d": (_ladder, VERDICT_TREND),
    "spectral-heat-trace-random": (_ladder, VERDICT_TREND),
    "spectral-faber-krahn": (
        lambda v, t, s: v["gap"] > 0
        and abs(v["gap"] - v["analytic_gap"]) <= t["relative_gap_error"] * v["analytic_gap"],
        VERDICT_PASS,
    ),
    "spectral-heat-perimeter-square": (
        lambda v, t, s: abs(v["perimeter_estimate"] - v["target"]) <= t["relative_error"] * v["target"],
        VERDICT_PASS,
    ),
    "stability-equality-cases": (_at_most("max_abs_deficit", "abs_deficit"), VERDICT_PASS),
    "stability-two-ball-sweep": (_at_most("ratio_spread", "ratio_spread"), VERDICT_PASS),
    "stability-asymmetry-audit": (_at_most("mismatches", "mismatches"), VERDICT_PASS),
    "stability-fractional-isoperimetric": (
        lambda v, t, s: abs(v["equality_deficit"]) <= t["equality_deficit"] and v["elongated_deficit"] > 0,
        VERDICT_PASS,
    ),
    "stability-layered-identity": (_at_most("max_relative_error", "relative_error"), VERDICT_PASS),
    "choquard-descent": (_choquard, VERDICT_PASS),
    "continuity-*": (_continuity, VERDICT_PASS),
}


def judge(payload: dict) -> str:
    """The verdict of a payload, as written or as ``asdict`` gives it; raises for an id with no rule."""
    rid = payload["experiment_id"]
    for pattern, (rule, verdict) in RULES.items():
        if fnmatch.fnmatchcase(rid, pattern):
            return verdict if rule(payload["values"], payload["tolerances"], payload["series"]) else VERDICT_FAIL
    raise KeyError(f"no verdict rule for report id {rid!r}")
