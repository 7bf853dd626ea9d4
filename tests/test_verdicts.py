"""Every verdict is ``report.judge`` of its payload (DECISIONS.md D22).

The reference pool and the session's default-seed run are judged again from
their JSON, and each rule is shown to read its threshold from the payload:
moving the governing number one ulp past the edge turns the verdict red.
"""

import copy
import fnmatch
import json
import math
from dataclasses import asdict
from pathlib import Path

import pytest

from symkit.experiments import VERBS
from symkit.report import LADDER_ATOL, MONOTONE_NOISE, RULES, VERDICT_FAIL, judge, write_reports

_REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference"

# Inputs of a verdict that no payload records yet (DECISIONS.md D22): the rule
# judges the payload as if each were false, and the builder applies it on top.
UNRECORDED_INPUTS = {"choquard-descent": ("diverged",)}


def test_judge_reproduces_every_reference_verdict():
    payloads = []
    for workload in ("audit", "descent", "spectra"):
        with open(_REFERENCE / f"{workload}.json") as fh:
            payloads += [p for reports in json.load(fh).values() for p in reports.values()]
    assert len(payloads) == 8 * 41
    wrong = [(p["experiment_id"], p["verdict"], judge(p)) for p in payloads if judge(p) != p["verdict"]]
    assert not wrong
    assert {p["verdict"] for p in payloads} == {"pass", "trend-pass", "fail"}
    assert set(UNRECORDED_INPUTS) <= {p["experiment_id"] for p in payloads}


def test_judge_reproduces_the_session_verdicts_from_written_json(default_seed_run, tmp_path):
    ids = []
    for verb in VERBS:
        reports, _ = default_seed_run(verb)
        out = write_reports(reports, tmp_path / verb)
        for rep in reports:
            payload = json.loads((out / f"{rep.experiment_id}.json").read_text())
            assert judge(payload) == payload["verdict"] == rep.verdict, rep.experiment_id
            ids.append(rep.experiment_id)
    assert len(ids) == 41
    assert set(UNRECORDED_INPUTS) <= set(ids)
    # no rule is dead: each pattern judges at least one report of the run
    assert all(any(fnmatch.fnmatchcase(i, pattern) for i in ids) for pattern in RULES)


@pytest.mark.parametrize("rid", ["stability-unknown", "refine-riesz-3d", "verify", "choquard-descent-4d"])
def test_an_id_without_a_rule_raises(rid):
    with pytest.raises(KeyError, match="no verdict rule"):
        judge({"experiment_id": rid, "values": {}, "tolerances": {}, "series": {}})


def _at(payload, path):
    *head, last = path
    for key in head:
        payload = payload[key]
    return payload, last


def _edge(payload, path, guess, red_above):
    """The last number at ``path`` that judges green and the next double, which judges red.

    Steps at most 16 ulps from ``guess``, the edge computed from the payload's
    own numbers, so a rule that read its threshold from anywhere else fails here.
    """
    toward = math.inf if red_above else -math.inf
    box, key = _at(payload, path)

    def green(x):
        box[key] = x
        return judge(payload) != VERDICT_FAIL

    x = guess
    for _ in range(16):
        if green(x):
            break
        x = math.nextafter(x, -toward)
    for _ in range(16):
        if not green(math.nextafter(x, toward)):
            break
        x = math.nextafter(x, toward)
    return x, math.nextafter(x, toward)


def _ladder_setup(p):
    # a contracting ladder with a nonzero finest violation well within its scale, so
    # either clause binds once its tolerance moves
    p["series"]["violations"] = [1.0, 0.5, 0.25]
    p["tolerances"]["final_fraction"] = 1e3


def _dip(p):
    q = p["series"]["quotients"]
    q[1] = q[0] - 0.5


def _atol(p):
    return LADDER_ATOL * max(p["series"]["scales"] + [1.0])


def _up(x):
    return math.nextafter(x, math.inf)


# (verb, report id, setup, path of the governing number, its last green value
# from the payload, whether red lies above it, whether that value is exact).
# An inexact edge is rounded apart from the rule's own arithmetic by an ulp or so.
_EDGES = [
    ("verify", "verify-pairing", None, ("tolerances", "relative"),
     lambda p: p["values"]["max_relative_violation"], False, True),
    ("refine", "refine-bll-1d", None, ("tolerances", "margin_se"),
     lambda p: p["values"]["worst_margin_in_se"], False, True),
    ("stability", "stability-equality-cases", None, ("tolerances", "abs_deficit"),
     lambda p: p["values"]["max_abs_deficit"], False, True),
    ("stability", "stability-two-ball-sweep", None, ("tolerances", "ratio_spread"),
     lambda p: p["values"]["ratio_spread"], False, True),
    ("stability", "stability-asymmetry-audit", None, ("values", "mismatches"),
     lambda p: p["tolerances"]["mismatches"], True, True),
    ("stability", "stability-layered-identity", None, ("tolerances", "relative_error"),
     lambda p: p["values"]["max_relative_error"], False, True),
    ("refine", "refine-riesz-1d", _ladder_setup, ("tolerances", "contraction_factor"),
     lambda p: 0.5 - _atol(p), False, False),
    ("spectral", "spectral-heat-trace-random", _ladder_setup, ("tolerances", "contraction_factor"),
     lambda p: 0.5 - _atol(p), False, False),
    ("refine", "refine-riesz-1d", _ladder_setup, ("tolerances", "final_fraction"),
     lambda p: 0.25 / p["series"]["scales"][-1], False, False),
    ("refine", "refine-young-quotient-1d", _dip, ("tolerances", "monotone_noise"),
     lambda p: p["series"]["quotients"][0] - p["series"]["quotients"][1], False, False),
    ("refine", "refine-young-quotient-1d", None, ("tolerances", "final_gap"),
     lambda p: p["values"]["final_gap"], False, True),
    ("refine", "refine-hls-quotient-1d", None, ("series", "quotients", 1),
     lambda p: p["series"]["quotients"][0] - MONOTONE_NOISE, False, True),
    ("refine", "refine-hls-quotient-1d", None, ("tolerances", "final_relative_gap"),
     lambda p: p["values"]["final_relative_gap"], False, True),
    ("spectral", "spectral-faber-krahn", None, ("tolerances", "relative_gap_error"),
     lambda p: abs(p["values"]["gap"] - p["values"]["analytic_gap"]) / p["values"]["analytic_gap"], False, False),
    ("spectral", "spectral-faber-krahn", lambda p: p["tolerances"].update(relative_gap_error=2.0),
     ("values", "gap"), lambda p: _up(0.0), False, True),
    ("spectral", "spectral-heat-perimeter-square", None, ("tolerances", "relative_error"),
     lambda p: abs(p["values"]["perimeter_estimate"] - p["values"]["target"]) / p["values"]["target"], False, False),
    ("stability", "stability-fractional-isoperimetric", None, ("values", "equality_deficit"),
     lambda p: p["tolerances"]["equality_deficit"], True, True),
    ("stability", "stability-fractional-isoperimetric", None, ("tolerances", "equality_deficit"),
     lambda p: abs(p["values"]["equality_deficit"]), False, True),
    ("stability", "stability-fractional-isoperimetric", None, ("values", "elongated_deficit"),
     lambda p: _up(0.0), False, True),
    ("choquard", "choquard-descent", None, ("values", "worst_sort_cost"),
     lambda p: p["tolerances"]["sort_cost_slack"], True, True),
    ("choquard", "choquard-descent", None, ("tolerances", "restart_step_change"),
     lambda p: _up(p["values"]["restart_max_step_change"]), False, True),
    ("choquard", "choquard-descent", None, ("values", "fixed_point"), lambda p: _up(0.0), False, True),
    ("choquard", "choquard-descent", None, ("values", "strictly_decreasing_first50"),
     lambda p: _up(0.0), False, True),
    ("choquard", "choquard-descent", None, ("values", "symmetric_sequence_nonincreasing"),
     lambda p: _up(0.0), False, True),
    ("probe-continuity", "continuity-smooth-w1p", None, ("tolerances", "final_over_initial"),
     lambda p: p["series"]["distances"][-1] / p["series"]["distances"][0], False, False),
    ("probe-continuity", "continuity-plateau-w1p", None, ("tolerances", "min_over_initial"),
     lambda p: min(p["series"]["distances"]) / p["series"]["distances"][0], True, False),
]


@pytest.mark.parametrize(
    "verb, rid, setup, path, edge, red_above, exact", _EDGES, ids=[f"{e[1]}:{e[3][-2]}.{e[3][-1]}" for e in _EDGES]
)
def test_each_rule_reads_its_threshold_from_the_payload(
    default_seed_run, verb, rid, setup, path, edge, red_above, exact
):
    (rep,) = [r for r in default_seed_run(verb)[0] if r.experiment_id == rid]
    payload = copy.deepcopy(asdict(rep))
    if setup:
        setup(payload)
    expected = edge(payload)
    green, red = _edge(payload, path, expected, red_above)
    if exact:
        assert green == expected
    box, key = _at(payload, path)
    box[key] = green
    assert judge(payload) != VERDICT_FAIL, (green, payload)
    box[key] = red
    assert judge(payload) == VERDICT_FAIL, (red, payload)
