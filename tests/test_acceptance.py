"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.  Tolerances are pinned here, not configurable.
"""

import math
import time

import numpy as np
import pytest

from symkit.cli import DEFAULT_SEED as SEED
from symkit.experiments import HLS_LAMBDA, _random_bll_coeffs
from symkit.field import Grid, ScalarField
from symkit.functionals import BLLSpec, bll_integral, riesz_triple
from symkit.kernels import displacement_grid
from symkit.random_fields import bump_field, rng_for, sample_bumps
from symkit.rearrange import rearrange
from symkit.sharp import hls_constant, young_constant, young_quotient


def _report(criterion: str, ok: bool, detail: str) -> bool:
    print(f"{'PASS' if ok else 'FAIL'} {criterion}: {detail}")
    return ok


def _refine_report(default_seed_run, experiment_id):
    return next(r for r in default_seed_run("refine")[0] if r.experiment_id == experiment_id)


def test_criterion_1_exact_discrete_suite(default_seed_run):
    reports, elapsed = default_seed_run("verify")
    worst = max(r.values.get("max_relative_violation", 0.0) for r in reports)
    ok = all(r.verdict == "pass" for r in reports) and worst <= 1e-12 and elapsed <= 60
    assert _report(
        "criterion 1 (exact discrete suite)",
        ok,
        f"{len(reports)} checks x 200 cases x d in (1,2), worst violation {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_refinement_contracts(default_seed_run):
    ids = (
        "riesz",
        "frac-seminorm",
        "frac-perimeter",
        "gradient",
        "heat-pairing",
        "heat-trace",
        "minkowski",
    )
    by_id = {r.experiment_id: r for r in default_seed_run("refine")[0]}
    reports = [by_id[f"refine-{ineq_id}-{d}d"] for ineq_id in ids for d in (1, 2)]
    elapsed = sum(r.wall_time_s for r in reports)
    bad = [r.experiment_id for r in reports if r.verdict != "trend-pass"]
    ok = not bad and elapsed <= 600
    assert _report(
        "criterion 2 (refinement contracts)",
        ok,
        f"{len(reports)} ladders (d=1: 128/256/512, d=2: 32/64/128), failures {bad or 'none'}, {elapsed:.1f}s",
    )


def test_criterion_3_sharp_young(default_seed_run):
    # equality family along the ladder: monotone and within 1e-2 at n=512
    quotients = _refine_report(default_seed_run, "refine-young-quotient-1d").series["quotients"]
    monotone = all(b >= a - 1e-3 for a, b in zip(quotients, quotients[1:]))
    final_ok = abs(quotients[-1] - 1.0) <= 1e-2

    # 200 random signed triples never exceed 1 + delta(h), delta(h) = 10 h^2
    n, box = 256, 8.0
    grid = Grid((n,), 2 * box / n)
    dgrid = displacement_grid(grid)
    delta = 10 * grid.h**2
    worst = 0.0
    for case in range(200):
        rng = rng_for(SEED, 71, case)
        f = bump_field(sample_bumps(rng, 1, box, 5, 0.55, signed=True), grid)
        gm = bump_field(sample_bumps(rng, 1, box, 5, 0.55, signed=True), dgrid)
        hh = bump_field(sample_bumps(rng, 1, box, 5, 0.55, signed=True), grid)
        worst = max(worst, young_quotient(f, gm, hh, 2.0, 4 / 3, 4 / 3))
    random_ok = worst <= 1 + delta

    # the constant-formula discrepancy is resolved by the Gaussian oracle:
    # the conjugate-exponent form is attained (quotient 1), the variant with
    # the base exponent in both places is not
    s = 4 / 3
    sp = s / (s - 1)
    display_variant = math.sqrt(s ** (1 / s) / s ** (1 / sp))
    formula_distinct = abs(display_variant - young_constant(s)) > 1e-3
    oracle_ok = abs(quotients[-1] - 1.0) <= 1e-2 and formula_distinct

    ok = monotone and final_ok and random_ok and oracle_ok
    assert _report(
        "criterion 3 (sharp Young)",
        ok,
        f"ladder {['%.6f' % q for q in quotients]}, worst random {worst:.4f} vs 1+{delta:.4f}",
    )


def test_criterion_4_sharp_hls(default_seed_run):
    target = hls_constant(HLS_LAMBDA, 1)
    series = _refine_report(default_seed_run, "refine-hls-quotient-1d").series
    quotients, bias = series["quotients"], series["bias_bounds"]
    gap = abs(quotients[-1] - target) / target
    ladder_ok = gap <= 0.02 and all(b >= a - 1e-3 for a, b in zip(quotients, quotients[1:]))

    grid = Grid((256,), 32.0 / 256)
    x = grid.axis_coords(0)
    worst = 0.0
    from symkit.sharp import hls_quotient

    for case in range(50):
        rng = rng_for(SEED, 72, case)
        c1, c2 = rng.uniform(-2, 2, size=2)
        w1, w2 = rng.uniform(1.0, 4.0, size=2)
        f = ScalarField(grid, rng.uniform(0.2, 1) * np.maximum(1 - ((x - c1) / w1) ** 2, 0) ** 2)
        h = ScalarField(grid, rng.uniform(0.2, 1) * np.maximum(1 - ((x - c2) / w2) ** 2, 0) ** 2)
        worst = max(worst, hls_quotient(f, h, HLS_LAMBDA))
    random_ok = worst <= target * (1 + 5e-3)

    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    lam, d = mpmath.mpf(1), mpmath.mpf(3)
    ref = (
        mpmath.pi ** (lam / 2)
        * mpmath.gamma((d - lam) / 2)
        / mpmath.gamma(d - lam / 2)
        * (mpmath.gamma(d) / mpmath.gamma(d / 2)) ** (1 - lam / d)
    )
    gamma_ok = abs(hls_constant(1.0, 3) - float(ref)) <= 1e-10

    ok = ladder_ok and random_ok and gamma_ok
    assert _report(
        "criterion 4 (sharp HLS)",
        ok,
        f"optimizer gap {gap:.4f} at n=1024 (bias bound {bias[-1]:.4f}), worst random "
        f"{worst:.4f} vs {target:.4f}, |C(1,3)-oracle| <= 1e-10: {gamma_ok}",
    )


def test_criterion_5_spectral_isoperimetry(default_seed_run):
    reports, elapsed = default_seed_run("spectral")
    reports = {r.experiment_id: r for r in reports}
    fk = reports["spectral-faber-krahn"]
    gap_err = abs(fk.values["gap"] - fk.values["analytic_gap"]) / fk.values["analytic_gap"]
    heat = reports["spectral-heat-trace-random"]
    per = reports["spectral-heat-perimeter-square"]
    per_err = abs(per.values["perimeter_estimate"] - 4.0) / 4.0
    ok = (
        fk.verdict == "pass"
        and gap_err <= 0.15
        and heat.verdict == "trend-pass"
        and per.verdict == "pass"
        and per_err <= 0.10
    )
    assert _report(
        "criterion 5 (spectral isoperimetry)",
        ok,
        f"gap error {gap_err:.3f} (<=0.15), heat-trace {heat.verdict} on 20 pairs, "
        f"perimeter {per.values['perimeter_estimate']:.3f} (err {per_err:.3f}), {elapsed:.0f}s",
    )


def test_criterion_6_bll_monte_carlo():
    t0 = time.monotonic()
    n, h = 64, 8.0 / 64
    grid = Grid((n,), h)
    x = grid.axis_coords(0)
    f1 = ScalarField(grid, np.maximum(1 - ((x + 0.5) / 1.5) ** 2, 0) ** 2)
    f2 = ScalarField(grid, np.maximum(1 - ((x - 0.7) / 1.2) ** 2, 0) ** 2)
    dgrid = displacement_grid(grid)
    mid = ScalarField(dgrid, np.exp(-dgrid.radius2()))
    spec = BLLSpec(np.array([[1.0, 0.0], [1.0, -1.0], [0.0, 1.0]]), (f1, mid, f2))
    est = bll_integral(spec, 1_000_000, seed=SEED)
    exact = riesz_triple(f1, mid, f2)
    z = abs(est.value - exact) / est.standard_error
    riesz_ok = z <= 3.0

    worst_margin = -math.inf
    for case in range(10):
        rng = rng_for(SEED, 73, case)
        n_factors = int(rng.integers(2, 5))
        n_vars = int(rng.integers(1, min(n_factors, 3) + 1))
        coeffs = _random_bll_coeffs(rng, n_factors, n_vars)
        fields = tuple(
            bump_field(sample_bumps(rng, 1, 4.0, 4, 0.5), grid, nonneg=True)
            for _ in range(n_factors)
        )
        s0 = BLLSpec(coeffs, fields)
        s1 = BLLSpec(coeffs, tuple(rearrange(f) for f in fields))
        e0 = bll_integral(s0, 150_000, seed=SEED + case)
        e1 = bll_integral(s1, 150_000, seed=SEED + 500 + case)
        se = math.hypot(e0.standard_error, e1.standard_error)
        worst_margin = max(worst_margin, (e0.value - e1.value) / max(se, 1e-300))
    random_ok = worst_margin <= 5.0
    elapsed = time.monotonic() - t0
    ok = riesz_ok and random_ok and elapsed <= 300
    assert _report(
        "criterion 6 (BLL Monte Carlo)",
        ok,
        f"riesz instance z={z:.2f} (<=3) at 1e6 samples, worst random margin "
        f"{worst_margin:.2f} SE (<=5) over 10 specs, {elapsed:.0f}s",
    )


def test_criterion_7_stability(default_seed_run):
    reports = {r.experiment_id: r for r in default_seed_run("stability")[0]}
    eq = reports["stability-equality-cases"]
    sweep = reports["stability-two-ball-sweep"]
    audit = reports["stability-asymmetry-audit"]
    layered = reports["stability-layered-identity"]
    ok = all(r.verdict == "pass" for r in (eq, sweep, audit, layered))
    assert _report(
        "criterion 7 (stability)",
        ok,
        f"equality deficit {eq.values['max_abs_deficit']:.2e}, sweep spread "
        f"{sweep.values['ratio_spread']:.2f} (<=3), audit mismatches "
        f"{int(audit.values['mismatches'])}/50, layered error "
        f"{layered.values['max_relative_error']:.4f} (<=0.01)",
    )


def test_criterion_8_choquard_descent(default_seed_run):
    [rep], elapsed = default_seed_run("choquard")
    ok = rep.verdict == "pass" and elapsed <= 600
    assert _report(
        "criterion 8 (Choquard descent)",
        ok,
        f"final E {rep.values['final_energy']:.6f}, symmetric sequence nonincreasing "
        f"{bool(rep.values['symmetric_sequence_nonincreasing'])}, exact fixed point "
        f"{bool(rep.values['fixed_point'])}, worst sort cost {rep.values['worst_sort_cost']:.2e}, "
        f"restart step change {rep.values['restart_max_step_change']:.2e} (<1e-6), {elapsed:.0f}s",
    )


def test_criterion_9_continuity_probes(default_seed_run):
    reports = {r.experiment_id: r for r in default_seed_run("probe-continuity")[0]}
    decay_ids = ("continuity-smooth-w1p", "continuity-smooth-wsp", "continuity-plateau-wsp")
    decay_ok = all(reports[i].verdict == "pass" for i in decay_ids)
    ratios = {i: reports[i].values["ratio"] for i in decay_ids}

    plateau = reports["continuity-plateau-w1p"]
    plateau_ok = plateau.verdict == "pass"
    detail = (
        f"decay ratios {['%.3f' % ratios[i] for i in decay_ids]} (<=0.1), "
        f"plateau/W(1,2) min/initial {min(plateau.series['distances']) / plateau.series['distances'][0]:.3f} "
        f"(criterion asks >=0.5)"
    )
    _report("criterion 9 (continuity probes)", decay_ok and plateau_ok, detail)
    assert decay_ok, detail
    # The plateau/W^{1,2} clause asks the rearranged distance to stay above
    # half its initial value while the inputs converge.  On a fixed grid the
    # rearrangement is nonexpansive in L^2 and the discrete gradient is a
    # bounded operator, so the distance is forced down at the amplitude rate;
    # the continuum theorem likewise gives continuity at plateau profiles
    # (their residual distribution is a jump, whose derivative has no
    # absolutely continuous part).  The clause is therefore unattainable and
    # is reported red; see the decisions ledger.
    assert plateau_ok, (
        "plateau/W^{1,2} discontinuity signature absent: "
        + detail
        + " -- structurally unattainable on a fixed grid (see decisions ledger)"
    )
