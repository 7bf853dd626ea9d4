"""Suite runners behind the CLI verbs.

``VERBS`` names the runner of each suite verb.  Every runner takes the
seed and returns a list of ExperimentReports: it lists its experiments,
plain functions that return an ExperimentReport (a list of them for
verify), and hands them to ``_run``, which calls them in order and stamps
each call's wall time on the reports it returned.  A builder records its
numbers and takes its verdict from ``report.judge`` of that payload, so no
threshold is written outside the payload or the rule table (DECISIONS.md
D22).  Random inputs are drawn from counter-based streams keyed by the
seed, so one seed produces byte-identical payloads (wall time aside).  The
suite's sizes and tolerances are the constants below (DECISIONS.md D15).
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict
from functools import partial

import numpy as np

from .choquard import choquard_descent, coulomb_potential
from .field import Grid, GridSet, ScalarField
from .functionals import (
    BLLSpec,
    bll_integral,
    fractional_perimeter,
    fractional_seminorm,
    gradient_pnorm,
    hanner_sum,
    heat_pairing,
    lp_norm,
    minkowski_content,
    pairing,
    riesz_energy,
    riesz_triple,
    supermodular_pairing,
)
from .kernels import displacement_grid
from .random_fields import (
    bump_field,
    bump_mask,
    plateau_field,
    radial_bump_field,
    rng_for,
    sample_bumps,
)
from .rearrange import _in_cell_order, bathtub_fill, increasing_rearrangement, rearrange, set_symmetrize
from .report import MONOTONE_NOISE, VERDICT_FAIL, ExperimentReport, digest_inputs, judge
from .sharp import (
    _incomplete_beta,
    hls_constant,
    hls_norm_tail,
    hls_optimizer,
    hls_quotient,
    young_gaussian_triple,
    young_quotient,
)
from .spectral import dirichlet_eigenvalues, dirichlet_lambda1, heat_perimeter_estimate
from .stability import (
    asymmetry,
    asymmetry_bruteforce,
    ball_kernel_deficit,
    continuity_probe,
    layered_riesz_reconstruction,
)

EXACT_TOL = 1e-12

BOX_HALF = {1: 4.0, 2: 2.0, 3: 8.0}  # physical half-widths used by the suites

# The suite's inputs and tolerances (DECISIONS.md D15): every report was
# measured with these values, and its digest, tolerances or values record them.
RUNGS = {  # refinement ladder per dimension, coarse to fine: (n, h), h halving
    1: ((128, 8 / 128), (256, 8 / 256), (512, 8 / 512)),
    2: ((32, 4 / 32), (64, 4 / 64), (128, 4 / 128)),
}
VERIFY_CASES = 200  # random signed pairs per dimension in verify
VERIFY_SHAPE = {1: 64, 2: 16}  # cells per side of the verify grids
N_BUMPS = 6  # bumps per random field or mask
SUPPORT_FRACTION = 0.6  # bumps lie within this fraction of the box half-width
MC_SAMPLES = 200_000  # Monte Carlo samples per integral in refine-bll-1d
CONTRACTION_FACTOR = 0.7  # a ladder's violation shrinks at least this much per rung
FINAL_VIOLATION_FRACTION = 1e-3  # and ends at most this fraction of its scale

# Suite verb -> (runner name, help text), in the order the CLI lists them.
# The runners are named, not bound: callers look them up in this module when
# they run, so a rebound ``run_*`` (a tracer's wrapper, a test stub) is the
# one that runs.
VERBS = {
    "verify": ("run_verify", "exact discrete inequality suite"),
    "refine": ("run_refine", "refinement-ladder contracts"),
    "spectral": ("run_spectral", "eigenvalue and heat-trace experiments"),
    "stability": ("run_stability", "deficit sweeps and asymmetry audits"),
    "choquard": ("run_choquard", "3-d ground-state descent"),
    "probe-continuity": ("run_probe_continuity", "rearrangement continuity probes"),
}


def _grid(d: int, n: int, h: float) -> Grid:
    return Grid((n,) * d, h)


def _run(experiments) -> list[ExperimentReport]:
    """Call each experiment in order; its wall time goes on every report it returns."""
    reports = []
    for experiment in experiments:
        t0 = time.monotonic()
        out = experiment()
        wall = time.monotonic() - t0
        out = out if isinstance(out, list) else [out]
        for rep in out:
            rep.wall_time_s = wall
        reports.extend(out)
    return reports


def _judged(rep: ExperimentReport) -> ExperimentReport:
    """``rep`` with the verdict ``judge`` gives its payload."""
    rep.verdict = judge(asdict(rep))
    return rep


def _worst(pairs) -> tuple[float, float]:
    """Largest wrong-direction gap ``bad - good`` (at least 0) and largest ``|good|``."""
    worst, scale = 0.0, 0.0
    for bad, good in pairs:
        worst = max(worst, bad - good)
        scale = max(scale, abs(good))
    return worst, scale


# ----------------------------------------------------------------------------
# verify: the exact discrete inequality suite
# ----------------------------------------------------------------------------


def _rel_gap(bad: float, good: float) -> float:
    """Positive when `bad` exceeds `good`, relative to the larger magnitude."""
    scale = max(abs(bad), abs(good), 1e-300)
    return (bad - good) / scale


def run_verify(seed: int) -> list[ExperimentReport]:
    """Exact discrete inequalities on seeded random pairs; slack 1e-12 relative.

    All checks share one pass over the cases, so every report carries that
    pass's wall time.
    """
    return _run([partial(_verify, seed)])


# The pairings sum F(f, g) h^d of verify, by report name, each with whether F
# is supermodular: rearranging raises such a pairing, and lowers that of
# j(|u - v|) for the convex profile j(t) = t^2.  "jexp" is j(u) + j(v) - j(|u - v|).
_VERIFY_FORMS = {
    "supermodular_product": (np.multiply, True),
    "supermodular_min": (np.minimum, True),
    "supermodular_jexp": (lambda u, v: u**2.0 + v**2.0 - np.abs(u - v) ** 2.0, True),
    "expand_expansion": (lambda u, v: (u + v) ** 2.0, True),
    "expand_contraction": (lambda u, v: np.abs(u - v) ** 2.0, False),
}


def _verify(seed: int) -> list[ExperimentReport]:
    worst: dict[str, float] = {}

    def note(name: str, gap: float):
        worst[name] = max(worst.get(name, 0.0), gap)

    for d in (1, 2):
        n = VERIFY_SHAPE[d]
        half = BOX_HALF[d]
        grid = _grid(d, n, 2 * half / n)
        for case in range(VERIFY_CASES):
            rng = rng_for(seed, 10 + d, case)
            f = bump_field(sample_bumps(rng, d, half, N_BUMPS, SUPPORT_FRACTION, signed=True), grid)
            g = bump_field(sample_bumps(rng, d, half, N_BUMPS, SUPPORT_FRACTION, signed=True), grid)
            fstar = rearrange(f)
            gstar = rearrange(g)
            fp = ScalarField(grid, np.abs(f.values))
            gp = ScalarField(grid, np.abs(g.values))
            vol = grid.cell_volume
            for p in (0.5, 1.0, 2.0, 3.0):
                a = float(np.sum(np.abs(f.values) ** p)) * vol
                b = float(np.sum(np.abs(fstar.values) ** p)) * vol
                note("norm_preservation", abs(_rel_gap(a, b)))
            # the rearrangements only see |f| and |g|
            note("pairing", _rel_gap(pairing(fp, gp), pairing(fstar, gstar)))
            for name, (form, supermodular) in _VERIFY_FORMS.items():
                before = supermodular_pairing(form, fp, gp)
                after = supermodular_pairing(form, fstar, gstar)
                note(name, _rel_gap(before, after) if supermodular else _rel_gap(after, before))
            for p in (1.5, 3.0):
                dm0 = lp_norm(ScalarField(grid, f.values - g.values), p)
                dm1 = lp_norm(ScalarField(grid, fstar.values - gstar.values), p)
                note("nonexpansive_minus", _rel_gap(dm1, dm0))
                sp0 = lp_norm(ScalarField(grid, f.values + g.values), p)
                sp1 = lp_norm(ScalarField(grid, fstar.values + gstar.values), p)
                note("nonexpansive_plus", _rel_gap(sp0, sp1))
            h_lo0, h_lo1 = hanner_sum(f, g, 1.5), hanner_sum(fstar, gstar, 1.5)
            note("hanner_low", _rel_gap(h_lo1, h_lo0))
            h_hi0, h_hi1 = hanner_sum(f, g, 3.0), hanner_sum(fstar, gstar, 3.0)
            note("hanner_high", _rel_gap(h_hi0, h_hi1))

    # the literal False fills the slot of a removed option, so digests keep their bytes (D13)
    digest = digest_inputs(seed, VERIFY_CASES, False)
    return [
        _judged(ExperimentReport(
            experiment_id=f"verify-{name}", inputs_digest=digest,
            values={"max_relative_violation": violation}, tolerances={"relative": EXACT_TOL},
        ))
        for name, violation in sorted(worst.items())
    ]


# ----------------------------------------------------------------------------
# refine: refinement contracts for the discretization-slack inequalities
# ----------------------------------------------------------------------------


def _suite_samples(seed, d, stream):
    """The three seeded bump samples of a refinement contract, in physical units."""
    for case in range(3):
        rng = rng_for(seed, stream, d, case)
        yield sample_bumps(rng, d, BOX_HALF[d], N_BUMPS, SUPPORT_FRACTION)


def _suite_fields(seed, grid, stream):
    return [bump_field(s, grid, nonneg=True) for s in _suite_samples(seed, grid.dim, stream)]


def _suite_masks(seed, grid, stream):
    return [bump_mask(s, grid, 0.3) for s in _suite_samples(seed, grid.dim, stream)]


def _riesz_inputs(seed, grid):
    """(f, g, k) per case; g is sampled on the displacement grid."""
    d, half = grid.dim, BOX_HALF[grid.dim]
    for case in range(3):
        rng = rng_for(seed, 21, d, case)
        f = bump_field(sample_bumps(rng, d, half, N_BUMPS, 0.5), grid, nonneg=True)
        k = bump_field(sample_bumps(rng, d, half, N_BUMPS, 0.5), grid, nonneg=True)
        gsample = sample_bumps(rng, d, half, N_BUMPS, 0.5)
        yield f, bump_field(gsample, displacement_grid(grid), nonneg=True), k


def _heat_trace_pairs(seed, grid, rng_keys, threshold, times):
    """(trace, trace after increasing rearrangement) per random domain and time.

    Each key seeds one random domain (a bump mask at ``threshold``) and
    potential V; the pair compares sum exp(-t lambda_j) of the Dirichlet
    operator -Delta + V with that of its symmetric increasing rearrangement.
    """
    d, half = grid.dim, BOX_HALF[grid.dim]
    for key in rng_keys:
        rng = rng_for(seed, *key)
        sample = sample_bumps(rng, d, half, N_BUMPS, 0.45)
        omega = bump_mask(sample, grid, threshold=threshold)
        vsample = sample_bumps(rng, d, half, N_BUMPS, SUPPORT_FRACTION)
        V = ScalarField(grid, 3.0 * np.abs(vsample(grid)))
        vstar, ostar = increasing_rearrangement(V, omega)
        ev = dirichlet_eigenvalues(omega, V)
        evs = dirichlet_eigenvalues(ostar, vstar)
        for t in times:
            yield float(np.exp(-t * ev).sum()), float(np.exp(-t * evs).sum())


# Refinement contracts: id -> (seed, grid) -> (bad, good) pairs on one rung's
# grid, where ``bad`` exceeding ``good`` is the wrong direction of the
# inequality.  The entries are lambdas so that library functions are looked
# up in this module's globals when a contract runs, never bound at import
# time.  The frac-seminorm and heat-pairing entries build their evaluator once
# per rung, in the one-element ``for`` clause.
_CONTRACTS = {
    "riesz": lambda seed, grid: (
        (riesz_triple(f, g, k), riesz_triple(rearrange(f), rearrange(g), rearrange(k)))
        for f, g, k in _riesz_inputs(seed, grid)
    ),
    "frac-seminorm": lambda seed, grid: (
        (seminorm(rearrange(u)), seminorm(u))
        for seminorm in [fractional_seminorm(grid)]
        for u in _suite_fields(seed, grid, stream=22)
    ),
    "frac-perimeter": lambda seed, grid: (
        (fractional_perimeter(set_symmetrize(A), 0.5), fractional_perimeter(A, 0.5))
        for A in _suite_masks(seed, grid, stream=23)
    ),
    "gradient": lambda seed, grid: (
        (gradient_pnorm(rearrange(u)), gradient_pnorm(u))
        for u in _suite_fields(seed, grid, stream=24)
    ),
    "heat-pairing": lambda seed, grid: (
        (pair(u), pair(rearrange(u)))
        for pair in [heat_pairing(grid, 0.04)]
        for u in _suite_fields(seed, grid, stream=25)
    ),
    "heat-trace": lambda seed, grid: _heat_trace_pairs(
        seed, grid, [(26, grid.dim, case) for case in range(2)], 0.4, (0.01, 0.03)
    ),
    "minkowski": lambda seed, grid: (
        (minkowski_content(set_symmetrize(A), 3 * grid.h), minkowski_content(A, 3 * grid.h))
        for A in _suite_masks(seed, grid, stream=27)
    ),
}


def _ladder_report(experiment_id, digest, ladder) -> ExperimentReport:
    """Contraction report of a ladder of ``_worst`` (violation, scale) pairs, coarse to fine."""
    viols, scales = [v for v, _ in ladder], [s for _, s in ladder]
    return _judged(ExperimentReport(
        experiment_id=experiment_id,
        inputs_digest=digest,
        values={"final_violation": viols[-1], "final_scale": scales[-1]},
        tolerances={
            "contraction_factor": CONTRACTION_FACTOR,
            "final_fraction": FINAL_VIOLATION_FRACTION,
        },
        series={"violations": viols, "scales": scales},
    ))


def _contract_report(seed, ineq_id, d) -> ExperimentReport:
    ladder = [_worst(_CONTRACTS[ineq_id](seed, _grid(d, n, h))) for n, h in RUNGS[d]]
    digest = digest_inputs(seed, ineq_id, d, RUNGS[d])
    rep = _ladder_report(f"refine-{ineq_id}-{d}d", digest, ladder)
    viols = rep.series["violations"]
    rep.series["factors"] = [(v2 / v1 if v1 > 0 else 0.0) for v1, v2 in zip(viols, viols[1:])]
    return rep


def _refine_young(seed) -> ExperimentReport:
    """Quotient of the 1-d Gaussian equality family along the d=1 ladder."""
    p, q, r = 2.0, 4.0 / 3.0, 4.0 / 3.0
    quotients = []
    for n, h in RUNGS[1]:
        f, g, hh = young_gaussian_triple(_grid(1, n, h), p, q, r)
        quotients.append(young_quotient(f, g, hh, p, q, r))
    return _judged(ExperimentReport(
        experiment_id="refine-young-quotient-1d",
        inputs_digest=digest_inputs(seed, "young", RUNGS[1]),
        values={"final_gap": abs(quotients[-1] - 1.0)},
        tolerances={"final_gap": 1e-2, "monotone_noise": MONOTONE_NOISE},
        series={"quotients": quotients},
    ))


HLS_LAMBDA = 0.5
HLS_BOX_HALF = 96.0
HLS_RUNGS = (256, 512, 1024)


def _refine_hls(seed) -> ExperimentReport:
    """Tail-corrected optimizer quotients in d=1 plus the reported bias bound.

    The bias bound estimates the double-integral mass outside the box:
    2 * integral_{|x| > L} f(x) |x|^(-lam) dx * integral f, relative to the
    box value; the norm tails themselves are corrected analytically.
    """
    lam, box_half = HLS_LAMBDA, HLS_BOX_HALF
    # the profile is (1 + r^2)^(-a); t = 1/(1 + r^2) makes both integrals beta functions
    a = (2.0 - lam) / 2.0
    mass_total = math.gamma(0.5) * math.gamma(a - 0.5) / math.gamma(a)
    outer = _incomplete_beta(1.0 / (1.0 + box_half**2), a + lam / 2.0 - 0.5, 0.5 - lam / 2.0)
    grids = [_grid(1, n, 2 * box_half / n) for n in HLS_RUNGS]
    # every rung's box has half-width box_half exactly, so one tail serves all
    tail = hls_norm_tail(grids[0])
    quotients, bias = [], []
    for grid in grids:
        f = hls_optimizer(lam, grid)
        q = hls_quotient(f, f, lam, norm_tails=(tail, tail))
        quotients.append(q)
        t_box = max(riesz_energy(f, lam), 1e-300)
        bias.append(2.0 * outer * mass_total / t_box)
    target = hls_constant(HLS_LAMBDA, 1)
    return _judged(ExperimentReport(
        experiment_id="refine-hls-quotient-1d",
        inputs_digest=digest_inputs(seed, "hls", HLS_RUNGS, HLS_BOX_HALF),
        values={"final_relative_gap": abs(quotients[-1] - target) / target, "target": target},
        tolerances={"final_relative_gap": 0.02},
        series={"quotients": quotients, "bias_bounds": bias},
    ))


def _refine_bll(seed) -> ExperimentReport:
    """Statistical contract: I[f] <= I[f*] + 5 SE on seeded random 1-d specs."""
    n, h = RUNGS[1][0]
    grid = _grid(1, n, h)
    cases = 4
    margins = []
    for case in range(cases):
        rng = rng_for(seed, 31, case)
        n_factors = int(rng.integers(2, 5))
        n_vars = int(rng.integers(1, min(n_factors, 3) + 1))
        coeffs = _random_bll_coeffs(rng, n_factors, n_vars)
        fields = [
            bump_field(sample_bumps(rng, 1, BOX_HALF[1], 4, 0.5), grid, nonneg=True)
            for _ in range(n_factors)
        ]
        spec = BLLSpec(coeffs, tuple(fields))
        spec_star = BLLSpec(coeffs, tuple(rearrange(f) for f in fields))
        est = bll_integral(spec, MC_SAMPLES, seed=seed + case)
        est_star = bll_integral(spec_star, MC_SAMPLES, seed=seed + 1000 + case)
        se = math.hypot(est.standard_error, est_star.standard_error)
        margins.append((est.value - est_star.value) / max(se, 1e-300))
    return _judged(ExperimentReport(
        experiment_id="refine-bll-1d",
        inputs_digest=digest_inputs(seed, "bll", n, cases),
        values={"worst_margin_in_se": max(margins)},
        tolerances={"margin_se": 5.0},
        standard_errors={"samples": float(MC_SAMPLES)},
    ))


def _random_bll_coeffs(rng, n_factors: int, n_vars: int) -> np.ndarray:
    """Coefficient matrices whose rows confine every variable (diagonal dominant block)."""
    coeffs = np.zeros((n_factors, n_vars))
    for j in range(n_vars):
        coeffs[j, j] = rng.uniform(0.6, 1.4) * rng.choice([-1.0, 1.0])
    for i in range(n_vars, n_factors):
        row = rng.uniform(-1.0, 1.0, size=n_vars)
        row[np.argmax(np.abs(row))] += np.sign(row[np.argmax(np.abs(row))]) * 0.5
        coeffs[i] = row
    return coeffs


def run_refine(seed: int) -> list[ExperimentReport]:
    """Every contract in d = 1 and then d = 2, then the Young, HLS and BLL reports."""
    experiments = [partial(_contract_report, seed, i, d) for i in _CONTRACTS for d in (1, 2)]
    experiments += [partial(refine, seed) for refine in (_refine_young, _refine_hls, _refine_bll)]
    return _run(experiments)


# ----------------------------------------------------------------------------
# spectral
# ----------------------------------------------------------------------------


# First positive zero of the Bessel function J_0: brentq(j0, 2, 3, xtol=1e-14)
# returns exactly this double, 1 ulp from scipy.special.jn_zeros(0, 1)[0].
J0_FIRST_ZERO = 2.404825557695773


FABER_KRAHN_N = 64  # cells per side of the unit square, h = 1/64 (D9)


def unit_area_disk(h: float) -> GridSet:
    """The disk of area 1 at spacing h, on a grid with about two cells of margin."""
    radius = 1.0 / math.sqrt(math.pi)
    m = round((2 * radius + 4 * h) / h)
    grid = Grid((m, m), h)
    return GridSet(grid, grid.radius2() < radius * radius)


def _faber_krahn() -> ExperimentReport:
    """Lowest Dirichlet eigenvalues of the unit square and the equal-area disk.

    The disk is ``unit_area_disk(1/64)``.  The square's lowest eigenvalue
    takes the closed form of a box, the disk's a certified banded inverse
    iteration on its operator reduced by the disk's eight grid symmetries
    (DECISIONS.md D11): 526 orbits of its 4,104 cells.
    """
    n = FABER_KRAHN_N
    h = 1.0 / n
    square = GridSet(Grid((n, n), h), np.ones((n, n), dtype=bool))
    lam_sq = dirichlet_lambda1(square)
    lam_disk = dirichlet_lambda1(unit_area_disk(h))
    analytic_gap = 2.0 * math.pi**2 - math.pi * J0_FIRST_ZERO * J0_FIRST_ZERO
    return _judged(ExperimentReport(
        experiment_id="spectral-faber-krahn",
        inputs_digest=digest_inputs("faber-krahn", FABER_KRAHN_N),
        values={"gap": lam_sq - lam_disk, "lambda1_square": lam_sq, "lambda1_disk": lam_disk,
                "analytic_gap": analytic_gap},
        tolerances={"relative_gap_error": 0.15},
    ))


def _heat_trace_random(seed) -> ExperimentReport:
    rung_ns = (16, 32, 64)
    base_h = 4.0 / 16
    n_pairs = 20
    keys = [(41, case) for case in range(n_pairs)]
    ladder = [
        _worst(_heat_trace_pairs(seed, _grid(2, n, base_h / 2**rung), keys, 0.55, (0.05, 0.1, 0.2)))
        for rung, n in enumerate(rung_ns)
    ]
    digest = digest_inputs(seed, "heat-random", rung_ns, n_pairs)
    return _ladder_report("spectral-heat-trace-random", digest, ladder)


def _heat_perimeter_square() -> ExperimentReport:
    n = 64
    h = 1.0 / n
    square = GridSet(Grid((n, n), h), np.ones((n, n), dtype=bool))
    # below ~100 h^2 the stencil's spectral bias distorts the fit by ~20%
    t_list = np.geomspace(100 * h * h, 900 * h * h, 8)
    return _judged(ExperimentReport(
        experiment_id="spectral-heat-perimeter-square",
        inputs_digest=digest_inputs("heat-perimeter", n),
        values={"perimeter_estimate": heat_perimeter_estimate(square, t_list), "target": 4.0},
        tolerances={"relative_error": 0.10},
        series={"t_list": [float(t) for t in t_list]},
    ))


def run_spectral(seed: int) -> list[ExperimentReport]:
    return _run([_faber_krahn, partial(_heat_trace_random, seed), _heat_perimeter_square])


# ----------------------------------------------------------------------------
# stability
# ----------------------------------------------------------------------------


def two_ball_density(grid: Grid, mass: float, eps: float) -> ScalarField:
    """Core bathtub ball of mass (1-eps) m plus a tangent small ball of mass eps m.

    Exact tangency keeps the moved mass adjacent to the boundary it left, so
    the deficit scales like eps^(3/2) and the ratio to the asymmetry squared
    varies mildly across the sweep.  Raises when fewer cells than the small
    ball needs lie outside the core.
    """
    if grid.dim != 2:
        raise ValueError("the two-ball family is built in d = 2")
    core = bathtub_fill((1.0 - eps) * mass, grid)
    r_core = (((1.0 - eps) * mass) / math.pi) ** 0.5
    r_small = (eps * mass / math.pi) ** 0.5
    center = (r_core + r_small, 0.0)
    coords = grid.coords()
    d2 = (coords[0] - center[0]) ** 2 + (coords[1] - center[1]) ** 2
    order = np.argsort(d2.ravel(), kind="stable")
    k = int(round(eps * mass / grid.cell_volume))
    vals = core.values.copy().ravel()
    free = order[vals[order] == 0.0][:k]
    if free.size < k:
        raise ValueError(f"the small ball needs {k} free cells, the grid has {free.size}")
    vals[free] = 1.0
    return ScalarField(grid, vals.reshape(grid.shape))


def _equality_cases() -> ExperimentReport:
    """The bathtub profile is its own symmetrization: both deficits vanish."""
    grid = _grid(2, 48, 4.0 / 48)
    ball = bathtub_fill(1.2, grid)
    dr_ball = ball_kernel_deficit(ball, radius=math.sqrt(1.2 / math.pi))
    riesz_sym = riesz_energy(bathtub_fill(ball.integral(), grid), 0.5)
    riesz_def = riesz_sym - riesz_energy(ball, 0.5)
    scale = max(abs(dr_ball.symmetrized_value), abs(riesz_sym))
    return _judged(ExperimentReport(
        experiment_id="stability-equality-cases",
        inputs_digest=digest_inputs("equality", 48),
        values={"max_abs_deficit": max(abs(dr_ball.deficit), abs(riesz_def)), "scale": scale},
        deficits={"ball_kernel": dr_ball.deficit, "riesz": riesz_def},
        tolerances={"abs_deficit": 1e-10 * scale},
    ))


def _two_ball_sweep() -> ExperimentReport:
    grid = _grid(2, 96, 4.0 / 96)
    mass = 1.2
    radius = math.sqrt(mass / math.pi)
    ratios, deficits, asyms = [], [], []
    for eps in (0.05, 0.1, 0.2):
        rho = two_ball_density(grid, mass, eps)
        rep = ball_kernel_deficit(rho, radius)
        ratios.append(rep.ratio)
        deficits.append(rep.deficit)
        asyms.append(rep.asym)
    spread = max(ratios) / min(ratios) if all(r > 0 for r in ratios) else math.inf
    return _judged(ExperimentReport(
        experiment_id="stability-two-ball-sweep",
        inputs_digest=digest_inputs("two-ball", 96, mass),
        values={"ratio_spread": spread},
        deficits={f"eps_{eps}": d for eps, d in zip((0.05, 0.1, 0.2), deficits)},
        tolerances={"ratio_spread": 3.0},
        series={"ratios": ratios, "asymmetries": asyms, "eps": [0.05, 0.1, 0.2]},
    ))


def _asymmetry_audit(seed) -> ExperimentReport:
    """The FFT-pruned asymmetry search equals the plain-loop oracle, bit for bit."""
    grid = _grid(2, 24, 4.0 / 24)
    mism = 0
    n_rho = 50
    for case in range(n_rho):
        rng = rng_for(seed, 51, case)
        sample = sample_bumps(rng, 2, BOX_HALF[2], N_BUMPS, 0.7)
        rho = ScalarField(grid, np.clip(np.abs(sample(grid)), 0.0, 1.0))
        if asymmetry(rho) != asymmetry_bruteforce(rho):
            mism += 1
    return _judged(ExperimentReport(
        experiment_id="stability-asymmetry-audit",
        inputs_digest=digest_inputs(seed, "asymmetry", n_rho),
        values={"mismatches": float(mism), "cases": float(n_rho)},
        tolerances={"mismatches": 0.0},
    ))


def _fractional_isoperimetric() -> ExperimentReport:
    """Fractional isoperimetric deficits: equality case and an elongated block."""
    grid = _grid(2, 24, 4.0 / 24)
    elong = np.zeros(grid.shape, dtype=bool)
    elong[10:13, 2:22] = True
    eq_def, el_def = (
        fractional_perimeter(A, 0.5) - fractional_perimeter(set_symmetrize(A), 0.5)
        for A in (GridSet(grid, _in_cell_order(grid, np.ones(60, dtype=bool))), GridSet(grid, elong))
    )
    return _judged(ExperimentReport(
        experiment_id="stability-fractional-isoperimetric",
        inputs_digest=digest_inputs("frac-isoper", 24),
        values={"equality_deficit": eq_def, "elongated_deficit": el_def},
        deficits={"equality": eq_def, "elongated": el_def},
        tolerances={"equality_deficit": 0.0},
    ))


def _layered_identity(seed) -> ExperimentReport:
    """The layered decomposition rebuilds the Riesz energy in d = 2 and 3."""
    rng = rng_for(seed, 52)
    grid = _grid(2, 48, 4.0 / 48)
    sample = sample_bumps(rng, 2, BOX_HALF[2], N_BUMPS, 0.6)
    rho = ScalarField(grid, np.clip(np.abs(sample(grid)), 0.0, 1.0))
    direct = riesz_energy(rho, 0.5)
    recon = layered_riesz_reconstruction(rho, 0.5)
    rel2 = abs(recon - direct) / direct
    grid3 = _grid(3, 32, 16.0 / 32)
    rho3 = bathtub_fill(20.0, grid3)
    direct3 = riesz_energy(rho3, 1.0)
    recon3 = layered_riesz_reconstruction(rho3, 1.0)
    rel3 = abs(recon3 - direct3) / direct3
    return _judged(ExperimentReport(
        experiment_id="stability-layered-identity",
        inputs_digest=digest_inputs(seed, "layered"),
        values={"max_relative_error": max(rel2, rel3), "d2": rel2, "d3": rel3},
        tolerances={"relative_error": 0.01},
    ))


def run_stability(seed: int) -> list[ExperimentReport]:
    return _run(
        [
            _equality_cases,
            _two_ball_sweep,
            partial(_asymmetry_audit, seed),
            _fractional_isoperimetric,
            partial(_layered_identity, seed),
        ]
    )


# ----------------------------------------------------------------------------
# choquard and continuity
# ----------------------------------------------------------------------------


CHOQUARD_N = 32  # cells per side of the 3-d grid (D9)
CHOQUARD_STEPS = 500  # main-phase steps, before 50 polishing steps (D9)


def run_choquard(seed: int) -> list[ExperimentReport]:
    """Ground-state descent at 32^3 with a polishing phase, judged as ``report.RULES`` says.

    The energy strictly decreases over the first 50 steps, the post-sort
    energies (the symmetric minimizing sequence) do not increase beyond a
    slack, and the final profile is a fixed point of rearrangement.  A single
    sort may cost a declared discretization slack: at this resolution up to
    ~0.03 * step_size, as the lattice minimizer is slightly off the symmetric cone.
    """
    return _run([partial(_choquard, seed)])


def _choquard(seed: int) -> ExperimentReport:
    n, steps = CHOQUARD_N, CHOQUARD_STEPS
    grid = _grid(3, n, 2 * BOX_HALF[3] / n)
    rng = rng_for(seed, 61)
    sample = sample_bumps(rng, 3, BOX_HALF[3], 4, 0.45)
    u0 = bump_field(sample, grid, nonneg=True)
    potential = coulomb_potential(grid)
    result = choquard_descent(u0, potential, steps=steps, step_size=0.02, polish_steps=50)
    restart = choquard_descent(result.final, potential, steps=10, step_size=2e-6).energies
    energies, early = result.energies, result.energies[:51]
    scale = max(1.0, max(abs(e) for e in energies))
    slack = 1e-8 * scale
    post = [after for _, after in result.rearrange_audit]
    rep = _judged(ExperimentReport(
        experiment_id="choquard-descent",
        inputs_digest=digest_inputs(seed, "choquard", n, steps),
        values={
            "final_energy": energies[-1],
            "strictly_decreasing_first50": float(all(b < a for a, b in zip(early, early[1:]))),
            "symmetric_sequence_nonincreasing": float(all(b <= a + slack for a, b in zip(post, post[1:]))),
            "worst_sort_cost": max((after - before for before, after in result.rearrange_audit), default=0.0),
            "fixed_point": float(np.array_equal(rearrange(result.final).values, result.final.values)),
            "restart_max_step_change": max(abs(b - a) for a, b in zip(restart, restart[1:])),
        },
        tolerances={
            "symmetric_sequence_slack": slack, "sort_cost_slack": 1e-3 * scale, "restart_step_change": 1e-6
        },
        series={"energies": energies, "post_rearrange_energies": post},
    ))
    # the descent's ``diverged`` flag is in no payload yet (DECISIONS.md D22)
    rep.verdict = VERDICT_FAIL if result.diverged else rep.verdict
    return rep


def _continuity(seed, kind, u, space, expectation) -> ExperimentReport:
    res = continuity_probe(u, kind, space=space)
    first, last = res.distances[0], res.distances[-1]
    tol = {"final_over_initial": 0.1} if expectation == "decay" else {"min_over_initial": 0.5}
    # dist/input at the first step: how much the rearrangement amplifies
    # the chosen seminorm (reported so auditors can compare kinds)
    amplification = res.distances[0] / res.input_distances[0] if res.input_distances[0] else 0.0
    rep = _judged(ExperimentReport(
        experiment_id=f"continuity-{kind}-{space}",
        inputs_digest=digest_inputs(seed, kind, space),
        values={"initial": first, "final": last, "ratio": last / first if first else 0.0,
                "amplification": amplification},
        tolerances=tol,
        series={"amplitudes": list(res.amplitudes), "input_distances": list(res.input_distances),
                "distances": list(res.distances)},
    ))
    if expectation != "decay" and rep.verdict == VERDICT_FAIL:
        rep.warnings.append("discontinuity signature absent: discrete rearrangement is Lipschitz on a fixed grid")
    return rep


def run_probe_continuity(seed: int) -> list[ExperimentReport]:
    grid = _grid(2, 64, 4.0 / 64)
    u_smooth = radial_bump_field(grid, radius=1.2)
    u_plateau = plateau_field(grid, top_radius=0.7, outer_radius=1.4)
    probes = [
        ("smooth", u_smooth, "w1p", "decay"),
        ("smooth", u_smooth, "wsp", "decay"),
        ("plateau", u_plateau, "wsp", "decay"),
        ("plateau", u_plateau, "w1p", "nonvanishing"),
    ]
    return _run(partial(_continuity, seed, *probe) for probe in probes)
