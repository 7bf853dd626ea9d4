"""Quantitative stability: asymmetry, interaction deficits, and continuity probes.

The asymmetry of a density 0 <= rho <= 1 is the normalized minimal L^1
distance to whole-cell translates of its bathtub profile.  The infimum is
restricted to whole-cell shifts: off-grid translates would need resampling,
which contaminates the L^1 distance at O(h); the resolution bound is the
caller's to report.  ``asymmetry`` is the exact minimum over the shifts that
an FFT correlation leaves as candidates; ``asymmetry_bruteforce`` is its
oracle, the same minimum by a plain loop over every shift under which the
supports can meet (DECISIONS.md D4).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .field import ScalarField
from .functionals import _fftconvolve_full, _nonzero_extent, fractional_seminorm, gradient_pnorm, riesz_triple
from .kernels import BallIndicator, PowerLaw, displacement_grid, sample_kernel
from .random_fields import BumpSum, radial_bump_field
from .rearrange import bathtub_fill, rearrange


# ----------------------------------------------------------------------------
# asymmetry
# ----------------------------------------------------------------------------


def _check_density(rho: ScalarField) -> float:
    v = rho.values
    if v.min() < -1e-12 or v.max() > 1.0 + 1e-12:
        raise ValueError("density must take values in [0, 1]")
    mass = rho.integral()
    if mass <= 0:
        raise ValueError("density has zero mass")
    return mass


def _l1_at_shift(rho: np.ndarray, chi: np.ndarray, shift: tuple[int, ...], totals) -> float:
    """l1 distance between rho and chi translated by whole cells, both 0 outside.

    ``totals`` is ``(rho.sum(), chi.sum())``, summed once by the caller.
    """
    rho_total, chi_total = totals
    rho_sl = []
    chi_sl = []
    for n, s in zip(rho.shape, shift):
        lo = max(0, s)
        hi = min(n, n + s)
        if hi <= lo:
            return float(rho_total + chi_total)
        rho_sl.append(slice(lo, hi))
        chi_sl.append(slice(lo - s, hi - s))
    r = rho[tuple(rho_sl)]
    c = chi[tuple(chi_sl)]
    overlap = float(np.abs(r - c).sum())
    return overlap + float(rho_total - r.sum()) + float(chi_total - c.sum())


def asymmetry(rho: ScalarField) -> float:
    """A[rho] = (2 ||rho||_1)^(-1) min over whole-cell shifts of ||rho - chi(. - a)||_1.

    An FFT cross-correlation scores every shift at once through
    |r - c| = r + c - 2 min(r, c): on the unit cells of the bathtub profile
    min(rho, 1) = rho, so the correlation with the unit-cell indicator ranks
    shifts up to the bounded contribution of the single fractional cell.
    Every shift whose score is within that bound of the best is evaluated
    with the exact per-shift sum, so the returned minimum is exact.
    """
    mass = _check_density(rho)
    chi = bathtub_fill(mass, rho.grid)
    rv, cv = rho.values, chi.values
    ones = (cv == 1.0).astype(np.float64)
    rev = ones[tuple(slice(None, None, -1) for _ in range(rv.ndim))]
    corr = _fftconvolve_full(rv, rev)
    frac = float(cv[(cv > 0) & (cv < 1)].sum())  # at most one cell
    thresh = corr.max() - frac - 1e-10 * (1.0 + abs(corr.max()))
    totals = (rv.sum(), cv.sum())
    best = math.inf
    for k in zip(*np.nonzero(corr >= thresh)):
        s = tuple(int(ki) - (n - 1) for ki, n in zip(k, rv.shape))
        best = min(best, _l1_at_shift(rv, cv, s, totals))
    dist = best * rho.grid.cell_volume
    return dist / (2.0 * mass)


def asymmetry_bruteforce(rho: ScalarField) -> float:
    """Plain-loop oracle for the asymmetry: no correlation, no scoring.

    Takes the exact per-shift minimum over every shift under which the
    bounding boxes of the supports of rho and chi overlap.  Under any other
    shift the supports are disjoint and the distance is ||rho||_1 + ||chi||_1,
    the largest possible, while a shift that puts a cell of rho's support on
    one of chi's is strictly closer; so the minimum is the minimum over all
    shifts.
    """
    mass = _check_density(rho)
    chi = bathtub_fill(mass, rho.grid)
    rv, cv = rho.values, chi.values
    r_box, c_box = _nonzero_extent(rv), _nonzero_extent(cv)
    ranges = [range(r_lo - c_hi, r_hi - c_lo + 1) for (r_lo, r_hi), (c_lo, c_hi) in zip(r_box, c_box)]
    totals = (rv.sum(), cv.sum())
    best = min(_l1_at_shift(rv, cv, s, totals) for s in itertools.product(*ranges))
    dist = best * rho.grid.cell_volume
    return dist / (2.0 * mass)


# ----------------------------------------------------------------------------
# deficits
# ----------------------------------------------------------------------------


@dataclass(frozen=True)
class DeficitReport:
    """Symmetrization deficit of an interaction functional.

    ``deficit`` is symmetrized minus original, which the continuum
    inequality predicts nonnegative.  ``ratio`` is the deficit over the
    stability normalizer, nan when the asymmetry vanishes.
    """

    symmetrized_value: float
    deficit: float
    asym: float
    ratio: float


def ball_kernel_deficit(rho: ScalarField, radius: float) -> DeficitReport:
    """Deficit of the ball-kernel interaction against the bathtub profile.

    The ratio is deficit / (||rho||_1^2 A[rho]^2).
    """
    mass = _check_density(rho)
    chi = bathtub_fill(mass, rho.grid)
    kern = sample_kernel(BallIndicator(radius), displacement_grid(rho.grid))
    left = riesz_triple(rho, kern, rho)
    right = riesz_triple(chi, kern, chi)
    asym = asymmetry(rho)
    deficit = right - left
    denom = mass * mass * asym * asym
    ratio = deficit / denom if denom > 0 else math.nan
    return DeficitReport(right, deficit, asym, ratio)


# ----------------------------------------------------------------------------
# continuity probes
# ----------------------------------------------------------------------------


@dataclass(frozen=True)
class ContinuityProbeResult:
    amplitudes: tuple[float, ...]
    input_distances: tuple[float, ...]
    distances: tuple[float, ...]


def _plateau_radius(u: ScalarField) -> float:
    top = u.values == u.values.max()
    r2 = u.grid.radius2()
    return math.sqrt(float(r2[top].max()))


def continuity_probe(u: ScalarField, kind: str, space: str = "w1p") -> ContinuityProbeResult:
    """Distances of rearranged perturbations along a shrinking-amplitude ladder.

    Perturbations are u_k = u + a_k psi with a_k = 2^(1-k) for k = 1, ..., 8
    and a fixed psi of height max u: for ``kind="smooth"`` a one-bump
    ``BumpSum`` of width R/2 at 0.25 R on axis 0 (R the support radius), for
    ``kind="plateau"`` a cosine along axis 0 times ``radial_bump_field`` of
    radius 0.9 times the top plateau's (origin centered).  Emits the
    input distances ||u_k - u|| and the rearranged distances ||u_k* - u*||
    in the chosen norm: the W^(1,2) seminorm for ``space="w1p"``
    (``gradient_pnorm`` of the difference) or the W^(1/2,2) seminorm for
    ``space="wsp"`` (the square root of the difference's seminorm, by one
    ``fractional_seminorm`` evaluator for the whole probe).
    Raises unless u is nonnegative with a positive value.
    """
    if u.values.min() < 0.0:
        raise ValueError("u must be nonnegative")
    if not u.values.max() > 0:
        raise ValueError("u must have a positive value")
    if kind not in ("smooth", "plateau"):
        raise ValueError(f"unknown kind {kind!r}")
    if space not in ("w1p", "wsp"):
        raise ValueError(f"unknown space {space!r}")
    g = u.grid
    if kind == "smooth":
        support_r = math.sqrt(float(g.radius2()[u.values > 0].max()))
        center = np.eye(1, g.dim) * (0.25 * support_r)  # (0.25 R, 0, ..., 0)
        psi = BumpSum(center, np.array([0.5 * support_r]), np.array([u.values.max()]))(g)
    else:
        rp = _plateau_radius(u)
        if rp <= 0:
            raise ValueError("plateau kind needs a flat top of positive radius")
        window = radial_bump_field(g, 0.9 * rp).values
        x0 = g.coords()[0]
        wavelength = max(0.5 * rp, 4 * g.h)
        psi = np.cos(2.0 * math.pi * x0 / wavelength) * window * float(u.values.max())

    if space == "wsp":
        seminorm = fractional_seminorm(g)  # one kernel transform for all 16 seminorms

    def dist(a: np.ndarray, b: np.ndarray) -> float:
        diff = ScalarField(g, a - b)
        if space == "w1p":
            return gradient_pnorm(diff)
        return seminorm(diff) ** 0.5

    ustar = rearrange(u)
    amps, din, dout = [], [], []
    for k in range(1, 9):
        a = 2.0 ** (1 - k)
        uk = ScalarField(g, np.maximum(u.values + a * psi, 0.0))
        amps.append(a)
        din.append(dist(uk.values, u.values))
        dout.append(dist(rearrange(uk).values, ustar.values))
    return ContinuityProbeResult(tuple(amps), tuple(din), tuple(dout))


# ----------------------------------------------------------------------------
# layered decomposition of the power-kernel energy
# ----------------------------------------------------------------------------


def pair_correlation_curve(rho: ScalarField) -> tuple[np.ndarray, np.ndarray]:
    """Distinct pair distances and the cumulative pair mass B(R) = sum_{|z| <= R} rho rho h^(2d).

    One FFT autocorrelation gives the interaction of rho with the translated
    copies of itself at every lattice displacement; sorting by distance turns
    it into the exact ball-kernel interaction as a function of the radius.
    """
    rv = rho.values
    corr = _fftconvolve_full(rv, rv[tuple(slice(None, None, -1) for _ in range(rv.ndim))])
    dgrid = displacement_grid(rho.grid)
    r2 = dgrid.radius2().ravel()
    order = np.argsort(r2, kind="stable")
    dists = np.sqrt(r2[order])
    mass = np.cumsum(corr.ravel()[order]) * rho.grid.cell_volume ** 2
    # collapse duplicate radii to the last (cumulative) entry
    uniq, idx = np.unique(np.round(dists, 12), return_index=True)
    last = np.concatenate([idx[1:] - 1, [dists.size - 1]])
    return uniq, mass[last]


def layered_riesz_reconstruction(rho: ScalarField, lam: float) -> float:
    """Rebuild the power-kernel energy from ball-kernel values by radial quadrature.

    Uses |z|^(-lam) = lam * integral_R R^(-lam-1) 1_{|z| <= R} dR applied to
    the off-diagonal pair mass: a 256-node log-spaced trapezoid rule over R
    between the grid spacing and the set diameter, an exact analytic tail
    above the diameter, and the cell-averaged kernel value on the diagonal.
    """
    PowerLaw(lam).validate(rho.dim)
    dists, cum = pair_correlation_curve(rho)
    diag = cum[0]  # a displacement grid always holds distance 0
    total = cum[-1]
    h = rho.h

    def offdiag(R: np.ndarray) -> np.ndarray:
        idx = np.searchsorted(dists, R, side="right") - 1
        return cum[np.maximum(idx, 0)] - diag

    r_lo, r_hi = 0.95 * h, float(dists[-1])
    nodes = np.geomspace(r_lo, r_hi, 256)
    integrand = lam * nodes ** (-lam - 1.0) * offdiag(nodes)
    inner = float(np.trapezoid(integrand, nodes))
    tail = (total - diag) * r_hi ** (-lam)
    k0 = sample_kernel(PowerLaw(lam), displacement_grid(rho.grid, 0)).values.item()
    return inner + tail + diag * k0
