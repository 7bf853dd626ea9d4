"""Sharp constants and optimizer families for Young and Hardy-Littlewood-Sobolev.

The Young constant uses the classical sharp form C_s = (s^(1/s) / s'^(1/s'))^(1/2)
for 1 < s < infinity (conjugate s' = s/(s-1)) and C_s = 1 at the endpoints.
This is the version validated by the Gaussian-quotient oracle in the test
suite: the Gaussian equality family attains quotient exactly 1 against it,
and fails against the variant with s in place of s' in the denominator.

HLS quotients for the fat-tailed optimizer family support an analytic tail
correction of the p-norms (the exact radial profile integrated outside the
box, an incomplete beta function) while the double integral stays box
truncated; the induced bias bound is returned for reporting.
"""

from __future__ import annotations

import math

import numpy as np

from .field import Grid, ScalarField
from .functionals import lp_norm, riesz_triple, unit_ball_volume
from .kernels import displacement_grid, sample_kernel_averaged


def young_constant(s: float) -> float:
    """Sharp one-dimensional Young factor C_s; the theorem constant is (C_p C_q C_r)^d."""
    if s < 1:
        raise ValueError(f"s must be in [1, inf], got {s}")
    if s == 1 or s == math.inf:
        return 1.0
    sp = _conjugate(s)
    return math.sqrt(s ** (1.0 / s) / sp ** (1.0 / sp))


def _conjugate(s: float) -> float:
    return s / (s - 1.0)


# ----------------------------------------------------------------------------
# Young: Gaussian equality family
# ----------------------------------------------------------------------------


def young_gaussian_triple(
    grid: Grid, p: float, q: float, r: float
) -> tuple[ScalarField, ScalarField, ScalarField]:
    """Sample the centered equality family exp(-p'|x|^2), exp(-q'|z|^2), exp(-r'|y|^2).

    The exponents must lie strictly between 1 and inf and satisfy
    1/p + 1/q + 1/r = 2 to 1e-12.  f and h live on the data grid; the middle
    factor g is the convolution kernel, so it lives on the displacement
    companion of ``grid``.  |x|^2 is ``Grid.radius2``, so each factor is a
    fixed point of ``rearrange``.  Raises when any factor keeps more than
    1e-10 of its mass outside its box.
    """
    for t in (p, q, r):
        if not 1 < t < math.inf:
            raise ValueError("Gaussian family needs exponents strictly between 1 and inf")
    if abs(1 / p + 1 / q + 1 / r - 2.0) > 1e-12:
        raise ValueError("exponent identity 1/p + 1/q + 1/r = 2 violated")
    gd = displacement_grid(grid)
    specs = [(grid, _conjugate(p)), (gd, _conjugate(q)), (grid, _conjugate(r))]
    for g_, expo in specs:
        frac = sum(math.erfc(math.sqrt(expo) * half) for half in g_.half_widths())
        if frac > 1e-10:
            raise ValueError(f"box too small: tail mass fraction {frac:.2e} exceeds 1e-10")
    return tuple(ScalarField(g_, np.exp(-expo * g_.radius2())) for g_, expo in specs)


def young_quotient(
    f: ScalarField, g: ScalarField, h: ScalarField, p: float, q: float, r: float
) -> float:
    """|double integral f g(x-y) h| over the sharp Young bound; <= 1 in the continuum."""
    if abs(1 / p + 1 / q + 1 / r - 2.0) > 1e-9:
        raise ValueError("exponent identity 1/p + 1/q + 1/r = 2 violated beyond 1e-9")
    nf, ng, nh = lp_norm(f, p), lp_norm(g, q), lp_norm(h, r)
    if nf == 0 or ng == 0 or nh == 0:
        raise ValueError("zero norm")
    d = f.dim
    const = (young_constant(p) * young_constant(q) * young_constant(r)) ** d
    return abs(riesz_triple(f, g, h)) / (const * nf * ng * nh)


# ----------------------------------------------------------------------------
# Hardy-Littlewood-Sobolev
# ----------------------------------------------------------------------------


def hls_exponent(lam: float, d: int) -> float:
    """The diagonal exponent p = 2d / (2d - lam)."""
    if not 0 < lam < d:
        raise ValueError(f"lambda must be in (0, {d}), got {lam}")
    return 2.0 * d / (2.0 * d - lam)


def hls_constant(lam: float, d: int) -> float:
    """Sharp constant for the diagonal HLS inequality with kernel |x-y|^(-lam)."""
    if not 0 < lam < d:
        raise ValueError(f"lambda must be in (0, {d}), got {lam}")
    return (
        math.pi ** (lam / 2.0)
        * math.exp(math.lgamma((d - lam) / 2.0) - math.lgamma(d - lam / 2.0))
        * math.exp((1.0 - lam / d) * (math.lgamma(d) - math.lgamma(d / 2.0)))
    )


def _hls_profile(r, lam: float, d: int):
    """The centered optimizer profile (1 + r^2)^(-(2d - lam)/2)."""
    r = np.asarray(r, dtype=np.float64)
    return (1.0 + r**2) ** (-(2.0 * d - lam) / 2.0)


def hls_optimizer(lam: float, grid: Grid) -> ScalarField:
    """Sample the centered optimizer; rejects boxes keeping more than 0.2 of the L^p mass.

    r^2 is ``Grid.radius2``, so the sample is a fixed point of ``rearrange``.
    The tails are power laws, so at desk resolutions the norm is evaluated
    with the analytic correction from ``hls_norm_tail``.
    """
    d = grid.dim
    if not 0 < lam < d:
        raise ValueError(f"lambda must be in (0, {d}), got {lam}")
    frac = hls_norm_tail(grid) / _pnorm_beyond(d, 0.0)
    if frac > 0.2:
        raise ValueError(
            f"tail mass fraction {frac:.3e} exceeds 0.2; "
            "enlarge the box and use the tail correction"
        )
    return ScalarField(grid, _hls_profile(np.sqrt(grid.radius2()), lam, d))


def _incomplete_beta(x: float, p: float, q: float) -> float:
    """B_x(p, q) = int_0^x t^(p-1) (1-t)^(q-1) dt: for x <= 1/2 the positive series
    x^p (1-x)^q / p * sum_n (p+q)_n / (p+1)_n x^n (DLMF 8.17.8), summed until a term
    no longer moves the sum; above 1/2, B(p, q) - B_(1-x)(q, p)."""
    if x > 0.5:
        return math.gamma(p) * math.gamma(q) / math.gamma(p + q) - _incomplete_beta(1.0 - x, q, p)
    total, term, n = 0.0, 1.0, 0
    while total + term != total:
        total += term
        term *= (p + q + n) / (p + 1.0 + n) * x
        n += 1
    return x**p * (1.0 - x) ** q / p * total


def _pnorm_beyond(d: int, r0: float) -> float:
    """||f||_p^p of the optimizer profile over |x| > r0, the same for every lam.

    f^p = (1 + r^2)^(-d) because p (2d - lam)/2 = d, and t = 1/(1 + r^2) turns
    the radial integral into surf * B_x(d/2, d/2) / 2 with x = 1/(1 + r0^2).
    """
    return d * unit_ball_volume(d) * _incomplete_beta(1.0 / (1.0 + r0 * r0), d / 2.0, d / 2.0) / 2.0


def hls_norm_tail(grid: Grid) -> float:
    """Analytic tail of ||f||_p^p outside the box's inscribed ball, for every lam.

    Conservative for the quotient: the corrected norm uses the exact radial
    integral beyond the largest centered ball inside the box, so the reported
    denominator can only grow.
    """
    return _pnorm_beyond(grid.dim, max(min(grid.half_widths()), grid.h))


def hls_quotient(
    f: ScalarField,
    h: ScalarField,
    lam: float,
    norm_tails: tuple[float, float] = (0.0, 0.0),
) -> float:
    """|double integral f |x-y|^(-lam) h| / (||f||_p ||h||_p) with p = 2d/(2d - lam).

    ``norm_tails`` are additive analytic corrections to ||f||_p^p and
    ||h||_p^p for box-truncated samples of fat-tailed profiles; the double
    integral itself stays box truncated.  The power kernel is quadratured
    with near-singularity cell averages (``sample_kernel_averaged``, 1-d
    fields only); center sampling converges like h^(1/2 + lam/2) against
    this singularity, too slowly for the sharp-constant tolerances at desk
    resolutions.
    """
    d = f.dim
    p = hls_exponent(lam, d)
    npf = lp_norm(f, p) ** p + norm_tails[0]
    nph = lp_norm(h, p) ** p + norm_tails[1]
    if npf <= 0 or nph <= 0:
        raise ValueError("zero norm")
    kernel = sample_kernel_averaged(lam, displacement_grid(f.grid))
    value = riesz_triple(f, kernel, h)
    return abs(value) / (npf ** (1.0 / p) * nph ** (1.0 / p))
