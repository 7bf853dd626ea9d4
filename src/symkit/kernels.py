"""Radial kernel families and their sampling on displacement grids.

Convolutions between two fields on the same data grid need the kernel at the
pairwise differences of cell centers.  Those differences are integer multiples
of h, so kernels are sampled on a *displacement grid*: an odd-extent,
origin-centered grid whose cell centers are exactly the integer lattice
``m * h``.  ``displacement_grid`` builds the companion grid for a data grid.

Singularity rule: the power-law kernel value at displacement 0 is the cell
average of |z|^(-lambda) over the central cell, computed once by 32^d-point
midpoint subsampling, so results are reproducible bit for bit.  The fractional
kernel never evaluates the diagonal and samples 0 there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .field import Grid, ScalarField

_SUBSAMPLE = 32
# cells per side, around the origin, that sample_kernel_averaged averages (D9)
_AVG_RADIUS = 8


@dataclass(frozen=True)
class PowerLaw:
    """|z|^(-lam) with 0 < lam < d; symmetric decreasing."""

    lam: float

    def validate(self, dim: int) -> None:
        if not 0 < self.lam < dim:
            raise ValueError(f"power-law exponent must be in (0, {dim}), got {self.lam}")


@dataclass(frozen=True)
class FracKernel:
    """|z|^(-d - s*p) with 0 < s < 1 and p >= 1; diagonal never evaluated."""

    s: float
    p: float

    def validate(self, dim: int) -> None:
        if not 0 < self.s < 1:
            raise ValueError(f"s must be in (0, 1), got {self.s}")
        if not self.p >= 1:
            raise ValueError(f"p must be >= 1, got {self.p}")


@dataclass(frozen=True)
class BallIndicator:
    """Indicator of the centered ball of radius R; symmetric decreasing."""

    radius: float

    def validate(self, dim: int) -> None:
        if not self.radius > 0:
            raise ValueError(f"radius must be positive, got {self.radius}")


@dataclass(frozen=True)
class HeatGaussian:
    """Whole-space heat kernel (4 pi t)^(-d/2) exp(-|z|^2 / 4t); symmetric decreasing."""

    t: float

    def validate(self, dim: int) -> None:
        if not self.t > 0:
            raise ValueError(f"time must be positive, got {self.t}")


KernelSpec = PowerLaw | FracKernel | BallIndicator | HeatGaussian


def displacement_grid(grid: Grid, radius_cells: int | None = None) -> Grid:
    """Odd-extent companion grid whose centers are integer multiples of h.

    With the default radius ``n_k - 1`` per axis it carries every difference
    of two cell centers of the data grid.
    """
    if radius_cells is None:
        shape = tuple(2 * (n - 1) + 1 for n in grid.shape)
    else:
        if radius_cells < 0:
            raise ValueError("radius_cells must be nonnegative")
        shape = tuple(2 * radius_cells + 1 for _ in grid.shape)
    return Grid(shape, grid.h)


def _cell_average_power(lam: float, h: float, z0: tuple[float, ...], subs: int) -> float:
    """Average of |z|^(-lam) over the cell centered at z0, by subs^d midpoints."""
    pts = ((np.arange(subs) + 0.5) / subs - 0.5) * h  # midpoints of [-h/2, h/2)
    offsets = np.meshgrid(*([pts] * len(z0)), indexing="ij")
    r = np.sqrt(sum((c + off) ** 2 for c, off in zip(z0, offsets)))
    return float(np.mean(r ** (-lam)))


def sample_kernel_averaged(lam: float, grid: Grid) -> ScalarField:
    """Power-law kernel |z|^(-lam) on a 1-d grid, with per-cell averages near the singularity.

    Cells within ``_AVG_RADIUS`` of the origin carry the midpoint-subsampled
    cell average of |z|^(-lam) instead of the center sample; beyond that the
    center sample is within O((h/|z|)^2) of the average and is kept.  This
    quadrature is used where the slow convergence of center sampling against
    a |z|^(-lam) singularity would dominate the error budget (the sharp-constant
    quotients, which are 1-d)."""
    if grid.dim != 1:
        raise ValueError(f"cell-averaged kernels are 1-d, got a {grid.dim}-d grid")
    field = sample_kernel(PowerLaw(lam), grid)
    vals = field.values.copy()
    (n,) = grid.shape
    center = n // 2
    for cell in range(max(0, center - _AVG_RADIUS), min(n, center + _AVG_RADIUS + 1)):
        # the singular cell needs a much finer rule: midpoint against the
        # |z|^(-lam) singularity converges only like subs^(-1)
        subs = 8192 if cell == center else 64
        vals[cell] = _cell_average_power(lam, grid.h, ((cell - center) * grid.h,), subs)
    return ScalarField(grid, vals)


def sample_kernel(spec: KernelSpec, grid: Grid) -> ScalarField:
    """Sample a kernel at the cell centers of a (displacement) grid.

    The grid must have odd extents so that a center cell exists; the singular
    cell of a power-law kernel is filled per the cell-average rule.
    """
    if any(n % 2 == 0 for n in grid.shape):
        raise ValueError(f"kernel grids need odd extents, got {grid.shape}")
    spec.validate(grid.dim)
    r2 = grid.radius2()
    center = tuple(n // 2 for n in grid.shape)
    if isinstance(spec, PowerLaw):
        vals = r2  # radius2() returns a fresh array, raised to the power in place
        with np.errstate(divide="ignore"):
            vals **= -spec.lam / 2.0
        vals[center] = _cell_average_power(spec.lam, grid.h, (0.0,) * grid.dim, _SUBSAMPLE)
    elif isinstance(spec, FracKernel):
        expo = -(grid.dim + spec.s * spec.p) / 2.0
        vals = r2
        with np.errstate(divide="ignore"):
            vals **= expo
        vals[center] = 0.0
    elif isinstance(spec, BallIndicator):
        vals = (r2 <= spec.radius**2).astype(np.float64)
    elif isinstance(spec, HeatGaussian):
        vals = (4.0 * math.pi * spec.t) ** (-grid.dim / 2.0) * np.exp(-r2 / (4.0 * spec.t))
    else:
        raise TypeError(f"unknown kernel spec {type(spec).__name__}")
    return ScalarField(grid, vals)
