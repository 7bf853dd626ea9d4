"""Seeded random test inputs, consistent across refinement ladders.

Random fields are finite sums of compactly supported C^2 bumps
a (1 - |x - c|^2 / w^2)_+^3 whose parameters are drawn once (counter-based
Philox generator, so streams depend only on the seed) in physical units and
then evaluated analytically on each grid of a ladder: every rung samples the
same continuum function, which is what makes violation sequences comparable
under refinement.  Masks are superlevel sets of the same bump sums.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .field import Grid, GridSet, ScalarField


def rng_for(seed: int, *stream: int) -> np.random.Generator:
    """Philox generator keyed by the seed and a stream index tuple."""
    key = int(seed) & 0xFFFFFFFFFFFFFFFF
    for s in stream:
        key = (key * 1000003 + int(s) + 1) & 0xFFFFFFFFFFFFFFFF
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class BumpSum:
    """Parameters of a bump sum in physical units; evaluation is grid free."""

    centers: np.ndarray  # (k, d)
    widths: np.ndarray  # (k,)
    amplitudes: np.ndarray  # (k,)

    def __call__(self, coords: list[np.ndarray]) -> np.ndarray:
        out = np.zeros(np.broadcast(*coords).shape if len(coords) > 1 else coords[0].shape)
        for c, w, a in zip(self.centers, self.widths, self.amplitudes):
            r2 = sum((x - ck) ** 2 for x, ck in zip(coords, c))
            out += a * np.maximum(1.0 - r2 / (w * w), 0.0) ** 3
        return out


def sample_bumps(
    rng: np.random.Generator,
    dim: int,
    half_width: float,
    n_bumps: int = 6,
    support_fraction: float = 0.6,
    signed: bool = False,
) -> BumpSum:
    """Draw bump parameters keeping every bump inside support_fraction of the box.

    Widths are uniform on [0.15, 0.45] times the reach, support_fraction *
    half_width.
    """
    reach = support_fraction * half_width
    widths = rng.uniform(0.15, 0.45, size=n_bumps) * reach
    centers = np.empty((n_bumps, dim))
    for i in range(n_bumps):
        centers[i] = rng.uniform(-(reach - widths[i]), reach - widths[i], size=dim)
    amps = rng.uniform(0.3, 1.0, size=n_bumps)
    if signed:
        amps *= rng.choice([-1.0, 1.0], size=n_bumps)
    return BumpSum(centers, widths, amps)


def bump_field(sample: BumpSum, grid: Grid, nonneg: bool = False) -> ScalarField:
    vals = sample(grid.coords())
    if nonneg:
        vals = np.abs(vals)
    return ScalarField(grid, vals)


def bump_mask(sample: BumpSum, grid: Grid, threshold: float = 0.15) -> GridSet:
    vals = np.abs(sample(grid.coords()))
    mask = vals > threshold
    if not mask.any():
        # guarantee nonemptiness: take the peak cell
        mask = vals >= vals.max()
    return GridSet(grid, mask)


def plateau_field(grid: Grid, top_radius: float, outer_radius: float) -> ScalarField:
    """Radial profile: 1 on |x| <= top_radius, linear down to 0 at outer_radius."""
    if not 0 < top_radius < outer_radius:
        raise ValueError("need 0 < top_radius < outer_radius")
    r = np.sqrt(grid.radius2())
    vals = np.clip((outer_radius - r) / (outer_radius - top_radius), 0.0, 1.0)
    return ScalarField(grid, vals)


def radial_bump_field(grid: Grid, radius: float) -> ScalarField:
    """Smooth strictly decreasing radial bump (1 - r^2/R^2)_+^3."""
    r2 = grid.radius2()
    return ScalarField(grid, np.maximum(1.0 - r2 / radius**2, 0.0) ** 3)
