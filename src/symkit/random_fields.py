"""Seeded random test inputs, consistent across refinement ladders.

Random fields are finite sums of compactly supported C^2 bumps
a (1 - |x - c|^2 / w^2)_+^3 whose parameters are drawn once (counter-based
Philox generator, so streams depend only on the seed) in physical units and
then evaluated analytically on each grid of a ladder: every rung samples the
same continuum function, which is what makes violation sequences comparable
under refinement.  Masks are superlevel sets of the same bump sums.

A sum is evaluated on a grid one bump at a time, each only over its support
window: the box of cells at which every per-axis term (x_a - c_a)^2 lies
below w^2.  These are the floats that a sum over the whole grid adds into
r^2, and a rounded sum of nonnegative terms is at least each of them, so
outside the window r^2 / w^2 rounds to at least 1 and the bump adds exactly
+-0.0.  The running sum starts at +0.0, and a float sum that starts at +0.0
never becomes -0.0, so skipping those terms leaves every value, the sign of
every zero included, as the whole-grid sum gives it (the tests keep that
sum as the oracle).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import add

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
    """Parameters of a bump sum in physical units; any grid can sample it."""

    centers: np.ndarray  # (k, d)
    widths: np.ndarray  # (k,)
    amplitudes: np.ndarray  # (k,)

    def __call__(self, grid: Grid) -> np.ndarray:
        """The sum at the cell centers of ``grid``, each bump over its support window only.

        One (k, n) array operation per axis gives every bump's terms and
        window there.  The terms fall, then rise along the axis, so the
        cells below w^2 form one run [lo, hi).
        """
        d, ww = grid.dim, self.widths * self.widths
        terms, lo, hi = [], [], []
        for ax in range(d):
            t = (grid.axis_coords(ax) - self.centers[:, ax, None]) ** 2
            inside = t < ww[:, None]
            first = inside.argmax(axis=1)
            terms.append(t.reshape(t.shape[:1] + (-1,) + (1,) * (d - 1 - ax)))
            lo.append(first)
            hi.append(first + inside.sum(axis=1))
        lo, hi = np.stack(lo, 1).tolist(), np.stack(hi, 1).tolist()
        out = np.zeros(grid.shape)
        for k, (w2, a) in enumerate(zip(ww, self.amplitudes)):
            window = tuple(map(slice, lo[k], hi[k]))
            r2 = reduce(add, [t[k, s] for t, s in zip(terms, window)])
            out[window] += a * np.maximum(1.0 - r2 / w2, 0.0) ** 3
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
    vals = sample(grid)
    if nonneg:
        vals = np.abs(vals)
    return ScalarField(grid, vals)


def bump_mask(sample: BumpSum, grid: Grid, threshold: float = 0.15) -> GridSet:
    if not np.isfinite(threshold):
        raise ValueError(f"threshold must be finite, got {threshold}")
    vals = np.abs(sample(grid))
    mask = vals > threshold
    if not mask.any():
        # guarantee nonemptiness: take the peak cell
        mask = vals >= vals.max()
    return GridSet(grid, mask)


def plateau_field(grid: Grid, top_radius: float, outer_radius: float) -> ScalarField:
    """Radial profile: 1 on |x| <= top_radius, linear down to 0 at outer_radius."""
    if not 0 < top_radius < outer_radius < math.inf:
        raise ValueError(f"need 0 < top_radius < outer_radius < inf, got {top_radius} and {outer_radius}")
    r = np.sqrt(grid.radius2())
    vals = np.clip((outer_radius - r) / (outer_radius - top_radius), 0.0, 1.0)
    return ScalarField(grid, vals)


def radial_bump_field(grid: Grid, radius: float) -> ScalarField:
    """Smooth strictly decreasing radial bump (1 - r^2/R^2)_+^3."""
    if not 0 < radius < math.inf:
        raise ValueError(f"radius must be positive and finite, got {radius}")
    r2 = grid.radius2()
    return ScalarField(grid, np.maximum(1.0 - r2 / radius**2, 0.0) ** 3)
