"""Bump sums evaluated over their support windows against the whole-grid sum.

``BumpSum`` adds each bump only over the cells where every per-axis term
(x_a - c_a)^2 lies below w^2.  The oracle here adds every bump at every cell,
as a meshgrid sum; the two must agree bit for bit, the sign of every zero
included, because the skipped terms are exactly +-0.0 added to a sum that
starts at +0.0.
"""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from symkit.field import Grid
from symkit.random_fields import BumpSum


def _meshgrid_sum(sample: BumpSum, grid: Grid) -> np.ndarray:
    """Every bump at every cell center of the grid."""
    coords = grid.coords()
    out = np.zeros(grid.shape)
    for c, w, a in zip(sample.centers, sample.widths, sample.amplitudes):
        r2 = sum((x - ck) ** 2 for x, ck in zip(coords, c))
        out += a * np.maximum(1.0 - r2 / (w * w), 0.0) ** 3
    return out


@st.composite
def _bumps_on_grids(draw):
    """A 1-, 2- or 3-d grid and signed bumps that may be narrower than h or cross or miss the box."""
    d = draw(st.integers(1, 3))
    shape = tuple(draw(st.integers(1, (40, 14, 6)[d - 1])) for _ in range(d))
    h = draw(st.sampled_from([0.05, 0.1, 0.25, 0.37, 1.0]))
    half = max(shape) * h / 2.0
    k = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    centers = rng.uniform(-1.5 * half, 1.5 * half, (k, d))
    widths = h * np.exp(rng.uniform(np.log(0.1), np.log(max(2.0, 2.0 * max(shape))), k))
    amps = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=k, max_size=k)))
    return BumpSum(centers, widths, amps), Grid(shape, h)


class TestBumpSum:
    @settings(max_examples=300, deadline=None)
    @given(_bumps_on_grids())
    # a 1-cell grid; a bump narrower than h between two cell centers; one outside the box
    @example((BumpSum(np.array([[0.3]]), np.array([0.5]), np.array([-1.0])), Grid((1,), 1.0)))
    @example((BumpSum(np.array([[0.0, 0.0]]), np.array([0.2]), np.array([1.0])), Grid((4, 3), 1.0)))
    @example((BumpSum(np.array([[9.0, 0.0, 0.0]]), np.array([1.0]), np.array([-0.5])), Grid((3, 3, 3), 1.0)))
    def test_windows_match_the_meshgrid_sum(self, case):
        sample, grid = case
        got, want = sample(grid), _meshgrid_sum(sample, grid)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.array_equal(np.signbit(got), np.signbit(want))
        assert got.tobytes() == want.tobytes()
