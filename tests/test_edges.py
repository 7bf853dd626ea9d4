"""Edge paths not covered by the main suites."""

import math

import numpy as np
import pytest

from symkit.field import Grid, GridSet, ScalarField
from symkit.functionals import BLLSpec, bll_integral, heat_pairing, minkowski_content
from symkit.kernels import BallIndicator, HeatGaussian, sample_kernel
from symkit.random_fields import bump_mask, sample_bumps
from symkit.rearrange import bathtub_fill
from symkit.sharp import hls_quotient, young_constant
from symkit.spectral import heat_perimeter_estimate


def test_bll_infeasible_region_gives_zero():
    g = Grid((32,), 0.25)
    x = g.axis_coords(0)
    left = ScalarField(g, (x < -2).astype(float))
    right = ScalarField(g, (x > 2).astype(float))
    spec = BLLSpec(np.array([[1.0], [1.0]]), (left, right))
    est = bll_integral(spec, 1000, seed=3)
    assert est.value == 0.0 and est.standard_error == 0.0


def test_bathtub_exactly_full_box():
    g = Grid((4, 4), 0.5)
    out = bathtub_fill(g.ncells * g.cell_volume, g)
    assert np.all(out.values == 1.0)


def test_gridset_indicator_round_trip():
    g = Grid((6,), 0.5)
    A = GridSet(g, np.array([1, 0, 1, 1, 0, 0], bool))
    ind = A.indicator()
    assert ind.values.min() >= 0.0
    assert ind.integral() == pytest.approx(1.5)


_G = Grid((8,), 0.5)
_F = ScalarField(_G, np.arange(8.0) % 3)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda x: young_constant(x), "s must be in"),
        (lambda x: sample_kernel(BallIndicator(x), Grid((7,), 0.5)), "radius must be positive"),
        (lambda x: HeatGaussian(x).validate(1), "time must be positive"),
        (lambda x: heat_pairing(_G, x), "time must be positive"),
        (lambda x: bathtub_fill(x, _G), "mass must be nonnegative"),
        (lambda x: minkowski_content(GridSet(_G, np.arange(8) % 2 == 0), x), "below the grid resolution"),
        (lambda x: heat_perimeter_estimate(GridSet(_G, np.arange(8) > 1), [x, 0.1]), "two positive times"),
        (lambda x: bump_mask(sample_bumps(np.random.default_rng(0), 1, 2.0), _G, x), "threshold must be finite"),
        (lambda x: hls_quotient(_F, _F, 0.5, norm_tails=(x, 0.0)), "finite and nonnegative"),
        # inf, not NaN: a tail of inf made the quotient 0.0
        (lambda x: hls_quotient(_F, _F, 0.5, norm_tails=(math.inf, 0.0)), "finite and nonnegative"),
        (lambda x: bll_integral(BLLSpec(np.array([[1.0], [1.0]]), (_F, _F)), x, seed=1), "positive sample count"),
    ],
)
def test_nan_fails_the_range_check(call, message):
    # each check is written in positive form, so NaN fails it with its own message
    with pytest.raises(ValueError, match=message):
        call(math.nan)
