"""Edge paths not covered by the main suites."""

import math

import numpy as np
import pytest

from symkit.choquard import choquard_descent, coulomb_potential
from symkit.field import Grid, GridSet, ScalarField
from symkit.functionals import BLLSpec, bll_integral, fractional_seminorm, heat_pairing, minkowski_content
from symkit.kernels import BallIndicator, FracKernel, HeatGaussian, displacement_grid, sample_kernel
from symkit.random_fields import bump_mask, plateau_field, radial_bump_field, sample_bumps
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
_U3 = ScalarField(Grid((4, 4, 4), 0.5), np.ones((4, 4, 4)))


def _descent(steps=1, polish_steps=0):
    return choquard_descent(_U3, coulomb_potential(_U3.grid), steps=steps, polish_steps=polish_steps)


def _quiet(evaluator, u):
    # numpy's FFT warns on an inf before the evaluator sees its result
    with np.errstate(invalid="ignore"):
        return evaluator(u)


P = pytest.param


@pytest.mark.parametrize(
    "call, message",
    [
        P(lambda x: young_constant(x), "s must be in", id="young_constant"),
        P(lambda x: sample_kernel(BallIndicator(x), Grid((7,), 0.5)), "radius must be positive", id="BallIndicator"),
        P(lambda x: HeatGaussian(x).validate(1), "time must be positive", id="HeatGaussian"),
        P(lambda x: heat_pairing(_G, x), "time must be positive", id="heat_pairing-time"),
        P(lambda x: bathtub_fill(x, _G), "mass must be nonnegative", id="bathtub_fill"),
        P(
            lambda x: minkowski_content(GridSet(_G, np.arange(8) % 2 == 0), x),
            "below the grid resolution",
            id="minkowski_content",
        ),
        P(
            lambda x: heat_perimeter_estimate(GridSet(_G, np.arange(8) > 1), [x, 0.1]),
            "two positive times",
            id="heat_perimeter_estimate",
        ),
        P(
            lambda x: bump_mask(sample_bumps(np.random.default_rng(0), 1, 2.0), _G, x),
            "threshold must be finite",
            id="bump_mask",
        ),
        P(lambda x: hls_quotient(_F, _F, 0.5, norm_tails=(x, 0.0)), "finite and nonnegative", id="hls_quotient-nan"),
        # inf, not NaN: a tail of inf made the quotient 0.0
        P(
            lambda x: hls_quotient(_F, _F, 0.5, norm_tails=(math.inf, 0.0)),
            "finite and nonnegative",
            id="hls_quotient-inf",
        ),
        P(
            lambda x: bll_integral(BLLSpec(np.array([[1.0], [1.0]]), (_F, _F)), x, seed=1),
            "positive sample count",
            id="bll_integral",
        ),
        P(lambda x: _descent(steps=x), "whole, finite steps >= 1", id="choquard_descent-steps"),
        P(lambda x: _descent(polish_steps=x), "whole, finite polish_steps >= 0", id="choquard_descent-polish_steps"),
        P(lambda x: displacement_grid(_G, x), "whole, finite, nonnegative count", id="displacement_grid"),
        P(lambda x: Grid((x,), 1.0), "extents must be positive integers", id="Grid"),
        P(lambda x: radial_bump_field(_G, x), "radius must be positive and finite", id="radial_bump_field"),
        P(lambda x: plateau_field(_G, 0.5, x), "outer_radius < inf", id="plateau_field"),
        P(lambda x: fractional_seminorm(_G)(np.full(8, x)), "non-finite values", id="fractional_seminorm-evaluator"),
        P(lambda x: heat_pairing(_G, 0.1)(np.full(8, x)), "non-finite values", id="heat_pairing-evaluator"),
    ],
)
def test_nan_fails_the_range_check(call, message):
    # each check is written in positive form, so NaN fails it with its own message
    with pytest.raises(ValueError, match=message):
        call(math.nan)


# two cells apart on _G: the integrand vanishes, so a sampler that passed the
# sample-count check would return 0.0 at once
_APART = BLLSpec(np.array([[1.0], [1.0]]), (ScalarField(_G, np.arange(8) < 3), ScalarField(_G, np.arange(8) > 4)))


@pytest.mark.parametrize(
    "call, x, message",
    [
        P(
            lambda x: bll_integral(_APART, x, seed=1),
            math.inf,
            "whole, finite, positive sample count",
            id="bll_integral-inf",
        ),
        P(
            lambda x: bll_integral(BLLSpec(np.array([[1.0], [1.0]]), (_F, _F)), x, seed=1),
            1000.5,
            "whole",
            id="bll_integral-fractional",
        ),
        P(
            lambda x: minkowski_content(GridSet(_G, np.arange(8) % 2 == 0), x),
            math.inf,
            "eps = inf is not finite",
            id="minkowski_content",
        ),
        P(lambda x: heat_pairing(_G, x), math.inf, "time must be positive and finite", id="heat_pairing-time"),
        P(
            lambda x: sample_kernel(HeatGaussian(x), Grid((7,), 0.5)),
            math.inf,
            "time must be positive and finite",
            id="HeatGaussian",
        ),
        P(
            lambda x: sample_kernel(FracKernel(0.5, x), Grid((7,), 0.5)),
            math.inf,
            "p must be >= 1 and finite",
            id="FracKernel",
        ),
        P(lambda x: _descent(steps=x), math.inf, "whole, finite steps >= 1", id="choquard_descent-steps"),
        P(
            lambda x: _descent(polish_steps=x),
            math.inf,
            "whole, finite polish_steps >= 0",
            id="choquard_descent-polish_steps",
        ),
        P(lambda x: displacement_grid(_G, x), math.inf, "whole, finite, nonnegative count", id="displacement_grid"),
        P(lambda x: Grid((x,), 1.0), math.inf, "extents must be positive integers", id="Grid"),
        P(
            lambda x: radial_bump_field(_G, x),
            math.inf,
            "radius must be positive and finite",
            id="radial_bump_field",
        ),
        P(lambda x: plateau_field(_G, 0.5, x), math.inf, "outer_radius < inf", id="plateau_field"),
        P(
            lambda x: _quiet(fractional_seminorm(_G), np.full(8, x)),
            math.inf,
            "non-finite values",
            id="fractional_seminorm-evaluator",
        ),
        P(
            lambda x: _quiet(heat_pairing(_G, 0.1), np.full(8, x)),
            math.inf,
            "non-finite values",
            id="heat_pairing-evaluator",
        ),
        # not inf, but as wrong: a fractional count, or a radius at or below 0
        P(
            lambda x: _descent(polish_steps=x),
            1.5,
            "whole, finite polish_steps >= 0",
            id="choquard_descent-polish_steps-fractional",
        ),
        P(
            lambda x: displacement_grid(_G, x),
            2.5,
            "whole, finite, nonnegative count",
            id="displacement_grid-fractional",
        ),
        P(lambda x: radial_bump_field(_G, x), 0.0, "radius must be positive and finite", id="radial_bump_field-zero"),
        P(
            lambda x: radial_bump_field(_G, x),
            -1.0,
            "radius must be positive and finite",
            id="radial_bump_field-negative",
        ),
    ],
)
def test_inf_fails_the_range_check(call, x, message):
    # "finite" is part of each range, so inf (or a fractional count) fails it
    # with its own message, not later as an overflow, a type error or a hang
    with pytest.raises(ValueError, match=message):
        call(x)


def test_a_whole_float_count_runs_as_its_integer():
    # 3.0 steps are three steps, as a whole float sample count is that many samples
    want, got = _descent(steps=3, polish_steps=1), _descent(steps=3.0, polish_steps=1.0)
    assert got.energies == want.energies
    assert got.final.values.tobytes() == want.final.values.tobytes()
