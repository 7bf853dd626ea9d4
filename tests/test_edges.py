"""Edge paths not covered by the main suites."""

import numpy as np
import pytest

from symkit.field import Grid, GridSet, ScalarField
from symkit.functionals import BLLSpec, bll_integral
from symkit.rearrange import bathtub_fill


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
    out = bathtub_fill(g.box_volume, g)
    assert np.all(out.values == 1.0)


def test_gridset_indicator_round_trip():
    g = Grid((6,), 0.5)
    A = GridSet(g, np.array([1, 0, 1, 1, 0, 0], bool))
    ind = A.indicator()
    assert ind.nonneg
    assert ind.integral() == pytest.approx(1.5)
