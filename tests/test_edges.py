"""Edge paths not covered by the main suites."""

import math

import numpy as np
import pytest

from symkit.field import Grid, GridSet, ScalarField
from symkit.functionals import BLLSpec, bll_integral, lp_norm
from symkit.rearrange import bathtub_fill
from symkit.stability import residual_distribution


def test_bll_infeasible_region_gives_zero():
    g = Grid((32,), 0.25)
    x = g.axis_coords(0)
    left = ScalarField(g, (x < -2).astype(float))
    right = ScalarField(g, (x > 2).astype(float))
    spec = BLLSpec(np.array([[1.0], [1.0]]), (left, right))
    est = bll_integral(spec, 1000, seed=3)
    assert est.value == 0.0 and est.standard_error == 0.0


def test_distribution_function_vector_query():
    # residual distribution function tau -> |{u > tau, |grad u| <= eta}|, queried with an array
    g = Grid((10,), 0.5)
    u = ScalarField(g, np.array([1.0, 1.0, 2.0, 2.0, 2.0, 0.0, 3.0, 3.0, 0.0, 0.0]))
    # forward differences vanish at cells 0, 2, 3, 6, 8 and 9 (values 1, 2, 2, 3, 0, 0)
    res = residual_distribution(u, eta=1.0)
    assert res.total_critical == 3.0
    # below the lowest level, at each level and between levels
    taus = np.array([-0.5, 0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 5.0])
    got = res(taus)
    assert np.array_equal(got, np.array([3.0, 2.0, 2.0, 1.5, 1.5, 0.5, 0.5, 0.0, 0.0]))
    assert [res(float(t)) for t in taus] == got.tolist()


def test_lp_norm_infinity():
    g = Grid((5,), 0.5)
    f = ScalarField(g, np.array([1.0, -4.0, 2.0, 0.0, 3.0]))
    assert lp_norm(f, math.inf) == 4.0


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
