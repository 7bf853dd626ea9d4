"""Edge paths not covered by the main suites."""

import math

import numpy as np
import pytest

from symkit import (
    BLLSpec,
    Grid,
    GridSet,
    ProductF,
    ScalarField,
    bathtub_fill,
    bll_integral,
    displacement_grid,
    distribution_function,
    lp_norm,
    steiner_symmetrize,
    weighted_F_energy,
)


def test_bll_infeasible_region_gives_zero():
    g = Grid((32,), 0.25)
    x = g.axis_coords(0)
    left = ScalarField(g, (x < -2).astype(float))
    right = ScalarField(g, (x > 2).astype(float))
    spec = BLLSpec(np.array([[1.0], [1.0]]), (left, right))
    est = bll_integral(spec, 1000, seed=3)
    assert est.value == 0.0 and est.standard_error == 0.0


def test_weighted_energy_small_chunks_match():
    rng = np.random.default_rng(0)
    g = Grid((10,), 0.5)
    f = ScalarField(g, rng.random(10))
    dg = displacement_grid(g)
    W = ScalarField(dg, np.exp(-dg.radius2()))
    a = weighted_F_energy(ProductF(), f, f, W, 1.0, -1.0, chunk=3)
    b = weighted_F_energy(ProductF(), f, f, W, 1.0, -1.0)
    assert a == pytest.approx(b, rel=1e-13)


def test_distribution_function_vector_query():
    g = Grid((8,), 0.5)
    f = ScalarField(g, np.array([0.0, 1.0, 1.0, 2.0, 0.0, 0.0, 3.0, 1.0]))
    df = distribution_function(f)
    got = df(np.array([-0.5, 0.0, 0.5, 1.0, 2.5, 5.0]))
    assert np.array_equal(got, np.array([4.0, 2.5, 2.5, 1.0, 0.5, 0.0]))


def test_lp_norm_infinity():
    g = Grid((5,), 0.5)
    f = ScalarField(g, np.array([1.0, -4.0, 2.0, 0.0, 3.0]))
    assert lp_norm(f, math.inf) == 4.0


def test_bathtub_exactly_full_box():
    g = Grid((4, 4), 0.5)
    out = bathtub_fill(g.box_volume, g)
    assert np.all(out.values == 1.0)


def test_steiner_3d_lines_independent():
    rng = np.random.default_rng(2)
    g = Grid((4, 5, 6), 0.5)
    f = ScalarField(g, rng.normal(size=(4, 5, 6)))
    out = steiner_symmetrize(f, 2)
    # every line parallel to axis 2 is individually rearranged
    from symkit import rearrange

    for i in range(4):
        for j in range(5):
            line = ScalarField(Grid((6,), 0.5), f.values[i, j])
            assert np.array_equal(out.values[i, j], rearrange(line).values)


def test_gridset_indicator_round_trip():
    g = Grid((6,), 0.5)
    A = GridSet(g, np.array([1, 0, 1, 1, 0, 0], bool))
    ind = A.indicator()
    assert ind.nonneg
    assert ind.integral() == pytest.approx(1.5)
