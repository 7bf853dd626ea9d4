import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from symkit import (
    DistributionFunction,
    FieldFormatError,
    Grid,
    GridSet,
    ScalarField,
    distribution_function,
    layer_cake_reconstruct,
    load,
    measure,
    save,
)

finite_vals = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


def small_fields(max_n=24):
    return st.integers(2, max_n).flatmap(
        lambda n: arrays(np.float64, (n,), elements=finite_vals).map(
            lambda v: ScalarField(Grid((n,), 0.25), v)
        )
    )


class TestGrid:
    def test_validation(self):
        with pytest.raises(ValueError, match="unsupported dimension"):
            Grid((2, 2, 2, 2), 0.5)
        with pytest.raises(ValueError):
            Grid((0,), 0.5)
        with pytest.raises(ValueError):
            Grid((4,), -1.0)

    def test_centering(self):
        g = Grid((4,), 0.5)
        assert np.allclose(g.axis_coords(0), [-0.75, -0.25, 0.25, 0.75])
        g_odd = Grid((5,), 0.5)
        assert g_odd.axis_coords(0)[2] == 0.0

    def test_immutability(self):
        f = ScalarField(Grid((4,), 1.0), np.arange(4.0))
        with pytest.raises(ValueError):
            f.values[0] = 7.0


class TestMeasure:
    def test_empty(self):
        g = Grid((10,), 0.5)
        assert measure(GridSet(g, np.zeros(10, bool))) == 0.0

    def test_full_line(self):
        g = Grid((10,), 0.5)
        assert measure(GridSet(g, np.ones(10, bool))) == 5.0

    @given(arrays(np.bool_, (6, 6)))
    def test_popcount_oracle(self, mask):
        g = Grid((6, 6), 0.5)
        assert measure(GridSet(g, mask)) == int(mask.sum()) * 0.25

    def test_monotone_under_inclusion(self):
        g = Grid((8, 8), 0.2)
        rng = np.random.default_rng(3)
        small = rng.random((8, 8)) > 0.6
        big = small | (rng.random((8, 8)) > 0.6)
        assert measure(GridSet(g, small)) <= measure(GridSet(g, big))


class TestDistributionFunction:
    def test_zero_field(self):
        f = ScalarField(Grid((6,), 0.5), np.zeros(6))
        df = distribution_function(f)
        assert df(0.0) == 0.0 and df(3.0) == 0.0

    def test_indicator(self):
        g = Grid((10,), 0.5)
        vals = np.zeros(10)
        vals[2:5] = 1.0
        df = distribution_function(ScalarField(g, vals))
        assert df(0.0) == 3 * 0.5
        assert df(0.999) == 3 * 0.5
        assert df(1.0) == 0.0

    @given(arrays(np.float64, (12,), elements=finite_vals))
    @settings(max_examples=50)
    def test_threshold_sweep_oracle(self, vals):
        f = ScalarField(Grid((12,), 0.5), vals)
        df = distribution_function(f)
        for tau in np.unique(np.abs(vals)):
            assert df(tau) == 0.5 * int((np.abs(vals) > tau).sum())

    @given(arrays(np.float64, (10,), elements=finite_vals))
    @settings(max_examples=50)
    def test_equimeasurability_complete(self, vals):
        g = Grid((10,), 0.5)
        shuffled = vals[np.argsort(np.sin(np.arange(10.0)))]
        assert distribution_function(ScalarField(g, vals)) == distribution_function(
            ScalarField(g, shuffled)
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            DistributionFunction(np.array([1.0, 1.0]), np.array([1.0, 0.0]), 2.0)
        with pytest.raises(ValueError):
            DistributionFunction(np.array([0.0, 1.0]), np.array([1.0, 2.0]), 2.0)


class TestLayerCake:
    def test_two_valued_exact(self):
        vals = np.array([0.0, 1.0, 1.0, 0.0, 1.0])
        f = ScalarField(Grid((5,), 1.0), vals)
        assert np.array_equal(layer_cake_reconstruct(f, 1).values, vals)

    def test_three_level_exact(self):
        vals = np.array([0.0, 0.3, 0.7, 0.3, 0.0, 0.7])
        f = ScalarField(Grid((6,), 1.0), vals)
        out = layer_cake_reconstruct(f, 2)
        assert np.allclose(out.values, vals, rtol=0, atol=1e-15)

    def test_zero(self):
        f = ScalarField(Grid((4,), 1.0), np.zeros(4))
        assert np.array_equal(layer_cake_reconstruct(f, 3).values, np.zeros(4))

    @given(small_fields())
    @settings(max_examples=40)
    def test_full_level_set_recovers_abs(self, f):
        out = layer_cake_reconstruct(f, f.grid.ncells + 1)
        assert np.allclose(out.values, np.abs(f.values), rtol=1e-12, atol=1e-12)

    def test_undersampled_is_lower_bound(self):
        rng = np.random.default_rng(5)
        f = ScalarField(Grid((30,), 1.0), rng.random(30))
        out = layer_cake_reconstruct(f, 4)
        assert np.all(out.values <= np.abs(f.values) + 1e-15)


class TestFieldFile:
    @given(small_fields())
    @settings(max_examples=40)
    def test_round_trip_bit_exact(self, tmp_path_factory, f):
        path = tmp_path_factory.mktemp("io") / "f.sk"
        save(f, path)
        back = load(path)
        assert isinstance(back, ScalarField)
        assert back.grid == f.grid
        assert np.array_equal(back.values, f.values)

    def test_set_round_trip(self, tmp_path):
        g = Grid((4, 3), 0.5)
        A = GridSet(g, np.arange(12).reshape(4, 3) % 3 == 0)
        save(A, tmp_path / "a.sk")
        back = load(tmp_path / "a.sk")
        assert isinstance(back, GridSet)
        assert back.grid == g
        assert np.array_equal(back.mask, A.mask)

    def test_unsupported_dimension(self, tmp_path):
        p = tmp_path / "bad.sk"
        p.write_text("SYMKIT-FIELD 1\n4\n2 2 2 2\n0.5\n" + "0\n" * 16)
        with pytest.raises(FieldFormatError, match="unsupported dimension"):
            load(p)

    def test_truncated_payload(self, tmp_path):
        p = tmp_path / "trunc.sk"
        p.write_text("SYMKIT-FIELD 1\n1\n5\n0.5\n1.0\n2.0\n")
        with pytest.raises(FieldFormatError, match="cell-count mismatch"):
            load(p)

    def test_overlong_payload(self, tmp_path):
        p = tmp_path / "long.sk"
        p.write_text("SYMKIT-FIELD 1\n1\n2\n0.5\n1.0\n2.0\n3.0\n")
        with pytest.raises(FieldFormatError, match="cell-count mismatch"):
            load(p)

    def test_non_finite_value(self, tmp_path):
        p = tmp_path / "nan.sk"
        p.write_text("SYMKIT-FIELD 1\n1\n2\n0.5\n1.0\nnan\n")
        with pytest.raises(FieldFormatError, match="non-finite"):
            load(p)

    def test_bad_tag_and_line_numbers(self, tmp_path):
        p = tmp_path / "tag.sk"
        p.write_text("NOT-A-TAG\n1\n2\n0.5\n1.0\n2.0\n")
        with pytest.raises(FieldFormatError, match="line 1"):
            load(p)

    def test_bad_spacing_reported_on_line_4(self, tmp_path):
        p = tmp_path / "h.sk"
        p.write_text("SYMKIT-FIELD 1\n1\n2\n-0.5\n1.0\n2.0\n")
        with pytest.raises(FieldFormatError, match="line 4: spacing must be positive"):
            load(p)

    def test_mask_values_validated(self, tmp_path):
        p = tmp_path / "m.sk"
        p.write_text("SYMKIT-SET 1\n1\n2\n0.5\n1\n0.5\n")
        with pytest.raises(FieldFormatError, match="0 or 1"):
            load(p)
