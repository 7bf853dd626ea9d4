import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from symkit.field import Grid, GridSet, ScalarField, measure
from symkit.rearrange import (
    bathtub_fill,
    cell_order,
    increasing_rearrangement,
    rearrange,
    set_symmetrize,
)

finite_vals = st.floats(min_value=-100, max_value=100, allow_nan=False, allow_infinity=False)


def field_strategy(shape, h=0.5, nonneg=False):
    elems = (
        st.floats(min_value=0, max_value=100, allow_nan=False, allow_infinity=False)
        if nonneg
        else finite_vals
    )
    return arrays(np.float64, shape, elements=elems).map(
        lambda v: ScalarField(Grid(shape, h), v)
    )


class TestCellOrder:
    @pytest.mark.parametrize("shape", [(7,), (8,), (5, 6), (4, 4, 4)])
    def test_is_permutation(self, shape):
        order = cell_order(shape)
        assert sorted(order) == list(range(int(np.prod(shape))))

    @pytest.mark.parametrize("shape", [(9,), (8, 8), (3, 4, 5)])
    def test_distances_nondecreasing(self, shape):
        g = Grid(shape, 0.3)
        r2 = g.radius2().ravel()[cell_order(shape)]
        assert np.all(np.diff(r2) >= -1e-15)

    def test_tie_break_lexicographic(self):
        # n=4 centers: -1.5 -0.5 0.5 1.5 (x h); ties resolved to the lower index
        assert list(cell_order((4,))) == [1, 2, 0, 3]


class TestSetSymmetrize:
    def test_prefix_fixed_point(self):
        g = Grid((6, 6), 0.5)
        mask = np.zeros(36, bool)
        mask[cell_order((6, 6))[:11]] = True
        A = GridSet(g, mask.reshape(6, 6))
        assert np.array_equal(set_symmetrize(A).mask, A.mask)

    def test_unit_interval_recentres(self):
        # cells covering [0, 1) at h = 1/8 on [-1, 1) move to (-1/2, 1/2)
        g = Grid((16,), 1 / 8)
        mask = g.axis_coords(0) > 0
        out = set_symmetrize(GridSet(g, mask))
        covered = g.axis_coords(0)[out.mask]
        assert covered.min() > -0.5 and covered.max() < 0.5
        assert out.count() == 8

    @given(arrays(np.bool_, (7, 7)))
    @settings(max_examples=40)
    def test_measure_preserved_and_prefix(self, mask):
        g = Grid((7, 7), 0.25)
        A = GridSet(g, mask)
        out = set_symmetrize(A)
        assert measure(out) == measure(A)
        order = cell_order((7, 7))
        flags = out.mask.ravel()[order]
        assert np.all(np.diff(flags.astype(int)) <= 0)  # prefix of the order


class TestRearrange:
    def test_offcenter_block_becomes_prefix(self):
        g = Grid((10,), 0.5)
        vals = np.zeros(10)
        vals[6:9] = 1.0
        out = rearrange(ScalarField(g, vals))
        expect = np.zeros(10)
        expect[cell_order((10,))[:3]] = 1.0
        assert np.array_equal(out.values, expect)

    def test_fixed_point(self):
        g = Grid((9,), 0.5)
        vals = np.exp(-g.radius2())
        f = ScalarField(g, vals)
        assert np.array_equal(rearrange(f).values, vals)

    @given(field_strategy((5, 5)))
    @settings(max_examples=50)
    def test_equimeasurable_exactly(self, f):
        out = rearrange(f)
        assert np.array_equal(np.sort(out.values.ravel()), np.sort(np.abs(f.values).ravel()))

    @given(field_strategy((4, 6)))
    @settings(max_examples=40)
    def test_distribution_function_preserved(self, f):
        # tau -> |{|f| > tau}| at every level of |f| and below the lowest one
        out = rearrange(f)
        for tau in np.append(np.unique(np.abs(f.values)), -1.0):
            assert measure(GridSet(f.grid, out.values > tau)) == measure(
                GridSet(f.grid, np.abs(f.values) > tau)
            )

    @given(field_strategy((12,)))
    @settings(max_examples=50)
    def test_superlevel_identity(self, f):
        out = rearrange(f)
        for tau in np.unique(np.abs(f.values)):
            sub = set_symmetrize(GridSet(f.grid, np.abs(f.values) > tau))
            assert np.array_equal(out.values > tau, sub.mask)

    @given(field_strategy((14,)))
    @settings(max_examples=40)
    def test_idempotent(self, f):
        once = rearrange(f)
        assert np.array_equal(rearrange(once).values, once.values)

    @given(field_strategy((10,), nonneg=True))
    @settings(max_examples=40)
    def test_order_preservation(self, f):
        g = ScalarField(f.grid, f.values + np.linspace(0, 1, 10))
        assert np.all(rearrange(f).values <= rearrange(g).values + 1e-15)

    @given(field_strategy((6, 6)))
    @settings(max_examples=30)
    def test_norm_preservation(self, f):
        out = rearrange(f)
        for p in (0.5, 1.0, 2.0, 3.0):
            a = float(np.sum(np.abs(f.values) ** p))
            b = float(np.sum(out.values**p))
            assert abs(a - b) <= 1e-12 * max(a, 1e-300)


class TestIncreasingRearrangement:
    def _setup(self):
        g = Grid((8, 8), 0.5)
        rng = np.random.default_rng(2)
        mask = rng.random((8, 8)) > 0.5
        mask[4, 4] = True
        V = ScalarField(g, rng.normal(size=(8, 8)))
        return V, GridSet(g, mask)

    def test_constant(self):
        V, omega = self._setup()
        Vc = ScalarField(V.grid, np.full(V.grid.shape, 2.5))
        low, osym = increasing_rearrangement(Vc, omega)
        assert np.all(low.values[osym.mask] == 2.5)

    def test_sort_oracle(self):
        V, omega = self._setup()
        low, osym = increasing_rearrangement(V, omega)
        assert np.array_equal(np.sort(low.values[osym.mask]), np.sort(V.values[omega.mask]))
        ranked = low.values.ravel()[cell_order(V.grid.shape)][: omega.count()]
        assert np.all(np.diff(ranked) >= 0)

    def test_fixed_point_prefix_domain_ascending_values(self):
        g = Grid((10,), 0.5)
        order = cell_order((10,))
        mask = np.zeros(10, bool)
        mask[order[:6]] = True
        vals = np.zeros(10)
        vals[order[:6]] = np.linspace(-1.0, 2.0, 6)  # ascending along cell order
        V = ScalarField(g, vals)
        low, osym = increasing_rearrangement(V, GridSet(g, mask))
        assert np.array_equal(osym.mask, mask)
        assert np.array_equal(low.values, V.values * mask)

    def test_phi_independence_exact(self):
        # Placing the domain values by a strictly decreasing transform phi
        # (descending in phi(v), ties ascending in v) equals the direct sort.
        V, omega = self._setup()
        a, _ = increasing_rearrangement(V, omega)
        vals = V.values[omega.mask]
        order = cell_order(V.grid.shape)[: omega.count()]
        for phi in (lambda v: np.exp(-v), lambda v: 1.0 / (1.0 + np.exp(v))):
            placed = np.zeros(V.grid.ncells)
            placed[order] = vals[np.lexsort((vals, -phi(vals)))]
            assert np.array_equal(a.values.ravel(), placed)

    def test_empty_domain(self):
        V, _ = self._setup()
        with pytest.raises(ValueError, match="empty"):
            increasing_rearrangement(V, GridSet(V.grid, np.zeros(V.grid.shape, bool)))


class TestBathtub:
    def test_zero_mass(self):
        out = bathtub_fill(0.0, Grid((6,), 0.5))
        assert np.all(out.values == 0)

    def test_whole_cells(self):
        g = Grid((8,), 0.5)
        out = bathtub_fill(3 * 0.5, g)
        assert sorted(out.values.tolist()) == [0, 0, 0, 0, 0, 1, 1, 1]

    def test_fractional_cell(self):
        g = Grid((8,), 0.5)
        out = bathtub_fill(2.5 * 0.5, g)
        vals = np.sort(out.values)[::-1]
        assert vals[0] == vals[1] == 1.0 and vals[2] == 0.5 and np.all(vals[3:] == 0)
        assert abs(out.integral() - 1.25) <= 1e-12

    @given(
        st.tuples(st.integers(1, 9), st.integers(1, 9)),
        st.floats(0.01, 10.0),
        st.floats(0.0, 1.0, exclude_min=True),
        st.integers(-300, 0),
    )
    @settings(max_examples=200)
    def test_integral_is_mass_down_to_tiny_masses(self, shape, h, t, e):
        g = Grid(shape, h)
        mass = t * 10.0**e * g.box_volume
        out = bathtub_fill(mass, g)
        # one rounding each in mass / h^d, the sum and the product with h^d,
        # and the snap of q within 4 eps q of a whole cell count
        assert abs(out.integral() - mass) <= 8 * np.finfo(np.float64).eps * mass

    def test_errors(self):
        g = Grid((4,), 0.5)
        with pytest.raises(ValueError):
            bathtub_fill(-1.0, g)
        with pytest.raises(ValueError, match="exceeds"):
            bathtub_fill(10.0, g)


class TestTruncate:
    @given(field_strategy((15,)), st.floats(0, 2), st.floats(0.1, 3))
    @settings(max_examples=50)
    def test_commutes_with_rearrange_exactly(self, f, eps, cap):
        # min((|v| - eps)_+, cap) is a nondecreasing function of |v|
        cut = np.minimum(np.maximum(np.abs(f.values) - eps, 0.0), cap)
        a = rearrange(f.with_values(cut)).values
        b = np.minimum(np.maximum(np.abs(rearrange(f).values) - eps, 0.0), cap)
        assert np.array_equal(a, b)
