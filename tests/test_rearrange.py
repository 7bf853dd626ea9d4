import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import symkit.rearrange as rearrange_module
from symkit.experiments import unit_area_disk
from symkit.field import Grid, GridSet, ScalarField, measure
from symkit.random_fields import plateau_field, radial_bump_field
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

    # the centred builders read Grid.radius2, the r^2 that cell_order sorts by
    @pytest.mark.parametrize("h", [0.1, 0.3])
    @pytest.mark.parametrize("shape", [(41,), (21, 21), (11, 11, 11)], ids=["1d", "2d", "3d"])
    def test_centred_builders_are_fixed_points(self, shape, h):
        grid = Grid(shape, h)
        half = min(grid.half_widths())
        for u in (radial_bump_field(grid, 0.8 * half), plateau_field(grid, 0.3 * half, 0.8 * half)):
            assert np.array_equal(rearrange(u).values, u.values)

    @pytest.mark.parametrize("h", [1.0 / 40, 0.03, 0.07])
    def test_unit_area_disk_is_its_own_symmetrization(self, h):
        disk = unit_area_disk(h)
        assert np.array_equal(set_symmetrize(disk).mask, disk.mask)

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
        mass = t * 10.0**e * g.ncells * g.cell_volume
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


@given(st.data())
@settings(max_examples=60)
def test_every_operator_lays_its_run_on_a_prefix_of_the_cell_order(data):
    shape = data.draw(st.lists(st.integers(1, 7), min_size=1, max_size=3).map(tuple), label="shape")
    g = Grid(shape, 0.5)  # h^d is a power of two, so q = mass / h^d below is exact
    order = cell_order(shape)
    A = GridSet(g, data.draw(arrays(np.bool_, shape), label="A"))
    assert np.array_equal(set_symmetrize(A).mask, rearrange(A.indicator()).values == 1)
    # the bathtub fills the first ceil(q) cells (none at q = 0): ones, then the leftover fraction
    q = data.draw(st.integers(0, 4 * g.ncells), label="4q") / 4
    n = math.ceil(q)
    want = np.zeros(g.ncells)
    want[:n] = 1.0
    want[n - 1 : n] = q - (n - 1)
    assert np.array_equal(bathtub_fill(q * g.cell_volume, g).values.ravel()[order], want)
    omega = A if A.count() else GridSet(g, ~A.mask)
    V = ScalarField(g, data.draw(arrays(np.float64, shape, elements=finite_vals), label="V"))
    low, omega_sym = increasing_rearrangement(V, omega)
    assert np.array_equal(omega_sym.mask, set_symmetrize(omega).mask)
    assert np.all(low.values[~omega_sym.mask] == 0)


class TestTruncate:
    @given(field_strategy((15,)), st.floats(0, 2), st.floats(0.1, 3))
    @settings(max_examples=50)
    def test_commutes_with_rearrange_exactly(self, f, eps, cap):
        # min((|v| - eps)_+, cap) is a nondecreasing function of |v|
        cut = np.minimum(np.maximum(np.abs(f.values) - eps, 0.0), cap)
        a = rearrange(ScalarField(f.grid, cut)).values
        b = np.minimum(np.maximum(np.abs(rearrange(f).values) - eps, 0.0), cap)
        assert np.array_equal(a, b)


# ----------------------------------------------------------------------------
# Polarization and Steiner symmetrization (ROADMAP item 20): a symmetric
# decreasing field, and a ball surrogate, are fixed by every polarization that
# maps the lattice to itself and by every lattice Steiner step (Baernstein and
# Taylor, Duke Math. J. 43 (1976); Brock and Solynin, Trans. Amer. Math. Soc.
# 352 (2000)).
# ----------------------------------------------------------------------------


def admissible_reflections(shape):
    """Each reflection i -> A i + b of the cell indices that a polarization may use, as (A, b).

    On every axis i_k -> m - i_k, and on every two axes of equal extent the
    diagonals (i_j, i_k) -> (i_k + m, i_j - m) and (m - i_k, m - i_j); m runs
    over every offset that pairs two cells of the box.
    """
    d = len(shape)
    eye = np.eye(d, dtype=np.int64)
    out = []
    for k, n in enumerate(shape):
        flip = eye.copy()
        flip[k, k] = -1
        out += [(flip, m * eye[k]) for m in range(2 * n - 1)]
    for j, k in itertools.combinations(range(d), 2):
        if shape[j] == shape[k]:
            n = shape[j]
            swap = eye.copy()
            swap[[j, k]] = swap[[k, j]]
            anti = swap.copy()
            anti[[j, k]] *= -1
            out += [(swap, m * (eye[j] - eye[k])) for m in range(1 - n, n)]
            out += [(anti, m * (eye[j] + eye[k])) for m in range(2 * n - 1)]
    return out


def polarize(u, reflection):
    """``u`` polarized by a reflection of ``admissible_reflections``.

    Of each two cells of the box that the reflection swaps, the one of smaller
    integer r^2 = sum_k (2 i_k - (n_k - 1))^2 takes the larger value and the
    other the smaller; a pair at equal r^2 stays as it is.  A cell whose image
    leaves the box keeps its value: that image lies farther out, where the
    field is 0, and the values polarized here are nonnegative.
    """
    a, b = reflection
    cells = np.indices(u.shape).reshape(u.ndim, -1)
    image = a @ cells + b[:, None]
    inside = np.all((image >= 0) & (image < np.array(u.shape)[:, None]), axis=0)
    mine, theirs = tuple(cells[:, inside]), tuple(image[:, inside])
    r2 = sum(np.ix_(*[(2 * np.arange(n) - (n - 1)) ** 2 for n in u.shape]))
    closer, farther = r2[theirs] < r2[mine], r2[theirs] > r2[mine]
    out = u.copy()
    out[mine] = np.where(closer, np.minimum(u[mine], u[theirs]), np.where(farther, np.maximum(u[mine], u[theirs]), u[mine]))
    return out


def steiner(u, axis):
    """``u`` with each line along ``axis`` sorted, largest first, into the 1-d cell order.

    That order, ``cell_order((n,))``, is written out here (ascending
    |2 i - (n - 1)|, ties by index), so that a mutant of ``cell_order`` does
    not move the step with it.
    """
    n = u.shape[axis]
    lines = np.moveaxis(u, axis, -1)
    out = np.empty_like(lines)
    out[..., np.argsort(np.abs(2 * np.arange(n) - (n - 1)), kind="stable")] = np.sort(lines, axis=-1)[..., ::-1]
    return np.moveaxis(out, -1, axis)


def polarizations(shape):
    return [lambda u, r=r: polarize(u, r) for r in admissible_reflections(shape)]


def steiner_steps(shape):
    return [lambda u, k=k: steiner(u, k) for k in range(len(shape))]


def moved_by(values, mask, steps_of):
    """Which of ``rearrange`` of ``values`` and ``set_symmetrize`` of ``mask`` a step of ``steps_of(shape)`` moves."""
    grid = Grid(values.shape, 1.0)
    outputs = {
        "rearrange": rearrange_module.rearrange(ScalarField(grid, values)).values,
        "set_symmetrize": rearrange_module.set_symmetrize(GridSet(grid, mask)).mask,
    }
    steps = steps_of(values.shape)
    return [name for name, out in outputs.items() if any(not np.array_equal(step(out), out) for step in steps)]


@st.composite
def _box_cases(draw):
    """(values, mask) on a 2-d or 3-d box; half the boxes have equal extents, and values tie often."""
    d = draw(st.sampled_from([2, 3]))
    shape = tuple(draw(st.lists(st.integers(1, 9 if d == 2 else 5), min_size=d, max_size=d)))
    if draw(st.booleans()):
        shape = (shape[0],) * d
    values = draw(arrays(np.float64, shape, elements=finite_vals | st.sampled_from([0.0, 1.0, -1.0])))
    return values, draw(arrays(np.bool_, shape))


@given(_box_cases())
@settings(max_examples=80, deadline=None)
def test_every_admissible_polarization_fixes_rearrange_and_set_symmetrize(case):
    assert moved_by(*case, polarizations) == []


@given(_box_cases())
@settings(max_examples=80, deadline=None)
def test_every_steiner_step_fixes_rearrange_and_set_symmetrize(case):
    assert moved_by(*case, steiner_steps) == []


def _frozen(order):
    order.setflags(write=False)
    return order


def _norm_order(reduce):
    """The cell order of another norm: ascending ``reduce`` of the |2 i_k - (n_k - 1)|, ties by index."""

    def order(shape):
        cells = np.indices(shape).reshape(len(shape), -1)
        half_widths = np.abs(2 * cells - (np.array(shape)[:, None] - 1))
        return _frozen(np.argsort(reduce(half_widths, axis=0), kind="stable"))

    return lambda real: order


# Each mutant: the name it replaces in the module, the replacement built from
# the real one, and, for the polarizations and for the Steiner steps, which of
# the gate's four boxes show it.  The L1 order agrees with the Euclidean one
# along every axis line and under every axis reflection, and on 4^3 it is the
# Euclidean order, so only the diagonals of the 6^2 box see it; on boxes of
# unequal extents no local step sees it, and
# TestCellOrder::test_distances_nondecreasing kills it (DECISIONS.md D23).
_SEEN_EVERYWHERE = ([True] * 4, [True] * 4)
MUTANTS = {
    "identity rearrange": ("rearrange", lambda real: lambda f: f, _SEEN_EVERYWHERE),
    "ascending rearrange": (
        "rearrange",
        lambda real: lambda f: ScalarField(
            f.grid, rearrange_module._in_cell_order(f.grid, np.sort(np.abs(f.values).ravel()))
        ),
        _SEEN_EVERYWHERE,
    ),
    "reversed cell_order": ("cell_order", lambda real: lambda shape: _frozen(real(shape)[::-1].copy()), _SEEN_EVERYWHERE),
    "rotated cell_order": (
        "cell_order",
        lambda real: lambda shape: _frozen(np.roll(real(shape), real(shape).size // 2)),
        _SEEN_EVERYWHERE,
    ),
    "L-infinity cell_order": ("cell_order", _norm_order(np.max), _SEEN_EVERYWHERE),
    "L1 cell_order": ("cell_order", _norm_order(np.sum), ([True, False, False, False], [False] * 4)),
}


@pytest.mark.parametrize("mutant", list(MUTANTS))
def test_a_local_step_moves_a_mutant(mutant, monkeypatch):
    rng = np.random.default_rng(11)
    cases = [(rng.random(shape), rng.random(shape) < 0.4) for shape in [(6, 6), (5, 8), (4, 4, 4), (3, 4, 5)]]
    assert all(moved_by(*case, steps) == [] for case in cases for steps in (polarizations, steiner_steps))
    name, build, (by_polarization, by_steiner) = MUTANTS[mutant]
    monkeypatch.setattr(rearrange_module, name, build(getattr(rearrange_module, name)))
    assert [bool(moved_by(*case, polarizations)) for case in cases] == by_polarization
    assert [bool(moved_by(*case, steiner_steps)) for case in cases] == by_steiner
