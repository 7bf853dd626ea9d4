import math
import threading
import types

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import symkit.choquard as choquard
import symkit.experiments as experiments
import symkit.functionals as functionals
from symkit.choquard import choquard_descent, coulomb_potential
from symkit.cli import DEFAULT_SEED
from symkit.field import Grid, GridSet, ScalarField
from symkit.functionals import (
    BLLSpec,
    MCEstimate,
    UnboundedRegionError,
    _bounding_ranges,
    _forward_diffs,
    _kinetic_gradient_of,
    bll_integral,
    convolve,
    fractional_perimeter,
    fractional_seminorm,
    gradient_pnorm,
    hanner_sum,
    heat_pairing,
    lp_norm,
    minkowski_content,
    pairing,
    riesz_energy,
    riesz_triple,
    supermodular_pairing,
    unit_ball_volume,
)
from symkit.kernels import FracKernel, HeatGaussian, PowerLaw, displacement_grid, sample_kernel
from symkit.rearrange import rearrange, set_symmetrize

nonneg_vals = st.floats(min_value=0, max_value=50, allow_nan=False, allow_infinity=False)
signed_vals = st.floats(min_value=-50, max_value=50, allow_nan=False, allow_infinity=False)


def nn_field(shape, h=0.5):
    return arrays(np.float64, shape, elements=nonneg_vals).map(
        lambda v: ScalarField(Grid(shape, h), v)
    )


def sg_field(shape, h=0.5):
    return arrays(np.float64, shape, elements=signed_vals).map(
        lambda v: ScalarField(Grid(shape, h), v)
    )


class TestNorms:
    def test_zero(self):
        assert lp_norm(ScalarField(Grid((5,), 1.0), np.zeros(5)), 2.0) == 0.0

    def test_indicator(self):
        g = Grid((8,), 0.5)
        v = np.zeros(8)
        v[:3] = 1.0
        assert lp_norm(ScalarField(g, v), 2.0) == pytest.approx(math.sqrt(3 * 0.5), rel=1e-14)

    @given(sg_field((20,)))
    @settings(max_examples=40)
    def test_fsum_oracle(self, f):
        got = lp_norm(f, 3.0)
        # Exact sum and root: float cubes of values below 1e-103 are subnormal
        # and would carry only a few digits into the oracle.
        with mpmath.workprec(200):
            exact = mpmath.cbrt(mpmath.fsum(abs(mpmath.mpf(float(x))) ** 3 for x in f.values) / 2)
            want = float(exact)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-300)

    @pytest.mark.parametrize(
        "x, h, p",
        [pytest.param(x, 0.5, 3.0, id=str(x)) for x in (3.84261916e-105, 1e-200, 1e200)]
        # each square is finite, and only their sum overflows
        + [pytest.param(1e154, 1.0, 2.0, id="1e+154-sum")],
    )
    def test_powers_outside_normal_range(self, x, h, p):
        f = ScalarField(Grid((20,), h), np.full(20, x))
        assert lp_norm(f, p) == pytest.approx((20 * h) ** (1 / p) * x, rel=1e-14)

    @pytest.mark.parametrize("p", [-1.0, 0.0, math.inf, math.nan])
    def test_bad_p(self, p):
        with pytest.raises(ValueError, match=r"p must be in \(0, inf\)"):
            lp_norm(ScalarField(Grid((2,), 1.0), np.zeros(2)), p)


class TestPairing:
    def test_disjoint_supports(self):
        g = Grid((6,), 0.5)
        a = np.zeros(6)
        b = np.zeros(6)
        a[:2] = 1
        b[4:] = 1
        assert pairing(ScalarField(g, a), ScalarField(g, b)) == 0.0

    def test_indicator(self):
        g = Grid((6,), 0.5)
        v = np.zeros(6)
        v[1:4] = 1.0
        f = ScalarField(g, v)
        assert pairing(f, f) == pytest.approx(3 * 0.5, rel=1e-14)

    def test_grid_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            pairing(
                ScalarField(Grid((4,), 0.5), np.zeros(4)),
                ScalarField(Grid((5,), 0.5), np.zeros(5)),
            )

    @given(nn_field((16,)), nn_field((16,)))
    @settings(max_examples=50)
    def test_hardy_littlewood_exact(self, f, g):
        left = pairing(f, g)
        right = pairing(rearrange(f), rearrange(g))
        assert left <= right + 1e-12 * max(abs(left), abs(right), 1e-300)


def _min_pairing_levels_oracle(fv, gv, vol):
    """sum_i min(f_i, g_i) via the superlevel decomposition."""
    levels = np.unique(np.concatenate([[0.0], fv, gv]))
    total = 0.0
    for lo, hi in zip(levels, levels[1:]):
        total += (hi - lo) * int(((fv > lo) & (gv > lo)).sum())
    return total * vol


class TestSupermodular:
    def test_product_is_pairing(self):
        rng = np.random.default_rng(0)
        g = Grid((10,), 0.5)
        f1 = ScalarField(g, rng.random(10))
        f2 = ScalarField(g, rng.random(10))
        assert supermodular_pairing(np.multiply, f1, f2) == pytest.approx(
            pairing(f1, f2), rel=1e-14
        )

    def test_min_diagonal(self):
        g = Grid((7,), 0.5)
        f = ScalarField(g, np.arange(7.0))
        assert supermodular_pairing(np.minimum, f, f) == pytest.approx(f.integral(), rel=1e-14)

    @given(nn_field((8, 8), h=0.25), nn_field((8, 8), h=0.25))
    @settings(max_examples=30)
    def test_min_rearrangement_vs_level_oracle(self, f, g):
        val = supermodular_pairing(np.minimum, f, g)
        oracle = _min_pairing_levels_oracle(f.values.ravel(), g.values.ravel(), 0.0625)
        assert val == pytest.approx(oracle, rel=1e-9, abs=1e-12)
        sym = supermodular_pairing(np.minimum, rearrange(f), rearrange(g))
        assert val <= sym + 1e-12 * max(val, sym, 1e-300)

    @given(
        st.floats(0, 10),
        st.floats(0, 10),
        st.floats(0, 10),
        st.floats(0, 10),
    )
    @settings(max_examples=100)
    def test_rectangle_inequality(self, u1, du, v1, dv):
        u2, v2 = u1 + du, v1 + dv
        for F, supermodular in experiments._VERIFY_FORMS.values():
            lhs = F(u2, v2) + F(u1, v1)
            rhs = F(u2, v1) + F(u1, v2)
            if not supermodular:
                lhs, rhs = rhs, lhs
            assert lhs >= rhs - 1e-9 * max(abs(lhs), abs(rhs), 1.0)

    def test_requires_nonnegative(self):
        g = Grid((3,), 1.0)
        f = ScalarField(g, np.array([-1.0, 0.0, 1.0]))
        with pytest.raises(ValueError, match="nonnegative"):
            supermodular_pairing(np.minimum, f, f)


def expansion_gaps(f, g):
    """verify's expansion pair: (sum |f-g|^2 h^d, sum (f+g)^2 h^d)."""
    forms = experiments._VERIFY_FORMS
    return tuple(supermodular_pairing(forms[name][0], f, g) for name in ("expand_contraction", "expand_expansion"))


class TestExpansionGaps:
    def test_zero_partner(self):
        g = Grid((6,), 0.5)
        f = ScalarField(g, np.arange(6.0))
        z = ScalarField(g, np.zeros(6))
        diff, summ = expansion_gaps(f, z)
        want = float(np.sum(f.values**2)) * 0.5
        assert diff == pytest.approx(want, rel=1e-14)
        assert summ == pytest.approx(want, rel=1e-14)

    def test_equal_pair(self):
        g = Grid((5,), 0.5)
        f = ScalarField(g, np.ones(5))
        diff, _ = expansion_gaps(f, f)
        assert diff == 0.0

    @given(nn_field((12,)), nn_field((12,)))
    @settings(max_examples=40)
    def test_quadratic_reduces_to_pairing(self, f, g):
        # sum (f-g)^2 = sum f^2 + sum g^2 - 2 sum f g, so the contraction gap
        # equals twice the pairing gap, which is nonnegative exactly
        fs, gs = rearrange(f), rearrange(g)
        d0, s0 = expansion_gaps(f, g)
        d1, s1 = expansion_gaps(fs, gs)
        gap = pairing(fs, gs) - pairing(f, g)
        assert (d0 - d1) == pytest.approx(2 * gap, rel=1e-9, abs=1e-9)
        tol = 1e-12 * max(abs(d0), abs(d1), abs(s0), abs(s1), 1e-300)
        assert d1 <= d0 + tol
        assert s0 <= s1 + tol


class TestHanner:
    def test_zero_partner(self):
        g = Grid((5,), 0.5)
        f = ScalarField(g, np.arange(5.0))
        z = ScalarField(g, np.zeros(5))
        assert hanner_sum(f, z, 1.5) == pytest.approx(
            2 * float(np.sum(f.values**1.5)) * 0.5, rel=1e-14
        )

    def test_equal_pair_p2(self):
        g = Grid((5,), 0.5)
        f = ScalarField(g, np.arange(5.0))
        assert hanner_sum(f, f, 2.0) == pytest.approx(4 * lp_norm(f, 2.0) ** 2, rel=1e-13)

    @given(sg_field((14,)), sg_field((14,)))
    @settings(max_examples=50)
    def test_directions_by_regime(self, f, g):
        fs, gs = rearrange(f), rearrange(g)
        lo0, lo1 = hanner_sum(f, g, 1.5), hanner_sum(fs, gs, 1.5)
        assert lo1 <= lo0 + 1e-12 * max(lo0, lo1, 1e-300)
        hi0, hi1 = hanner_sum(f, g, 3.0), hanner_sum(fs, gs, 3.0)
        assert hi0 <= hi1 + 1e-12 * max(hi0, hi1, 1e-300)

    @pytest.mark.parametrize("p", [0.5, math.nan])
    def test_bad_p(self, p):
        g = Grid((3,), 1.0)
        f = ScalarField(g, np.zeros(3))
        with pytest.raises(ValueError, match="p must be >= 1"):
            hanner_sum(f, f, p)


class TestConvolve:
    def test_delta_reproduces(self):
        g = Grid((9,), 0.5)
        rng = np.random.default_rng(3)
        kern = ScalarField(displacement_grid(g, 4), rng.random(9))
        delta = np.zeros(9)
        delta[4] = 1 / 0.5
        out = convolve(kern, ScalarField(g, delta))
        assert np.allclose(out.values, kern.values, rtol=1e-12)

    def test_two_unit_cells(self):
        g = Grid((9,), 0.5)
        dg = displacement_grid(g, 4)
        kv = np.zeros(9)
        kv[6] = 1.0  # displacement +2 cells
        fv = np.zeros(9)
        fv[3] = 1.0  # offset -1 cell from center
        out = convolve(ScalarField(dg, kv), ScalarField(g, fv))
        want = np.zeros(9)
        want[5] = 0.5  # lands at (+2 - 1) cells, value h^d
        assert np.allclose(out.values, want, rtol=1e-12)
        assert out.integral() == pytest.approx(
            ScalarField(dg, kv).integral() * ScalarField(g, fv).integral(), rel=1e-12
        )

    @pytest.mark.parametrize("shape", [(12,), (6, 8)])
    def test_direct_sum_oracle(self, shape):
        rng = np.random.default_rng(11)
        g = Grid(shape, 0.25)
        dg = displacement_grid(g)
        kern = ScalarField(dg, rng.random(dg.shape))
        f = ScalarField(g, rng.random(shape))
        out = convolve(kern, f)
        centers = np.stack([c.ravel() for c in g.coords()], axis=1)
        kc = np.stack([c.ravel() for c in dg.coords()], axis=1)
        kmap = {tuple(np.round(z / g.h).astype(int)): v for z, v in zip(kc, kern.values.ravel())}
        direct = np.zeros(centers.shape[0])
        for i, x in enumerate(centers):
            for j, y in enumerate(centers):
                key = tuple(np.round((x - y) / g.h).astype(int))
                direct[i] += kmap[key] * f.values.ravel()[j] * g.cell_volume
        assert np.allclose(out.values.ravel(), direct, rtol=1e-10, atol=1e-12)

    def test_alignment_checks(self):
        g = Grid((6,), 0.5)
        with pytest.raises(ValueError, match="odd extents"):
            convolve(ScalarField(Grid((6,), 0.5), np.zeros(6)), ScalarField(g, np.zeros(6)))
        with pytest.raises(ValueError, match="spacings"):
            convolve(ScalarField(Grid((5,), 0.4), np.zeros(5)), ScalarField(g, np.zeros(6)))


class TestRieszTriple:
    def test_delta_kernel_gives_pairing(self):
        g = Grid((10,), 0.5)
        rng = np.random.default_rng(5)
        f = ScalarField(g, rng.random(10))
        h = ScalarField(g, rng.random(10))
        kv = np.zeros(2 * 10 - 1)
        kv[9] = 1 / 0.5  # delta at zero displacement
        kern = ScalarField(displacement_grid(g), kv)
        assert riesz_triple(f, kern, h) == pytest.approx(pairing(f, h), rel=1e-12)

    def test_symmetric_decreasing_fixed_point(self):
        g = Grid((16,), 0.5)
        f = rearrange(ScalarField(g, np.random.default_rng(1).random(16)))
        kern = sample_kernel(HeatGaussian(0.3), displacement_grid(g))
        val = riesz_triple(f, kern, f)
        sym = riesz_triple(rearrange(f), rearrange(kern), rearrange(f))
        assert val == pytest.approx(sym, rel=1e-13)

    def test_rearranged_dominates_random(self):
        rng = np.random.default_rng(9)
        g = Grid((32,), 0.25)
        f = ScalarField(g, rng.random(32) * (np.abs(g.axis_coords(0)) < 2))
        h = ScalarField(g, rng.random(32) * (np.abs(g.axis_coords(0)) < 2))
        kern = sample_kernel(HeatGaussian(0.2), displacement_grid(g))
        assert riesz_triple(f, kern, h) <= riesz_triple(
            rearrange(f), kern, rearrange(h)
        ) + 1e-10

    def test_translation_equality(self):
        # whole-cell translates of a rearranged pair give the same value
        g = Grid((32,), 0.25)
        base = np.zeros(32)
        base[:6] = [5, 4, 3, 2.5, 1, 0.5]
        f = np.zeros(32)
        f[cell_order_positions(g, 6)] = base[:6]
        fstar = ScalarField(g, f)
        shifted = ScalarField(g, np.roll(f, 3))
        kern = sample_kernel(HeatGaussian(0.15), displacement_grid(g))
        a = riesz_triple(fstar, kern, fstar)
        b = riesz_triple(shifted, kern, shifted)
        assert a == pytest.approx(b, rel=1e-12)


def cell_order_positions(grid, k):
    from symkit.rearrange import cell_order

    return cell_order(grid.shape)[:k]


def _ranges_by_linprog(spec: BLLSpec):
    """The linear programs ``_bounding_ranges`` replaced: min and max of each x_m per axis.

    Returns None when infeasible and "unbounded" when an LP is unbounded.
    """
    from scipy.optimize import linprog

    b = spec.coeffs
    m = b.shape[1]
    sup = [functionals._support_intervals(f) for f in spec.fields]
    ranges = [[] for _ in range(m)]
    for ax in range(spec.fields[0].dim):
        lo, hi = (np.array([s[ax][k] for s in sup]) for k in (0, 1))
        for j in range(m):
            ext = []
            for sign in (1.0, -1.0):
                c = np.zeros(m)
                c[j] = sign
                res = linprog(c, A_ub=np.vstack([b, -b]), b_ub=np.concatenate([hi, -lo]), bounds=[(None, None)] * m)
                if res.status in (2, 3):
                    return None if res.status == 2 else "unbounded"
                assert res.status == 0, res.message
                ext.append(sign * res.fun)
            ranges[j].append(tuple(ext))
    return ranges


class TestBLL:
    def _fields(self, n=32):
        g = Grid((n,), 0.25)
        x = g.axis_coords(0)
        f1 = ScalarField(g, np.maximum(1 - ((x + 0.5) / 1.5) ** 2, 0) ** 2)
        f2 = ScalarField(g, np.maximum(1 - ((x - 0.7) / 1.2) ** 2, 0) ** 2)
        return g, f1, f2

    def test_pairing_instance_within_3se(self):
        g, f1, f2 = self._fields()
        spec = BLLSpec(np.array([[1.0], [1.0]]), (f1, f2))
        est = bll_integral(spec, 400_000, seed=7)
        assert abs(est.value - pairing(f1, f2)) <= 3 * est.standard_error

    def test_riesz_instance_within_3se(self):
        g, f1, f2 = self._fields()
        dg = displacement_grid(g)
        mid = ScalarField(dg, np.exp(-dg.radius2()))
        spec = BLLSpec(np.array([[1.0, 0.0], [1.0, -1.0], [0.0, 1.0]]), (f1, mid, f2))
        est = bll_integral(spec, 600_000, seed=13)
        exact = riesz_triple(f1, mid, f2)
        assert abs(est.value - exact) <= 3 * est.standard_error

    def test_determinism(self):
        g, f1, f2 = self._fields()
        spec = BLLSpec(np.array([[1.0], [1.0]]), (f1, f2))
        a = bll_integral(spec, 50_000, seed=42)
        b = bll_integral(spec, 50_000, seed=42)
        assert a == b

    def test_rearranged_inputs_give_identical_integrand(self):
        # when every factor is already rearranged, the symmetrized spec is the
        # same integrand and the seeded estimate coincides exactly
        g, f1, f2 = self._fields()
        r1, r2 = rearrange(f1), rearrange(f2)
        spec = BLLSpec(np.array([[1.0], [1.0]]), (r1, r2))
        spec_star = BLLSpec(np.array([[1.0], [1.0]]), (rearrange(r1), rearrange(r2)))
        assert bll_integral(spec, 20_000, seed=9) == bll_integral(spec_star, 20_000, seed=9)

    def test_unbounded_region_detected(self):
        g, f1, f2 = self._fields()
        coeffs = np.array([[1.0, 0.0], [1.0, 0.0]])  # second variable unconstrained
        with pytest.raises(UnboundedRegionError):
            bll_integral(BLLSpec(coeffs, (f1, f2)), 1000, seed=0)

    def test_collinear_rows_raise_where_the_lp_is_unbounded(self):
        g, f1, f2 = self._fields()
        spec = BLLSpec(np.array([[1.0, 2.0], [2.0, 4.0], [-1.0, -2.0]]), (f1, f2, f1))
        with pytest.raises(UnboundedRegionError):
            _bounding_ranges(spec)
        assert _ranges_by_linprog(spec) == "unbounded"

    @pytest.mark.parametrize(
        "coeffs, windows",
        [
            # x must lie in [-4, -2] and in [2, 4]
            ([[1.0], [1.0]], [(-4, -2), (2, 4)]),
            # x, y in [-4, -2] but x + y in [2, 4]: every row alone is feasible
            ([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [(-4, -2), (-4, -2), (2, 4)]),
        ],
    )
    def test_infeasible_spec_gives_none_and_zero(self, coeffs, windows):
        g = Grid((64,), 0.125)
        x = g.axis_coords(0)
        fields = tuple(ScalarField(g, ((x > lo) & (x < hi)).astype(float)) for lo, hi in windows)
        spec = BLLSpec(np.array(coeffs), fields)
        assert _bounding_ranges(spec) is None
        assert _ranges_by_linprog(spec) is None
        assert bll_integral(spec, 1000, seed=0).value == 0.0

    def test_vertex_bounds_match_linprog_on_refine_specs(self, monkeypatch):
        # the specs of refine-bll-1d at seeds 0-63, f and f* each: bounds to
        # 1e-12, and bll_integral draws from the same lattice windows under both
        specs = []
        monkeypatch.setattr(
            experiments, "bll_integral", lambda spec, samples, seed: specs.append(spec) or MCEstimate(0.0, 1.0)
        )
        for seed in range(64):
            experiments._refine_bll(seed)
        assert len(specs) == 512
        oracle = {}
        for i, spec in enumerate(specs):
            got, want = _bounding_ranges(spec), _ranges_by_linprog(spec)
            assert want is not None
            assert np.allclose(got, want, rtol=0, atol=1e-12), i
            oracle[id(spec)] = want
        estimates = [bll_integral(spec, 2048, seed=i) for i, spec in enumerate(specs)]
        monkeypatch.setattr(functionals, "_bounding_ranges", lambda spec: oracle[id(spec)])
        assert all(est.value > 0 for est in estimates)
        assert estimates == [bll_integral(spec, 2048, seed=i) for i, spec in enumerate(specs)]

    def test_zero_row_rejected(self):
        g, f1, f2 = self._fields()
        with pytest.raises(ValueError, match="all-zero row"):
            BLLSpec(np.array([[1.0], [0.0]]), (f1, f2))

    def test_empty_field_gives_zero(self):
        g, f1, _ = self._fields()
        zero = ScalarField(g, np.zeros(g.shape))
        spec = BLLSpec(np.array([[1.0], [1.0]]), (f1, zero))
        est = bll_integral(spec, 1000, seed=1)
        assert est.value == 0.0 and est.standard_error == 0.0

    def test_sample_count_validated(self):
        g, f1, f2 = self._fields()
        spec = BLLSpec(np.array([[1.0], [1.0]]), (f1, f2))
        with pytest.raises(ValueError):
            bll_integral(spec, 0, seed=1)


class TestFractionalSeminorm:
    def test_constant_is_zero(self):
        # without its rounding rule the fft route returns 5.7e-14 on 8 cells;
        # 64x64 and 65x65 sit on both sides of the old direct-route size
        for shape in [(8,), (5000,), (8, 8), (64, 64), (65, 65), (8, 8, 8)]:
            f = ScalarField(Grid(shape, 0.5), np.full(shape, 3.0))
            assert fractional_seminorm(f.grid)(f) == 0.0, shape

    def test_indicator_vs_double_loop(self, seminorm_direct):
        g = Grid((10,), 0.5)
        mask = np.zeros(10)
        mask[3:6] = 1.0
        u = ScalarField(g, mask)
        val = seminorm_direct(u, 0.5, 1.0)
        x = g.axis_coords(0)
        acc = 0.0
        for i in range(10):
            for j in range(10):
                if mask[i] == 1.0 and mask[j] == 0.0:
                    acc += abs(x[i] - x[j]) ** (-1 - 0.5) * 0.25
        assert val == pytest.approx(2 * acc, rel=1e-12)

    def test_fft_equals_direct(self, seminorm_direct):
        rng = np.random.default_rng(8)
        u = ScalarField(Grid((9, 7), 0.4), rng.random((9, 7)))
        a = seminorm_direct(u, 0.5, 2.0)
        b = fractional_seminorm(u.grid)(u)
        assert a == pytest.approx(b, rel=1e-11)

    @given(
        st.one_of(
            st.tuples(st.integers(2, 64)), st.tuples(st.integers(2, 12), st.integers(2, 12))
        ),
        st.floats(0.01, 2.0),
        st.sampled_from(["random", "difference", "near_constant"]),
        st.sampled_from([1e-8, 1e-6, 1e-3, 1.0]),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_fft_matches_direct_at_cancellation_scale(self, seminorm_direct, shape, h, kind, eps, seed):
        # the fft route returns 2 (sum_i u_i^2 srow_i h^d - cross): its rounding
        # error scales with the first term, which a nearly constant field or a
        # difference of close fields cancels almost entirely
        rng = np.random.default_rng(seed)
        f, g = rng.standard_normal(shape), rng.standard_normal(shape)
        values = {"random": f, "difference": (f + eps * g) - f, "near_constant": 1.0 + eps * g}
        grid = Grid(shape, h)
        u = ScalarField(grid, values[kind])
        kfield = sample_kernel(FracKernel(0.5, 2.0), displacement_grid(grid))
        srow = convolve(kfield, ScalarField(grid, np.ones(shape))).values
        scale = 2.0 * float(np.sum(u.values**2 * srow)) * grid.cell_volume
        direct = seminorm_direct(u, 0.5, 2.0)
        fft = fractional_seminorm(grid)(u)
        assert abs(fft - direct) <= 1e-13 * scale

    @given(
        st.integers(4, 39),
        st.sampled_from([0.0, 1e-12, 1e-8]),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_fft_route_is_nonnegative_on_near_constant_fields(self, n, eps, seed):
        # 2 (diag - cross) cancels to rounding on these fields and fell below 0
        g = np.random.default_rng(seed).standard_normal((n, n))
        u = ScalarField(Grid((n, n), 1.0 / n), 1.0 + eps * g)
        assert fractional_seminorm(u.grid)(u) >= 0.0

    def test_fft_route_raises_below_its_rounding_scale(self, monkeypatch):
        import symkit.functionals as fn

        u = ScalarField(Grid((6, 6), 0.5), np.random.default_rng(3).random((6, 6)))
        real_pairing = fn.pairing
        monkeypatch.setattr(fn, "pairing", lambda a, b: 2.0 * real_pairing(a, b))
        with pytest.raises(FloatingPointError, match="rounding scale"):
            fractional_seminorm(u.grid)(u)

    @pytest.mark.parametrize("shape", [(9,), (24, 17), (6, 5, 7)])
    def test_one_evaluator_serves_many_fields_in_either_order(self, shape):
        # the evaluator keeps its plan and the kernel row sums across calls, so
        # no call may leave a trace in the next: every value is the one-shot one
        grid = Grid(shape, 0.3)
        rng = np.random.default_rng(11)
        values = (rng.random(shape), rng.standard_normal(shape), np.full(shape, 2.0), np.zeros(shape))
        fields = [ScalarField(grid, v) for v in values]
        want = [fractional_seminorm(grid)(u) for u in fields]
        seminorm = fractional_seminorm(grid)
        order = list(range(len(fields)))
        for i in order + order[::-1]:
            assert seminorm(fields[i]).hex() == want[i].hex()

    def test_parameter_validation(self):
        for s, p in ((math.nan, 2.0), (0.5, 0.5), (0.5, math.nan)):
            with pytest.raises(ValueError, match="must be"):
                FracKernel(s, p).validate(1)


class TestFractionalPerimeter:
    def test_split_blocks_exceed_ball(self):
        g = Grid((24, 24), 0.25)
        order_mask = np.zeros(g.ncells, bool)
        from symkit.rearrange import cell_order

        order_mask[cell_order(g.shape)[:52]] = True
        ball = GridSet(g, order_mask.reshape(g.shape))
        blocks = np.zeros(g.shape, bool)
        blocks[2:6, 2:15] = True  # same cell count, elongated
        assert blocks.sum() == 52
        spread = GridSet(g, blocks)
        assert fractional_perimeter(spread, 0.5) > fractional_perimeter(ball, 0.5)

    def test_prefix_fixed_point(self):
        g = Grid((12, 12), 0.5)
        from symkit.rearrange import cell_order

        m = np.zeros(g.ncells, bool)
        m[cell_order(g.shape)[:30]] = True
        A = GridSet(g, m.reshape(g.shape))
        assert fractional_perimeter(A, 0.4) == fractional_perimeter(set_symmetrize(A), 0.4)

    def test_perimeter_limit_trend(self):
        # (1-s) per_s approaches a multiple of the perimeter monotonically
        g = Grid((32, 32), 0.125)
        from symkit.rearrange import cell_order

        m = np.zeros(g.ncells, bool)
        m[cell_order(g.shape)[:316]] = True
        A = GridSet(g, m.reshape(g.shape))
        # perimeter: exposed cell faces times h^(d-1)
        padded = np.pad(A.mask.astype(np.int8), 1)
        faces = sum(int(np.abs(np.diff(padded, axis=ax)).sum()) for ax in range(g.dim))
        per = faces * g.h ** (g.dim - 1)
        vals = [(1 - s) * fractional_perimeter(A, s) / per for s in (0.5, 0.7, 0.9, 0.95)]
        diffs = np.diff(vals)
        assert np.all(diffs < 0) or np.all(diffs > 0)

    def test_empty_rejected(self):
        g = Grid((4, 4), 0.5)
        with pytest.raises(ValueError, match="empty"):
            fractional_perimeter(GridSet(g, np.zeros((4, 4), bool)), 0.5)


def _minkowski_by_distance_transform(A: GridSet, eps: float) -> float:
    """The Euclidean distance-transform route that ``minkowski_content`` replaced."""
    from scipy.ndimage import distance_transform_edt

    g = A.grid
    pad = math.ceil(eps / g.h) + 1
    dist = distance_transform_edt(np.pad(A.mask, pad), sampling=g.h)
    core = dist[tuple(slice(pad, pad + n) for n in g.shape)]
    return float((A.mask & (core - g.h / 2.0 < eps)).sum()) * g.cell_volume / eps


class TestMinkowski:
    @pytest.mark.parametrize("seed", [DEFAULT_SEED, *range(8)])
    def test_dilation_matches_distance_transform_on_refine_masks(self, seed):
        # refine-minkowski-{1,2}d's masks and their symmetrizations, every rung, bit for bit
        for d in (1, 2):
            for n, h in experiments.RUNGS[d]:
                for A in experiments._suite_masks(seed, Grid((n,) * d, h), stream=27):
                    for B in (A, set_symmetrize(A)):
                        assert minkowski_content(B, 3 * h) == _minkowski_by_distance_transform(B, 3 * h)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 3).flatmap(lambda d: arrays(bool, st.tuples(*[st.integers(1, 9)] * d))),
        st.sampled_from([1.0, 1.7, 2.0, 2.6, 3.0, 4.25]),
    )
    def test_dilation_matches_distance_transform(self, mask, eps_cells):
        A = GridSet(Grid(mask.shape, 0.3), mask)
        assert minkowski_content(A, eps_cells * 0.3) == _minkowski_by_distance_transform(A, eps_cells * 0.3)

    def test_slab_ends(self):
        g = Grid((64,), 0.125)
        m = np.abs(g.axis_coords(0)) < 2.0
        A = GridSet(g, m)
        eps = 3 * g.h
        assert minkowski_content(A, eps) == pytest.approx(2.0, rel=1e-12)

    def test_empty(self):
        g = Grid((8,), 0.5)
        assert minkowski_content(GridSet(g, np.zeros(8, bool)), 0.5) == 0.0

    def test_below_resolution_rejected(self):
        g = Grid((8,), 0.5)
        with pytest.raises(ValueError, match="resolution"):
            minkowski_content(GridSet(g, np.ones(8, bool)), 0.1)


class TestGradient:
    def test_constant_boundary_only(self):
        g = Grid((10,), 0.5)
        f = ScalarField(g, np.full(10, 2.0))
        # only the far face contributes: |grad| = c/h at one cell
        want = (2.0 / 0.5) * (0.5) ** (1 / 2)
        assert gradient_pnorm(f) == pytest.approx(want, rel=1e-12)

    def test_tent_profile_formula(self):
        g = Grid((64,), 0.125)
        x = g.axis_coords(0)
        slope = 0.75
        f = ScalarField(g, np.maximum(2.0 - slope * np.abs(x), 0.0))
        diffs = np.diff(np.concatenate([f.values, [0.0]])) / g.h
        want = math.fsum(abs(d) ** 2 * g.h for d in diffs) ** 0.5
        assert gradient_pnorm(f) == pytest.approx(want, rel=1e-12)


def _padded_forward_diffs(u):
    """The np.pad formulation the slice-based stencils replaced."""
    out = []
    for ax in range(u.dim):
        pad = [(0, 0)] * u.dim
        pad[ax] = (0, 1)
        out.append(np.diff(np.pad(u.values, pad), axis=ax) / u.h)
    return out


def _padded_kinetic_gradient(u):
    out = np.zeros_like(u.values)
    for ax, dk in enumerate(_padded_forward_diffs(u)):
        pad = [(0, 0)] * u.dim
        pad[ax] = (1, 0)
        shifted = np.pad(dk, pad)[tuple(slice(0, n) for n in u.grid.shape)]
        out += (shifted - dk) * (2.0 / u.h)
    return out


@st.composite
def _stencil_fields(draw):
    d = draw(st.integers(1, 3))
    shape = tuple(draw(st.integers(1, {1: 9, 2: 6, 3: 4}[d])) for _ in range(d))
    elements = st.one_of(st.sampled_from([0.0, -0.0]), signed_vals)
    h = draw(st.sampled_from([0.1, 0.5, 1.0]))
    return ScalarField(Grid(shape, h), draw(arrays(np.float64, shape, elements=elements)))


class TestPadFreeStencils:
    @settings(max_examples=200, deadline=None)
    @given(_stencil_fields())
    def test_byte_identical_to_padded_formulation(self, u):
        got, want = _forward_diffs(u.values, u.h), _padded_forward_diffs(u)
        assert len(got) == len(want) == u.dim
        assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))
        assert _kinetic_gradient_of(got, u.h).tobytes() == _padded_kinetic_gradient(u).tobytes()

    def test_zero_far_edge_gives_positive_zero(self):
        u = ScalarField(Grid((2, 3), 1.0), np.zeros((2, 3)))
        diffs = _forward_diffs(u.values, u.h)
        for dk in diffs:
            assert not np.signbit(dk).any()
        assert not np.signbit(_kinetic_gradient_of(diffs, u.h)).any()


class TestHeatPairing:
    def test_single_cell_self_value(self):
        g = Grid((17,), 0.5)
        v = np.zeros(17)
        v[8] = 1.0
        t = 0.05
        got = heat_pairing(g, t)(ScalarField(g, v))
        want = (4 * math.pi * t) ** -0.5 * 0.5**2
        assert got == pytest.approx(want, rel=1e-12)

    def test_small_time_recovers_gradient(self):
        g = Grid((512,), 8.0 / 512)
        x = g.axis_coords(0)
        u = ScalarField(g, np.maximum(1 - (x / 1.5) ** 2, 0.0) ** 3)
        n2 = lp_norm(u, 2.0) ** 2
        t1 = 0.002
        q = lambda t: (n2 - heat_pairing(g, t)(u)) / t
        extrapolated = 2 * q(t1 / 2) - q(t1)
        target = gradient_pnorm(u) ** 2
        assert extrapolated == pytest.approx(target, rel=0.02)

    def test_rearrangement_direction(self):
        rng = np.random.default_rng(12)
        g = Grid((64,), 0.125)
        u = ScalarField(g, rng.random(64) * (np.abs(g.axis_coords(0)) < 2))
        pair = heat_pairing(g, 0.03)
        assert pair(u) <= pair(rearrange(u)) + 1e-10

    @pytest.mark.parametrize("shape", [(9,), (24, 17), (6, 5, 7)])
    def test_one_evaluator_equals_the_riesz_triple_in_either_order(self, shape):
        # the one-shot route the evaluator replaced, kernel radius and all, bit for bit
        grid, t = Grid(shape, 0.3), 0.05
        rc = min(math.ceil(max(6.0 * math.sqrt(t), 3.0 * grid.h) / grid.h), max(n - 1 for n in shape))
        kern = sample_kernel(HeatGaussian(t), displacement_grid(grid, radius_cells=rc))
        rng = np.random.default_rng(13)
        values = (rng.random(shape), rng.standard_normal(shape), np.full(shape, 2.0), np.zeros(shape))
        fields = [ScalarField(grid, v) for v in values]
        want = [riesz_triple(u, kern, u) for u in fields]
        pair = heat_pairing(grid, t)
        order = list(range(len(fields)))
        for i in order + order[::-1]:
            assert pair(fields[i]).hex() == want[i].hex()


class TestRefineRungs:
    @pytest.mark.parametrize("contract", ["frac-seminorm", "heat-pairing"])
    @pytest.mark.parametrize("d", [1, 2])
    def test_one_convolution_plan_per_rung(self, monkeypatch, contract, d):
        # each rung's evaluator serves its three fields and their rearrangements
        shapes = []
        plan = functionals.convolution_plan

        def counted(kernel, shape):
            shapes.append(tuple(shape))
            return plan(kernel, shape)

        monkeypatch.setattr(functionals, "convolution_plan", counted)
        experiments._contract_report(DEFAULT_SEED, contract, d)
        assert shapes == [(n,) * d for n, _ in experiments.RUNGS[d]]


class TestEnergies:
    def test_riesz_two_cells(self):
        g = Grid((16,), 0.5)
        v = np.zeros(16)
        v[6] = 1.0
        v[10] = 1.0  # distance 4 h = 2.0
        rho = ScalarField(g, v)
        k0 = sample_kernel(PowerLaw(0.5), displacement_grid(g, 0)).values.item()
        got = riesz_energy(rho, 0.5)
        want = 2 * k0 * 0.25 + 2 * 2.0**-0.5 * 0.25
        assert got == pytest.approx(want, rel=1e-12)

    def test_riesz_zero(self):
        g = Grid((8,), 0.5)
        assert riesz_energy(ScalarField(g, np.zeros(8)), 0.5) == 0.0

    @staticmethod
    def _power(rho, alpha):
        # interaction energy of rho against the growing kernel |x - y|^alpha
        dg = displacement_grid(rho.grid)
        return riesz_triple(rho, ScalarField(dg, dg.radius2() ** (alpha / 2.0)), rho)

    def test_power_single_cell(self):
        g = Grid((9,), 0.5)
        v = np.zeros(9)
        v[4] = 1.0
        # |0|^alpha = 0; the transform evaluation leaves only rounding noise
        assert self._power(ScalarField(g, v), 1.5) == pytest.approx(0.0, abs=1e-12)

    def test_power_two_cells(self):
        g = Grid((9,), 0.5)
        v = np.zeros(9)
        v[2] = 1.0
        v[7] = 1.0  # distance 5 h = 2.5
        assert self._power(ScalarField(g, v), 1.5) == pytest.approx(
            2 * 2.5**1.5 * 0.25, rel=1e-12
        )

    def test_power_energy_ball_minimizes(self):
        from symkit.rearrange import bathtub_fill, cell_order

        g = Grid((24, 24), 0.25)
        mass = 2.0
        ball = bathtub_fill(mass, g)
        k = int(round(mass / g.cell_volume))
        blocks = np.zeros(g.ncells)
        blocks[:k // 2] = 1.0
        blocks[-(k - k // 2):] = 1.0
        spread = ScalarField(g, blocks.reshape(g.shape))
        r2 = g.radius2().ravel()
        ann_idx = np.argsort(r2, kind="stable")[g.ncells // 3 : g.ncells // 3 + k]
        ann = np.zeros(g.ncells)
        ann[ann_idx] = 1.0
        annulus = ScalarField(g, ann.reshape(g.shape))
        e_ball = self._power(ball, 1.0)
        assert e_ball < self._power(annulus, 1.0)
        assert e_ball < self._power(spread, 1.0)

    @staticmethod
    def _choquard(u):
        # kinetic minus Coulomb self-interaction of |u|^2, as choquard_descent computes it
        return gradient_pnorm(u) ** 2 - riesz_energy(ScalarField(u.grid, u.values**2), 1.0)

    def test_choquard_zero(self):
        g = Grid((8, 8, 8), 0.5)
        assert self._choquard(ScalarField(g, np.zeros((8, 8, 8)))) == 0.0

    def test_choquard_dimension_guard(self):
        with pytest.raises(ValueError, match="3-d"):
            g = Grid((8, 8), 0.5)
            choquard_descent(ScalarField(g, np.ones((8, 8))), coulomb_potential(g), steps=1)

    def test_choquard_divergence_is_reported(self):
        # the step overflows the squared norm; the descent must stop on the
        # last finite iterate instead of normalizing a flushed-to-zero field
        g = Grid((8, 8, 8), 0.5)
        u0 = ScalarField(g, np.exp(-np.random.default_rng(0).uniform(0.0, 1.0, g.shape)))
        with np.errstate(over="ignore", invalid="ignore"):
            result = choquard_descent(u0, coulomb_potential(g), steps=3, step_size=1e200)
        assert result.diverged
        assert len(result.energies) == 1 and math.isfinite(result.energies[0])
        assert np.all(np.isfinite(result.final.values))
        assert float(np.sum(result.final.values**2)) * g.cell_volume == pytest.approx(1.0)

    def test_choquard_overflowing_start_raises(self):
        g = Grid((4, 4, 4), 0.5)
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="overflows"):
            choquard_descent(ScalarField(g, np.full(g.shape, 1e200)), coulomb_potential(g), steps=1)

    @pytest.mark.parametrize("steps, polish_steps", [(0, 0), (0, 5), (1, -1)])
    def test_choquard_needs_a_main_step(self, steps, polish_steps):
        # polishing follows the main phase, and the run ends on a rearrangement
        g = Grid((4, 4, 4), 0.5)
        u0 = ScalarField(g, np.random.default_rng(4).random(g.shape))
        with pytest.raises(ValueError, match="steps >= 1"):
            choquard_descent(u0, coulomb_potential(g), steps=steps, polish_steps=polish_steps)

    def test_choquard_shares_differences_between_energy_and_step(self, monkeypatch):
        # the descent without shared differences: each iterate is differenced
        # twice, once for its energy and once for its step
        def reference(u0, steps, polish_steps):
            grid, vol = u0.grid, u0.grid.cell_volume
            kernel = sample_kernel(PowerLaw(1.0), displacement_grid(grid))

            def energy(vals):
                usq = ScalarField(grid, vals * vals)
                phi = convolve(kernel, usq)
                return gradient_pnorm(ScalarField(grid, vals)) ** 2 - pairing(usq, phi), phi

            def normalize(vals):
                return vals / math.sqrt(float(np.sum(vals * vals)) * vol)

            u = normalize(np.abs(u0.values))
            e, phi = energy(u)
            energies, audit = [e], []
            for step in range(1, steps + polish_steps + 1):
                tau = 0.02 if step <= steps else choquard._POLISH_STEP_SIZE
                kin = _kinetic_gradient_of(_forward_diffs(u, grid.h), grid.h)
                u = normalize(u - tau * (kin - 4.0 * u * phi.values))
                if step % choquard._REARRANGE_EVERY == 0 or step == steps + polish_steps:
                    before, _ = energy(u)
                    u = normalize(rearrange(ScalarField(grid, u)).values)
                    e, phi = energy(u)
                    audit.append((before, e))
                else:
                    e, phi = energy(u)
                energies.append(e)
            return energies, audit, u

        g = Grid((8, 8, 8), 0.75)
        bumpy = 1.0 + 0.3 * np.random.default_rng(9).random(g.shape)
        u0 = ScalarField(g, np.exp(-g.radius2() / 4.0) * bumpy)
        energies, audit, final = reference(u0, 12, 3)
        calls = {"diffs": 0, "potential": 0}
        diffs, plan = choquard._forward_diffs, coulomb_potential(g)

        def counted_diffs(*args):
            calls["diffs"] += 1
            return diffs(*args)

        def potential(usq, **kwargs):
            calls["potential"] += 1
            return plan(usq, **kwargs)

        monkeypatch.setattr(choquard, "_forward_diffs", counted_diffs)
        result = choquard_descent(u0, potential, steps=12, step_size=0.02, polish_steps=3)
        assert result.energies == energies and result.rearrange_audit == audit
        assert result.final.values.tobytes() == final.tobytes()
        # one set of differences per energy evaluation, i.e. per plan call
        assert calls["diffs"] == calls["potential"] == len(energies) + len(audit)

    def test_choquard_public_callables_run_on_the_calling_thread(self, monkeypatch):
        # the perfbench tracer keeps one span stack per process, so only
        # private helpers may run on the descent's helper thread (DECISIONS.md D20)
        threads = {}

        def recorded(name, fn):
            def wrapper(*args, **kwargs):
                threads.setdefault(name, set()).add(threading.current_thread())
                return fn(*args, **kwargs)

            return wrapper

        public = [
            name
            for name, obj in vars(choquard).items()
            if not name.startswith("_") and callable(obj) and not isinstance(obj, types.ModuleType)
        ]
        for name in public + ["_forward_diffs"]:
            monkeypatch.setattr(choquard, name, recorded(name, getattr(choquard, name)))
        g = Grid((8, 8, 8), 0.75)
        u0 = ScalarField(g, np.exp(-g.radius2() / 4.0))
        potential = recorded("potential", coulomb_potential(g))
        result = choquard.choquard_descent(u0, potential, steps=6, step_size=0.02, polish_steps=1)
        assert len(result.energies) == 8 and not result.diverged
        caller = {threading.current_thread()}
        stencils = threads.pop("_forward_diffs")
        assert {"choquard_descent", "potential", "pairing", "rearrange", "ScalarField"} <= set(threads)
        assert all(ts == caller for ts in threads.values())
        # the stencils do run on the helper
        assert len(stencils) == 1 and stencils != caller

    def test_choquard_helper_error_propagates_and_no_thread_outlives_the_call(self, monkeypatch):
        g = Grid((8, 8, 8), 0.75)
        u0 = ScalarField(g, np.exp(-g.radius2() / 4.0))
        plan = coulomb_potential(g)
        before = set(threading.enumerate())
        choquard_descent(u0, plan, steps=3)
        assert set(threading.enumerate()) == before
        kinetic, calls = choquard._kinetic_gradient_of, []

        def failing(diffs, h):
            calls.append(threading.current_thread())
            if len(calls) == 3:
                raise RuntimeError("stencil failed")
            return kinetic(diffs, h)

        monkeypatch.setattr(choquard, "_kinetic_gradient_of", failing)
        with pytest.raises(RuntimeError, match="stencil failed"):
            choquard_descent(u0, plan, steps=3)
        assert len(calls) == 3 and threading.current_thread() not in calls
        assert set(threading.enumerate()) == before
        # a half of a plan stage that fails on the helper (DECISIONS.md D20)
        monkeypatch.setattr(choquard, "_kinetic_gradient_of", kinetic)
        inverse, halves, caller = functionals.ifft, [], threading.current_thread()

        def failing_half(*args, **kwargs):
            if threading.current_thread() is not caller:
                halves.append(threading.current_thread())
                if len(halves) == 5:
                    raise RuntimeError("half failed")
            return inverse(*args, **kwargs)

        monkeypatch.setattr(functionals, "ifft", failing_half)
        with pytest.raises(RuntimeError, match="half failed"):
            choquard_descent(u0, plan, steps=3)
        assert len(halves) == 5 and threading.current_thread() not in halves
        assert set(threading.enumerate()) == before

    def test_choquard_stencils_run_under_the_callers_error_state(self, monkeypatch):
        # np.errstate is per context, and a new thread starts in an empty one
        states, diffs = [], choquard._forward_diffs

        def recorded(*args):
            states.append(np.geterr())
            return diffs(*args)

        monkeypatch.setattr(choquard, "_forward_diffs", recorded)
        g = Grid((8, 8, 8), 0.75)
        u0 = ScalarField(g, np.exp(-g.radius2() / 4.0))
        with np.errstate(all="raise"):
            choquard_descent(u0, coulomb_potential(g), steps=2)
            caller = np.geterr()
        assert len(states) == 4 and all(state == caller for state in states)

    def test_choquard_report_samples_and_transforms_the_kernel_once(self, monkeypatch):
        # the main run and the restart share one Coulomb plan
        calls = {"sample_kernel": 0, "transforms": 0}
        sample, rfftn = choquard.sample_kernel, functionals._rfftn

        def counted_sample(*args):
            calls["sample_kernel"] += 1
            return sample(*args)

        def counted_rfftn(*args):
            calls["transforms"] += 1
            return rfftn(*args)

        monkeypatch.setattr(choquard, "sample_kernel", counted_sample)
        monkeypatch.setattr(functionals, "_rfftn", counted_rfftn)
        monkeypatch.setattr(experiments, "CHOQUARD_N", 8)
        monkeypatch.setattr(experiments, "CHOQUARD_STEPS", 10)
        report = experiments._choquard(0)
        assert report.experiment_id == "choquard-descent"
        assert calls == {"sample_kernel": 1, "transforms": 1}

    def test_choquard_rearrangement_lowers_energy(self):
        rng = np.random.default_rng(17)
        g = Grid((16, 16, 16), 12.0 / 16)
        vals = rng.random((16, 16, 16)) * (g.radius2() < 16.0)
        nrm = math.sqrt(float(np.sum(vals**2)) * g.cell_volume)
        u = ScalarField(g, vals / nrm)
        ustar = rearrange(u)
        assert self._choquard(ustar) <= self._choquard(u) + 1e-10

    def test_choquard_scaling_exponents(self):
        n = 48
        g = Grid((n, n, n), 12.0 / n)
        w = 1.6

        def trial(sigma):
            r2 = g.radius2()
            vals = sigma**1.5 * np.exp(-(sigma**2) * r2 / (2 * w * w))
            u = ScalarField(g, vals)
            kin = gradient_pnorm(u) ** 2
            usq = ScalarField(g, u.values**2)
            pot = riesz_energy(usq, 1.0)
            return kin, pot

        k1, p1 = trial(1.0)
        k2, p2 = trial(2.0)
        assert math.log2(k2 / k1) == pytest.approx(2.0, abs=0.04)
        assert math.log2(p2 / p1) == pytest.approx(1.0, abs=0.02)


class TestPointwiseDecay:
    @staticmethod
    def _excess(f, p):
        # max over cell centers x != 0 of f*(x) - omega_d^(-1/p) |x|^(-d/p) ||f||_p
        r2 = f.grid.radius2()
        mask = r2 > 0
        d = f.dim
        bound = unit_ball_volume(d) ** (-1.0 / p) * r2[mask] ** (-d / (2.0 * p)) * lp_norm(f, p)
        diff = rearrange(f).values[mask] - bound
        return float(diff.max()) if diff.size else 0.0

    def test_indicator_ball_within_bound(self):
        from symkit.rearrange import bathtub_fill

        g = Grid((32, 32), 0.25)
        rho = bathtub_fill(3.0, g)
        assert self._excess(rho, 2.0) <= 1e-12

    def test_zero_field(self):
        g = Grid((8,), 0.5)
        assert self._excess(ScalarField(g, np.zeros(8)), 1.0) == 0.0

    def test_random_fields_contract_under_refinement(self):
        def worst(n):
            g = Grid((n, n), 8.0 / n)
            rng = np.random.default_rng(77)
            vals = rng.random((n, n)) * (g.radius2() < 4.0)
            return self._excess(ScalarField(g, vals), 2.0)

        assert worst(32) <= 1e-12
        assert worst(64) <= 1e-12
