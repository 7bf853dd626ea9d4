import math

import numpy as np
import pytest

from symkit.experiments import HLS_BOX_HALF, HLS_LAMBDA, HLS_RUNGS
from symkit.field import Grid, ScalarField
from symkit.functionals import lp_norm, riesz_energy, unit_ball_volume
from symkit.rearrange import rearrange
from symkit.sharp import (
    _incomplete_beta,
    _pnorm_beyond,
    hls_constant,
    hls_exponent,
    hls_norm_tail,
    hls_optimizer,
    hls_quotient,
    young_constant,
    young_gaussian_triple,
    young_quotient,
)

P, Q, R = 2.0, 4 / 3, 4 / 3  # the Gaussian triple of refine-young-quotient-1d


def _paper_display_variant(s: float) -> float:
    # the alternative reading with s in both exponents; kept only to document
    # that the Gaussian oracle rejects it
    sp = s / (s - 1.0)
    return math.sqrt(s ** (1.0 / s) / s ** (1.0 / sp))


def _gaussian_quotient_by_quadrature(p, q, r, n=4096, L=12.0):
    """Independent fine-grid quadrature of the Gaussian triple quotient."""
    pp, qp, rp = (t / (t - 1) for t in (p, q, r))
    h = 2 * L / n
    x = (np.arange(n) - (n - 1) / 2) * h
    f = np.exp(-pp * x**2)
    hh = np.exp(-rp * x**2)
    total = 0.0
    for i in range(n):
        total += f[i] * float(np.sum(np.exp(-qp * (x[i] - x) ** 2) * hh))
    total *= h * h
    norm = lambda v, t: (np.sum(np.abs(v) ** t) * h) ** (1 / t)
    gv = np.exp(-qp * x**2)
    return total / (norm(f, p) * norm(gv, q) * norm(hh, r))


class TestUnitBall:
    def test_values(self):
        assert unit_ball_volume(1) == pytest.approx(2.0, rel=1e-14)
        assert unit_ball_volume(2) == pytest.approx(math.pi, rel=1e-14)
        assert unit_ball_volume(3) == pytest.approx(4 * math.pi / 3, rel=1e-14)


class TestYoungConstant:
    def test_endpoints(self):
        assert young_constant(1.0) == 1.0
        assert young_constant(math.inf) == 1.0

    def test_self_conjugate(self):
        assert young_constant(2.0) == pytest.approx(1.0, rel=1e-14)

    @pytest.mark.parametrize("pqr", [(1.5, 1.5, 3.0), (2.0, 4 / 3, 4.0)])
    def test_gaussian_quadrature_oracle_fixes_formula(self, pqr):
        # exponents given in convolution form (1/p + 1/q = 1 + 1/r); the
        # triple form replaces r by its conjugate
        p, q, rc = pqr
        r = rc / (rc - 1.0)
        assert abs(1 / p + 1 / q + 1 / r - 2.0) < 1e-12
        quad = _gaussian_quotient_by_quadrature(p, q, r)
        implemented = young_constant(p) * young_constant(q) * young_constant(r)
        assert quad == pytest.approx(implemented, rel=1e-8)
        alt = _paper_display_variant(p) * _paper_display_variant(q) * _paper_display_variant(r)
        if abs(alt - implemented) > 1e-12:  # the variants agree at s in {1, 2}
            assert abs(quad - alt) / alt > 0.05

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            young_constant(0.5)


class TestGaussianTriple:
    def test_exponent_identity_enforced(self):
        grid = Grid((128,), 16.0 / 128)
        with pytest.raises(ValueError, match="identity"):
            young_gaussian_triple(grid, 2.0, 2.0, 2.0)
        for p, q, r in ((1.0, 2.0, 2.0), (math.inf, 4 / 3, 4 / 3)):
            with pytest.raises(ValueError, match="strictly between 1 and inf"):
                young_gaussian_triple(grid, p, q, r)

    # the 2-d and 3-d spacings are not dyadic: there a sum of squared
    # coordinates rounds apart from Grid.radius2 (DECISIONS.md D21)
    @pytest.mark.parametrize(
        "shape, h",
        [((128,), 16.0 / 128), ((80, 80), 0.1), ((45, 45), 0.2), ((21, 21, 21), 0.45)],
        ids=["1d", "80x80", "45x45", "21x21x21"],
    )
    def test_centered_family_is_own_rearrangement(self, shape, h):
        for u in young_gaussian_triple(Grid(shape, h), P, Q, R):
            assert np.array_equal(rearrange(u).values, u.values)

    def test_box_too_small_rejected(self):
        grid = Grid((16,), 0.25)  # half-width 2: keeps ~erfc(2.8) of the mass out
        with pytest.raises(ValueError, match="tail mass"):
            young_gaussian_triple(grid, P, Q, R)

    def test_equality_family_quotient_near_one(self):
        grid = Grid((512,), 16.0 / 512)
        f, g, h = young_gaussian_triple(grid, P, Q, R)
        qv = young_quotient(f, g, h, P, Q, R)
        assert qv == pytest.approx(1.0, abs=1e-2)

    def test_quotient_validations(self):
        grid = Grid((128,), 16.0 / 128)
        f, g, h = young_gaussian_triple(grid, P, Q, R)
        with pytest.raises(ValueError, match="identity"):
            young_quotient(f, g, h, 2.0, 2.0, 2.0)
        zero = ScalarField(grid, np.zeros(grid.shape))
        with pytest.raises(ValueError, match="zero norm"):
            young_quotient(zero, g, h, P, Q, R)

    def test_single_cell_closed_form(self):
        # hand evaluation: with f, h single unit cells at the origin-adjacent
        # data cell and g the unit center displacement cell, the three-sum is
        # h^(2d) and each norm is h^(d/s), so the quotient is exactly
        # (C_p C_q C_r)^(-d).  Cell roughness is extremal here: the value
        # exceeds 1, which is why slack-tolerance suites use smooth fields.
        grid = Grid((9,), 0.5)
        from symkit.kernels import displacement_grid

        fv = np.zeros(9)
        fv[4] = 1.0
        f = ScalarField(grid, fv)
        gv = np.zeros(17)
        gv[8] = 1.0
        g = ScalarField(displacement_grid(grid), gv)
        q = young_quotient(f, g, f, P, Q, R)
        want = 1.0 / (young_constant(P) * young_constant(Q) * young_constant(R))
        assert q == pytest.approx(want, rel=1e-12)

    def test_quotient_homogeneity(self):
        grid = Grid((256,), 16.0 / 256)
        f, g, h = young_gaussian_triple(grid, P, Q, R)
        q1 = young_quotient(f, g, h, P, Q, R)
        q2 = young_quotient(ScalarField(grid, 3.5 * f.values), g, h, P, Q, R)
        assert q1 == pytest.approx(q2, rel=1e-12)


class TestHLSConstant:
    def test_reference_value(self):
        # closed form at lambda=1, d=3: 4^(5/3) / (3 pi^(1/3))
        want = 4.0 ** (5 / 3) / (3 * math.pi ** (1 / 3))
        assert hls_constant(1.0, 3) == pytest.approx(want, rel=1e-14)

    def test_exponent(self):
        assert hls_exponent(1.0, 3) == pytest.approx(6 / 5, rel=1e-14)

    def test_arbitrary_precision_oracle(self):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 50
        lam, d = mpmath.mpf(1), mpmath.mpf(3)
        ref = (
            mpmath.pi ** (lam / 2)
            * mpmath.gamma((d - lam) / 2)
            / mpmath.gamma(d - lam / 2)
            * (mpmath.gamma(d) / mpmath.gamma(d / 2)) ** (1 - lam / d)
        )
        assert abs(hls_constant(1.0, 3) - float(ref)) <= 1e-10

    def test_range_enforced(self):
        with pytest.raises(ValueError):
            hls_constant(0.0, 3)
        with pytest.raises(ValueError):
            hls_constant(3.0, 3)


class TestHLSOptimizer:
    # 8 times the Gaussian test's spacings, no more dyadic than those (D21)
    @pytest.mark.parametrize(
        "lam, shape, h",
        [(0.5, (128,), 64.0 / 128), (1.0, (80, 80), 0.8), (1.0, (45, 45), 1.6), (1.0, (21, 21, 21), 3.6)],
        ids=["1d", "80x80", "45x45", "21x21x21"],
    )
    def test_centered_is_own_rearrangement(self, lam, shape, h):
        f = hls_optimizer(lam, Grid(shape, h))
        assert np.array_equal(rearrange(f).values, f.values)

    def test_tail_corrected_norm_matches_whole_line(self):
        # at lam = 1/2, d = 1: p = 4/3 and f^p = 1 / (1 + x^2), whose integral is pi;
        # the box sum alone misses about 1% of it
        p = hls_exponent(0.5, 1)
        grid = Grid((2048,), 128.0 / 2048)
        f = hls_optimizer(0.5, grid)
        corrected = lp_norm(f, p) ** p + hls_norm_tail(grid)
        assert corrected == pytest.approx(math.pi, rel=1e-6)

    def test_tail_budget_enforced(self):
        grid = Grid((16,), 0.25)  # half-width 2 keeps about 0.295 of the L^p mass out
        with pytest.raises(ValueError, match="tail mass"):
            hls_optimizer(0.5, grid)

    def test_single_cell_quotient_below_constant(self):
        grid = Grid((17,), 0.5)
        v = np.zeros(17)
        v[8] = 1.0
        f = ScalarField(grid, v)
        q = hls_quotient(f, f, 0.5)
        assert 0 < q < hls_constant(0.5, 1)

    def test_quotient_is_1d_only(self):
        # the cell-averaged kernel has 1-d quadrature rules only
        f = ScalarField(Grid((9, 9), 0.5), np.ones((9, 9)))
        with pytest.raises(ValueError, match="cell-averaged kernels are 1-d, got a 2-d grid"):
            hls_quotient(f, f, 0.5)

    def test_quotient_invariances(self):
        grid = Grid((128,), 32.0 / 128)
        x = grid.axis_coords(0)
        f = ScalarField(grid, np.maximum(1 - ((x - 0.5) / 3) ** 2, 0) ** 2)
        h = ScalarField(grid, np.maximum(1 - ((x + 1.0) / 2.5) ** 2, 0) ** 2)
        q0 = hls_quotient(f, h, 0.5)
        q1 = hls_quotient(
            ScalarField(grid, 2.0 * f.values), ScalarField(grid, 0.3 * h.values), 0.5
        )
        assert q0 == pytest.approx(q1, rel=1e-12)
        shift = ScalarField(grid, np.roll(f.values, 2)), ScalarField(grid, np.roll(h.values, 2))
        q2 = hls_quotient(shift[0], shift[1], 0.5)
        assert q0 == pytest.approx(q2, rel=1e-10)

    def test_random_pairs_below_constant(self):
        rng = np.random.default_rng(21)
        grid = Grid((256,), 32.0 / 256)
        x = grid.axis_coords(0)
        bound = hls_constant(0.5, 1)
        for _ in range(10):
            c1, c2 = rng.uniform(-2, 2, size=2)
            w1, w2 = rng.uniform(1.0, 4.0, size=2)
            f = ScalarField(grid, rng.uniform(0.2, 1) * np.maximum(1 - ((x - c1) / w1) ** 2, 0) ** 2)
            h = ScalarField(grid, rng.uniform(0.2, 1) * np.maximum(1 - ((x - c2) / w2) ** 2, 0) ** 2)
            assert hls_quotient(f, h, 0.5) <= bound * (1 + 5e-3)


class TestIncompleteBeta:
    """The series branch (x <= 1/2) and the reflected branch (x > 1/2) against mpmath."""

    @pytest.mark.parametrize("p, q", [(0.5, 0.5), (1.0, 1.0), (1.5, 1.5), (1.0, 0.25), (0.25, 1.0), (2.5, 0.75)])
    def test_matches_mpmath(self, p, q):
        mpmath = pytest.importorskip("mpmath")
        assert _incomplete_beta(0.0, p, q) == 0.0
        for x in (1e-12, 1.08e-4, 0.1, 0.3, 0.5, 0.5 + 2**-40, 0.6, 0.9, 0.999, 1.0):
            with mpmath.workdps(40):
                ref = float(mpmath.betainc(p, q, 0, x))
            assert _incomplete_beta(x, p, q) == pytest.approx(ref, rel=1e-14, abs=0), x


class TestHLSTails:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("r0", [0.0, 0.5, 1.0, 96.0, 1e4])
    def test_pnorm_beyond_matches_mpmath_at_every_lambda(self, d, r0):
        # the integral of the optimizer profile to the power p, whatever lam
        mpmath = pytest.importorskip("mpmath")
        for lam in (0.25 * d, 0.5 * d, 0.9 * d):
            with mpmath.workdps(40):
                a, p = mpmath.mpf(2 * d - lam) / 2, mpmath.mpf(2 * d) / (2 * d - lam)
                ref = d * unit_ball_volume(d) * mpmath.quad(lambda r: r ** (d - 1) * (1 + r**2) ** (-a * p), [r0, mpmath.inf])
            assert _pnorm_beyond(d, r0) == pytest.approx(float(ref), rel=1e-14, abs=0), lam

    def test_bias_bounds_match_mpmath(self, default_seed_run):
        # refine-hls-quotient-1d: 2 * outer * mass_total / T_box per rung, where
        # mass_total integrates the profile over the line and outer the profile
        # times |x|^(-lam) beyond the box
        mpmath = pytest.importorskip("mpmath")
        [rep] = [r for r in default_seed_run("refine")[0] if r.experiment_id == "refine-hls-quotient-1d"]
        lam, box_half = HLS_LAMBDA, HLS_BOX_HALF
        with mpmath.workdps(40):
            prof = lambda r: (1 + r**2) ** (-(2 - mpmath.mpf(lam)) / 2)
            mass_total = 2 * mpmath.quad(prof, [0, mpmath.inf])
            outer = 2 * mpmath.quad(lambda r: prof(r) * r ** (-lam), [box_half, mpmath.inf])
        for n, bias in zip(HLS_RUNGS, rep.series["bias_bounds"], strict=True):
            t_box = riesz_energy(hls_optimizer(lam, Grid((n,), 2 * box_half / n)), lam)
            assert bias == pytest.approx(float(2 * outer * mass_total / t_box), rel=2e-15, abs=0), n
