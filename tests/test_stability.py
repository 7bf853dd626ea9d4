import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.signal import correlate

from symkit.field import Grid, GridSet, ScalarField
from symkit.functionals import fractional_perimeter, riesz_energy, riesz_triple
from symkit.kernels import BallIndicator, displacement_grid, sample_kernel
from symkit.random_fields import plateau_field, radial_bump_field, rng_for, sample_bumps
from symkit.rearrange import bathtub_fill, cell_order, set_symmetrize
from symkit.stability import (
    _l1_at_shift,
    asymmetry,
    asymmetry_bruteforce,
    ball_kernel_deficit,
    continuity_probe,
    layered_riesz_reconstruction,
    pair_correlation_curve,
)


class TestAsymmetry:
    def test_bathtub_ball_is_zero(self):
        g = Grid((20, 20), 0.25)
        rho = bathtub_fill(2.0, g)
        assert asymmetry(rho) == 0.0

    def test_shifted_ball_is_zero(self):
        g = Grid((20, 20), 0.25)
        rho = bathtub_fill(2.0, g)
        shifted = ScalarField(g, np.roll(np.roll(rho.values, 2, axis=0), -1, axis=1))
        assert asymmetry(shifted) == 0.0

    def test_half_density_double_ball(self):
        g = Grid((24, 24), 0.25)
        mass = 2.0
        big = bathtub_fill(2 * mass, g)
        rho = ScalarField(g, 0.5 * (big.values == 1.0))
        # exact when the doubled support is a whole-cell set
        assert rho.integral() == pytest.approx(mass, rel=1e-12)
        a = asymmetry(rho)
        assert a == pytest.approx(0.5, abs=1e-12)
        assert asymmetry_bruteforce(rho) == a

    def test_translation_invariance_exact(self):
        g = Grid((20, 20), 0.25)
        rng = rng_for(5, 1)
        sample = sample_bumps(rng, 2, 2.5, 5, 0.5)
        vals = np.clip(np.abs(sample(g)), 0, 1)
        rho = ScalarField(g, vals)
        shifted = ScalarField(g, np.roll(vals, 3, axis=1))
        assert asymmetry(rho) == asymmetry(shifted)

    def test_positive_for_asymmetric(self):
        g = Grid((16, 16), 0.25)
        vals = np.zeros((16, 16))
        vals[2:5, 2:5] = 1.0
        vals[10:14, 10:14] = 1.0
        assert asymmetry(ScalarField(g, vals)) > 0.05

    def test_cell_splitting_covariance_1d(self):
        # exact when the mass is a whole-cell multiple (no fractional bathtub
        # cell) and d = 1, where lattice balls split identically
        g = Grid((16,), 0.5)
        rng = rng_for(9, 2)
        vals = (np.abs(sample_bumps(rng, 1, 3.0, 4, 0.6)(g)) > 0.2).astype(float)
        rho = ScalarField(g, vals)
        fine = ScalarField(Grid((32,), 0.25), np.repeat(vals, 2))
        assert asymmetry(rho) == pytest.approx(asymmetry(fine), abs=1e-14)

    def test_search_matches_bruteforce(self):
        g = Grid((18, 18), 0.25)
        for case in range(12):
            rng = rng_for(31, case)
            vals = np.clip(np.abs(sample_bumps(rng, 2, 2.0, 5, 0.7)(g)), 0, 1)
            rho = ScalarField(g, vals)
            if rho.integral() == 0:
                continue
            assert asymmetry(rho) == asymmetry_bruteforce(rho)

    def test_bruteforce_exhaustive_beyond_20000_candidates(self):
        # Nearly constant 1-d density: a faint ramp falling to the right plus
        # one heavy last cell.  About 20,900 shifts score within the
        # fractional-cell bound of the best, and the minimizer is the shift
        # that puts the fractional bathtub cell on the heavy cell, which ranks
        # lowest by score: keeping only the best-scoring 20,000 misses it,
        # and so does re-evaluating only the best-scoring shift.
        n = 22000
        vals = 0.05 + 2e-4 * np.arange(n)[::-1] / n
        vals[-1] = 0.9
        vals[:-1] += (math.floor(vals.sum()) + 0.95 - vals.sum()) / (n - 1)
        rho = ScalarField(Grid((n,), 1.0), vals)
        chi = bathtub_fill(rho.integral(), rho.grid).values
        frac = float(chi[(chi > 0) & (chi < 1)].sum())
        scores = correlate(vals, (chi == 1.0).astype(float), mode="full")
        assert np.count_nonzero(scores >= scores.max() - frac) > 20000

        totals = (vals.sum(), chi.sum())
        best = math.inf
        for s in range(-(n - 1), n):
            best = min(best, _l1_at_shift(vals, chi, (s,), totals))
        assert asymmetry(rho) == best * rho.grid.cell_volume / (2.0 * rho.integral())

    @staticmethod
    def _random_density(data) -> ScalarField:
        d = data.draw(st.integers(1, 3), label="d")
        shape = data.draw(st.tuples(*[st.integers(1, (10, 5, 3)[d - 1])] * d), label="shape")
        unit = st.floats(0.0, 1.0, allow_subnormal=False)
        vals = data.draw(arrays(np.float64, shape, elements=unit), label="vals")
        assume(vals.sum() > 0)
        return ScalarField(Grid(shape, 0.5), vals)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_search_equals_bruteforce_on_random_densities(self, data):
        rho = self._random_density(data)
        assert asymmetry(rho) == asymmetry_bruteforce(rho)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_bruteforce_equals_loop_over_every_shift(self, data):
        # the oracle skips shifts under which the support boxes do not meet;
        # the plain minimum over all (2n - 1)^d shifts must agree exactly
        rho = self._random_density(data)
        vals, shape = rho.values, rho.grid.shape
        chi = bathtub_fill(rho.integral(), rho.grid).values
        shifts = itertools.product(*[range(-(n - 1), n) for n in shape])
        totals = (vals.sum(), chi.sum())
        best = min(_l1_at_shift(vals, chi, s, totals) for s in shifts)
        assert asymmetry_bruteforce(rho) == best * rho.grid.cell_volume / (2.0 * rho.integral())

    def test_tiny_one_cell_density_is_its_own_profile(self):
        rho = ScalarField(Grid((1,), 0.5), np.array([7.2e-125]))
        assert asymmetry(rho) == asymmetry_bruteforce(rho) == 0.0

    def test_validation(self):
        g = Grid((6,), 0.5)
        with pytest.raises(ValueError, match="zero mass"):
            asymmetry(ScalarField(g, np.zeros(6)))
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            asymmetry(ScalarField(g, np.full(6, 2.0)))


class TestBallKernelDeficit:
    def test_equality_case(self):
        g = Grid((32, 32), 0.125)
        rho = bathtub_fill(1.5, g)
        rep = ball_kernel_deficit(rho, radius=0.5)
        assert rep.deficit == 0.0
        assert rep.asym == 0.0

    def test_split_mass_positive_deficit(self):
        g = Grid((32, 32), 0.125)
        vals = np.zeros((32, 32))
        vals[4:10, 4:10] = 1.0
        vals[22:28, 22:28] = 1.0
        rep = ball_kernel_deficit(ScalarField(g, vals), radius=0.4)
        assert rep.deficit > 0
        assert rep.ratio > 0

    def test_perturbation_family_ratio_bounded_below(self):
        from symkit.experiments import two_ball_density

        g = Grid((64, 64), 4.0 / 64)
        mass = 1.2
        radius = math.sqrt(mass / math.pi)
        ratios = []
        for eps in (0.05, 0.1, 0.2):
            rho = two_ball_density(g, mass, eps)
            rep = ball_kernel_deficit(rho, radius)
            assert rep.deficit > 0
            assert rep.asym == pytest.approx(eps, rel=0.35)
            ratios.append(rep.ratio)
        assert min(ratios) > 0.5

    def test_small_ball_without_room_raises(self):
        from symkit.experiments import two_ball_density

        # the small ball needs 33 cells; only 32 lie outside the core
        with pytest.raises(ValueError, match="needs 33 free cells, the grid has 32"):
            two_ball_density(Grid((8, 8), 0.25), 3.99, 0.51)


def _riesz_deficit(rho):
    return riesz_energy(bathtub_fill(rho.integral(), rho.grid), 0.5) - riesz_energy(rho, 0.5)


class TestRieszDeficit:
    def test_equality_case(self):
        g = Grid((24, 24), 0.25)
        assert _riesz_deficit(bathtub_fill(1.2, g)) == 0.0

    def test_two_ball_positive(self):
        from symkit.experiments import two_ball_density

        g = Grid((48, 48), 4.0 / 48)
        assert _riesz_deficit(two_ball_density(g, 1.2, 0.15)) > 0


def _fractional_isoperimetric_deficit(A):
    return fractional_perimeter(A, 0.5) - fractional_perimeter(set_symmetrize(A), 0.5)


class TestFractionalIsoperimetricDeficit:
    def test_prefix_zero(self):
        g = Grid((16, 16), 0.25)
        m = np.zeros(g.ncells, bool)
        m[cell_order(g.shape)[:40]] = True
        assert _fractional_isoperimetric_deficit(GridSet(g, m.reshape(g.shape))) == 0.0

    def test_elongated_positive(self):
        g = Grid((24, 24), 0.25)
        m = np.zeros((24, 24), bool)
        m[10:12, 2:22] = True
        assert _fractional_isoperimetric_deficit(GridSet(g, m)) > 0


class TestContinuityProbe:
    def test_smooth_w12_decays(self):
        g = Grid((48, 48), 4.0 / 48)
        u = radial_bump_field(g, radius=1.2)
        res = continuity_probe(u, "smooth", space="w1p")
        assert res.distances[-1] <= 0.2 * res.distances[0]
        assert res.input_distances[-1] <= 0.2 * res.input_distances[0]

    def test_fractional_space_decays_for_plateau(self):
        g = Grid((48, 48), 4.0 / 48)
        u = plateau_field(g, 0.7, 1.4)
        res = continuity_probe(u, "plateau", space="wsp")
        assert res.distances[-1] <= 0.2 * res.distances[0]

    def test_plateau_w12_decays_at_amplitude_rate(self):
        # the discrete map is Lipschitz on a fixed grid, so no honest
        # perturbation family can hold the rearranged distance up; this pins
        # the measured behavior the acceptance criterion asks to exceed
        g = Grid((48, 48), 4.0 / 48)
        u = plateau_field(g, 0.7, 1.4)
        res = continuity_probe(u, "plateau", space="w1p")
        assert res.distances[-1] <= 0.2 * res.distances[0]

    def test_wsp_distances_match_direct_route(self, monkeypatch, seminorm_direct):
        # the default probe fields of `probe-continuity`; the probes take the
        # fft route at p = 2 and the direct loop is the oracle
        import symkit.stability as stab

        g = Grid((64, 64), 4.0 / 64)
        fields = {"smooth": radial_bump_field(g, radius=1.2), "plateau": plateau_field(g, 0.7, 1.4)}
        fast = {kind: continuity_probe(u, kind, space="wsp") for kind, u in fields.items()}
        direct_calls = []

        def direct(u):
            direct_calls.append(1)
            return seminorm_direct(u, 0.5, 2.0)

        monkeypatch.setattr(stab, "fractional_seminorm", lambda grid: direct)
        for kind, u in fields.items():
            slow = continuity_probe(u, kind, space="wsp")
            got = fast[kind].distances + fast[kind].input_distances
            want = slow.distances + slow.input_distances
            assert all(type(x) is float and x > 0.0 for x in got)
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)
        assert len(direct_calls) == 2 * 16

    def test_wsp_probe_samples_and_transforms_the_kernel_once(self, monkeypatch):
        # the probe's 16 seminorms share one convolution plan
        import symkit.functionals as functionals

        calls = {"sample_kernel": 0, "transforms": 0}
        sample, rfftn = functionals.sample_kernel, functionals._rfftn

        def counted_sample(*args):
            calls["sample_kernel"] += 1
            return sample(*args)

        def counted_rfftn(*args):
            calls["transforms"] += 1
            return rfftn(*args)

        monkeypatch.setattr(functionals, "sample_kernel", counted_sample)
        monkeypatch.setattr(functionals, "_rfftn", counted_rfftn)
        res = continuity_probe(plateau_field(Grid((16, 16), 0.25), 0.7, 1.4), "plateau", space="wsp")
        assert len(res.distances) == 8
        assert calls == {"sample_kernel": 1, "transforms": 1}

    def test_input_validation(self):
        g = Grid((16, 16), 0.25)
        u = radial_bump_field(g, 1.0)
        with pytest.raises(ValueError):
            continuity_probe(u, "wiggly")
        with pytest.raises(ValueError):
            continuity_probe(u, "smooth", space="l2")

    @pytest.mark.parametrize("kind", ["smooth", "plateau"])
    def test_field_without_positive_value_raises(self, kind):
        # all-zero distances would otherwise read as a decay pass
        u = ScalarField(Grid((16, 16), 0.25), np.zeros((16, 16)))
        with pytest.raises(ValueError, match="positive value"):
            continuity_probe(u, kind)


class TestLayeredDecomposition:
    def test_pair_curve_matches_ball_triple(self):
        g = Grid((20, 20), 0.25)
        rng = rng_for(13, 0)
        rho = ScalarField(g, np.clip(np.abs(sample_bumps(rng, 2, 2.0, 4, 0.6)(g)), 0, 1))
        dists, cum = pair_correlation_curve(rho)
        for radius in (0.3, 0.8, 1.7):
            kern = sample_kernel(BallIndicator(radius), displacement_grid(g))
            direct = riesz_triple(rho, kern, rho)
            idx = np.searchsorted(dists, radius, side="right") - 1
            assert cum[idx] == pytest.approx(direct, rel=1e-10)

    def test_reconstruction_within_one_percent(self):
        g = Grid((32, 32), 4.0 / 32)
        rng = rng_for(13, 1)
        rho = ScalarField(g, np.clip(np.abs(sample_bumps(rng, 2, 2.0, 4, 0.6)(g)), 0, 1))
        direct = riesz_energy(rho, 0.5)
        recon = layered_riesz_reconstruction(rho, 0.5)
        assert recon == pytest.approx(direct, rel=0.01)
