"""Dirichlet spectra and the heat-trace perimeter fit.

The two fast routes are checked against a dense ``eigvalsh`` of an operator
assembled cell by cell in this file, independently of ``spectral``:

* shift-invert ``dirichlet_spectrum`` on small random 1-d and 2-d masks,
  V of either sign or none, to ``SPARSE_RTOL`` per eigenvalue, measured from
  the shift min(0, min V) (where V >= 0 or none, from 0);
* the closed-form full spectrum of 1-, 2- and 3-d boxes, to ``BOX_RTOL`` per
  eigenvalue (1.4e-12 was the largest seen on the 64 x 64 square);
* the capped dense route of ``dirichlet_eigenvalues`` on random masks.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import symkit.spectral as spectral
from symkit.field import Grid, GridSet, ScalarField
from symkit.rearrange import increasing_rearrangement
from symkit.spectral import (
    DENSE_CELL_CAP,
    dirichlet_eigenvalues,
    dirichlet_spectrum,
    heat_perimeter_estimate,
)

SPARSE_RTOL = 1e-10
BOX_RTOL = 1e-12


def _interval(n, h):
    g = Grid((n,), h)
    return GridSet(g, np.ones(n, bool))


def _dense_oracle(omega, V):
    """Full spectrum of -Delta_h + V on the cells of omega, assembled cell by cell."""
    g = omega.grid
    cells = [tuple(c) for c in np.argwhere(omega.mask)]
    index = {c: i for i, c in enumerate(cells)}
    A = np.zeros((len(cells), len(cells)))
    for i, c in enumerate(cells):
        A[i, i] = 2 * g.dim / g.h**2 + (0.0 if V is None else V.values[c])
        for ax in range(g.dim):
            for step in (-1, 1):
                nb = c[:ax] + (c[ax] + step,) + c[ax + 1 :]
                if nb in index:
                    A[i, index[nb]] = -1 / g.h**2
    return np.linalg.eigvalsh(A)


@st.composite
def _masked_domains(draw):
    """A small random mask (1-d or 2-d) with at least two cells, and V in [-3, 3] or None."""
    d = draw(st.integers(1, 2))
    shape = (draw(st.integers(2, (30, 8)[d - 1])),) + (draw(st.integers(1, 8)),) * (d - 1)
    h = draw(st.sampled_from([0.05, 0.25, 1.0]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    mask = rng.random(shape) < draw(st.floats(0.2, 1.0))
    if mask.sum() < 2:
        mask.flat[:2] = True
    grid = Grid(shape, h)
    V = draw(st.sampled_from([None, ScalarField(grid, rng.uniform(-3.0, 3.0, shape))]))
    return GridSet(grid, mask), V


class TestDirichletSpectrum:
    def test_interval_matches_path_graph_formula(self):
        # exact eigenvalues of the stencil on n cells: (2/h^2)(1 - cos(m pi/(n+1)))
        n, h = 40, 1.0 / 40
        got = dirichlet_spectrum(_interval(n, h), None, 5)
        want = (2.0 / h**2) * (1 - np.cos(np.pi * np.arange(1, 6) / (n + 1)))
        assert np.allclose(got, want, rtol=1e-10)

    def test_interval_approaches_continuum(self):
        n, h = 128, 1.0 / 128
        lam1 = dirichlet_spectrum(_interval(n, h), None, 1)[0]
        assert lam1 == pytest.approx(math.pi**2, rel=0.03)

    def test_single_cell(self):
        g = Grid((5, 5), 0.5)
        m = np.zeros((5, 5), bool)
        m[2, 2] = True
        V = ScalarField(g, np.full((5, 5), 1.75))
        got = dirichlet_spectrum(GridSet(g, m), V, 1)[0]
        assert got == pytest.approx(2 * 2 / 0.25 + 1.75, rel=1e-13)

    def test_faber_krahn_smoke(self):
        h = 1.0 / 32
        n = 32
        square = GridSet(Grid((n, n), h), np.ones((n, n), bool))
        lam_sq = dirichlet_spectrum(square, None, 1)[0]
        radius = 1.0 / math.sqrt(math.pi)
        m = 44
        dg = Grid((m, m), h)
        disk = GridSet(dg, dg.radius2() < radius**2)
        lam_disk = dirichlet_spectrum(disk, None, 1)[0]
        assert lam_sq > lam_disk

    def test_j0_first_zero(self):
        from scipy.optimize import brentq
        from scipy.special import j0, jn_zeros

        from symkit.experiments import J0_FIRST_ZERO

        assert J0_FIRST_ZERO == brentq(j0, 2.0, 3.0, xtol=1e-14)
        ref = float(jn_zeros(0, 1)[0])
        assert abs(J0_FIRST_ZERO - ref) <= 2 * np.spacing(ref)

    def test_guards(self):
        g = Grid((4,), 0.5)
        with pytest.raises(ValueError, match="empty"):
            dirichlet_spectrum(GridSet(g, np.zeros(4, bool)), None, 1)
        with pytest.raises(ValueError, match="k must be"):
            dirichlet_spectrum(_interval(4, 0.5), None, 9)
        big = 72
        holed = np.ones((big, big), bool)
        holed[big // 2, big // 2] = False
        assert holed.sum() > DENSE_CELL_CAP
        with pytest.raises(ValueError, match="dense cap"):
            dirichlet_eigenvalues(GridSet(Grid((big, big), 0.1), holed), None)

    def test_box_beyond_dense_cap_matches_closed_form(self):
        # the sparse route has no cell cap: 72^2 = 5,184 cells
        box = GridSet(Grid((72, 72), 0.1), np.ones((72, 72), bool))
        assert box.count() > DENSE_CELL_CAP
        got = dirichlet_spectrum(box, None, 5)
        want = dirichlet_eigenvalues(box, None)[:5]
        np.testing.assert_allclose(got, want, rtol=SPARSE_RTOL)

    @settings(max_examples=150, deadline=None)
    @given(_masked_domains(), st.integers(1, 6))
    def test_sparse_matches_dense(self, case, k):
        omega, V = case
        k = min(k, omega.count() - 1)
        got = dirichlet_spectrum(omega, V, k)
        # relative to the shift, below which the whole spectrum lies
        shift = 0.0 if V is None else min(0.0, V.values[omega.mask].min())
        want = _dense_oracle(omega, V)[:k]
        np.testing.assert_allclose(got - shift, want - shift, rtol=SPARSE_RTOL)

    def test_repeated_eigenvalues_of_translated_components(self):
        # pieces of equal length repeat eigenvalues; an all-ones Lanczos start
        # vector keeps equal pieces bitwise equal and misses copies here
        mask = np.array(
            [1, 1, 1, 0, 1, 1, 1, 0, 1, 1, 1, 1, 0, 1, 1, 1, 0, 1, 0]
            + [1, 1, 1, 1, 1, 1, 1, 1, 0, 1, 1],
            bool,
        )
        omega = GridSet(Grid((mask.size,), 0.25), mask)
        got = dirichlet_spectrum(omega, None, 6)
        np.testing.assert_allclose(got, _dense_oracle(omega, None)[:6], rtol=SPARSE_RTOL)

    def test_full_count_delegates_to_full_spectrum(self, monkeypatch):
        def no_lanczos(*args, **kwargs):
            raise AssertionError("eigsh called for k == N")

        monkeypatch.setattr(spectral, "eigsh", no_lanczos)
        rng = np.random.default_rng(3)
        g = Grid((5, 4), 0.5)
        mask = rng.random((5, 4)) < 0.7
        V = ScalarField(g, rng.random((5, 4)))
        for omega, pot in ((GridSet(g, mask), V), (GridSet(g, np.ones((5, 4), bool)), None)):
            n = omega.count()
            assert np.array_equal(dirichlet_spectrum(omega, pot, n), dirichlet_eigenvalues(omega, pot))

    def test_negative_potential_gives_lowest_eigenvalues(self):
        # two cells at h = 1: V = -2.5 gives [[-0.5, -1], [-1, -0.5]] with
        # eigenvalues -1.5 and 0.5, so the one nearest 0 is not the lowest;
        # V = -1 gives the singular [[1, -1], [-1, 1]] with eigenvalues 0 and 2
        omega = _interval(2, 1.0)
        for v, lowest in ((-2.5, -1.5), (-1.0, 0.0)):
            got = dirichlet_spectrum(omega, ScalarField(omega.grid, np.full(2, v)), 1)
            assert got[0] == pytest.approx(lowest, abs=1e-12)


class TestFullSpectrum:
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_box_closed_form_matches_dense(self, data):
        d = data.draw(st.integers(1, 3))
        shape = tuple(data.draw(st.integers(1, (40, 14, 6)[d - 1])) for _ in range(d))
        h = data.draw(st.sampled_from([1.0 / 64, 0.1, 0.5, 1.0]))
        box = GridSet(Grid(shape, h), np.ones(shape, bool))
        np.testing.assert_allclose(dirichlet_eigenvalues(box, None), _dense_oracle(box, None), rtol=BOX_RTOL)

    @settings(max_examples=60, deadline=None)
    @given(_masked_domains())
    def test_dense_route_matches_oracle(self, case):
        omega, V = case
        np.testing.assert_allclose(dirichlet_eigenvalues(omega, V), _dense_oracle(omega, V), rtol=SPARSE_RTOL)


class TestHeatTrace:
    def test_single_cell(self):
        g = Grid((5,), 0.5)
        m = np.zeros(5, bool)
        m[2] = True
        t = 0.01
        got = float(np.exp(-t * dirichlet_eigenvalues(GridSet(g, m), None)).sum())
        assert got == pytest.approx(math.exp(-t * 2 / 0.25), rel=1e-13)

    def test_long_time_log_slope_matches_lambda1(self):
        dom = _interval(64, 1.0 / 64)
        ev = dirichlet_eigenvalues(dom, None)
        lam1 = ev[0]
        t1, t2 = 0.6, 0.8
        slope = (math.log(np.exp(-t2 * ev).sum()) - math.log(np.exp(-t1 * ev).sum())) / (t2 - t1)
        assert -slope == pytest.approx(lam1, rel=0.01)

    def test_rearrangement_direction_small_domain(self):
        rng = np.random.default_rng(6)
        g = Grid((24, 24), 4.0 / 24)
        mask = g.radius2() < 1.2**2
        mask &= rng.random((24, 24)) > 0.15  # pock-marked disk
        omega = GridSet(g, mask)
        V = ScalarField(g, np.abs(rng.normal(size=(24, 24))))
        vstar, ostar = increasing_rearrangement(V, omega)
        ev = dirichlet_eigenvalues(omega, V)
        ev_star = dirichlet_eigenvalues(ostar, vstar)
        for t in (0.05, 0.2):
            assert np.exp(-t * ev).sum() <= np.exp(-t * ev_star).sum() + 5e-3


class TestHeatPerimeter:
    def test_disk_estimate(self):
        h = 1.0 / 24
        radius = 1.0
        m = 54
        g = Grid((m, m), h)
        disk = GridSet(g, g.radius2() < radius**2)
        ev = dirichlet_eigenvalues(disk, None)
        t_list = np.geomspace(100 * h * h, 900 * h * h, 8)
        est = heat_perimeter_estimate(disk, t_list, eigenvalues=ev)
        assert est == pytest.approx(2 * math.pi * radius, rel=0.10)

    def test_degenerate_fit_rejected(self):
        dom = _interval(8, 0.5)
        with pytest.raises(ValueError):
            heat_perimeter_estimate(dom, [0.1], dirichlet_eigenvalues(dom, None))
