import math

import numpy as np
import pytest

from symkit import (
    Grid,
    GridSet,
    ScalarField,
    dirichlet_eigenvalues,
    dirichlet_spectrum,
    heat_perimeter_estimate,
    increasing_rearrangement,
)
from symkit.spectral import DENSE_CELL_CAP


def _interval(n, h):
    g = Grid((n,), h)
    return GridSet(g, np.ones(n, bool))


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

    def test_guards(self):
        g = Grid((4,), 0.5)
        with pytest.raises(ValueError, match="empty"):
            dirichlet_spectrum(GridSet(g, np.zeros(4, bool)), None, 1)
        with pytest.raises(ValueError, match="k must be"):
            dirichlet_spectrum(_interval(4, 0.5), None, 9)
        big = 72
        with pytest.raises(ValueError, match="dense cap"):
            dirichlet_spectrum(
                GridSet(Grid((big, big), 0.1), np.ones((big, big), bool)), None, 1
            )
        assert big * big > DENSE_CELL_CAP


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
