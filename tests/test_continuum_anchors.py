"""Lattice quantities against the continuum values the paper states (DECISIONS.md D26).

* the Coulomb self-energy of a normalized Gaussian through
  ``coulomb_potential``, against sqrt(2a/pi), at second order in h;
* the lowest Dirichlet eigenvalue of ``unit_area_disk(1/n)`` against the
  Faber-Krahn disk's pi j01^2, to a relative error at first order in 1/n.

Each rule and its mutants are D26's.
"""

import math

import numpy as np
import pytest
from scipy.special import jn_zeros

from symkit.choquard import coulomb_potential
from symkit.experiments import unit_area_disk
from symkit.field import Grid
from symkit.spectral import dirichlet_lambda1

COULOMB_RUNGS = (1.0, 0.5, 0.25)


def _gaussian_self_energy_error(h: float, a: float = 0.25) -> float:
    """E_h / sqrt(2a/pi) - 1 for rho = (a/pi)^(3/2) exp(-a|x|^2) on [-8, 8]^3 at spacing h."""
    g = Grid((round(16 / h),) * 3, h)
    rho = (a / math.pi) ** 1.5 * np.exp(-a * g.radius2())
    energy = float(np.sum(rho * coulomb_potential(g)(rho))) * g.cell_volume
    return energy / math.sqrt(2 * a / math.pi) - 1.0


def test_coulomb_self_energy_converges_at_second_order():
    errors = [_gaussian_self_energy_error(h) for h in COULOMB_RUNGS]
    for h, e in zip(COULOMB_RUNGS, errors):
        assert abs(e) <= 0.0125 * h**2, (h, e)
    # an observed order in [1.81, 2.17]
    for coarse, fine in zip(errors, errors[1:]):
        assert 3.5 <= coarse / fine <= 4.5, errors


@pytest.mark.parametrize("n", [16, 32, 64, 128])
def test_faber_krahn_disk_converges_at_first_order(n):
    # the staircase boundary's constant fluctuates with n, so only its size is bounded
    disk = math.pi * jn_zeros(0, 1)[0] ** 2
    assert n * abs(dirichlet_lambda1(unit_area_disk(1.0 / n)) / disk - 1.0) <= 2.0
