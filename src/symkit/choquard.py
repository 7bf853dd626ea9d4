"""Projected gradient descent for the Choquard (Pekar) ground state in 3-d.

Minimizes E[u] = ||grad u||_2^2 - iint |u(x)|^2 |u(y)|^2 / |x-y| on the
L^2 sphere ||u||_2 = 1 by plain gradient steps with renormalization,
rearranging the iterate every few steps.  Symmetrization can only help the
continuum energy, and the trajectory audit records the energy right before
and after every rearrangement so the claim is checkable from the result.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field as dc_field

import numpy as np

from .field import Grid, ScalarField
from .functionals import (
    _forward_diffs,
    _gradient_pnorm_of,
    _kinetic_gradient_of,
    convolution_plan,
    pairing,
)
from .kernels import PowerLaw, displacement_grid, sample_kernel
from .rearrange import rearrange

# Step size of the polishing phase: small enough that one sort costs far less
# than the 1e-3 sort-cost slack of the choquard report (DECISIONS.md D9).
_POLISH_STEP_SIZE = 1e-5
# Steps between rearrangements of the iterate.  Each one costs an extra energy
# evaluation, so this fixes the audit length and the convolution count
# (DECISIONS.md D9).
_REARRANGE_EVERY = 5


@dataclass
class DescentResult:
    energies: list[float] = dc_field(default_factory=list)
    rearrange_audit: list[tuple[int, float, float]] = dc_field(default_factory=list)
    final: ScalarField | None = None
    diverged: bool = False


def _l2_normalize(values: np.ndarray, vol: float) -> np.ndarray | None:
    """values / ||values||_2, or None when the norm is not finite."""
    nrm = math.sqrt(float(np.sum(values * values)) * vol)
    if nrm == 0:
        raise ValueError("cannot normalize the zero field")
    return values / nrm if math.isfinite(nrm) else None


def coulomb_potential(grid: Grid) -> Callable[[ScalarField], ScalarField]:
    """Convolution plan of the Coulomb kernel |z|^-1 for fields on ``grid``.

    The kernel is sampled on the full displacement grid and dropped once it
    is transformed; the plan keeps only its spectrum.
    """
    return convolution_plan(sample_kernel(PowerLaw(1.0), displacement_grid(grid)), grid.shape)


def choquard_descent(
    u0: ScalarField,
    potential: Callable[[ScalarField], ScalarField],
    steps: int = 200,
    step_size: float = 0.02,
    polish_steps: int = 0,
) -> DescentResult:
    """Run the projected descent; the returned iterate ends on a rearrangement.

    ``potential`` is ``coulomb_potential(u0.grid)``; a caller that runs
    several descents on one grid passes the same plan to each.  The audit
    list holds (step, energy before, energy after) for every
    rearrangement, and ``energies`` the post-step energies.  Divergence
    (a non-finite step, norm or energy) aborts with ``diverged`` set; after
    a non-finite step or norm ``final`` is the last finite iterate.

    The energy of the *rearranged* iterates decreases along the run (the
    discrete version of passing to a symmetric minimizing sequence).  An
    individual sort can cost a little energy at coarse resolution, because
    the unconstrained lattice minimizer sits slightly off the symmetric
    decreasing cone; the cost is first order in the step size (about
    0.03 * step at 32^3), which is why a short polishing phase with a tiny
    step (``_POLISH_STEP_SIZE``) follows the main phase when ``polish_steps``
    is set.
    """
    if u0.dim != 3:
        raise ValueError("the Choquard descent runs on 3-d grids")
    grid = u0.grid
    vol = grid.cell_volume

    def energy_and_potential(vals: np.ndarray):
        # the forward differences serve the energy and, for the iterate that
        # steps next, its kinetic gradient
        usq = ScalarField(grid, vals * vals)
        phi = potential(usq)
        diffs = _forward_diffs(ScalarField(grid, vals))
        kin = _gradient_pnorm_of(diffs, 2.0, vol) ** 2
        pot = pairing(usq, phi)
        return kin - pot, phi, diffs

    result = DescentResult()
    u = _l2_normalize(np.abs(u0.values), vol)
    if u is None:
        raise ValueError("the L^2 norm of u0 overflows")
    energy, phi, diffs = energy_and_potential(u)
    result.energies.append(energy)
    total = steps + polish_steps
    for step in range(1, total + 1):
        tau = step_size if step <= steps else _POLISH_STEP_SIZE
        grad = _kinetic_gradient_of(diffs, grid.h) - 4.0 * u * phi.values
        del diffs  # freed before the next energy evaluation makes its own
        stepped = _l2_normalize(u - tau * grad, vol)
        if stepped is None:
            result.diverged = True
            break
        u = stepped
        do_rearrange = step % _REARRANGE_EVERY == 0 or step == total
        if do_rearrange:
            before, _, _ = energy_and_potential(u)
            u = rearrange(ScalarField(grid, u)).values
            u = _l2_normalize(u, vol)
            energy, phi, diffs = energy_and_potential(u)
            result.rearrange_audit.append((step, before, energy))
        else:
            energy, phi, diffs = energy_and_potential(u)
        result.energies.append(energy)
        if not math.isfinite(energy):
            result.diverged = True
            break
    result.final = ScalarField(grid, u)
    return result
