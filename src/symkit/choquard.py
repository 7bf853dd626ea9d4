"""Projected gradient descent for the Choquard (Pekar) ground state in 3-d.

Minimizes E[u] = ||grad u||_2^2 - iint |u(x)|^2 |u(y)|^2 / |x-y| on the
L^2 sphere ||u||_2 = 1 by plain gradient steps with renormalization,
rearranging the iterate every few steps.  Symmetrization can only help the
continuum energy, and the trajectory audit records the energy right before
and after every rearrangement so the claim is checkable from the result.

Each energy evaluation runs the iterate's stencils (forward differences,
||grad u||^2 and the kinetic gradient) on one helper thread while the
calling thread starts the convolution, and the helper then takes half of
each of the plan's later stages; numpy releases the GIL in both, so on two
cores they overlap.  The helper runs private helpers and plan stages only,
and every value is the one a single thread computes, bit for bit
(DECISIONS.md D20).
"""

from __future__ import annotations

import contextvars
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
    rearrange_audit: list[tuple[float, float]] = dc_field(default_factory=list)
    final: ScalarField | None = None
    diverged: bool = False


def _l2_normalize(values: np.ndarray, vol: float) -> np.ndarray | None:
    """values / ||values||_2, or None when the norm is not finite."""
    nrm = math.sqrt(float(np.sum(values * values)) * vol)
    if nrm == 0:
        raise ValueError("cannot normalize the zero field")
    return values / nrm if math.isfinite(nrm) else None


def _kinetic(values: np.ndarray, grid: Grid) -> tuple[float, None]:
    """||grad u||_2^2 of u's values, from one set of forward differences, and no gradient.

    Runs on the descent's helper thread, so it calls private helpers only
    (DECISIONS.md D20).
    """
    return _gradient_pnorm_of(_forward_diffs(values, grid.h), grid.cell_volume) ** 2, None


def _stencils(values: np.ndarray, grid: Grid) -> tuple[float, np.ndarray]:
    """||grad u||_2^2 and its gradient in u, from one set of forward differences of u's values.

    Runs on the descent's helper thread, as ``_kinetic`` does.
    """
    diffs = _forward_diffs(values, grid.h)
    return _gradient_pnorm_of(diffs, grid.cell_volume) ** 2, _kinetic_gradient_of(diffs, grid.h)


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

    ``potential`` is ``coulomb_potential(u0.grid)``, called as
    ``potential(u², helper=ex)``; a caller that runs several descents on
    one grid passes the same plan to each.  The audit
    list holds (energy before, energy after) for every
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

    The run owns one helper thread, created on entry and joined before it
    returns or raises.  Each energy evaluation hands the iterate's stencils
    to it (the pre-sort energies only ||grad u||^2) and then calls
    ``potential`` with it, which shares the plan's later stages with it;
    only the calling thread calls the plan.  The stencils and the stage
    halves run in copies of the caller's context, under its
    ``np.errstate``, and an error in either is raised here.
    """
    if u0.dim != 3:
        raise ValueError("the Choquard descent runs on 3-d grids")
    # polishing follows the main phase, and the run ends on a rearrangement
    if not (steps >= 1 and polish_steps >= 0):
        raise ValueError(f"need steps >= 1 and polish_steps >= 0, got {steps} and {polish_steps}")
    # imported here: concurrent.futures loads logging, which no other verb needs
    from concurrent.futures import ThreadPoolExecutor

    grid = u0.grid
    vol = grid.cell_volume

    result = DescentResult()
    u = _l2_normalize(np.abs(u0.values), vol)
    if u is None:
        raise ValueError("the L^2 norm of u0 overflows")
    total = steps + polish_steps
    # the stencils run in the caller's context, so under its np.errstate
    context = contextvars.copy_context()
    # one helper thread for the whole run, joined when it ends (DECISIONS.md D20)
    with ThreadPoolExecutor(1) as helper:

        def energy_and_potential(vals: np.ndarray, stencil=_stencils):
            # the helper runs the stencils of vals, then shares the plan's
            # later stages with this thread; the kinetic gradient serves the
            # step from vals
            stencils = helper.submit(context.run, stencil, vals, grid)
            usq = ScalarField(grid, vals * vals)
            phi = potential(usq, helper=helper)
            pot = pairing(usq, phi)
            kin, kgrad = stencils.result()
            return kin - pot, phi, kgrad

        energy, phi, kgrad = energy_and_potential(u)
        result.energies.append(energy)
        for step in range(1, total + 1):
            tau = step_size if step <= steps else _POLISH_STEP_SIZE
            # u - tau * (kgrad - 4 u phi), operation for operation, in one buffer
            g = 4.0 * u
            g *= phi.values
            np.subtract(kgrad, g, out=g)
            g *= tau
            np.subtract(u, g, out=g)
            del kgrad  # freed before the next energy evaluation makes its own
            stepped = _l2_normalize(g, vol)
            if stepped is None:
                result.diverged = True
                break
            u = stepped
            do_rearrange = step % _REARRANGE_EVERY == 0 or step == total
            if do_rearrange:
                # the pre-sort energy only: no kinetic gradient for a step
                before, _, _ = energy_and_potential(u, _kinetic)
                u = rearrange(ScalarField(grid, u)).values
                u = _l2_normalize(u, vol)
                energy, phi, kgrad = energy_and_potential(u)
                result.rearrange_audit.append((before, energy))
            else:
                energy, phi, kgrad = energy_and_potential(u)
            result.energies.append(energy)
            if not math.isfinite(energy):
                result.diverged = True
                break
    result.final = ScalarField(grid, u)
    return result
