"""Symmetrization operators on grid fields and sets.

The discrete surrogate for nested centered balls is a fixed total order on
grid cells (``cell_order``): ascending Euclidean distance of the cell center
to the origin, ties broken by row-major index.  Every operator here lays a
sorted run on a prefix of that order through one placement (``_in_cell_order``),
which makes equimeasurability, idempotence and the commutation identities
exact at the value level, not just up to discretization error.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .field import Grid, GridSet, ScalarField, _int_radius2


@lru_cache(maxsize=128)
def cell_order(shape: tuple[int, ...]) -> np.ndarray:
    """Permutation of flat cell indices: ascending |center|, ties by index.

    Distances are compared through the exact integer quantity
    ``sum_k (2 i_k - (n_k - 1))^2`` (squared center distance in units of
    (h/2)^2), so the order is deterministic across platforms.  Row-major flat
    index order coincides with lexicographic multi-index order, hence a stable
    argsort implements the tie-break.  The key is the narrowest unsigned
    integer that holds max r^2, whose stable sort numpy runs as a radix sort
    for 8 and 16 bits; every key width gives the same permutation.
    """
    # the order itself is cached, so the r^2 grid is built uncached here
    key = np.min_scalar_type(sum((n - 1) ** 2 for n in shape))
    order = np.argsort(_int_radius2(shape, key).ravel(), kind="stable")
    order.setflags(write=False)
    return order


def _in_cell_order(grid: Grid, run: np.ndarray) -> np.ndarray:
    """``run`` on the first ``run.size`` cells in cell order, 0 on the rest, shaped as ``grid``."""
    # a run that covers the grid overwrites every cell, so only a shorter one needs zeros
    out = (np.empty if run.size == grid.ncells else np.zeros)(grid.ncells, dtype=run.dtype)
    out[cell_order(grid.shape)[: run.size]] = run
    return out.reshape(grid.shape)


def set_symmetrize(A: GridSet) -> GridSet:
    """Centered-ball surrogate: the first count(A) cells in cell order."""
    return GridSet(A.grid, _in_cell_order(A.grid, np.ones(A.count(), dtype=bool)))


def rearrange(f: ScalarField) -> ScalarField:
    """Symmetric decreasing rearrangement: sort |f| descending into cell order.

    The output value multiset equals the multiset of |input| values exactly,
    and for every threshold the superlevel set of the output is the
    symmetrized superlevel set of |f|.
    """
    desc = np.sort(np.abs(f.values).ravel())[::-1]
    return ScalarField(f.grid, _in_cell_order(f.grid, desc))


def increasing_rearrangement(V: ScalarField, omega: GridSet) -> tuple[ScalarField, GridSet]:
    """Symmetric increasing rearrangement of V on a domain.

    Returns ``(V_low, omega_sym)`` where ``omega_sym`` is the symmetrized
    domain and ``V_low`` carries V's domain values sorted ascending along cell
    order into ``omega_sym`` (0 outside, where the values are meaningless).
    """
    if V.grid != omega.grid:
        raise ValueError("V and the domain must share a grid")
    if omega.count() == 0:
        raise ValueError("domain is empty")
    asc = np.sort(V.values[omega.mask])
    return ScalarField(V.grid, _in_cell_order(V.grid, asc)), set_symmetrize(omega)


def bathtub_fill(mass: float, grid: Grid) -> ScalarField:
    """Centered unit-density profile of prescribed mass.

    Value 1 on the first floor(mass / h^d) cells in cell order, the leftover
    fraction on the next cell, 0 elsewhere, so the integral equals ``mass``
    up to rounding, however small the mass.
    """
    if not mass >= 0:
        raise ValueError(f"mass must be nonnegative, got {mass}")
    q = mass / grid.cell_volume
    if q > grid.ncells * (1 + 1e-12):
        raise ValueError(f"mass {mass} exceeds box volume {grid.ncells * grid.cell_volume}")
    q = min(q, float(grid.ncells))
    # q = mass / h^d carries the rounding of that division: within a few ulps
    # of a whole number it is whole, and no mass is too small to be kept
    snap = 4.0 * np.finfo(np.float64).eps * q
    k = int(np.floor(q + snap))
    frac = q - k
    if frac <= snap:
        frac = 0.0
    run = np.ones(k + (frac > 0.0))
    run[k:] = frac  # the leftover cell, when there is one
    return ScalarField(grid, _in_cell_order(grid, run))

