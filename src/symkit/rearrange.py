"""Symmetrization operators on grid fields and sets.

The discrete surrogate for nested centered balls is a fixed total order on
grid cells (``cell_order``): ascending Euclidean distance of the cell center
to the origin, ties broken by row-major index.  Every operator here is a sort
into (or a prefix of) that order, which makes equimeasurability, idempotence
and the commutation identities exact at the value level, not just up to
discretization error.
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
    argsort implements the tie-break.
    """
    # the order itself is cached, so the r^2 grid is built uncached here
    order = np.argsort(_int_radius2(shape).ravel(), kind="stable")
    order.setflags(write=False)
    return order


def set_symmetrize(A: GridSet) -> GridSet:
    """Centered-ball surrogate: the first count(A) cells in cell order."""
    order = cell_order(A.grid.shape)
    mask = np.zeros(A.grid.ncells, dtype=bool)
    mask[order[: A.count()]] = True
    return GridSet(A.grid, mask.reshape(A.grid.shape))


def rearrange(f: ScalarField) -> ScalarField:
    """Symmetric decreasing rearrangement: sort |f| descending into cell order.

    The output value multiset equals the multiset of |input| values exactly,
    and for every threshold the superlevel set of the output is the
    symmetrized superlevel set of |f|.
    """
    order = cell_order(f.grid.shape)
    desc = np.sort(np.abs(f.values).ravel())[::-1]
    out = np.empty(f.grid.ncells, dtype=np.float64)
    out[order] = desc
    return ScalarField(f.grid, out.reshape(f.grid.shape))


def increasing_rearrangement(V: ScalarField, omega: GridSet) -> tuple[ScalarField, GridSet]:
    """Symmetric increasing rearrangement of V on a domain.

    Returns ``(V_low, omega_sym)`` where ``omega_sym`` is the symmetrized
    domain and ``V_low`` carries V's domain values sorted ascending along cell
    order into ``omega_sym`` (0 outside, where the values are meaningless).
    """
    if V.grid != omega.grid:
        raise ValueError("V and the domain must share a grid")
    k = omega.count()
    if k == 0:
        raise ValueError("domain is empty")
    asc = np.sort(V.values[omega.mask])
    omega_sym = set_symmetrize(omega)
    order = cell_order(V.grid.shape)
    out = np.zeros(V.grid.ncells, dtype=np.float64)
    out[order[:k]] = asc
    return ScalarField(V.grid, out.reshape(V.grid.shape)), omega_sym


def bathtub_fill(mass: float, grid: Grid) -> ScalarField:
    """Centered unit-density profile of prescribed mass.

    Value 1 on the first floor(mass / h^d) cells in cell order, the leftover
    fraction on the next cell, 0 elsewhere, so the integral equals ``mass``
    up to rounding, however small the mass.
    """
    if mass < 0:
        raise ValueError(f"mass must be nonnegative, got {mass}")
    vol = grid.cell_volume
    q = mass / vol
    if q > grid.ncells * (1 + 1e-12):
        raise ValueError(f"mass {mass} exceeds box volume {grid.box_volume}")
    q = min(q, float(grid.ncells))
    # q = mass / h^d carries the rounding of that division: within a few ulps
    # of a whole number it is whole, and no mass is too small to be kept
    snap = 4.0 * np.finfo(np.float64).eps * q
    k = int(np.floor(q + snap))
    frac = q - k
    if frac <= snap:
        frac = 0.0
    order = cell_order(grid.shape)
    out = np.zeros(grid.ncells, dtype=np.float64)
    out[order[:k]] = 1.0
    if frac > 0.0:
        out[order[k]] = frac
    return ScalarField(grid, out.reshape(grid.shape))

