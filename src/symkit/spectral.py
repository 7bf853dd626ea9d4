"""Dirichlet spectra on masked domains and the short-time heat-trace perimeter fit.

The Laplacian is the standard 2d+1-point stencil restricted to the cells of a
mask, with Dirichlet conditions realized by dropping neighbors outside the
mask.  Its nonzero entries are built once, as (row, column, value) triplets.
A full box with no potential has a closed-form spectrum, the Kronecker sum
of 1-d stencil spectra, which serves its lowest eigenvalue as well as all
of them.  Any other domain takes a dense ``eigvalsh`` of the one dense
matrix, ``_dense_operator``: the operator on functions constant on given
orbits of cells, the orbits of the grid symmetries for the lowest
eigenvalue (DECISIONS.md D11), one per cell for a full spectrum.  It has at
most ``DENSE_CELL_CAP`` rows (D3); larger domains are rejected, never
truncated or sent to another method.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .field import Grid, GridSet, ScalarField, measure

DENSE_CELL_CAP = 5000


def _dirichlet_triplets(omega: GridSet, V: ScalarField | None):
    """(rows, cols, data) of the operator's nonzeros; each (row, col) occurs once."""
    g = omega.grid
    ncells = omega.count()
    if ncells == 0:
        raise ValueError("domain is empty")
    if V is not None and V.grid != g:
        raise ValueError("potential must live on the domain grid")
    index = -np.ones(g.shape, dtype=np.int64)
    index[omega.mask] = np.arange(ncells)
    h2 = g.h * g.h
    diag = np.full(ncells, 2.0 * g.dim / h2)
    if V is not None:
        diag += V.values[omega.mask]
    rows, cols = [np.arange(ncells)], [np.arange(ncells)]
    for ax in range(g.dim):
        sl_lo = [slice(None)] * g.dim
        sl_hi = [slice(None)] * g.dim
        sl_lo[ax] = slice(0, g.shape[ax] - 1)
        sl_hi[ax] = slice(1, g.shape[ax])
        both = omega.mask[tuple(sl_lo)] & omega.mask[tuple(sl_hi)]
        i = index[tuple(sl_lo)][both]
        j = index[tuple(sl_hi)][both]
        rows += [i, j]
        cols += [j, i]
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    data = np.full(rows.size, -1.0 / h2)
    data[:ncells] = diag
    return rows, cols, data


def _dense_operator(omega: GridSet, V: ScalarField | None, orbit: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """The operator on functions constant on orbits, dense: one ``bincount`` of the triplets.

    ``orbit`` labels the cells (in mask order), ``sizes`` counts each orbit's;
    coordinate k is orbit k's indicator over sqrt(sizes[k]) (DECISIONS.md D11).
    More than ``DENSE_CELL_CAP`` orbits are rejected before any allocation.
    """
    n = sizes.size
    if n > DENSE_CELL_CAP:
        raise ValueError(f"domain has {n} cell orbits, dense cap is {DENSE_CELL_CAP}")
    rows, cols, data = _dirichlet_triplets(omega, V)
    rows, cols = orbit[rows], orbit[cols]
    weights = data / np.sqrt(sizes[rows] * sizes[cols])
    return np.bincount(rows * n + cols, weights=weights, minlength=n * n).reshape(n, n)


def _box_eigenvalues(grid: Grid) -> np.ndarray:
    # Kronecker sum of the 1-d stencil spectra (4/h^2) sin^2(j pi / (2(n+1)))
    total = np.zeros(1)
    for n in grid.shape:
        j = np.arange(1, n + 1)
        lam = (4.0 / (grid.h * grid.h)) * np.sin(j * math.pi / (2 * (n + 1))) ** 2
        total = np.add.outer(total, lam).ravel()
    return np.sort(total)


def _symmetry_group(omega: GridSet, V: ScalarField | None) -> list[tuple[tuple, tuple]]:
    """(axis permutation, flipped axes) of every grid symmetry that fixes the mask and V on it.

    The candidates are the axis flips combined with the permutations of axes
    of equal extent, which map the box onto itself; V outside the mask does
    not enter the operator and is not compared.
    """
    shape = omega.grid.shape
    fields = [omega.mask]
    if V is not None:
        fields.append(np.where(omega.mask, V.values, 0.0))
    group = []
    for perm in itertools.permutations(range(len(shape))):
        if any(shape[p] != n for p, n in zip(perm, shape)):
            continue
        for flips in itertools.product((False, True), repeat=len(shape)):
            axes = tuple(ax for ax, flip in enumerate(flips) if flip)
            if all(np.array_equal(np.flip(np.transpose(f, perm), axes), f) for f in fields):
                group.append((perm, axes))
    return group


def _cell_orbits(omega: GridSet, V: ScalarField | None) -> tuple[np.ndarray, np.ndarray]:
    """Orbit label of each cell of omega (in mask order) and the size of each orbit.

    A cell's orbit under the symmetry group is named by the least flat index
    it contains; the labels are those names renumbered 0, 1, ... in order.
    """
    idx = np.arange(omega.grid.ncells).reshape(omega.grid.shape)
    least = idx
    for perm, axes in _symmetry_group(omega, V):
        least = np.minimum(least, np.flip(np.transpose(idx, perm), axes))
    _, orbit, sizes = np.unique(least[omega.mask], return_inverse=True, return_counts=True)
    return orbit, sizes


def dirichlet_lambda1(omega: GridSet, V: ScalarField | None) -> float:
    """Lowest eigenvalue of the Dirichlet stencil Laplacian plus diag(V).

    A full box with no potential takes the closed form, any other domain
    the dense operator on the orbits of the grid symmetries that fix the
    mask and V.  The operator has no positive off-diagonal entry, so its
    lowest eigenvalue has a nonnegative eigenvector, whose average over the
    group is a symmetric eigenvector; the restriction therefore keeps it
    (DECISIONS.md D11).  More than ``DENSE_CELL_CAP`` orbits are rejected
    (D3), an empty domain too.
    """
    if V is None and omega.mask.all():
        return float(_box_eigenvalues(omega.grid)[0])
    return float(np.linalg.eigvalsh(_dense_operator(omega, V, *_cell_orbits(omega, V)))[0])


def dirichlet_eigenvalues(omega: GridSet, V: ScalarField | None) -> np.ndarray:
    """Full spectrum, ascending; needed for heat traces.

    A full box with no potential takes the closed form; any other domain a
    dense solve of the operator, one orbit per cell, at most
    ``DENSE_CELL_CAP`` cells (DECISIONS.md D3).
    """
    if V is None and omega.mask.all():
        return _box_eigenvalues(omega.grid)
    n = omega.count()
    return np.linalg.eigvalsh(_dense_operator(omega, V, np.arange(n), np.ones(n, dtype=np.int64)))


def heat_perimeter_estimate(omega: GridSet, t_list) -> float:
    """Perimeter from the short-time trace expansion, by least squares.

    The V = 0 trace behaves like (4 pi t)^(-d/2) (|Omega| - sqrt(pi t / 4) per
    + O(t)), so y(t) = |Omega| - (4 pi t)^(d/2) Tr(t) is fitted with the
    two-term model per * sqrt(pi t / 4) + c t; the linear term absorbs the
    corner contribution.  Times should sit above ~100 h^2 (the stencil's
    spectral bias dominates below) while staying in the short-time regime.
    The trace is that of the V = 0 spectrum, ``dirichlet_eigenvalues(omega, None)``.
    """
    t_arr = np.asarray(list(t_list), dtype=np.float64)
    if t_arr.size < 2 or np.any(t_arr <= 0):
        raise ValueError("need at least two positive times")
    d = omega.grid.dim
    vol = measure(omega)
    eigenvalues = dirichlet_eigenvalues(omega, None)
    traces = np.array([float(np.exp(-t * eigenvalues).sum()) for t in t_arr])
    y = vol - (4.0 * math.pi * t_arr) ** (d / 2.0) * traces
    design = np.stack([np.sqrt(math.pi * t_arr / 4.0), t_arr], axis=1)
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    if not np.all(np.isfinite(coef)):
        raise ValueError("degenerate perimeter fit")
    return float(coef[0])
