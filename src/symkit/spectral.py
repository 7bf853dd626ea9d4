"""Dirichlet spectra on masked domains and the short-time heat-trace perimeter fit.

The Laplacian is the standard 2d+1-point stencil restricted to the cells of a
mask, with Dirichlet conditions realized by dropping neighbors outside the
mask.  It is assembled once, as a sparse matrix.  The lowest eigenvalues come
from shift-invert Lanczos below the spectrum (ARPACK through ``eigsh``),
with no cell cap; a solver failure raises.  A full spectrum of a full box with no
potential is the closed-form Kronecker sum of 1-d stencil spectra.  Any other
full spectrum is a dense ``eigvalsh``, capped at ``DENSE_CELL_CAP`` cells;
larger domains are rejected, never truncated or sent to another method.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import eigsh

from .field import Grid, GridSet, ScalarField, measure

DENSE_CELL_CAP = 5000


def _dirichlet_operator(omega: GridSet, V: ScalarField | None) -> sparse.csc_matrix:
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
    return sparse.csc_matrix((data, (rows, cols)), shape=(ncells, ncells))


def _box_eigenvalues(grid: Grid) -> np.ndarray:
    # Kronecker sum of the 1-d stencil spectra (4/h^2) sin^2(j pi / (2(n+1)))
    total = np.zeros(1)
    for n in grid.shape:
        j = np.arange(1, n + 1)
        lam = (4.0 / (grid.h * grid.h)) * np.sin(j * math.pi / (2 * (n + 1))) ** 2
        total = np.add.outer(total, lam).ravel()
    return np.sort(total)


def dirichlet_spectrum(omega: GridSet, V: ScalarField | None, k: int) -> np.ndarray:
    """Lowest k eigenvalues of the Dirichlet stencil Laplacian plus diag(V), ascending.

    Shift-invert Lanczos about sigma = min(0, min V on omega) from a fixed,
    seeded, positive start vector (DECISIONS.md D11).  The stencil part is
    positive definite, so every eigenvalue lies above sigma and the k nearest
    to it are the lowest k.  k equal to the cell count asks for the whole
    spectrum, which ARPACK cannot give, so it is ``dirichlet_eigenvalues``.
    A Lanczos run that does not converge raises.
    """
    ncells = omega.count()
    if ncells == 0:
        raise ValueError("domain is empty")
    if k <= 0 or k > ncells:
        raise ValueError(f"k must be in [1, {ncells}], got {k}")
    if k == ncells:
        return dirichlet_eigenvalues(omega, V)
    A = _dirichlet_operator(omega, V)
    sigma = 0.0 if V is None else min(0.0, float(V.values[omega.mask].min()))
    v0 = np.random.default_rng(0).uniform(0.5, 1.5, ncells)  # D11
    return np.sort(eigsh(A, k, sigma=sigma, which="LM", v0=v0, return_eigenvectors=False))


def dirichlet_eigenvalues(omega: GridSet, V: ScalarField | None) -> np.ndarray:
    """Full spectrum, ascending; needed for heat traces.

    A full box with no potential takes the closed form; any other domain a
    dense solve of at most ``DENSE_CELL_CAP`` cells (DECISIONS.md D3).
    """
    if V is None and omega.mask.all():
        return _box_eigenvalues(omega.grid)
    ncells = omega.count()
    if ncells > DENSE_CELL_CAP:
        raise ValueError(f"domain has {ncells} cells, dense cap is {DENSE_CELL_CAP}")
    return np.linalg.eigvalsh(_dirichlet_operator(omega, V).toarray())


def heat_perimeter_estimate(omega: GridSet, t_list, eigenvalues: np.ndarray) -> float:
    """Perimeter from the short-time trace expansion, by least squares.

    The V = 0 trace behaves like (4 pi t)^(-d/2) (|Omega| - sqrt(pi t / 4) per
    + O(t)), so y(t) = |Omega| - (4 pi t)^(d/2) Tr(t) is fitted with the
    two-term model per * sqrt(pi t / 4) + c t; the linear term absorbs the
    corner contribution.  Times should sit above ~100 h^2 (the stencil's
    spectral bias dominates below) while staying in the short-time regime.
    ``eigenvalues`` is the full V = 0 spectrum of omega, as returned by
    ``dirichlet_eigenvalues(omega, None)``.
    """
    t_arr = np.asarray(list(t_list), dtype=np.float64)
    if t_arr.size < 2 or np.any(t_arr <= 0):
        raise ValueError("need at least two positive times")
    d = omega.grid.dim
    vol = measure(omega)
    traces = np.array([float(np.exp(-t * eigenvalues).sum()) for t in t_arr])
    y = vol - (4.0 * math.pi * t_arr) ** (d / 2.0) * traces
    design = np.stack([np.sqrt(math.pi * t_arr / 4.0), t_arr], axis=1)
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    if not np.all(np.isfinite(coef)):
        raise ValueError("degenerate perimeter fit")
    return float(coef[0])
