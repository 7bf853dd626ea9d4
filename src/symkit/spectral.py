"""Dirichlet spectra on masked domains and the short-time heat-trace perimeter fit.

The Laplacian is the standard 2d+1-point stencil restricted to the cells of a
mask, with Dirichlet conditions realized by dropping neighbors outside the
mask.  Solves are dense and capped, so accuracy is deterministic; larger
domains are rejected rather than silently switched to an iterative method.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import eigh

from .field import GridSet, ScalarField, measure

__all__ = [
    "DENSE_CELL_CAP",
    "dirichlet_spectrum",
    "dirichlet_eigenvalues",
    "heat_perimeter_estimate",
]

DENSE_CELL_CAP = 5000


def _dirichlet_matrix(omega: GridSet, V: ScalarField | None) -> np.ndarray:
    g = omega.grid
    ncells = omega.count()
    if ncells == 0:
        raise ValueError("domain is empty")
    if ncells > DENSE_CELL_CAP:
        raise ValueError(f"domain has {ncells} cells, dense cap is {DENSE_CELL_CAP}")
    if V is not None and V.grid != g:
        raise ValueError("potential must live on the domain grid")
    index = -np.ones(g.shape, dtype=np.int64)
    index[omega.mask] = np.arange(ncells)
    h2 = g.h * g.h
    A = np.zeros((ncells, ncells), dtype=np.float64)
    diag = np.full(ncells, 2.0 * g.dim / h2)
    if V is not None:
        diag += V.values[omega.mask]
    A[np.arange(ncells), np.arange(ncells)] = diag
    for ax in range(g.dim):
        sl_lo = [slice(None)] * g.dim
        sl_hi = [slice(None)] * g.dim
        sl_lo[ax] = slice(0, g.shape[ax] - 1)
        sl_hi[ax] = slice(1, g.shape[ax])
        both = omega.mask[tuple(sl_lo)] & omega.mask[tuple(sl_hi)]
        i = index[tuple(sl_lo)][both]
        j = index[tuple(sl_hi)][both]
        A[i, j] = -1.0 / h2
        A[j, i] = -1.0 / h2
    return A


def dirichlet_spectrum(omega: GridSet, V: ScalarField | None, k: int) -> np.ndarray:
    """Lowest k eigenvalues of the Dirichlet stencil Laplacian plus diag(V), ascending."""
    ncells = omega.count()
    if ncells == 0:
        raise ValueError("domain is empty")
    if k <= 0 or k > ncells:
        raise ValueError(f"k must be in [1, {ncells}], got {k}")
    A = _dirichlet_matrix(omega, V)
    vals = eigh(A, eigvals_only=True, subset_by_index=[0, k - 1])
    return np.asarray(vals, dtype=np.float64)


def dirichlet_eigenvalues(omega: GridSet, V: ScalarField | None) -> np.ndarray:
    """Full spectrum; needed for heat traces."""
    A = _dirichlet_matrix(omega, V)
    return np.linalg.eigvalsh(A)


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
