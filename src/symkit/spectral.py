"""Dirichlet spectra on masked domains and the short-time heat-trace perimeter fit.

The Laplacian is the standard 2d+1-point stencil restricted to the cells of a
mask, with Dirichlet conditions realized by dropping neighbors outside the
mask.  Its nonzero entries are built once, as (row, column, value) triplets.
A full box with no potential has a closed-form spectrum, the Kronecker sum
of 1-d stencil spectra, which serves its lowest eigenvalue as well as all
of them.  The lowest eigenvalue, taken without a potential, comes on any
other domain from the operator on functions constant on the orbits of the
grid symmetries (DECISIONS.md D11), held block tridiagonal, by inverse
iteration that returns only a value a Cholesky factorization certifies; a
full spectrum, with a potential or none, comes from a dense ``eigvalsh``
of the operator, ``_dense_operator``.
Either operator has at most ``DENSE_CELL_CAP`` rows (D3); larger domains
are rejected, never truncated or sent to another method.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

import numpy as np

from .field import Grid, GridSet, ScalarField, measure

DENSE_CELL_CAP = 5000
LAMBDA1_RTOL = 1e-10  # certified width of lambda1, relative to lambda1 (D11)
LAMBDA1_SLOW = 0.5  # a fall of rho by more than this share of the last one moves the shift (D11)
LAMBDA1_MAX_ITER = 100  # inverse-iteration steps before the solve raises (D11)


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


def _check_cap(n: int) -> None:
    if n > DENSE_CELL_CAP:
        raise ValueError(f"domain has {n} cell orbits, dense cap is {DENSE_CELL_CAP}")


def _dense_operator(omega: GridSet, V: ScalarField | None) -> np.ndarray:
    """The operator, dense: one ``bincount`` of the triplets.

    More than ``DENSE_CELL_CAP`` cells are rejected before any allocation.
    """
    n = omega.count()
    _check_cap(n)
    rows, cols, data = _dirichlet_triplets(omega, V)
    return np.bincount(rows * n + cols, weights=data, minlength=n * n).reshape(n, n)


class _BlockTridiagonal(NamedTuple):
    """A symmetric n x n matrix in blocks of b rows, the last one cut to n.

    ``diag[k]`` is block (k, k) and ``sub[k]`` block (k + 1, k); the rows and
    columns past n are zero.  b is at least the bandwidth, so no other block
    holds a nonzero entry.
    """

    diag: np.ndarray  # (nb, b, b)
    sub: np.ndarray  # (nb - 1, b, b)
    n: int

    def matvec(self, x: np.ndarray) -> np.ndarray:
        nb, b, _ = self.diag.shape
        xb = np.zeros(nb * b)
        xb[: self.n] = x
        xb = xb.reshape(nb, b)
        y = np.einsum("kij,kj->ki", self.diag, xb)
        y[1:] += np.einsum("kij,kj->ki", self.sub, xb[:-1])
        y[:-1] += np.einsum("kji,kj->ki", self.sub, xb[1:])
        return y.ravel()[: self.n]


def _reduced_operator(omega: GridSet) -> _BlockTridiagonal:
    """The V = 0 operator on functions constant on the orbits of the grid symmetries (D11).

    Coordinate k is orbit k's indicator over the square root of its size,
    so each triplet is divided by sqrt(|O| |O'|) and those falling on one
    entry are summed.  The block size is the bandwidth in orbit order.
    More than ``DENSE_CELL_CAP`` orbits are rejected before the triplets
    are built.
    """
    orbit, sizes = _cell_orbits(omega)
    n = sizes.size
    _check_cap(n)
    rows, cols, data = _dirichlet_triplets(omega, None)
    rows, cols = orbit[rows], orbit[cols]
    weights = data / np.sqrt(sizes[rows] * sizes[cols])
    b = max(1, int(np.abs(rows - cols).max()))
    nb = -(-n // b)
    kr, ir = np.divmod(rows, b)
    kc, ic = np.divmod(cols, b)
    on, below = kr == kc, kr == kc + 1
    diag = np.bincount(((kr * b + ir) * b + ic)[on], weights=weights[on], minlength=nb * b * b)
    sub = np.bincount(((kc * b + ir) * b + ic)[below], weights=weights[below], minlength=(nb - 1) * b * b)
    return _BlockTridiagonal(diag.reshape(nb, b, b), sub.reshape(nb - 1, b, b), n)


def _block_cholesky(op: _BlockTridiagonal, shift: float):
    """Factor op - shift I = L L^T block by block, or None if that is not positive definite.

    Returns the inverses of L's diagonal blocks and L's sub-diagonal blocks:
    the Schur complement of block row k is D_k - C_k C_k^T, with
    C_k = B_k L_(k-1)^-T, and ``numpy.linalg.cholesky`` of it fails exactly
    when the matrix is not positive definite (to rounding).
    """
    nb, b, _ = op.diag.shape
    inverses, couplings = [], []
    for k in range(nb):
        m = min(b, op.n - k * b)
        s = op.diag[k, :m, :m] - shift * np.eye(m)
        if k:
            c = op.sub[k - 1, :m] @ inverses[-1].T
            s -= c @ c.T
            couplings.append(c)
        try:
            chol = np.linalg.cholesky(s)
        except np.linalg.LinAlgError:
            return None
        inverses.append(np.linalg.inv(chol))
    return inverses, couplings


def _block_solve(factor, r: np.ndarray) -> np.ndarray:
    """x with L L^T x = r, for a factor of ``_block_cholesky``."""
    inverses, couplings = factor
    b = inverses[0].shape[0]
    y = []
    for k, w in enumerate(inverses):
        rk = r[k * b : (k + 1) * b]
        y.append(w @ (rk - couplings[k - 1] @ y[-1] if k else rk))
    x = [inverses[-1].T @ y[-1]]
    for k in range(len(inverses) - 2, -1, -1):
        x.append(inverses[k].T @ (y[k] - couplings[k].T @ x[-1]))
    return np.concatenate(x[::-1])


def _certified_lowest(op: _BlockTridiagonal) -> float:
    """Lowest eigenvalue of op, certified to ``LAMBDA1_RTOL`` of itself (DECISIONS.md D11).

    Inverse iteration from the all-ones vector with a shift below the
    spectrum, first 0.  The Rayleigh quotient rho is an upper bound; once it
    stalls (it falls by at most eta = ``LAMBDA1_RTOL`` rho, or by more than
    ``LAMBDA1_SLOW`` of its previous fall), a Cholesky of op - (rho - eta) I
    is tried, and if it succeeds no eigenvalue lies below rho - eta and rho
    is returned.  If it fails, the shift moves up, halfway to the lowest
    point known not to factor, halving that distance until it factors.
    ``LAMBDA1_MAX_ITER`` steps without a certificate raise.
    """
    factor = _block_cholesky(op, 0.0)
    if factor is None:
        raise np.linalg.LinAlgError("operator does not factor")
    lo, hi = 0.0, math.inf
    x = np.ones(op.n)
    rho_prev = fall_prev = math.inf
    for _ in range(LAMBDA1_MAX_ITER):
        x = _block_solve(factor, x)
        x /= np.linalg.norm(x)
        rho = float(x @ op.matvec(x))
        eta = LAMBDA1_RTOL * rho
        fall = rho_prev - rho
        stalled = fall <= eta or fall > LAMBDA1_SLOW * fall_prev
        rho_prev, fall_prev = rho, fall
        if not stalled:
            continue
        if _block_cholesky(op, rho - eta) is not None:
            return rho
        hi = min(hi, rho - eta)
        while True:
            shift = 0.5 * (lo + hi)
            if not lo < shift < hi:
                raise np.linalg.LinAlgError(f"no shift factors between {lo} and {hi}")
            moved = _block_cholesky(op, shift)
            if moved is not None:
                break
            hi = shift
        lo, factor = shift, moved
    raise np.linalg.LinAlgError(f"lowest eigenvalue not certified in {LAMBDA1_MAX_ITER} steps")


def _box_eigenvalues(grid: Grid) -> np.ndarray:
    # Kronecker sum of the 1-d stencil spectra (4/h^2) sin^2(j pi / (2(n+1)))
    total = np.zeros(1)
    for n in grid.shape:
        j = np.arange(1, n + 1)
        lam = (4.0 / (grid.h * grid.h)) * np.sin(j * math.pi / (2 * (n + 1))) ** 2
        total = np.add.outer(total, lam).ravel()
    return np.sort(total)


def _symmetry_group(omega: GridSet) -> list[tuple[tuple, tuple]]:
    """(axis permutation, flipped axes) of every grid symmetry that fixes the mask.

    The candidates are the axis flips combined with the permutations of axes
    of equal extent, which map the box onto itself.
    """
    mask = omega.mask
    shape = mask.shape
    group = []
    for perm in itertools.permutations(range(len(shape))):
        if any(shape[p] != n for p, n in zip(perm, shape)):
            continue
        for flips in itertools.product((False, True), repeat=len(shape)):
            axes = tuple(ax for ax, flip in enumerate(flips) if flip)
            if np.array_equal(np.flip(np.transpose(mask, perm), axes), mask):
                group.append((perm, axes))
    return group


def _cell_orbits(omega: GridSet) -> tuple[np.ndarray, np.ndarray]:
    """Orbit label of each cell of omega (in mask order) and the size of each orbit.

    A cell's orbit under the symmetry group is named by the least flat index
    it contains; the labels are those names renumbered 0, 1, ... in order.
    """
    idx = np.arange(omega.grid.ncells).reshape(omega.grid.shape)
    least = idx
    for perm, axes in _symmetry_group(omega):
        least = np.minimum(least, np.flip(np.transpose(idx, perm), axes))
    _, orbit, sizes = np.unique(least[omega.mask], return_inverse=True, return_counts=True)
    return orbit, sizes


def dirichlet_lambda1(omega: GridSet) -> float:
    """Lowest eigenvalue of the Dirichlet stencil Laplacian on the cells of omega.

    A full box takes the closed form, any other domain the banded operator
    on the orbits of the grid symmetries that fix the mask.  The operator
    has no positive off-diagonal entry, so its lowest eigenvalue has a
    nonnegative eigenvector, whose average over the group is a symmetric
    eigenvector; the restriction therefore keeps it (DECISIONS.md D11).
    The value is certified to ``LAMBDA1_RTOL`` of itself, or the call
    raises ``LinAlgError``.  More than ``DENSE_CELL_CAP`` orbits are
    rejected (D3), an empty domain too.
    """
    if omega.mask.all():
        return float(_box_eigenvalues(omega.grid)[0])
    return _certified_lowest(_reduced_operator(omega))


def dirichlet_eigenvalues(omega: GridSet, V: ScalarField | None) -> np.ndarray:
    """Full spectrum, ascending; needed for heat traces.

    A full box with no potential takes the closed form; any other domain a
    dense solve of the operator, one orbit per cell, at most
    ``DENSE_CELL_CAP`` cells (DECISIONS.md D3).
    """
    if V is None and omega.mask.all():
        return _box_eigenvalues(omega.grid)
    return np.linalg.eigvalsh(_dense_operator(omega, V))


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
    if not (t_arr.size >= 2 and np.all(t_arr > 0)):
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
