"""Integral functionals compared by the rearrangement inequalities.

Conventions:

* All sums carry the cell volume h^d per integration variable, so values
  approximate the continuum integrals of the piecewise-constant extensions.
* Convolutions take the kernel on an odd-extent displacement grid (see
  ``kernels.displacement_grid``) so that kernel samples sit exactly at the
  pairwise differences of data-grid cell centers; every value kept is the
  exact linear convolution, never a wrapped-around circular one.
* Monte Carlo estimates use a counter-based generator (Philox) and snap
  samples to the cell-center lattice, which makes them unbiased for the
  lattice functionals that the deterministic oracles compute.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np
from scipy.fft import fft, ifft, irfft, irfftn, next_fast_len, rfft, rfftn

from .field import GridSet, ScalarField, measure
from .kernels import (
    FracKernel,
    HeatGaussian,
    PowerLaw,
    displacement_grid,
    sample_kernel,
)


class UnboundedRegionError(ValueError):
    """Interval analysis failed to confine every integration variable."""


# ----------------------------------------------------------------------------
# supermodular forms and convex profiles
# ----------------------------------------------------------------------------


@dataclass(frozen=True)
class PowerProfile:
    """j(t) = t^p with p >= 1; nonnegative, convex, j(0) = 0."""

    p: float

    def __post_init__(self):
        if self.p < 1:
            raise ValueError(f"power profile needs p >= 1, got {self.p}")

    def __call__(self, t):
        return np.asarray(t, dtype=np.float64) ** self.p


@dataclass(frozen=True)
class JExpansionF:
    """F(u, v) = j(u) + j(v) - j(|u - v|) for a convex profile j."""

    profile: PowerProfile

    def __call__(self, u, v):
        j = self.profile
        u = np.asarray(u, dtype=np.float64)
        v = np.asarray(v, dtype=np.float64)
        return j(u) + j(v) - j(np.abs(u - v))


# ----------------------------------------------------------------------------
# norms and pairings
# ----------------------------------------------------------------------------


def lp_norm(f: ScalarField, p: float) -> float:
    """(sum |f|^p h^d)^(1/p); p = inf gives the max norm."""
    if p == math.inf:
        return float(np.abs(f.values).max()) if f.values.size else 0.0
    if p <= 0:
        raise ValueError(f"p must be positive, got {p}")
    return float(np.sum(np.abs(f.values) ** p) * f.grid.cell_volume) ** (1.0 / p)


def _check_same_grid(f: ScalarField, g: ScalarField) -> None:
    if f.grid != g.grid:
        raise ValueError(f"grid mismatch: {f.grid} vs {g.grid}")


def pairing(f: ScalarField, g: ScalarField) -> float:
    """sum f_i g_i h^d."""
    _check_same_grid(f, g)
    return float(np.sum(f.values * g.values)) * f.grid.cell_volume


def supermodular_pairing(F, f: ScalarField, g: ScalarField) -> float:
    """sum F(f_i, g_i) h^d for nonnegative fields; F maps two value arrays to one."""
    _check_same_grid(f, g)
    if not (f.nonneg and g.nonneg):
        raise ValueError("supermodular pairing requires nonnegative fields")
    return float(np.sum(F(f.values, g.values))) * f.grid.cell_volume


def expansion_gaps(j: PowerProfile, f: ScalarField, g: ScalarField) -> tuple[float, float]:
    """(sum j(|f-g|) h^d, sum j(f+g) h^d) for nonnegative fields."""
    _check_same_grid(f, g)
    if not (f.nonneg and g.nonneg):
        raise ValueError("expansion gaps require nonnegative fields")
    vol = f.grid.cell_volume
    diff = float(np.sum(j(np.abs(f.values - g.values)))) * vol
    summ = float(np.sum(j(f.values + g.values))) * vol
    return diff, summ


def hanner_sum(f: ScalarField, g: ScalarField, p: float) -> float:
    """||f - g||_p^p + ||f + g||_p^p; signed fields allowed."""
    _check_same_grid(f, g)
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    vol = f.grid.cell_volume
    return float(
        np.sum(np.abs(f.values - g.values) ** p) + np.sum(np.abs(f.values + g.values) ** p)
    ) * vol


# ----------------------------------------------------------------------------
# convolution and the Riesz triple
# ----------------------------------------------------------------------------


def _along(ax: int, s: slice) -> tuple:
    """Index selecting ``s`` on axis ``ax`` and everything on the other axes."""
    return (slice(None),) * ax + (s,)


def _nonzero_extent(a: np.ndarray) -> list[tuple[int, int]] | None:
    """Per-axis index range of the nonzero entries, or None if all zero."""
    nz = np.nonzero(a)
    if len(nz[0]) == 0:
        return None
    return [(int(ix.min()), int(ix.max())) for ix in nz]


def _fftconvolve_full(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Full linear convolution of two real arrays of equal rank by FFT.

    Same transform lengths, axes and operand order as
    ``scipy.signal.fftconvolve(a, b, mode="full")``, so the result agrees with
    it bit for bit: each axis of extent 1 in either operand is broadcast, every
    other axis is padded to ``next_fast_len(na + nb - 1, real=True)``.
    """
    shape = [na + nb - 1 for na, nb in zip(a.shape, b.shape)]
    axes = [ax for ax in range(a.ndim) if a.shape[ax] != 1 and b.shape[ax] != 1]
    if not axes:
        return a * b
    lengths = [next_fast_len(shape[ax], True) for ax in axes]
    prod = rfftn(a, lengths, axes=axes) * rfftn(b, lengths, axes=axes)
    return irfftn(prod, lengths, axes=axes)[tuple(slice(n) for n in shape)]


# (lengths, private copy of the kernel values, read-only kernel spectrum) of
# the most recent convolve call.  One entry, replaced whole on every miss, so
# a reader always sees a consistent triple (DECISIONS.md D8).
_kernel_memo: tuple[tuple[int, ...], np.ndarray, np.ndarray] | None = None


def _kernel_spectrum(kv: np.ndarray, lengths: tuple[int, ...]) -> np.ndarray:
    """rfftn(kv, lengths), reused while the lengths and kernel values repeat."""
    global _kernel_memo
    memo = _kernel_memo
    if memo is not None and memo[0] == lengths and np.array_equal(memo[1], kv):
        return memo[2]
    spec = rfftn(kv, lengths)
    spec.setflags(write=False)
    _kernel_memo = (lengths, kv.copy(), spec)
    return spec


# This thread's FFT buffers for the most recent (field shape, lengths) of its
# convolve calls.  One entry per thread, replaced whole on every miss; each
# thread owns its buffers, so concurrent calls never share one (DECISIONS.md D8).
_workspaces = threading.local()


def _workspace(shape: tuple[int, ...], lengths: tuple[int, ...]):
    """(real buffer, c2c stage buffers, pad slab values) for one field shape.

    The real buffer has shape (n_0 .. n_{d-2}, L_{d-1}); its last-axis pad
    is zeroed once and never written.  Stage ax has shape (L_0 .. L_ax,
    n_{ax+1} .. n_{d-2}, L_{d-1}//2 + 1).  Its pad slab, rows n_ax ..
    L_ax - 1 of axis ax, is refilled on every call with what ``rfftn`` holds
    there for the zero box: the r2c of a zero line (whose imaginary parts
    include -0.0) carried through stages 0 .. ax-1, broadcast over the axes
    it does not vary on.
    """
    key = (shape, lengths)
    ws = getattr(_workspaces, "entry", None)
    if ws is not None and ws[0] == key:
        return ws[1:]
    d = len(shape)
    cols = lengths[-1] // 2 + 1
    real = np.zeros(shape[:-1] + (lengths[-1],))
    stages, pads = [], []
    pad = rfft(np.zeros(lengths[-1])).reshape((1,) * (d - 1) + (cols,))
    for ax in range(d - 1):
        stages.append(np.empty(lengths[: ax + 1] + shape[ax + 1 : -1] + (cols,), complex))
        pads.append(pad)
        pad = fft(np.broadcast_to(pad, pad.shape[:ax] + (lengths[ax],) + pad.shape[ax + 1 :]), axis=ax)
    _workspaces.entry = (key, real, stages, pads)
    return real, stages, pads


def convolve(kernel: ScalarField, f: ScalarField) -> ScalarField:
    """Linear convolution (kernel * f)(x) = sum_y kernel(x - y) f(y) h^d on f's grid.

    The kernel must live on an odd-extent displacement grid with the same
    spacing as f.

    The FFTs are circular, of the shortest fast length per axis at which no
    wrapped-around term reaches the kept window (Hockney's free-space
    method): with kernel radius r the kept values are entries r .. r + n - 1
    of the full linear result, so the length is at least n + r, and never
    below the kernel extent 2r + 1.  Retained values are therefore the exact
    linear convolution.  The kernel spectrum of the most recent call is
    memoized and reused when the FFT lengths and the kernel values are equal
    (DECISIONS.md D8).

    The transforms are pruned (Markel): r2c on the last axis over f's own
    lines, then c2c on axes 0 .. d-2, each padded only at its own stage; the
    inverse cuts each axis to the kept rows right after its c2c stage.  The
    forward stages run in place in a per-thread workspace whose pad slabs
    hold rfftn's values for the zero box, signed zeros included.  The axis
    order and the one 1/prod(L) scaling are irfftn's and rfftn's, so the
    window is theirs bit for bit (DECISIONS.md D8).
    """
    if kernel.dim != f.dim:
        raise ValueError("kernel and field dimensions differ")
    if abs(kernel.h - f.h) > 1e-12 * f.h:
        raise ValueError("kernel and field spacings differ")
    if any(n % 2 == 0 for n in kernel.grid.shape):
        raise ValueError("kernel grid must have odd extents (displacement aligned)")
    shape = f.grid.shape
    radii = [nk // 2 for nk in kernel.grid.shape]
    lengths = tuple(next_fast_len(max(n + r, 2 * r + 1), True) for n, r in zip(shape, radii))
    spec = _kernel_spectrum(kernel.values, lengths)
    real, stages, pads = _workspace(shape, lengths)
    real[..., : shape[-1]] = f.values
    x = rfft(real)
    # rfftn's forward order, axes 0 .. d-2; another order moves the last bits
    for ax, (buf, pad) in enumerate(zip(stages, pads)):
        buf[_along(ax, slice(shape[ax], None))] = pad
        buf[_along(ax, slice(shape[ax]))] = x
        x = fft(buf, axis=ax, overwrite_x=True)
    x *= spec
    for ax, (n, r) in enumerate(zip(shape[:-1], radii)):
        x = ifft(x, axis=ax, overwrite_x=True, norm="forward")[_along(ax, slice(r, r + n))]
    r, n = radii[-1], shape[-1]
    # the inverse stages run unscaled; irfftn scales once, by 1/prod(L), at the end
    kept = irfft(x, lengths[-1], norm="forward")[..., r : r + n] * (1.0 / math.prod(lengths))
    return ScalarField(f.grid, kept * f.grid.cell_volume)


def riesz_triple(f: ScalarField, kern: ScalarField, h: ScalarField) -> float:
    """Double integral f(x) g(x-y) h(y) dx dy; the kernel g is sampled on a displacement grid."""
    _check_same_grid(f, h)
    return pairing(f, convolve(kern, h))


# ----------------------------------------------------------------------------
# Brascamp-Lieb-Luttinger multilinear integral, Monte Carlo
# ----------------------------------------------------------------------------


@dataclass(frozen=True)
class BLLSpec:
    """Coefficient matrix b in R^(N x M) plus the N nonnegative factor fields."""

    coeffs: np.ndarray
    fields: tuple[ScalarField, ...]

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=np.float64)
        if c.ndim != 2:
            raise ValueError("coefficient matrix must be 2-d")
        n, m = c.shape
        if m > n:
            raise ValueError(f"need M <= N, got N={n}, M={m}")
        if len(self.fields) != n:
            raise ValueError(f"need {n} fields, got {len(self.fields)}")
        if np.any(np.all(c == 0, axis=1)):
            raise ValueError("coefficient matrix has an all-zero row")
        h0 = self.fields[0].h
        d0 = self.fields[0].dim
        for fld in self.fields:
            if abs(fld.h - h0) > 1e-12 * h0 or fld.dim != d0:
                raise ValueError("all fields must share spacing and dimension")
        c = c.copy()
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)
        object.__setattr__(self, "fields", tuple(self.fields))

    @property
    def n_variables(self) -> int:
        return self.coeffs.shape[1]


@dataclass(frozen=True)
class MCEstimate:
    """Monte Carlo value with its standard error; reproducible given the seed."""

    value: float
    standard_error: float
    samples: int
    seed: int


def _support_intervals(fld: ScalarField) -> list[tuple[float, float]] | None:
    """Physical support bounds per axis (cell edges), or None when empty."""
    ext = _nonzero_extent(fld.values)
    if ext is None:
        return None
    out = []
    for k, (lo, hi) in enumerate(ext):
        c = fld.grid.axis_coords(k)
        out.append((c[lo] - fld.h / 2.0, c[hi] + fld.h / 2.0))
    return out


def _bounding_ranges(spec: BLLSpec) -> list[list[tuple[float, float]]] | None:
    """Per-variable, per-axis bounds confining the integrand support.

    Solves 2 M d tiny linear programs min/max x_m subject to
    LO_n <= sum_m b_{n m} x_m <= HI_n.  Returns None when the constraints are
    infeasible (integrand vanishes identically); raises when unbounded.
    """
    from scipy.optimize import linprog

    b = spec.coeffs
    n, m = b.shape
    d = spec.fields[0].dim
    sup = []
    for fld in spec.fields:
        s = _support_intervals(fld)
        if s is None:
            return None
        sup.append(s)
    ranges: list[list[tuple[float, float]]] = [[] for _ in range(m)]
    a_ub = np.vstack([b, -b])
    for ax in range(d):
        hi = np.array([sup[i][ax][1] for i in range(n)])
        lo = np.array([sup[i][ax][0] for i in range(n)])
        b_ub = np.concatenate([hi, -lo])
        for j in range(m):
            bounds_j = []
            for sign in (1.0, -1.0):
                c = np.zeros(m)
                c[j] = sign
                res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=[(None, None)] * m, method="highs")
                if res.status == 2:
                    return None
                if res.status == 3:
                    raise UnboundedRegionError(
                        f"variable {j} axis {ax} is not confined by the coefficient rows"
                    )
                if res.status != 0:
                    raise RuntimeError(f"interval analysis LP failed: {res.message}")
                bounds_j.append(sign * res.fun)
            ranges[j].append((bounds_j[0], bounds_j[1]))
    return ranges


def _nearest_cell_values(fld: ScalarField, pts: np.ndarray) -> np.ndarray:
    """Piecewise-constant evaluation of a field at physical points (K, d)."""
    g = fld.grid
    k = pts.shape[0]
    idx = np.empty((g.dim, k), dtype=np.int64)
    ok = np.ones(k, dtype=bool)
    for ax in range(g.dim):
        j = np.rint(pts[:, ax] / g.h + (g.shape[ax] - 1) / 2.0).astype(np.int64)
        ok &= (j >= 0) & (j < g.shape[ax])
        idx[ax] = np.clip(j, 0, g.shape[ax] - 1)
    vals = fld.values[tuple(idx)]
    vals[~ok] = 0.0
    return vals


# Samples drawn per batch.  Each batch draws its integers variable by variable
# and axis by axis, so the batch size fixes which Philox draws land in which
# variable: changing it changes every estimate (DECISIONS.md D9).
_BLL_CHUNK = 131072


def bll_integral(spec: BLLSpec, samples: int, seed: int) -> MCEstimate:
    """Monte Carlo estimate of the multilinear integral prod_n f_n(sum_m b_{n m} x_m).

    Each variable is drawn uniformly from the cell centers of the reference
    lattice (the first field's grid family) restricted to the interval-analysis
    bounding box, which makes the estimator unbiased for the lattice quadrature
    of the integrand.  The generator is counter based (Philox) and the stream
    depends only on the seed.
    """
    if samples <= 0:
        raise ValueError("need a positive sample count")
    ranges = _bounding_ranges(spec)
    if ranges is None:
        return MCEstimate(0.0, 0.0, samples, seed)
    ref = spec.fields[0].grid
    h = ref.h
    m = spec.n_variables
    d = ref.dim
    # lattice index windows per (variable, axis); centers c(k) = c0 + k h
    windows = []
    vol = 1.0
    for j in range(m):
        w = []
        for ax in range(d):
            c0 = -(ref.shape[ax] - 1) / 2.0 * h
            lo, hi = ranges[j][ax]
            k_lo = math.ceil((lo - h / 2.0 - c0) / h - 1e-12)
            k_hi = math.floor((hi + h / 2.0 - c0) / h + 1e-12)
            if k_hi < k_lo:
                return MCEstimate(0.0, 0.0, samples, seed)
            w.append((k_lo, k_hi, c0))
            vol *= (k_hi - k_lo + 1) * h
        windows.append(w)

    rng = np.random.Generator(np.random.Philox(key=seed))
    s1 = 0.0
    s2 = 0.0
    done = 0
    while done < samples:
        k = min(_BLL_CHUNK, samples - done)
        xs = np.empty((m, k, d), dtype=np.float64)
        for j in range(m):
            for ax in range(d):
                k_lo, k_hi, c0 = windows[j][ax]
                ints = rng.integers(k_lo, k_hi + 1, size=k)
                xs[j, :, ax] = c0 + ints * h
        prod = np.ones(k, dtype=np.float64)
        for i, fld in enumerate(spec.fields):
            z = np.tensordot(spec.coeffs[i], xs, axes=(0, 0))
            prod *= _nearest_cell_values(fld, z)
        s1 += float(prod.sum())
        s2 += float((prod * prod).sum())
        done += k
    mean = s1 / samples
    var = max(s2 / samples - mean * mean, 0.0)
    if samples > 1:
        var *= samples / (samples - 1)
    se = math.sqrt(var / samples) * vol
    return MCEstimate(mean * vol, se, samples, seed)


# ----------------------------------------------------------------------------
# fractional seminorm and perimeters
# ----------------------------------------------------------------------------


def _displacement_iter(shape: tuple[int, ...]):
    """Half of the nonzero displacement vectors (first nonzero component > 0)."""
    ranges = [range(-(n - 1), n) for n in shape]
    ranges[0] = range(0, shape[0])
    for mvec in np.ndindex(*[len(r) for r in ranges]):
        m = tuple(r[i] for r, i in zip(ranges, mvec))
        if all(c == 0 for c in m):
            continue
        if m[0] == 0 and next((c for c in m if c != 0), 0) < 0:
            continue
        yield m


def _shifted_views(a: np.ndarray, m: tuple[int, ...]):
    """Views (a restricted, a shifted by m restricted) over the overlap."""
    src = []
    dst = []
    for n, c in zip(a.shape, m):
        if c >= 0:
            src.append(slice(0, n - c))
            dst.append(slice(c, n))
        else:
            src.append(slice(-c, n))
            dst.append(slice(0, n + c))
    return a[tuple(src)], a[tuple(dst)]


def fractional_seminorm(u: ScalarField, s: float, p: float) -> float:
    """sum_{i != j} |u_i - u_j|^p |x_i - x_j|^(-d - s p) h^(2d).

    This is the p-th power of the discrete W^(s,p) seminorm, and p alone
    picks the route (DECISIONS.md D12).  At p = 2 the sum is taken in
    O(N log N) by FFT through |u_i - u_j|^2 = u_i^2 + u_j^2 - 2 u_i u_j, so
    its rounding error scales with scale = 2 sum_i u_i^2 srow_i h^d (srow the
    kernel's row sums), not with the result: a result within 1e-13 scale of
    0 is rounding and returns 0.0, and a lower one raises
    ``FloatingPointError``, since the sum is nonnegative.  Any other p runs
    ``_seminorm_direct``, the loop over displacements, which the tests keep
    as the oracle of the p = 2 route.
    """
    FracKernel(s, p).validate(u.dim)
    if p != 2:
        return _seminorm_direct(u, s, p)
    kfield = sample_kernel(FracKernel(s, p), displacement_grid(u.grid))
    srow = convolve(kfield, ScalarField(u.grid, np.ones(u.grid.shape)))
    cross = pairing(u, convolve(kfield, u))
    diag = float(np.sum(u.values**2 * srow.values)) * u.grid.cell_volume
    total, scale = 2.0 * (diag - cross), 2.0 * diag
    if abs(total) <= 1e-13 * scale:
        return 0.0
    if total > 0.0:
        return total
    raise FloatingPointError(f"fft seminorm {total!r} lies below its rounding scale {scale!r}")


def _seminorm_direct(u: ScalarField, s: float, p: float) -> float:
    """The sum of ``fractional_seminorm``, by a loop over displacements."""
    expo = -(u.dim + s * p)
    total = 0.0
    for m in _displacement_iter(u.grid.shape):
        a, b = _shifted_views(u.values, m)
        w = (math.sqrt(sum(c * c for c in m)) * u.h) ** expo
        total += 2.0 * w * float(np.sum(np.abs(a - b) ** p))
    return total * u.grid.cell_volume ** 2


def unit_ball_volume(d: int) -> float:
    """Volume of the unit ball in R^d: pi^(d/2) / Gamma(d/2 + 1)."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)


def fractional_perimeter(A: GridSet, s: float) -> float:
    """Interaction of A with its complement under |x - y|^(-d - s).

    Near field: exact lattice sum over pairs within R = diam(bounding box of
    A), with the complement extending over the full lattice beyond the box.
    Far field: the isotropic tail |A| d omega_d R^(-s) / s, exact because no
    A x A pair exceeds R.
    """
    if not 0 < s < 1:
        raise ValueError(f"s must be in (0, 1), got {s}")
    if A.count() == 0:
        raise ValueError("set is empty")
    g = A.grid
    d, h = g.dim, g.h
    ext = _nonzero_extent(A.mask)
    span2 = sum(((hi - lo) * h) ** 2 for lo, hi in ext)
    # half a cell of headroom keeps the extreme pair strictly inside the cutoff
    R = max(math.sqrt(span2) + 0.5 * h, h)
    rc = math.ceil(R / h)
    kgrid = displacement_grid(g, radius_cells=rc)
    r2 = kgrid.radius2()
    with np.errstate(divide="ignore"):
        kv = r2 ** (-(d + s) / 2.0)
    center = tuple(n // 2 for n in kgrid.shape)
    kv[center] = 0.0
    kv[r2 > R * R] = 0.0
    lattice_row = float(kv.sum()) * g.cell_volume  # sum over the full lattice within R
    # full-length transform: the refinement contract records rounding-level
    # violations of this value, so its summation order stays fixed (D8)
    full = _fftconvolve_full(A.mask.astype(np.float64), kv) * g.cell_volume
    conv = full[tuple(slice(nk // 2, nk // 2 + n) for n, nk in zip(g.shape, kv.shape))]
    near = float(np.sum(lattice_row - conv[A.mask])) * g.cell_volume
    tail = measure(A) * d * unit_ball_volume(d) * R ** (-s) / s
    return near + tail


def minkowski_content(A: GridSet, eps: float) -> float:
    """eps^(-1) measure of the inner boundary strip {x in A : dist(x, A^c) < eps}.

    Cell-center distances come from the Euclidean distance transform; half a
    cell is subtracted so that a cell adjacent to the complement sits at
    distance h/2 from it, matching the continuum strip for slab geometries.
    """
    from scipy.ndimage import distance_transform_edt

    g = A.grid
    if eps < g.h:
        raise ValueError(f"eps = {eps} is below the grid resolution h = {g.h}")
    if A.count() == 0:
        return 0.0
    pad_cells = math.ceil(eps / g.h) + 1
    padded = np.pad(A.mask, pad_cells)
    dist = distance_transform_edt(padded, sampling=g.h)
    core = dist[tuple(slice(pad_cells, pad_cells + n) for n in g.shape)]
    strip = A.mask & (core - g.h / 2.0 < eps)
    return float(strip.sum()) * g.cell_volume / eps


# ----------------------------------------------------------------------------
# gradients and heat quantities
# ----------------------------------------------------------------------------


def _forward_diffs(u: ScalarField) -> list[np.ndarray]:
    """Forward differences per axis with zero extension past the far edge."""
    out = []
    v = u.values
    for ax in range(u.dim):
        head, tail, edge = _along(ax, slice(-1)), _along(ax, slice(1, None)), _along(ax, slice(-1, None))
        dk = np.empty_like(v)
        np.subtract(v[tail], v[head], out=dk[head])
        # 0.0 - v, not -v: past the far edge the extension is +0.0
        np.subtract(0.0, v[edge], out=dk[edge])
        dk /= u.h
        out.append(dk)
    return out


def gradient_magnitude(u: ScalarField) -> np.ndarray:
    """Euclidean length of the forward-difference gradient per cell."""
    diffs = _forward_diffs(u)
    return np.sqrt(sum(dk * dk for dk in diffs))


def gradient_pnorm(u: ScalarField, p: float) -> float:
    """L^p norm of |grad u| (forward differences, zero extension); p = inf allowed."""
    if p != math.inf and p < 1:
        raise ValueError(f"p must be in [1, inf], got {p}")
    return _gradient_pnorm_of(_forward_diffs(u), p, u.grid.cell_volume)


def _gradient_pnorm_of(diffs: list[np.ndarray], p: float, vol: float) -> float:
    """``gradient_pnorm`` from the forward differences of u and its cell volume."""
    mag = np.sqrt(sum(dk * dk for dk in diffs))
    if p == math.inf:
        return float(mag.max()) if mag.size else 0.0
    return float(np.sum(mag**p) * vol) ** (1.0 / p)


def kinetic_gradient(u: ScalarField) -> np.ndarray:
    """Gradient of ||grad u||_2^2 with respect to u in L^2(h^d)."""
    return _kinetic_gradient_of(_forward_diffs(u), u.h)


def _kinetic_gradient_of(diffs: list[np.ndarray], h: float) -> np.ndarray:
    """``kinetic_gradient`` from the forward differences of u and its spacing."""
    out = np.zeros_like(diffs[0])
    term = np.empty_like(out)
    for ax, dk in enumerate(diffs):
        # minus the backward difference of dk, zero-extended before the near edge
        head, tail, edge = _along(ax, slice(-1)), _along(ax, slice(1, None)), _along(ax, slice(1))
        np.subtract(dk[head], dk[tail], out=term[tail])
        np.subtract(0.0, dk[edge], out=term[edge])
        term *= 2.0 / h
        out += term
    return out


def heat_pairing(u: ScalarField, t: float) -> float:
    """(u, heat-semigroup(t) u): pairing of u with its heat-kernel convolution.

    The kernel is sampled out to radius max(6 sqrt(t), 3h), beyond which the
    Gaussian tail is negligible at the tolerances used here.
    """
    if t <= 0:
        raise ValueError("time must be positive")
    radius = max(6.0 * math.sqrt(t), 3.0 * u.h)
    rc = min(math.ceil(radius / u.h), max(n - 1 for n in u.grid.shape))
    kfield = sample_kernel(HeatGaussian(t), displacement_grid(u.grid, radius_cells=rc))
    return pairing(u, convolve(kfield, u))


def riesz_energy(rho: ScalarField, lam: float) -> float:
    """Interaction energy of rho against |x - y|^(-lam)."""
    PowerLaw(lam).validate(rho.dim)
    if not rho.nonneg:
        raise ValueError("riesz energy requires a nonnegative density")
    kfield = sample_kernel(PowerLaw(lam), displacement_grid(rho.grid))
    return pairing(rho, convolve(kfield, rho))

