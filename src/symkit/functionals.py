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

import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
from numpy.fft import fft, ifft, irfft, rfft

from .field import Grid, GridSet, ScalarField, measure
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
# norms and pairings
# ----------------------------------------------------------------------------


def lp_norm(f: ScalarField, p: float) -> float:
    """(sum |f|^p h^d)^(1/p) for 0 < p < inf."""
    if not 0 < p < math.inf:
        raise ValueError(f"p must be in (0, inf), got {p}")
    a = np.abs(f.values)
    with np.errstate(over="ignore"):  # an overflowing sum takes the scaled branch below
        total = float(np.sum(a ** p) * f.grid.cell_volume)
    m = float(a.max())
    if np.finfo(np.float64).tiny <= total < math.inf or m == 0.0:
        return total ** (1.0 / p)
    # Powers outside the normal range lose digits or overflow: scale by the largest value.
    return m * float(np.sum((a / m) ** p) * f.grid.cell_volume) ** (1.0 / p)


def pairing(f: ScalarField, g: ScalarField) -> float:
    """sum f_i g_i h^d."""
    if f.grid != g.grid:
        raise ValueError(f"grid mismatch: {f.grid} vs {g.grid}")
    return float(np.sum(f.values * g.values)) * f.grid.cell_volume


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


def _next_fast_len(n: int) -> int:
    """The least 5-smooth integer >= n, as scipy's ``next_fast_len(n, real=True)``."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # the least p35 * 2^k >= n
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _rfftn(a: np.ndarray, lengths, axes) -> np.ndarray:
    """scipy's ``rfftn(a, lengths, axes)``, bit for bit, from numpy's 1-d transforms.

    As scipy does, the array is zero-padded to the lengths first, so the zero
    lines go through the r2c too (their imaginary parts include -0.0); then
    r2c on the last axis and c2c on the others, in ascending order.
    """
    pad = [(0, 0)] * a.ndim
    for ax, n in zip(axes, lengths):
        pad[ax] = (0, n - a.shape[ax])
    x = rfft(np.pad(a, pad), axis=axes[-1])
    for ax in axes[:-1]:
        fft(x, axis=ax, out=x)
    return x


def _fftconvolve_full(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Full linear convolution of two real arrays of equal rank by FFT.

    Same transform lengths, axes and operand order as
    ``scipy.signal.fftconvolve(a, b, mode="full")``, so the result agrees with
    it bit for bit: each axis of extent 1 in either operand is broadcast, every
    other axis is padded to ``_next_fast_len(na + nb - 1)``.
    """
    shape = [na + nb - 1 for na, nb in zip(a.shape, b.shape)]
    axes = [ax for ax in range(a.ndim) if a.shape[ax] != 1 and b.shape[ax] != 1]
    if not axes:
        return a * b
    lengths = [_next_fast_len(shape[ax]) for ax in axes]
    x = _rfftn(a, lengths, axes) * _rfftn(b, lengths, axes)
    # irfftn's order and scaling: unscaled c2c in ascending order, c2r, one 1/prod(L)
    for ax in axes[:-1]:
        ifft(x, axis=ax, norm="forward", out=x)
    full = irfft(x, lengths[-1], axis=axes[-1], norm="forward") * (1.0 / math.prod(lengths))
    return full[tuple(slice(n) for n in shape)]


def convolution_plan(kernel: ScalarField, grid: Grid) -> Callable[[np.ndarray], np.ndarray]:
    """Linear convolution with ``kernel`` of the value arrays of ``grid``, transformed once.

    Returns ``plan``: ``plan(values)[x] = sum_y kernel(x - y) values[y] h^d``
    for every array of ``grid.shape``, as an array; ``plan.lengths`` holds
    the FFT lengths.  The kernel's rank, odd extents and spacing are checked
    against the grid once, here, and a call checks only the array's shape.
    The plan keeps the kernel's spectrum, not its values, and owns a mutable
    FFT buffer, so one plan must not be called from two threads at once
    (DECISIONS.md D8).

    The FFTs are circular, of the shortest fast length per axis at which no
    wrapped-around term reaches the kept window (Hockney's free-space
    method): with kernel radius r the kept values are entries r .. r + n - 1
    of the full linear result, so the length is at least n + r, and never
    below the kernel extent 2r + 1.  Retained values are therefore the exact
    linear convolution.

    The transforms are pruned (Markel): r2c on the last axis over the
    array's own lines, then c2c on axes 0 .. d-2, each padded only at its
    own stage; the inverse cuts each axis to the kept rows right after its
    c2c stage.  All of it runs in place in one complex buffer, whose pad
    slabs are refilled on every call with rfftn's values for the zero box,
    signed zeros included.  Each stage is one of numpy's 1-d transforms; the
    axis order and the one 1/prod(L) scaling are those of scipy's irfftn and
    rfftn, so the window is theirs bit for bit (DECISIONS.md D8).
    """
    if kernel.dim != grid.dim:
        raise ValueError("kernel and field dimensions differ")
    if any(n % 2 == 0 for n in kernel.grid.shape):
        raise ValueError("kernel grid must have odd extents (displacement aligned)")
    if abs(kernel.h - grid.h) > 1e-12 * grid.h:
        raise ValueError("kernel and field spacings differ")
    shape, d, vol = grid.shape, grid.dim, grid.cell_volume
    radii = [nk // 2 for nk in kernel.grid.shape]
    lengths = tuple(_next_fast_len(max(n + r, 2 * r + 1)) for n, r in zip(shape, radii))
    spec = _rfftn(kernel.values, lengths, range(d))
    spec.setflags(write=False)
    cols = lengths[-1] // 2 + 1
    buf = np.empty(lengths[:-1] + (cols,), complex)
    # stage ax runs on axes 0 .. ax at full length and on f's rows of the
    # others; its pad slab is rows n_ax .. L_ax - 1 of axis ax, where rfftn
    # holds the r2c of a zero line carried through stages 0 .. ax-1
    stages = [
        buf[(slice(None),) * (ax + 1) + tuple(slice(n) for n in shape[ax + 1 : -1])] for ax in range(d - 1)
    ]
    pads = [rfft(np.zeros(lengths[-1])).reshape((1,) * (d - 1) + (cols,))]
    for ax in range(d - 2):
        pad = pads[-1]
        pads.append(fft(np.broadcast_to(pad, pad.shape[:ax] + (lengths[ax],) + pad.shape[ax + 1 :]), axis=ax))
    r2c = buf[tuple(slice(n) for n in shape[:-1])]
    scale = 1.0 / math.prod(lengths)

    def plan(values: np.ndarray) -> np.ndarray:
        if values.shape != shape:
            raise ValueError(f"array shape {values.shape} differs from the plan's {shape}")
        # r2c of the array's own lines, zero-padded to the length inside pocketfft
        rfft(values, n=lengths[-1], out=r2c)
        # rfftn's forward order, axes 0 .. d-2; another order moves the last bits
        for ax, view in enumerate(stages):
            view[_along(ax, slice(shape[ax], None))] = pads[ax]
            fft(view, axis=ax, out=view)
        np.multiply(buf, spec, out=buf)
        # axes 0 .. d-2 unscaled, each cut to its kept rows; irfftn scales once, by 1/prod(L)
        x = buf
        for ax in range(d - 1):
            r, n = radii[ax], shape[ax]
            x = ifft(x, axis=ax, norm="forward", out=x)[_along(ax, slice(r, r + n))]
        r, n = radii[-1], shape[-1]
        out = np.multiply(irfft(x, lengths[-1], norm="forward")[..., r : r + n], scale)
        out *= vol
        return out

    plan.lengths = lengths
    return plan


def convolve(kernel: ScalarField, f: ScalarField) -> ScalarField:
    """Linear convolution (kernel * f)(x) = sum_y kernel(x - y) f(y) h^d on f's grid.

    A one-shot ``convolution_plan`` of f's grid, transformed on every call; a
    caller that convolves with one kernel repeatedly keeps a plan.
    """
    return ScalarField(f.grid, convolution_plan(kernel, f.grid)(f.values))


def riesz_triple(f: ScalarField, kern: ScalarField, h: ScalarField) -> float:
    """Double integral f(x) g(x-y) h(y) dx dy; the kernel g is sampled on a displacement grid."""
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


@dataclass(frozen=True)
class MCEstimate:
    """Monte Carlo value with its standard error."""

    value: float
    standard_error: float


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

    Per axis the support is LO_n <= sum_m b_{n m} x_m <= HI_n, whose extremes lie
    at vertices: M rows of b with |det| > 1e-12, each at LO or HI, solved and kept
    when they meet every constraint to 1e-9 (DECISIONS.md D18).  Returns None when
    none does (integrand vanishes); raises when no M rows have |det| > 1e-12.
    """
    b = spec.coeffs
    n, m = b.shape
    sup = [_support_intervals(fld) for fld in spec.fields]
    if None in sup:
        return None
    bases = [list(r) for r in itertools.combinations(range(n), m) if abs(np.linalg.det(b[list(r)])) > 1e-12]
    if not bases:
        raise UnboundedRegionError(f"the coefficient rows have rank below {m}: a variable is not confined")
    sides = np.array(list(itertools.product((0, 1), repeat=m))).T  # (m, 2^m): LO (0) or HI (1) per row
    ranges: list[list[tuple[float, float]]] = [[] for _ in range(m)]
    for ax in range(spec.fields[0].dim):
        lohi = np.array([s[ax] for s in sup])
        verts = np.hstack([np.linalg.solve(b[r], np.take_along_axis(lohi[r], sides, axis=1)) for r in bases])
        z = b @ verts
        feasible = np.all((z >= lohi[:, :1] - 1e-9) & (z <= lohi[:, 1:] + 1e-9), axis=0)
        if not feasible.any():
            return None
        for j in range(m):
            ranges[j].append((float(verts[j, feasible].min()), float(verts[j, feasible].max())))
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
    if not (0 < samples < math.inf and samples == int(samples)):
        raise ValueError(f"need a whole, finite, positive sample count, got {samples}")
    samples = int(samples)
    ranges = _bounding_ranges(spec)
    if ranges is None:
        return MCEstimate(0.0, 0.0)
    ref = spec.fields[0].grid
    h = ref.h
    m = spec.coeffs.shape[1]
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
                return MCEstimate(0.0, 0.0)
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
    return MCEstimate(mean * vol, se)


# ----------------------------------------------------------------------------
# fractional seminorm and perimeters
# ----------------------------------------------------------------------------


def fractional_seminorm(grid: Grid) -> Callable[[np.ndarray], float]:
    """The discrete W^(1/2,2) seminorm squared on value arrays of ``grid``, as one evaluator.

    Returns ``seminorm`` with seminorm(u) = sum_{i != j} |u_i - u_j|^2
    |x_i - x_j|^(-d - 1) h^(2d) for every array u of ``grid.shape``, at the
    s = 1/2 of every report.  Like a convolution plan it maps arrays, and an
    array of another shape raises (DECISIONS.md D8).  The kernel's plan and
    row sums srow = kernel * 1 are made once, here, and the sum is taken in
    O(N log N) through |u_i - u_j|^2 = u_i^2 + u_j^2 - 2 u_i u_j
    (DECISIONS.md D12).  Its rounding error therefore scales with scale =
    2 sum_i u_i^2 srow_i h^d, not with the result: a result within 1e-13
    scale of 0 is rounding and returns 0.0, and a lower one raises
    ``FloatingPointError``, since the sum is nonnegative.  A result that is
    not finite, from an array with non-finite values, raises ``ValueError``.
    The tests' ``conftest.py`` keeps its oracle, the loop over displacements.
    """
    plan = convolution_plan(sample_kernel(FracKernel(0.5, 2.0), displacement_grid(grid)), grid)
    srow = plan(np.ones(grid.shape))
    vol = grid.cell_volume

    def seminorm(u: np.ndarray) -> float:
        # the plan refuses an array of another shape; the cross term is pairing's sum
        cross = float(np.sum(u * plan(u))) * vol
        diag = float(np.sum(u**2 * srow)) * vol
        total, scale = 2.0 * (diag - cross), 2.0 * diag
        if not math.isfinite(total):
            raise ValueError(f"fft seminorm {total!r} of an array with non-finite values")
        if abs(total) <= 1e-13 * scale:
            return 0.0
        if total > 0.0:
            return total
        raise FloatingPointError(f"fft seminorm {total!r} lies below its rounding scale {scale!r}")

    return seminorm


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
    kv = np.where(kgrid.radius2() > R * R, 0.0, sample_kernel(FracKernel(s, 1.0), kgrid).values)
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

    A cell is in it when a complement cell center lies at distance r with
    r - h/2 < eps (a cell adjacent to the complement sits at h/2, matching the
    continuum strip for slabs): A and the padded complement dilated by the
    integer offsets o with h|o| - h/2 < eps, |o| summed as scipy's EDT sums it.
    """
    g = A.grid
    if not g.h <= eps < math.inf:
        raise ValueError(f"eps = {eps} is not finite or is below the grid resolution h = {g.h}")
    if A.count() == 0:
        return 0.0
    pad = math.ceil(eps / g.h) + 1
    outside = np.pad(~A.mask, pad, constant_values=True)
    offsets = np.indices((2 * pad + 1,) * g.dim).reshape(g.dim, -1) - pad
    dist = np.sqrt(np.add.reduce((offsets * g.h) ** 2, axis=0))
    near = np.zeros(g.shape, dtype=bool)
    for o in offsets[:, dist - g.h / 2.0 < eps].T:
        near |= outside[tuple(slice(pad + k, pad + k + n) for k, n in zip(o, g.shape))]
    return float((A.mask & near).sum()) * g.cell_volume / eps


# ----------------------------------------------------------------------------
# gradients and heat quantities
# ----------------------------------------------------------------------------


def _forward_diffs(values: np.ndarray, h: float) -> list[np.ndarray]:
    """Forward differences per axis of ``values`` at spacing ``h``, zero-extended past the far edge."""
    out = []
    for ax in range(values.ndim):
        head, tail, edge = _along(ax, slice(-1)), _along(ax, slice(1, None)), _along(ax, slice(-1, None))
        dk = np.empty_like(values)
        np.subtract(values[tail], values[head], out=dk[head])
        # 0.0 - v, not -v: past the far edge the extension is +0.0
        np.subtract(0.0, values[edge], out=dk[edge])
        dk /= h
        out.append(dk)
    return out


def gradient_pnorm(u: ScalarField) -> float:
    """L^2 norm of |grad u| (forward differences, zero extension), the p = 2 of every caller."""
    return _gradient_pnorm_of(_forward_diffs(u.values, u.h), u.grid.cell_volume)


def _gradient_pnorm_of(diffs: list[np.ndarray], vol: float) -> float:
    """``gradient_pnorm`` from the forward differences of u and its cell volume."""
    mag = np.sqrt(sum(dk * dk for dk in diffs))
    return float(np.sum(mag**2.0) * vol) ** 0.5


def _kinetic_gradient_of(diffs: list[np.ndarray], h: float) -> np.ndarray:
    """Gradient of ||grad u||_2^2 with respect to u in L^2(h^d).

    Takes the forward differences of u (``_forward_diffs``) and its spacing.
    """
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


def heat_pairing(grid: Grid, t: float) -> Callable[[np.ndarray], float]:
    """(u, heat-semigroup(t) u) on value arrays of ``grid``, as one evaluator.

    Returns the pairing sum u_i (G_t * u)_i h^d of every array u of
    ``grid.shape`` with its heat-kernel convolution, as a float; like a
    convolution plan it maps arrays, and an array of another shape raises
    (DECISIONS.md D8), and so does one with non-finite values.  The kernel is
    sampled and transformed once, here, out to radius max(6 sqrt(t), 3h),
    beyond which the Gaussian tail is negligible at the tolerances used here.
    """
    if not 0 < t < math.inf:
        raise ValueError(f"time must be positive and finite, got {t}")
    radius = max(6.0 * math.sqrt(t), 3.0 * grid.h)
    rc = min(math.ceil(radius / grid.h), max(n - 1 for n in grid.shape))
    plan = convolution_plan(sample_kernel(HeatGaussian(t), displacement_grid(grid, radius_cells=rc)), grid)
    vol = grid.cell_volume

    def pairing(u: np.ndarray) -> float:
        value = float(np.sum(u * plan(u))) * vol
        if not math.isfinite(value):
            raise ValueError(f"heat pairing {value!r} of an array with non-finite values")
        return value

    return pairing


def riesz_energy(rho: ScalarField, lam: float) -> float:
    """Interaction energy of rho against |x - y|^(-lam)."""
    PowerLaw(lam).validate(rho.dim)
    if rho.values.min() < 0.0:
        raise ValueError("riesz energy requires a nonnegative density")
    kfield = sample_kernel(PowerLaw(lam), displacement_grid(rho.grid))
    return riesz_triple(rho, kfield, rho)

