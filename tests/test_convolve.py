"""The FFT convolution routes against their oracles (DECISIONS.md D8).

* ``convolve`` (short circular transforms, pruned axis by axis, memoized
  kernel spectrum) against a plain O(N^2) lattice sum, to 1e-12 relative to
  max|k| sum|f| h^d, which bounds every output value;
* the pruned transforms against the unpruned window
  ``irfftn(rfftn(f, L) * rfftn(k, L), L)[r:r+n] * h^d``, bit for bit and
  sign of zero included: they take scipy.fft's axis order and its single
  1/prod(L) scaling, and the pad slabs hold rfftn's values for the zero box,
  so every report stays byte-identical;
* the in-place c2c stages: the field's values and the memoized spectrum are
  untouched by repeated calls;
* the per-thread workspace: two threads convolving different shapes at once
  get the bits of a sequential run, and a warm 32^3 call allocates no padded
  temporaries (its tracemalloc peak stays below 1.5 MB);
* the transform length per axis, next_fast_len(max(n + r, 2r + 1));
* the kernel-spectrum memo: warm calls equal cold ones bit for bit, and a
  changed kernel of the same shape gets its own spectrum;
* ``_fftconvolve_full`` against ``scipy.signal.fftconvolve(mode="full")``,
  bit for bit;
* ``import symkit.cli`` does not load ``scipy.signal``, nor the submodules
  that only some verbs call (``scipy.optimize``, ``scipy.ndimage`` and
  ``scipy.integrate``), and the ``spectral`` verb loads none of those three.
"""

import functools
import json
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.fft import irfftn, rfftn

import symkit
import symkit.functionals as functionals
from symkit.field import Grid, ScalarField
from symkit.functionals import _fftconvolve_full, convolve
from symkit.kernels import PowerLaw, displacement_grid, sample_kernel

RTOL = 1e-12


def _lattice_sum(kv: np.ndarray, fv: np.ndarray, h: float) -> np.ndarray:
    """out[x] = sum_y k(x - y) f(y) h^d on f's grid."""
    rk = tuple(nk // 2 for nk in kv.shape)
    out = np.zeros(fv.shape)
    for x in np.ndindex(fv.shape):
        for y in np.ndindex(fv.shape):
            z = tuple(xi - yi + r for xi, yi, r in zip(x, y, rk))
            if all(0 <= zi < nk for zi, nk in zip(z, kv.shape)):
                out[x] += kv[z] * fv[y]
    return out * h ** fv.ndim


# zeros, and magnitudes in [1/64, 1]: no product of two values underflows
_values = st.one_of(
    st.just(0.0), st.builds(lambda x, sign: sign * x, st.floats(1 / 64, 1.0), st.sampled_from([1.0, -1.0]))
)


@st.composite
def _cases(draw):
    d = draw(st.integers(1, 3))
    nmax = {1: 9, 2: 5, 3: 3}[d]
    shape = tuple(draw(st.integers(1, nmax)) for _ in range(d))
    # radii below, equal to and (for the kernel-extent bound) above n - 1
    radii = tuple(draw(st.integers(0, n + 1)) for n in shape)
    kv = draw(arrays(np.float64, tuple(2 * r + 1 for r in radii), elements=_values))
    fv = draw(arrays(np.float64, shape, elements=_values))
    h = draw(st.sampled_from([0.25, 0.5, 1.0]))
    return kv, fv, h


def _close(got: np.ndarray, want: np.ndarray, kv: np.ndarray, fv: np.ndarray, h: float) -> bool:
    scale = float(np.abs(kv).max()) * float(np.abs(fv).sum()) * h**fv.ndim
    return bool(np.all(np.abs(got - want) <= RTOL * scale))


def _unpruned_window(kv: np.ndarray, fv: np.ndarray, h: float, lengths: tuple[int, ...]) -> np.ndarray:
    """The full-box transform pair that the pruned route replaces."""
    circ = irfftn(rfftn(fv, lengths) * rfftn(kv, lengths), lengths)
    return circ[tuple(slice(nk // 2, nk // 2 + n) for nk, n in zip(kv.shape, fv.shape))] * h**fv.ndim


def _signed_zero_case():
    """A 3-d case whose unpruned window holds a -0.0."""
    kv = np.zeros((3, 3, 7))
    kv[2, 1, 0] = -1.0
    kv[2, 2, 6] = 0.5
    return kv, np.zeros((1, 1, 2)), 0.25


class TestConvolveOracle:
    @settings(max_examples=150, deadline=None)
    @given(_cases())
    def test_matches_lattice_sum(self, case):
        kv, fv, h = case
        g = Grid(fv.shape, h)
        out = convolve(ScalarField(Grid(kv.shape, h), kv), ScalarField(g, fv))
        assert out.grid == g
        assert _close(out.values, _lattice_sum(kv, fv, h), kv, fv, h)

    @settings(max_examples=150, deadline=None)
    @given(_cases())
    # r2c of the zero-padded lines gives -0.0 imaginary parts that reach the
    # window as a -0.0, which the pad slabs must reproduce
    @example(_signed_zero_case())
    def test_matches_unpruned_window(self, case):
        kv, fv, h = case
        out = convolve(ScalarField(Grid(kv.shape, h), kv), ScalarField(Grid(fv.shape, h), fv)).values
        assert out.tobytes() == _unpruned_window(kv, fv, h, functionals._kernel_memo[0]).tobytes()


class TestPrunedTransforms:
    # power-of-two lengths (the descent's 64^3) and others, whose 1/L factors
    # round: the pruned route scales once, as irfftn does
    @pytest.mark.parametrize("shape", [(32, 32, 32), (24, 30, 18), (45, 33), (200,)])
    def test_riesz_kernel_matches_unpruned_window(self, shape):
        g = Grid(shape, 0.125)
        kern = sample_kernel(PowerLaw(0.5), displacement_grid(g))
        fv = np.random.default_rng(6).standard_normal(shape)
        out = convolve(kern, ScalarField(g, fv)).values
        assert out.tobytes() == _unpruned_window(kern.values, fv, g.h, functionals._kernel_memo[0]).tobytes()

    @pytest.mark.parametrize("shape", [(40,), (12, 10), (8, 6, 7)])
    def test_in_place_stages_leave_inputs_and_memo_alone(self, shape, monkeypatch):
        g = Grid(shape, 0.5)
        rng = np.random.default_rng(8)
        kern = ScalarField(displacement_grid(g), rng.random(tuple(2 * n - 1 for n in shape)))
        fields = [ScalarField(g, rng.random(shape)) for _ in range(2)]
        before = [f.values.copy() for f in fields]
        monkeypatch.setattr(functionals, "_kernel_memo", None)
        first = [convolve(kern, f).values for f in fields]
        for _ in range(3):
            for f, want in zip(fields, first):
                assert np.array_equal(convolve(kern, f).values, want)
        for f, b in zip(fields, before):
            assert f.values.tobytes() == b.tobytes()
        lengths, _, spec = functionals._kernel_memo
        assert spec.tobytes() == rfftn(kern.values, lengths).tobytes()


class TestWorkspace:
    def test_concurrent_threads_match_a_sequential_run(self):
        # more threads than cores, all on the same two field shapes, so
        # threads that shared buffers would overwrite each other's stages
        rng = np.random.default_rng(11)
        shapes = [(16, 12, 10), (40, 36)]
        cases = []
        for t in range(4):
            for shape in shapes:
                g = Grid(shape, 0.5)
                kern = ScalarField(displacement_grid(g), rng.standard_normal(tuple(2 * n - 1 for n in shape)))
                cases.append((t, kern, ScalarField(g, rng.standard_normal(shape))))
        want = {id(f): convolve(k, f).values.tobytes() for _, k, f in cases}
        mismatches, errors = [], []

        def work(t):
            try:
                mine = [(k, f) for owner, k, f in cases if owner == t]
                for _ in range(150):
                    for k, f in mine:
                        if convolve(k, f).values.tobytes() != want[id(f)]:
                            mismatches.append(t)
            except Exception as exc:  # reported below, with the thread's result
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert errors == [] and mismatches == []

    def test_warm_call_allocates_no_padded_temporaries(self):
        g = Grid((32, 32, 32), 0.25)
        kern = sample_kernel(PowerLaw(1.0), displacement_grid(g))
        f = ScalarField(g, np.random.default_rng(12).random(g.shape))
        convolve(kern, f)
        tracemalloc.start()
        try:
            convolve(kern, f)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the r2c output, the c2r output and the scaled window: about 0.85 MB;
        # padded copies and fresh c2c stage outputs took it to 3.25 MB
        assert peak < 1.5e6


class TestLengthRule:
    def test_coulomb_32_cubed_uses_64(self, monkeypatch):
        g = Grid((32, 32, 32), 0.25)
        kern = sample_kernel(PowerLaw(1.0), displacement_grid(g))
        monkeypatch.setattr(functionals, "_kernel_memo", None)
        convolve(kern, ScalarField(g, np.ones(g.shape)))
        assert functionals._kernel_memo[0] == (64, 64, 64)

    def test_kernel_wider_than_short_axis_uses_its_extent(self, monkeypatch):
        # axis 0: n + r = 7 would round to 8 and cut the 9-wide kernel, so 2r + 1 = 9
        g = Grid((3, 12), 0.5)
        rng = np.random.default_rng(5)
        kern = ScalarField(displacement_grid(g, 4), rng.random((9, 9)))
        f = ScalarField(g, rng.random(g.shape))
        monkeypatch.setattr(functionals, "_kernel_memo", None)
        out = convolve(kern, f)
        assert functionals._kernel_memo[0] == (9, 16)
        assert _close(out.values, _lattice_sum(kern.values, f.values, g.h), kern.values, f.values, g.h)


class TestKernelMemo:
    def _coulomb(self, shape, h):
        g = Grid(shape, h)
        return g, sample_kernel(PowerLaw(1.0), displacement_grid(g))

    def test_warm_call_is_bit_identical_to_cold(self, monkeypatch):
        g, kern = self._coulomb((8, 8, 8), 0.25)
        f = ScalarField(g, np.random.default_rng(1).random(g.shape))
        monkeypatch.setattr(functionals, "_kernel_memo", None)
        cold = convolve(kern, f).values
        spec = functionals._kernel_memo[2]
        warm = convolve(kern, f).values
        assert functionals._kernel_memo[2] is spec  # the second call reused the spectrum
        assert np.array_equal(cold, warm)

    def test_changed_kernel_of_same_shape_gets_its_own_spectrum(self, monkeypatch):
        g, kern = self._coulomb((5, 6), 0.5)
        f = ScalarField(g, np.random.default_rng(2).random(g.shape))
        monkeypatch.setattr(functionals, "_kernel_memo", None)
        convolve(kern, f)
        kv = np.array(kern.values)
        kv[2, 3] += 1.0
        other = ScalarField(kern.grid, kv)
        out = convolve(other, f)
        assert _close(out.values, _lattice_sum(kv, f.values, g.h), kv, f.values, g.h)
        assert not _close(out.values, convolve(kern, f).values, kv, f.values, g.h)

    def test_memo_holds_a_private_copy(self, monkeypatch):
        g = Grid((6,), 0.5)
        rng = np.random.default_rng(3)
        kern = ScalarField(displacement_grid(g), rng.random(11))
        f = ScalarField(g, rng.random(6))
        monkeypatch.setattr(functionals, "_kernel_memo", None)
        convolve(kern, f)
        assert not np.shares_memory(functionals._kernel_memo[1], kern.values)


_shapes = st.lists(st.integers(1, 9), min_size=1, max_size=3)


class TestFullMode:
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_bit_identical_to_scipy_signal(self, data):
        from scipy.signal import fftconvolve

        sa = data.draw(_shapes)
        sb = data.draw(st.lists(st.integers(1, 9), min_size=len(sa), max_size=len(sa)))
        a = data.draw(arrays(np.float64, tuple(sa), elements=_values))
        b = data.draw(arrays(np.float64, tuple(sb), elements=_values))
        want = fftconvolve(a, b, mode="full")
        got = _fftconvolve_full(a, b)
        assert got.shape == want.shape
        assert np.array_equal(got, want)

    @pytest.mark.parametrize(
        "sa, sb", [((7,), (13,)), ((33,), (65,)), ((4, 9, 3), (5, 2, 7)), ((1, 5), (3, 1)), ((6, 1, 5), (1, 1, 9))]
    )
    def test_mismatched_and_odd_shapes(self, sa, sb):
        from scipy.signal import fftconvolve

        rng = np.random.default_rng(4)
        a, b = rng.standard_normal(sa), rng.standard_normal(sb)
        rev = b[tuple(slice(None, None, -1) for _ in sb)]  # negative strides, as the correlations pass
        assert np.array_equal(_fftconvolve_full(a, b), fftconvolve(a, b, mode="full"))
        assert np.array_equal(_fftconvolve_full(a, rev), fftconvolve(a, rev, mode="full"))


# imported inside the functions that call them, which no verb but refine reaches
_LAZY_SCIPY = ("scipy.optimize", "scipy.ndimage", "scipy.integrate")


@functools.cache
def _modules_loaded_by(code: str) -> frozenset[str]:
    """The modules a fresh interpreter has loaded after running ``code``."""
    src = str(Path(symkit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code += "\nimport json, sys; print(json.dumps(sorted(sys.modules)))"
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return frozenset(json.loads(res.stdout.splitlines()[-1]))


@pytest.mark.parametrize("module", ["scipy.signal", *_LAZY_SCIPY])
def test_cli_import_leaves_scipy_module_out(module):
    assert "symkit.cli" in _modules_loaded_by("import symkit.cli")
    assert module not in _modules_loaded_by("import symkit.cli")


def test_spectral_verb_leaves_lazy_scipy_modules_out(tmp_path):
    # the `spectra` benchmark workload runs this verb in about 0.2 s
    code = f"import symkit.cli\nassert symkit.cli.main(['--out', {str(tmp_path)!r}, 'spectral']) == 0"
    loaded = _modules_loaded_by(code)
    assert "symkit.spectral" in loaded
    assert not loaded & set(_LAZY_SCIPY)
