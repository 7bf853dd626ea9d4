"""The FFT convolution routes against their oracles (DECISIONS.md D8).

The routes run on ``numpy.fft``'s 1-d transforms; the oracles are scipy's
(``scipy.fft`` and ``scipy.signal``), which vendor the same pocketfft.

* ``convolve`` (a one-shot ``convolution_plan``: short circular transforms,
  pruned axis by axis) against a plain O(N^2) lattice sum, to 1e-12
  relative to max|k| sum|f| h^d, which bounds every output value;
* the pruned transforms against the unpruned window
  ``irfftn(rfftn(f, L) * rfftn(k, L), L)[r:r+n] * h^d`` of ``scipy.fft``,
  bit for bit and sign of zero included: they take scipy.fft's axis order
  and its single 1/prod(L) scaling, and the pad slabs hold rfftn's values
  for the zero box, so every report stays byte-identical;
* the plan, built for a grid: applied again and again, to the arrays of
  alternating fields, it gives the bits of a one-shot ``convolve`` and of
  the unpruned window in 1-, 2- and 3-d; a changed kernel gets its own
  spectrum; the plan keeps no reference to the kernel values; two live
  plans share no buffer; a grid of another spacing or rank is refused when
  the plan is built, and an array of another shape on every call; a call
  returns an array and constructs no ``ScalarField``;
* the in-place stages: the field's values and the plan's spectrum are
  untouched by repeated calls, and a warm 32^3 plan call allocates no
  padded temporaries (its tracemalloc peak stays below 1 MB);
* one-shot calls from several threads at once get the bits of a
  sequential run, since each call makes its own plan;
* the plan's one schedule: a 3-d call that splits its phases in halves
  with a helper thread (``plan(values, helper=ex)``) gives the bits of the call
  without one, which runs each phase whole, and of the unpruned window,
  raises ``FloatingPointError`` under ``np.errstate(all="raise")`` exactly
  when the call without a helper does, keeps a warm call's tracemalloc
  peak below 1 MB, and is refused below 3-d; a call without a helper, in
  1-, 2- and 3-d, runs every transform on the calling thread and starts no
  thread;
* the transform length per axis, _next_fast_len(max(n + r, 2r + 1)), and
  ``_next_fast_len`` against ``scipy.fft.next_fast_len(n, real=True)`` for
  n = 1 .. 20,000;
* ``_fftconvolve_full`` against ``scipy.signal.fftconvolve(mode="full")``,
  bit for bit;
* no module of ``symkit`` has a scipy import statement, ``import symkit.cli``
  loads no scipy module at all, and neither do the ``verify``, ``refine``,
  ``stability``, ``probe-continuity`` and ``spectral`` verbs, ``rearrange``
  and ``info`` on small files, or an 8^3 ``choquard_descent``.
"""

import ast
import functools
import json
import os
import subprocess
import sys
import threading
import traceback
import tracemalloc
import types
import weakref
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.fft import irfftn, next_fast_len, rfftn

import symkit
from symkit import functionals
from symkit.field import Grid, GridSet, ScalarField, save
from symkit.functionals import _fftconvolve_full, _next_fast_len, convolution_plan, convolve
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
        kern = ScalarField(Grid(kv.shape, h), kv)
        out = convolve(kern, ScalarField(Grid(fv.shape, h), fv)).values
        lengths = convolution_plan(kern, Grid(fv.shape, h)).lengths
        assert out.tobytes() == _unpruned_window(kv, fv, h, lengths).tobytes()


class TestPrunedTransforms:
    # power-of-two lengths (the descent's 64^3) and others, whose 1/L factors
    # round: the pruned route scales once, as irfftn does
    @pytest.mark.parametrize("shape", [(32, 32, 32), (24, 30, 18), (45, 33), (200,)])
    def test_riesz_kernel_matches_unpruned_window(self, shape):
        g = Grid(shape, 0.125)
        kern = sample_kernel(PowerLaw(0.5), displacement_grid(g))
        fv = np.random.default_rng(6).standard_normal(shape)
        plan = convolution_plan(kern, g)
        out = convolve(kern, ScalarField(g, fv)).values
        assert out.tobytes() == _unpruned_window(kern.values, fv, g.h, plan.lengths).tobytes()
        assert plan(fv).tobytes() == out.tobytes()

    @pytest.mark.parametrize("shape", [(40,), (12, 10), (8, 6, 7)])
    def test_in_place_stages_leave_inputs_and_memo_alone(self, shape):
        # the plan's spectrum is the kernel transform it keeps for its life
        g = Grid(shape, 0.5)
        rng = np.random.default_rng(8)
        kern = ScalarField(displacement_grid(g), rng.random(tuple(2 * n - 1 for n in shape)))
        fields = [ScalarField(g, rng.random(shape)) for _ in range(2)]
        before = [f.values.copy() for f in fields]
        plan = convolution_plan(kern, g)
        first = [plan(f.values) for f in fields]
        for _ in range(3):
            for f, want in zip(fields, first):
                assert np.array_equal(plan(f.values), want)
        for f, b in zip(fields, before):
            assert f.values.tobytes() == b.tobytes()
        assert _plan_state(plan)["spec"].tobytes() == rfftn(kern.values, plan.lengths).tobytes()


class TestWorkspace:
    # a plan's buffers are its workspace: the one-shot convolve makes one per call
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
        plan = convolution_plan(sample_kernel(PowerLaw(1.0), displacement_grid(g)), g)
        f = ScalarField(g, np.random.default_rng(12).random(g.shape))
        plan(f.values)
        tracemalloc.start()
        try:
            plan(f.values)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the c2r output and the scaled window: about 0.85 MB; padded copies
        # and fresh c2c stage outputs took a call to 3.25 MB
        assert peak < 1.0e6


@st.composite
def _cases_3d(draw):
    # odd, even and unequal extents, kernel radii below and equal to n - 1
    shape = tuple(draw(st.integers(1, 5)) for _ in range(3))
    radii = tuple(draw(st.integers(0, n - 1)) for n in shape)
    kv = draw(arrays(np.float64, tuple(2 * r + 1 for r in radii), elements=_values))
    fv = draw(arrays(np.float64, shape, elements=_values))
    h = draw(st.sampled_from([0.25, 0.5, 1.0]))
    return kv, fv, h


def _helper_overflow_case():
    """A 3-d case whose only overflow is the product at axis-0 row 0.

    The kernel's spectrum is 8e307 cos(pi k0 / 8) times a unit phase, and
    the field is a delta of 2.4: the product overflows in row 0 only, which
    the helper's half holds; every other product stays below 99% of the
    largest double.
    """
    kv = np.zeros((7, 7, 7))
    kv[3, 3, 3] = kv[4, 3, 3] = 4e307
    fv = np.zeros((4, 4, 4))
    fv[0, 0, 0] = 2.4
    return kv, fv


def _outcome(call):
    """The bytes of ``call()``'s array under np.errstate(all="raise"), or the error."""
    try:
        with np.errstate(all="raise"):
            return call().tobytes()
    except FloatingPointError as exc:
        return exc


class TestSharedPlan:
    # plan(values, helper=ex) splits each of the plan's three phases in halves of
    # rows with ex; without a helper each runs whole (DECISIONS.md D20)
    @settings(max_examples=100, deadline=None)
    @given(_cases_3d())
    @example(_signed_zero_case())
    def test_shared_call_is_bit_identical_to_serial(self, case):
        kv, fv, h = case
        kern = ScalarField(Grid(kv.shape, h), kv)
        fields = [ScalarField(Grid(fv.shape, h), v) for v in (fv, fv[::-1] * 0.5 + 1.0)]
        plan = convolution_plan(kern, fields[0].grid)
        want = [_unpruned_window(kv, f.values, h, plan.lengths).tobytes() for f in fields]
        with ThreadPoolExecutor(1) as ex:
            for i in (0, 1, 1, 0, 0, 1):
                assert plan(fields[i].values, helper=ex).tobytes() == want[i]
                assert plan(fields[i].values).tobytes() == want[i]

    @pytest.mark.parametrize("shape", [(32, 32, 32), (24, 30, 18), (9, 7, 5)])
    def test_coulomb_kernel_shared_call_matches_serial(self, shape):
        g = Grid(shape, 0.125)
        plan = convolution_plan(sample_kernel(PowerLaw(1.0), displacement_grid(g)), g)
        rng = np.random.default_rng(15)
        fields = [rng.random(shape) for _ in range(2)]
        with ThreadPoolExecutor(1) as ex:
            for i in (0, 1, 0):
                assert plan(fields[i], helper=ex).tobytes() == plan(fields[i]).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(st.integers(150, 305), st.integers(0, 160), st.integers(0, 2**32 - 1))
    def test_shared_call_raises_exactly_when_serial_does(self, field_exp, kernel_exp, seed):
        # the halves on the helper run in a copy of the caller's context, so
        # under its np.errstate
        g = Grid((5, 4, 6), 0.5)
        rng = np.random.default_rng(seed)
        kern = ScalarField(displacement_grid(g), rng.random((9, 7, 11)) * 10.0**kernel_exp)
        f = rng.random(g.shape) * 10.0**field_exp
        plan = convolution_plan(kern, g)
        with ThreadPoolExecutor(1) as ex:
            serial, shared = _outcome(lambda: plan(f)), _outcome(lambda: plan(f, helper=ex))
        assert isinstance(serial, bytes) == isinstance(shared, bytes)
        if isinstance(serial, bytes):
            assert shared == serial

    def test_overflow_in_the_helpers_half_raises_in_the_caller(self):
        kv, fv = _helper_overflow_case()
        g = Grid(fv.shape, 0.5)
        plan = convolution_plan(ScalarField(displacement_grid(g), kv), g)
        f = fv
        with ThreadPoolExecutor(1) as ex:
            assert isinstance(_outcome(lambda: plan(f)), FloatingPointError)
            err = _outcome(lambda: plan(f, helper=ex))
            assert isinstance(err, FloatingPointError)
            # raised by the product on the helper, and re-raised by the join
            frames = [fr.name for fr in traceback.extract_tb(err.__traceback__)]
            assert frames[-2:] == ["run", "forward"]
            # the failed call left the plan usable
            calm = fv * 1e-10
            assert plan(calm, helper=ex).tobytes() == plan(calm).tobytes()

    @pytest.mark.parametrize("shape", [(12,), (6, 5)])
    def test_helper_below_3d_is_refused(self, shape):
        g = Grid(shape, 0.5)
        plan = convolution_plan(sample_kernel(PowerLaw(0.5), displacement_grid(g)), g)
        f = np.ones(shape)
        with ThreadPoolExecutor(1) as ex, pytest.raises(ValueError, match="3-d"):
            plan(f, helper=ex)

    @pytest.mark.parametrize("shape", [(12,), (6, 5), (7, 6, 5)])
    def test_call_without_a_helper_runs_every_transform_here(self, shape, monkeypatch):
        threads = []

        def recorded(fn):
            def wrapper(*args, **kwargs):
                threads.append(threading.current_thread())
                return fn(*args, **kwargs)

            return wrapper

        g = Grid(shape, 0.5)
        plan = convolution_plan(sample_kernel(PowerLaw(0.5), displacement_grid(g)), g)
        f = np.random.default_rng(16).random(shape)
        want = plan(f).tobytes()
        for name in ("rfft", "fft", "ifft", "irfft"):
            monkeypatch.setattr(functionals, name, recorded(getattr(functionals, name)))
        before = set(threading.enumerate())
        assert plan(f).tobytes() == want
        assert set(threading.enumerate()) == before
        # the r2c, d - 1 c2c stages each way and the c2r, each once, on this thread
        assert threads == [threading.current_thread()] * (2 * len(shape))

    def test_warm_shared_call_allocates_no_padded_temporaries(self):
        g = Grid((32, 32, 32), 0.25)
        plan = convolution_plan(sample_kernel(PowerLaw(1.0), displacement_grid(g)), g)
        f = np.random.default_rng(12).random(g.shape)
        with ThreadPoolExecutor(1) as ex:
            plan(f, helper=ex)
            tracemalloc.start()
            try:
                plan(f, helper=ex)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        # the window and the halves' c2r outputs, at most 0.8 MB (0.6 MB read)
        assert peak < 1.0e6


class TestLengthRule:
    def test_next_fast_len_matches_scipy(self):
        got = [_next_fast_len(n) for n in range(1, 20_001)]
        assert got == [next_fast_len(n, real=True) for n in range(1, 20_001)]

    def test_coulomb_32_cubed_uses_64(self):
        g = Grid((32, 32, 32), 0.25)
        kern = sample_kernel(PowerLaw(1.0), displacement_grid(g))
        assert convolution_plan(kern, g).lengths == (64, 64, 64)

    def test_kernel_wider_than_short_axis_uses_its_extent(self):
        # axis 0: n + r = 7 would round to 8 and cut the 9-wide kernel, so 2r + 1 = 9
        g = Grid((3, 12), 0.5)
        rng = np.random.default_rng(5)
        kern = ScalarField(displacement_grid(g, 4), rng.random((9, 9)))
        f = ScalarField(g, rng.random(g.shape))
        plan = convolution_plan(kern, g)
        assert plan.lengths == (9, 16)
        out = plan(f.values)
        assert _close(out, _lattice_sum(kern.values, f.values, g.h), kern.values, f.values, g.h)


def _plan_state(fn) -> dict:
    """The arrays a plan keeps, by the names its closure gives them.

    The closures of the stage functions it keeps are walked too, so an
    array that only a stage reads (the spectrum, in ``forward``) is found.
    """
    state = {}
    for name, cell in zip(fn.__code__.co_freevars, fn.__closure__ or ()):
        value = cell.cell_contents
        if isinstance(value, np.ndarray):
            state[name] = value
        elif isinstance(value, types.FunctionType):
            state.update(_plan_state(value))
    return state


class TestPlan:
    @settings(max_examples=100, deadline=None)
    @given(_cases())
    @example(_signed_zero_case())
    def test_warm_call_is_bit_identical_to_cold(self, case):
        # two fields alternate on one plan, as the descent's iterates and the
        # fft seminorm's ones and u do; every call gives the one-shot bits
        kv, fv, h = case
        kern = ScalarField(Grid(kv.shape, h), kv)
        fields = [ScalarField(Grid(fv.shape, h), v) for v in (fv, fv[::-1] * 0.5 + 1.0)]
        plan = convolution_plan(kern, fields[0].grid)
        want = [_unpruned_window(kv, f.values, h, plan.lengths).tobytes() for f in fields]
        assert [convolve(kern, f).values.tobytes() for f in fields] == want
        for i in (0, 0, 1, 0, 1, 1):
            assert plan(fields[i].values).tobytes() == want[i]

    def test_changed_kernel_of_same_shape_gets_its_own_spectrum(self):
        g = Grid((5, 6), 0.5)
        kern = sample_kernel(PowerLaw(1.0), displacement_grid(g))
        f = ScalarField(g, np.random.default_rng(2).random(g.shape))
        plan = convolution_plan(kern, g)
        first = plan(f.values)
        kv = np.array(kern.values)
        kv[2, 3] += 1.0
        other = convolution_plan(ScalarField(kern.grid, kv), g)
        out = other(f.values)
        assert _close(out, _lattice_sum(kv, f.values, g.h), kv, f.values, g.h)
        assert not _close(out, first, kv, f.values, g.h)
        assert plan(f.values).tobytes() == first.tobytes()

    def test_plan_keeps_no_kernel_values(self):
        # the descent's 63^3 Coulomb kernel is 2 MB that only its transform needs
        g = Grid((6, 7), 0.5)
        rng = np.random.default_rng(3)
        kern = ScalarField(displacement_grid(g), rng.random((11, 13)))
        f = ScalarField(g, rng.random(g.shape))
        want = convolve(kern, f).values.tobytes()
        plan = convolution_plan(kern, g)
        values = weakref.ref(kern.values)
        del kern
        assert values() is None
        assert plan(f.values).tobytes() == want

    def test_live_plans_of_different_shapes_share_no_buffers(self):
        # radius 4: both 3-d shapes take lengths (15, 15, 12), so buffers kept
        # per length would collide
        rng = np.random.default_rng(14)
        cases = []
        for shape in [(10, 9, 8), (11, 10, 8), (10, 9)]:
            g = Grid(shape, 0.5)
            kern = ScalarField(displacement_grid(g, 4), rng.standard_normal((9,) * len(shape)))
            f = ScalarField(g, rng.standard_normal(shape))
            cases.append((convolution_plan(kern, g), f, convolve(kern, f).values.tobytes()))
        assert cases[0][0].lengths == cases[1][0].lengths == (15, 15, 12)
        for _ in range(3):
            for plan, f, want in cases:
                assert plan(f.values).tobytes() == want
        arrays_of = [list(_plan_state(plan).values()) for plan, _, _ in cases]
        for i, mine in enumerate(arrays_of):
            for theirs in arrays_of[i + 1 :]:
                assert not any(np.shares_memory(a, b) for a in mine for b in theirs)

    def test_refuses_a_field_of_another_shape_or_spacing(self):
        # the spacing and the rank are checked when the plan is built, the shape on every call
        g = Grid((6, 5), 0.5)
        kern = ScalarField(displacement_grid(g), np.ones((11, 9)))
        plan = convolution_plan(kern, g)
        with pytest.raises(ValueError, match="shape"):
            plan(np.ones((5, 6)))
        with pytest.raises(ValueError, match="spacings"):
            convolution_plan(kern, Grid((6, 5), 0.25))
        with pytest.raises(ValueError, match="dimensions"):
            convolution_plan(kern, Grid((6, 5, 4), 0.5))

    @pytest.mark.parametrize("shape", [(12,), (6, 5), (7, 6, 5)])
    def test_maps_an_array_to_an_array_without_a_field(self, shape, monkeypatch):
        g = Grid(shape, 0.5)
        plan = convolution_plan(sample_kernel(PowerLaw(0.5), displacement_grid(g)), g)
        f = np.random.default_rng(17).random(shape)
        built = []
        monkeypatch.setattr(ScalarField, "__post_init__", lambda self: built.append(self))
        out = plan(f)
        assert built == []
        assert type(out) is np.ndarray and out.shape == shape


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


# the scipy submodules symkit called last, now exact numpy code (DECISIONS.md D18)
_LAZY_SCIPY = ("scipy.optimize", "scipy.ndimage", "scipy.integrate")


@functools.cache
def _modules_loaded_by(code: str) -> frozenset[str]:
    """The modules a fresh interpreter has loaded after running ``code``."""
    src = str(Path(symkit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code += "\nimport json, sys; print(json.dumps(sorted(sys.modules)))"
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return frozenset(json.loads(res.stdout.splitlines()[-1]))


def _scipy_modules(loaded: frozenset[str]) -> list[str]:
    return sorted(m for m in loaded if m == "scipy" or m.startswith("scipy."))


@pytest.mark.parametrize("module", ["scipy.signal", *_LAZY_SCIPY])
def test_cli_import_leaves_scipy_module_out(module):
    assert "symkit.cli" in _modules_loaded_by("import symkit.cli")
    assert module not in _modules_loaded_by("import symkit.cli")


def test_cli_import_loads_no_scipy():
    # FFTs run on numpy.fft
    assert _scipy_modules(_modules_loaded_by("import symkit.cli")) == []


def test_cli_import_loads_no_thread_pool_or_logging():
    # the Choquard descent imports its helper's executor when it runs (DECISIONS.md D20)
    loaded = _modules_loaded_by("import symkit.cli")
    assert "symkit.cli" in loaded
    assert sorted(m for m in loaded if m.split(".")[0] in ("concurrent", "logging")) == []


def test_no_module_imports_scipy():
    # also an import inside a function that no verb test runs, such as in choquard
    found = []
    for path in sorted(Path(symkit.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            names = [a.name for a in node.names] if isinstance(node, ast.Import) else []
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            found += [f"{path.name}:{node.lineno} {n}" for n in names if n.split(".")[0] == "scipy"]
    assert found == []


@pytest.mark.parametrize("verb", ["verify", "refine", "stability", "probe-continuity", "spectral"])
def test_scipy_free_suite_verb_loads_no_scipy(verb, tmp_path):
    # probe-continuity exits 1 on the criterion-9 plateau clause (DECISIONS.md D1)
    code = f"import symkit.cli\nassert symkit.cli.main(['--out', {str(tmp_path)!r}, {verb!r}]) in (0, 1)"
    loaded = _modules_loaded_by(code)
    assert "symkit.experiments" in loaded
    assert _scipy_modules(loaded) == []


def test_file_verbs_load_no_scipy(tmp_path):
    rng = np.random.default_rng(13)
    g = Grid((6, 5), 0.5)
    paths = {"field": tmp_path / "f.sk", "set": tmp_path / "s.sk"}
    save(ScalarField(g, rng.standard_normal(g.shape)), paths["field"])
    save(GridSet(g, rng.random(g.shape) < 0.5), paths["set"])
    code = "import symkit.cli"
    for kind, path in paths.items():
        out = tmp_path / f"{kind}_out.sk"
        code += f"\nassert symkit.cli.main(['rearrange', {str(path)!r}, {str(out)!r}]) == 0"
        code += f"\nassert symkit.cli.main(['info', {str(out)!r}]) == 0"
    assert _scipy_modules(_modules_loaded_by(code)) == []
    assert all((tmp_path / f"{kind}_out.sk").exists() for kind in paths)


def test_choquard_descent_loads_no_scipy():
    code = (
        "import numpy as np\n"
        "import symkit.cli\n"
        "from symkit.choquard import choquard_descent, coulomb_potential\n"
        "from symkit.field import Grid, ScalarField\n"
        "g = Grid((8, 8, 8), 0.5)\n"
        "res = choquard_descent(ScalarField(g, np.exp(-g.radius2() / 2.0)), coulomb_potential(g), steps=3)\n"
        "assert len(res.energies) > 1"
    )
    loaded = _modules_loaded_by(code)
    assert "symkit.choquard" in loaded
    assert _scipy_modules(loaded) == []


def test_spectral_verb_leaves_lazy_scipy_modules_out(tmp_path):
    # the `spectra` benchmark workload runs this verb; its lowest eigenvalue
    # is a dense numpy solve, so no scipy module loads at all
    code = f"import symkit.cli\nassert symkit.cli.main(['--out', {str(tmp_path)!r}, 'spectral']) == 0"
    loaded = _modules_loaded_by(code)
    assert "symkit.spectral" in loaded
    assert _scipy_modules(loaded) == []
