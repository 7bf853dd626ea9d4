"""Dirichlet spectra and the heat-trace perimeter fit.

The fast routes are checked against a dense ``eigvalsh`` of an operator
assembled cell by cell in this file, independently of ``spectral``, and at
production size against shift-invert Lanczos (``scipy.sparse.linalg.eigsh``,
also in this file, on the stencil triplets as a sparse matrix):

* ``dirichlet_lambda1`` on masks symmetrized under a random subgroup of the
  grid symmetries in 1-3 d, disconnected ones included, with a symmetric V
  of either sign or none, to ``SPARSE_RTOL`` measured from the shift
  min(0, min V) below which the spectrum lies; on the 4,104-cell
  Faber-Krahn disk against Lanczos; a domain of more than
  ``DENSE_CELL_CAP`` orbits is rejected before anything large is
  allocated, one of more cells but fewer orbits is solved;
* the Lanczos oracle itself against the dense one on random 1-d and 2-d
  masks, its lowest k <= 6 values, and on translated equal pieces whose
  repeated eigenvalues it must not miss;
* the closed form of boxes: ``dirichlet_lambda1`` returns its first value
  bit for bit, and its lowest values match Lanczos to ``SPARSE_RTOL``;
* the closed-form full spectrum of 1-, 2- and 3-d boxes, to ``BOX_RTOL`` per
  eigenvalue (1.4e-12 was the largest seen on the 64 x 64 square);
* the capped dense route of ``dirichlet_eigenvalues`` on random masks;
* the one dense matrix, with one orbit per cell, against
  ``scipy.sparse.csc_matrix(...).toarray()`` of the same triplets, byte for
  byte, on random 1-d and 2-d masks with V or none;
* on masks with no grid symmetry but the identity, ``dirichlet_lambda1``
  equal to the first value of ``dirichlet_eigenvalues``, bit for bit: both
  solve the same matrix.
"""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import symkit.spectral as spectral
from symkit.experiments import unit_area_disk
from symkit.field import Grid, GridSet, ScalarField
from symkit.rearrange import increasing_rearrangement
from symkit.spectral import (
    DENSE_CELL_CAP,
    dirichlet_eigenvalues,
    dirichlet_lambda1,
    heat_perimeter_estimate,
)

SPARSE_RTOL = 1e-10
BOX_RTOL = 1e-12


def _interval(n, h):
    g = Grid((n,), h)
    return GridSet(g, np.ones(n, bool))


def _dense_oracle(omega, V):
    """Full spectrum of -Delta_h + V on the cells of omega, assembled cell by cell."""
    g = omega.grid
    cells = [tuple(c) for c in np.argwhere(omega.mask)]
    index = {c: i for i, c in enumerate(cells)}
    A = np.zeros((len(cells), len(cells)))
    for i, c in enumerate(cells):
        A[i, i] = 2 * g.dim / g.h**2 + (0.0 if V is None else V.values[c])
        for ax in range(g.dim):
            for step in (-1, 1):
                nb = c[:ax] + (c[ax] + step,) + c[ax + 1 :]
                if nb in index:
                    A[i, index[nb]] = -1 / g.h**2
    return np.linalg.eigvalsh(A)


def _lanczos_oracle(omega, V, k):
    """Lowest k < N eigenvalues by ARPACK shift-invert Lanczos.

    Shift-invert about sigma = min(0, min V on omega), below the whole
    spectrum, so the k eigenvalues nearest sigma are the lowest k; the start
    vector is seeded and positive, so that equal pieces of a domain are not
    kept bitwise equal and their repeated eigenvalues are not missed.
    """
    from scipy import sparse
    from scipy.sparse.linalg import eigsh

    n = omega.count()
    rows, cols, data = spectral._dirichlet_triplets(omega, V)
    A = sparse.csc_matrix((data, (rows, cols)), shape=(n, n))
    sigma = 0.0 if V is None else min(0.0, float(V.values[omega.mask].min()))
    v0 = np.random.default_rng(0).uniform(0.5, 1.5, n)
    return np.sort(eigsh(A, k, sigma=sigma, which="LM", v0=v0, return_eigenvectors=False))


@st.composite
def _masked_domains(draw):
    """A small random mask (1-d or 2-d) with at least two cells, and V in [-3, 3] or None."""
    d = draw(st.integers(1, 2))
    shape = (draw(st.integers(2, (30, 8)[d - 1])),) + (draw(st.integers(1, 8)),) * (d - 1)
    h = draw(st.sampled_from([0.05, 0.25, 1.0]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    mask = rng.random(shape) < draw(st.floats(0.2, 1.0))
    if mask.sum() < 2:
        mask.flat[:2] = True
    grid = Grid(shape, h)
    V = draw(st.sampled_from([None, ScalarField(grid, rng.uniform(-3.0, 3.0, shape))]))
    return GridSet(grid, mask), V


def _act(a, perm, axes):
    return np.flip(np.transpose(a, perm), axes)


def _symmetrize(a, elements, combine):
    """Fold ``combine`` over the images of a under the group the elements generate."""
    while True:
        b = a
        for perm, axes in elements:
            b = combine(b, _act(b, perm, axes))
        if np.array_equal(a, b):
            return a
        a = b


@st.composite
def _symmetric_domains(draw):
    """A random mask in 1-3 d and V in [-3, 3] or None, both fixed by a random subgroup.

    The subgroup is generated by a few grid symmetries: axis flips and
    permutations of axes of equal extent.  The mask is the union of its
    images, V the pointwise maximum of its images.
    """
    d = draw(st.integers(1, 3))
    sizes = draw(st.lists(st.integers(1, (24, 10, 5)[d - 1]), min_size=1, max_size=d))
    shape = tuple(draw(st.sampled_from(sizes)) for _ in range(d))
    h = draw(st.sampled_from([0.05, 0.25, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    candidates = [
        (perm, tuple(ax for ax in range(d) if flips[ax]))
        for perm in itertools.permutations(range(d))
        if all(shape[p] == n for p, n in zip(perm, shape))
        for flips in itertools.product((False, True), repeat=d)
    ]
    elements = draw(st.lists(st.sampled_from(candidates), max_size=3))
    mask = rng.random(shape) < draw(st.floats(0.1, 1.0))
    mask.flat[rng.integers(mask.size)] = True
    mask = _symmetrize(mask, elements, np.logical_or)
    grid = Grid(shape, h)
    V = None
    if draw(st.booleans()):
        V = ScalarField(grid, _symmetrize(rng.uniform(-3.0, 3.0, shape), elements, np.maximum))
    return GridSet(grid, mask), V


def _translated_pieces():
    # pieces of equal length repeat eigenvalues; the route must not merge or miss them
    mask = np.array(
        [1, 1, 1, 0, 1, 1, 1, 0, 1, 1, 1, 1, 0, 1, 1, 1, 0, 1, 0]
        + [1, 1, 1, 1, 1, 1, 1, 1, 0, 1, 1],
        bool,
    )
    return GridSet(Grid((mask.size,), 0.25), mask), None


def _symmetric_mask_asymmetric_v():
    g = Grid((9, 9), 0.25)
    V = np.zeros(g.shape)
    V[2, 5] = -40.0  # breaks every symmetry of the disk
    return GridSet(g, g.radius2() < 1.0), ScalarField(g, V)


def _holed_oblong_box():
    # 7 x 4 cells less two opposite corners: the half turn is a symmetry; a
    # transposition read back in the 7 x 4 shape also fixes this mask, but
    # it is no symmetry
    mask = np.ones((7, 4), bool)
    mask[0, 0] = mask[6, 3] = False
    return GridSet(Grid((7, 4), 0.25), mask), None


def _asymmetric_mask():
    mask = np.zeros((5, 5), bool)
    mask[0, :3] = mask[1, 1:] = mask[3, :2] = True
    g = Grid((5, 5), 1.0)
    return GridSet(g, mask), ScalarField(g, np.full((5, 5), -3.0))


def _one_cell():
    g = Grid((3, 3, 3), 0.5)
    mask = np.zeros((3, 3, 3), bool)
    mask[1, 1, 1] = True
    return GridSet(g, mask), ScalarField(g, np.full((3, 3, 3), 1.75))


class TestDirichletSpectrum:
    def test_interval_matches_path_graph_formula(self):
        # exact lowest eigenvalue of the stencil on n cells: (2/h^2)(1 - cos(pi/(n+1))),
        # by the closed form (no V) and by the flip-reduced operator (V = 0)
        n, h = 40, 1.0 / 40
        want = (2.0 / h**2) * (1 - np.cos(np.pi / (n + 1)))
        omega = _interval(n, h)
        for V in (None, ScalarField(omega.grid, np.zeros(n))):
            assert dirichlet_lambda1(omega, V) == pytest.approx(want, rel=1e-10)

    def test_interval_approaches_continuum(self):
        n, h = 128, 1.0 / 128
        lam1 = dirichlet_lambda1(_interval(n, h), None)
        assert lam1 == pytest.approx(math.pi**2, rel=0.03)

    def test_single_cell(self):
        g = Grid((5, 5), 0.5)
        m = np.zeros((5, 5), bool)
        m[2, 2] = True
        V = ScalarField(g, np.full((5, 5), 1.75))
        got = dirichlet_lambda1(GridSet(g, m), V)
        assert got == pytest.approx(2 * 2 / 0.25 + 1.75, rel=1e-13)

    def test_faber_krahn_smoke(self):
        h = 1.0 / 32
        n = 32
        square = GridSet(Grid((n, n), h), np.ones((n, n), bool))
        lam_sq = dirichlet_lambda1(square, None)
        radius = 1.0 / math.sqrt(math.pi)
        m = 44
        dg = Grid((m, m), h)
        disk = GridSet(dg, dg.radius2() < radius**2)
        lam_disk = dirichlet_lambda1(disk, None)
        assert lam_sq > lam_disk

    def test_faber_krahn_disk_matches_lanczos(self):
        disk = unit_area_disk(1.0 / 64)
        assert disk.count() == 4104
        got = dirichlet_lambda1(disk, None)
        np.testing.assert_allclose(got, _lanczos_oracle(disk, None, 1)[0], rtol=1e-10)

    def test_j0_first_zero(self):
        from scipy.optimize import brentq
        from scipy.special import j0, jn_zeros

        from symkit.experiments import J0_FIRST_ZERO

        assert J0_FIRST_ZERO == brentq(j0, 2.0, 3.0, xtol=1e-14)
        ref = float(jn_zeros(0, 1)[0])
        assert abs(J0_FIRST_ZERO - ref) <= 2 * np.spacing(ref)

    def test_guards(self):
        g = Grid((4,), 0.5)
        with pytest.raises(ValueError, match="empty"):
            dirichlet_lambda1(GridSet(g, np.zeros(4, bool)), None)
        big = 72
        holed = np.ones((big, big), bool)
        holed[big // 2, big // 2] = False
        assert holed.sum() > DENSE_CELL_CAP
        with pytest.raises(ValueError, match="dense cap"):
            dirichlet_eigenvalues(GridSet(Grid((big, big), 0.1), holed), None)

    def test_orbit_cap(self):
        # 72^2 = 5,184 cells: with V = 0 the square's 8 symmetries leave 666
        # orbits, and the route solves it; a hole off every symmetry axis
        # leaves 5,183 orbits, rejected before the dense matrix is allocated
        big = 72
        g = Grid((big, big), 0.1)
        box = GridSet(g, np.ones((big, big), bool))
        got = dirichlet_lambda1(box, ScalarField(g, np.zeros((big, big))))
        np.testing.assert_allclose(got, _lanczos_oracle(box, None, 1)[0], rtol=SPARSE_RTOL)
        holed = box.mask.copy()
        holed[0, 1] = False
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="5183 cell orbits, dense cap"):
                dirichlet_lambda1(GridSet(g, holed), None)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_box_beyond_dense_cap_matches_closed_form(self):
        # Lanczos has no cell cap: 72^2 = 5,184 cells
        box = GridSet(Grid((72, 72), 0.1), np.ones((72, 72), bool))
        assert box.count() > DENSE_CELL_CAP
        closed = dirichlet_eigenvalues(box, None)
        np.testing.assert_allclose(closed[:5], _lanczos_oracle(box, None, 5), rtol=SPARSE_RTOL)
        assert dirichlet_lambda1(box, None) == closed[0]

    @pytest.mark.parametrize(
        "shape, h, k",
        [
            ((1,), 0.5, 1),
            ((2,), 1.0, 1),
            ((50,), 0.1, 3),
            ((64, 64), 1.0 / 64, 1),  # the Faber-Krahn square
            ((30, 17), 0.25, 4),
            ((7, 5, 4), 0.5, 3),
        ],
    )
    def test_box_takes_the_closed_form(self, shape, h, k):
        # the lowest eigenvalue of a box is the closed form's, bit for bit;
        # Lanczos, where ARPACK can run (k < N), checks its lowest k
        box = GridSet(Grid(shape, h), np.ones(shape, bool))
        closed = spectral._box_eigenvalues(box.grid)
        assert dirichlet_lambda1(box, None) == float(closed[0])
        if k < box.count():
            np.testing.assert_allclose(closed[:k], _lanczos_oracle(box, None, k), rtol=SPARSE_RTOL)

    @settings(max_examples=300, deadline=None)
    @given(_symmetric_domains())
    @example(_translated_pieces())
    @example(_symmetric_mask_asymmetric_v())
    @example(_holed_oblong_box())
    @example(_asymmetric_mask())
    @example(_one_cell())
    def test_lambda1_matches_dense_oracle(self, case):
        omega, V = case
        got = dirichlet_lambda1(omega, V)
        # relative to the shift, below which the whole spectrum lies
        shift = 0.0 if V is None else min(0.0, V.values[omega.mask].min())
        want = _dense_oracle(omega, V)[0]
        np.testing.assert_allclose(got - shift, want - shift, rtol=SPARSE_RTOL)

    @settings(max_examples=150, deadline=None)
    @given(_masked_domains(), st.integers(1, 6))
    def test_sparse_matches_dense(self, case, k):
        # the sparse oracle the production-size tests rely on, checked where
        # the dense one can run, and the reduced route against its lowest value
        omega, V = case
        k = min(k, omega.count() - 1)
        got = _lanczos_oracle(omega, V, k)
        # relative to the shift, below which the whole spectrum lies
        shift = 0.0 if V is None else min(0.0, V.values[omega.mask].min())
        want = _dense_oracle(omega, V)[:k]
        np.testing.assert_allclose(got - shift, want - shift, rtol=SPARSE_RTOL)
        np.testing.assert_allclose(dirichlet_lambda1(omega, V) - shift, got[0] - shift, rtol=SPARSE_RTOL)

    def test_repeated_eigenvalues_of_translated_components(self):
        # pieces of equal length repeat eigenvalues; lambda1 is that of the
        # longest piece, 8 cells, and the seeded Lanczos start vector finds
        # every repeated copy below it
        omega, _ = _translated_pieces()
        want = _dense_oracle(omega, None)
        lam1 = dirichlet_lambda1(omega, None)
        np.testing.assert_allclose(lam1, want[0], rtol=SPARSE_RTOL)
        np.testing.assert_allclose(lam1, dirichlet_lambda1(_interval(8, 0.25), None), rtol=SPARSE_RTOL)
        np.testing.assert_allclose(_lanczos_oracle(omega, None, 6), want[:6], rtol=SPARSE_RTOL)

    def test_negative_potential_gives_lowest_eigenvalues(self):
        # two cells at h = 1: V = -2.5 gives [[-0.5, -1], [-1, -0.5]] with
        # eigenvalues -1.5 and 0.5, so the one nearest 0 is not the lowest;
        # V = -1 gives the singular [[1, -1], [-1, 1]] with eigenvalues 0 and 2
        omega = _interval(2, 1.0)
        for v, lowest in ((-2.5, -1.5), (-1.0, 0.0)):
            got = dirichlet_lambda1(omega, ScalarField(omega.grid, np.full(2, v)))
            assert got == pytest.approx(lowest, abs=1e-12)


class TestFullSpectrum:
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_box_closed_form_matches_dense(self, data):
        d = data.draw(st.integers(1, 3))
        shape = tuple(data.draw(st.integers(1, (40, 14, 6)[d - 1])) for _ in range(d))
        h = data.draw(st.sampled_from([1.0 / 64, 0.1, 0.5, 1.0]))
        box = GridSet(Grid(shape, h), np.ones(shape, bool))
        np.testing.assert_allclose(dirichlet_eigenvalues(box, None), _dense_oracle(box, None), rtol=BOX_RTOL)

    @settings(max_examples=100, deadline=None)
    @given(_masked_domains())
    def test_dense_operator_equals_sparse_toarray(self, case):
        from scipy import sparse

        omega, V = case
        rows, cols, data = spectral._dirichlet_triplets(omega, V)
        n = omega.count()
        want = sparse.csc_matrix((data, (rows, cols)), shape=(n, n)).toarray()
        got = spectral._dense_operator(omega, V, np.arange(n), np.ones(n, dtype=np.int64))
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(_masked_domains())
    def test_lambda1_without_symmetry_is_the_first_full_eigenvalue(self, case):
        # the identity alone leaves one orbit per cell, the full spectrum's matrix
        omega, V = case
        assume(len(spectral._symmetry_group(omega, V)) == 1)
        assert dirichlet_lambda1(omega, V) == dirichlet_eigenvalues(omega, V)[0]

    @settings(max_examples=60, deadline=None)
    @given(_masked_domains())
    def test_dense_route_matches_oracle(self, case):
        omega, V = case
        np.testing.assert_allclose(dirichlet_eigenvalues(omega, V), _dense_oracle(omega, V), rtol=SPARSE_RTOL)


class TestHeatTrace:
    def test_single_cell(self):
        g = Grid((5,), 0.5)
        m = np.zeros(5, bool)
        m[2] = True
        t = 0.01
        got = float(np.exp(-t * dirichlet_eigenvalues(GridSet(g, m), None)).sum())
        assert got == pytest.approx(math.exp(-t * 2 / 0.25), rel=1e-13)

    def test_long_time_log_slope_matches_lambda1(self):
        dom = _interval(64, 1.0 / 64)
        ev = dirichlet_eigenvalues(dom, None)
        lam1 = ev[0]
        t1, t2 = 0.6, 0.8
        slope = (math.log(np.exp(-t2 * ev).sum()) - math.log(np.exp(-t1 * ev).sum())) / (t2 - t1)
        assert -slope == pytest.approx(lam1, rel=0.01)

    def test_rearrangement_direction_small_domain(self):
        rng = np.random.default_rng(6)
        g = Grid((24, 24), 4.0 / 24)
        mask = g.radius2() < 1.2**2
        mask &= rng.random((24, 24)) > 0.15  # pock-marked disk
        omega = GridSet(g, mask)
        V = ScalarField(g, np.abs(rng.normal(size=(24, 24))))
        vstar, ostar = increasing_rearrangement(V, omega)
        ev = dirichlet_eigenvalues(omega, V)
        ev_star = dirichlet_eigenvalues(ostar, vstar)
        for t in (0.05, 0.2):
            assert np.exp(-t * ev).sum() <= np.exp(-t * ev_star).sum() + 5e-3


class TestHeatPerimeter:
    def test_disk_estimate(self):
        h = 1.0 / 24
        radius = 1.0
        m = 54
        g = Grid((m, m), h)
        disk = GridSet(g, g.radius2() < radius**2)
        t_list = np.geomspace(100 * h * h, 900 * h * h, 8)
        est = heat_perimeter_estimate(disk, t_list)
        assert est == pytest.approx(2 * math.pi * radius, rel=0.10)

    def test_degenerate_fit_rejected(self):
        dom = _interval(8, 0.5)
        with pytest.raises(ValueError):
            heat_perimeter_estimate(dom, [0.1])
