"""Dirichlet spectra and the heat-trace perimeter fit.

The fast routes are checked against a dense ``eigvalsh`` of an operator
assembled cell by cell in this file, independently of ``spectral``, and at
production size against shift-invert Lanczos (``scipy.sparse.linalg.eigsh``,
also in this file, on the stencil triplets as a sparse matrix):

* ``dirichlet_lambda1``, the certified banded inverse iteration, which
  takes no potential, on masks symmetrized under a random subgroup of the
  grid symmetries in 1-3 d, disconnected ones included, and on masks with
  no symmetry but the identity, to ``SPARSE_RTOL``; on domains whose two
  lowest eigenvalues nearly coincide (two intervals of 100 and 101 cells,
  a dumbbell with a one-cell neck); on the Faber-Krahn disk at h = 1/64
  (4,104 cells) and 1/128 (2,073 orbits) against Lanczos, the first within
  a ``tracemalloc`` bound of less than the dense reduced matrix; a domain
  of more than ``DENSE_CELL_CAP`` orbits is rejected before anything large
  is allocated, one of more cells but fewer orbits is solved; with the
  iteration cap at one step the call raises rather than return an
  uncertified value;
* the Lanczos oracle itself against the dense one on random 1-d and 2-d
  masks, its lowest k <= 6 values, and on translated equal pieces whose
  repeated eigenvalues it must not miss;
* the closed form of boxes: ``dirichlet_lambda1`` returns its first value
  bit for bit, and its lowest values match Lanczos to ``SPARSE_RTOL``;
* the closed-form full spectrum of 1-, 2- and 3-d boxes, to ``BOX_RTOL`` per
  eigenvalue (1.4e-12 was the largest seen on the 64 x 64 square);
* the capped dense route of ``dirichlet_eigenvalues`` on random masks, with
  a potential V of either sign or none;
* the one dense matrix, with one orbit per cell, against
  ``scipy.sparse.csc_matrix(...).toarray()`` of the same triplets, byte for
  byte, on random 1-d and 2-d masks with V or none;
* on masks with no grid symmetry but the identity, the banded route's
  blocks, written out, byte for byte the dense V = 0 matrix of
  ``dirichlet_eigenvalues``, and ``dirichlet_lambda1`` its first value to
  ``SPARSE_RTOL``.
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


def _lanczos_oracle(omega, k):
    """Lowest k < N eigenvalues of the V = 0 operator by ARPACK shift-invert Lanczos.

    Shift-invert about sigma = 0, below the whole spectrum, so the k
    eigenvalues nearest sigma are the lowest k; the start vector is seeded
    and positive, so that equal pieces of a domain are not kept bitwise
    equal and their repeated eigenvalues are not missed.
    """
    from scipy import sparse
    from scipy.sparse.linalg import eigsh

    n = omega.count()
    rows, cols, data = spectral._dirichlet_triplets(omega, None)
    A = sparse.csc_matrix((data, (rows, cols)), shape=(n, n))
    v0 = np.random.default_rng(0).uniform(0.5, 1.5, n)
    return np.sort(eigsh(A, k, sigma=0.0, which="LM", v0=v0, return_eigenvectors=False))


@st.composite
def _masks(draw):
    """A small random mask (1-d or 2-d) with at least two cells."""
    d = draw(st.integers(1, 2))
    shape = (draw(st.integers(2, (30, 8)[d - 1])),) + (draw(st.integers(1, 8)),) * (d - 1)
    h = draw(st.sampled_from([0.05, 0.25, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mask = rng.random(shape) < draw(st.floats(0.2, 1.0))
    if mask.sum() < 2:
        mask.flat[:2] = True
    return GridSet(Grid(shape, h), mask)


@st.composite
def _masked_domains(draw):
    """A mask of ``_masks`` and V in [-3, 3] on its grid, or None."""
    omega = draw(_masks())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    V = draw(st.sampled_from([None, ScalarField(omega.grid, rng.uniform(-3.0, 3.0, omega.grid.shape))]))
    return omega, V


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
def _symmetric_masks(draw):
    """A random mask in 1-3 d fixed by a random subgroup.

    The subgroup is generated by a few grid symmetries: axis flips and
    permutations of axes of equal extent.  The mask is the union of its
    images.
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
    return GridSet(Grid(shape, h), _symmetrize(mask, elements, np.logical_or))


def _translated_pieces():
    # pieces of equal length repeat eigenvalues; the route must not merge or miss them
    mask = np.array(
        [1, 1, 1, 0, 1, 1, 1, 0, 1, 1, 1, 1, 0, 1, 1, 1, 0, 1, 0]
        + [1, 1, 1, 1, 1, 1, 1, 1, 0, 1, 1],
        bool,
    )
    return GridSet(Grid((mask.size,), 0.25), mask)


def _disk_less_one_cell():
    g = Grid((9, 9), 0.25)
    mask = g.radius2() < 1.0
    mask[2, 5] = False  # breaks every symmetry of the disk
    return GridSet(g, mask)


def _holed_oblong_box():
    # 7 x 4 cells less two opposite corners: the half turn is a symmetry; a
    # transposition read back in the 7 x 4 shape also fixes this mask, but
    # it is no symmetry
    mask = np.ones((7, 4), bool)
    mask[0, 0] = mask[6, 3] = False
    return GridSet(Grid((7, 4), 0.25), mask)


def _asymmetric_mask():
    mask = np.zeros((5, 5), bool)
    mask[0, :3] = mask[1, 1:] = mask[3, :2] = True
    return GridSet(Grid((5, 5), 1.0), mask)


def _two_intervals():
    # lambda_2 / lambda_1 = (102 / 101)^2, about 1.02: no grid symmetry maps
    # one piece onto the other, so the reduction keeps both modes
    mask = np.array([1] * 100 + [0] + [1] * 101, bool)
    return GridSet(Grid((mask.size,), 0.01), mask)


def _dumbbell():
    # two 10 x 10 lobes joined by a one-cell neck, one lobe less a corner
    # cell, which breaks the mirror between them: lambda_2 / lambda_1 = 1.004
    mask = np.zeros((12, 25), bool)
    mask[1:11, :10] = mask[1:11, 15:] = True
    mask[4, 10:15] = True
    mask[1, 24] = False
    return GridSet(Grid(mask.shape, 0.1), mask)


def _expanded(op):
    """The block-tridiagonal operator written into a dense n x n matrix."""
    nb, b, _ = op.diag.shape
    dense = np.zeros((nb * b, nb * b))
    for k in range(nb):
        dense[k * b : (k + 1) * b, k * b : (k + 1) * b] = op.diag[k]
        if k:
            dense[k * b : (k + 1) * b, (k - 1) * b : k * b] = op.sub[k - 1]
            dense[(k - 1) * b : k * b, k * b : (k + 1) * b] = op.sub[k - 1].T
    return dense[: op.n, : op.n]


def _one_cell():
    mask = np.zeros((3, 3, 3), bool)
    mask[1, 1, 1] = True
    return GridSet(Grid((3, 3, 3), 0.5), mask)


class TestDirichletSpectrum:
    def test_interval_matches_path_graph_formula(self):
        # exact lowest eigenvalue of the stencil on n cells: (2/h^2)(1 - cos(pi/(n+1))),
        # by the closed form (the full box) and by the flip-reduced operator
        # (the same cells inside a box one cell wider on each side)
        n, h = 40, 1.0 / 40
        want = (2.0 / h**2) * (1 - np.cos(np.pi / (n + 1)))
        inner = np.zeros(n + 2, bool)
        inner[1:-1] = True
        for omega in (_interval(n, h), GridSet(Grid((n + 2,), h), inner)):
            assert dirichlet_lambda1(omega) == pytest.approx(want, rel=1e-10)

    def test_interval_approaches_continuum(self):
        n, h = 128, 1.0 / 128
        lam1 = dirichlet_lambda1(_interval(n, h))
        assert lam1 == pytest.approx(math.pi**2, rel=0.03)

    def test_single_cell(self):
        g = Grid((5, 5), 0.5)
        m = np.zeros((5, 5), bool)
        m[2, 2] = True
        assert dirichlet_lambda1(GridSet(g, m)) == pytest.approx(2 * 2 / 0.25, rel=1e-13)

    def test_faber_krahn_smoke(self):
        h = 1.0 / 32
        n = 32
        square = GridSet(Grid((n, n), h), np.ones((n, n), bool))
        lam_sq = dirichlet_lambda1(square)
        radius = 1.0 / math.sqrt(math.pi)
        m = 44
        dg = Grid((m, m), h)
        disk = GridSet(dg, dg.radius2() < radius**2)
        lam_disk = dirichlet_lambda1(disk)
        assert lam_sq > lam_disk

    def test_faber_krahn_disk_matches_lanczos(self):
        disk = unit_area_disk(1.0 / 64)
        assert disk.count() == 4104
        got = dirichlet_lambda1(disk)
        np.testing.assert_allclose(got, _lanczos_oracle(disk, 1)[0], rtol=1e-10)

    def test_faber_krahn_disk_at_h128_matches_lanczos(self):
        disk = unit_area_disk(1.0 / 128)
        assert spectral._cell_orbits(disk)[1].size == 2073
        got = dirichlet_lambda1(disk)
        np.testing.assert_allclose(got, _lanczos_oracle(disk, 1)[0], rtol=SPARSE_RTOL)

    def test_faber_krahn_disk_memory_below_dense_matrix(self):
        # the dense reduced route built a 526 x 526 matrix alone of 8 * 526^2 bytes
        disk = unit_area_disk(1.0 / 64)
        dirichlet_lambda1(disk)
        tracemalloc.start()
        try:
            dirichlet_lambda1(disk)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 526**2

    @pytest.mark.parametrize("case", [_two_intervals, _dumbbell])
    def test_near_degenerate_pair_matches_dense_oracle(self, case):
        omega = case()
        assert len(spectral._symmetry_group(omega)) == 1
        want = _dense_oracle(omega, None)
        assert want[1] / want[0] < 1.03
        np.testing.assert_allclose(dirichlet_lambda1(omega), want[0], rtol=SPARSE_RTOL)

    def test_iteration_cap_raises(self, monkeypatch):
        # one step cannot stall, so no certificate is tried and no value returned
        monkeypatch.setattr(spectral, "LAMBDA1_MAX_ITER", 1)
        for omega in (unit_area_disk(1.0 / 64), _two_intervals()):
            with pytest.raises(np.linalg.LinAlgError, match="not certified in 1 steps"):
                dirichlet_lambda1(omega)

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
            dirichlet_lambda1(GridSet(g, np.zeros(4, bool)))
        big = 72
        holed = np.ones((big, big), bool)
        holed[big // 2, big // 2] = False
        assert holed.sum() > DENSE_CELL_CAP
        with pytest.raises(ValueError, match="dense cap"):
            dirichlet_eigenvalues(GridSet(Grid((big, big), 0.1), holed), None)

    def test_orbit_cap(self):
        # a 72 x 72 square of 5,184 cells inside a 74 x 74 box, so that it is
        # no full box: the square's 8 symmetries leave 666 orbits, and the
        # route solves it; a hole off every symmetry axis leaves 5,183
        # orbits, rejected before the dense matrix is allocated
        big = 72
        g = Grid((big + 2, big + 2), 0.1)
        inner = np.zeros(g.shape, bool)
        inner[1:-1, 1:-1] = True
        square = GridSet(g, inner)
        assert square.count() == big * big and len(spectral._symmetry_group(square)) == 8
        got = dirichlet_lambda1(square)
        np.testing.assert_allclose(got, _lanczos_oracle(square, 1)[0], rtol=SPARSE_RTOL)
        holed = inner.copy()
        holed[1, 2] = False
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="5183 cell orbits, dense cap"):
                dirichlet_lambda1(GridSet(g, holed))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_box_beyond_dense_cap_matches_closed_form(self):
        # Lanczos has no cell cap: 72^2 = 5,184 cells
        box = GridSet(Grid((72, 72), 0.1), np.ones((72, 72), bool))
        assert box.count() > DENSE_CELL_CAP
        closed = dirichlet_eigenvalues(box, None)
        np.testing.assert_allclose(closed[:5], _lanczos_oracle(box, 5), rtol=SPARSE_RTOL)
        assert dirichlet_lambda1(box) == closed[0]

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
        assert dirichlet_lambda1(box) == float(closed[0])
        if k < box.count():
            np.testing.assert_allclose(closed[:k], _lanczos_oracle(box, k), rtol=SPARSE_RTOL)

    @settings(max_examples=300, deadline=None)
    @given(_symmetric_masks())
    @example(_translated_pieces())
    @example(_disk_less_one_cell())
    @example(_holed_oblong_box())
    @example(_asymmetric_mask())
    @example(_one_cell())
    def test_lambda1_matches_dense_oracle(self, omega):
        np.testing.assert_allclose(dirichlet_lambda1(omega), _dense_oracle(omega, None)[0], rtol=SPARSE_RTOL)

    @settings(max_examples=150, deadline=None)
    @given(_masks(), st.integers(1, 6))
    def test_sparse_matches_dense(self, omega, k):
        # the sparse oracle the production-size tests rely on, checked where
        # the dense one can run, and the reduced route against its lowest value
        k = min(k, omega.count() - 1)
        got = _lanczos_oracle(omega, k)
        np.testing.assert_allclose(got, _dense_oracle(omega, None)[:k], rtol=SPARSE_RTOL)
        np.testing.assert_allclose(dirichlet_lambda1(omega), got[0], rtol=SPARSE_RTOL)

    def test_repeated_eigenvalues_of_translated_components(self):
        # pieces of equal length repeat eigenvalues; lambda1 is that of the
        # longest piece, 8 cells, and the seeded Lanczos start vector finds
        # every repeated copy below it
        omega = _translated_pieces()
        want = _dense_oracle(omega, None)
        lam1 = dirichlet_lambda1(omega)
        np.testing.assert_allclose(lam1, want[0], rtol=SPARSE_RTOL)
        np.testing.assert_allclose(lam1, dirichlet_lambda1(_interval(8, 0.25)), rtol=SPARSE_RTOL)
        np.testing.assert_allclose(_lanczos_oracle(omega, 6), want[:6], rtol=SPARSE_RTOL)


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
        got = spectral._dense_operator(omega, V)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(_masks())
    def test_lambda1_without_symmetry_is_the_first_full_eigenvalue(self, omega):
        # the identity alone leaves one orbit per cell: the banded route's
        # blocks hold the full spectrum's V = 0 matrix, and its certified
        # value is that matrix's lowest eigenvalue
        assume(len(spectral._symmetry_group(omega)) == 1)
        dense = spectral._dense_operator(omega, None)
        blocks = _expanded(spectral._reduced_operator(omega))
        assert blocks.dtype == dense.dtype and blocks.shape == dense.shape
        assert blocks.tobytes() == dense.tobytes()
        want = dirichlet_eigenvalues(omega, None)[0]
        np.testing.assert_allclose(dirichlet_lambda1(omega), want, rtol=SPARSE_RTOL)

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
