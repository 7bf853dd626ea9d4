"""Two exact 1-d lattice inequalities that see the cell order (ROADMAP item 20).

On n cells, with everything zero outside the box:

* Riesz: for f, g >= 0 and a kernel k even and nonincreasing in |z|,
  sum_ij f_i k(i - j) g_j never decreases under ``rearrange`` of f and g
  (Hardy, Littlewood and Polya, *Inequalities*, ch. X);
* Polya-Szego: the two-sided sum sum_{i=-1}^{n-1} |u_{i+1} - u_i|^p, with
  u_{-1} = u_n = 0, never increases under ``rearrange`` of u, for p in
  {1, 1.5, 2, 4}.  The one-sided form of ``gradient_pnorm`` is not
  reflection exact, so the sum is written here.

Both hold exactly on the lattice, so each is checked at the exact suite's
slack, ``EXACT_TOL`` (DECISIONS.md D5), on inputs of both parities of n:
rough ones, and ones already symmetric decreasing, laid out by a sort
written here rather than by ``cell_order``.  On the latter ``rearrange``
is the identity and both statements are equalities, so an order that
differs from the symmetric one turns a statement red: the mutant test
checks three such orders.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import symkit.rearrange as rearrange_module
from symkit.experiments import EXACT_TOL
from symkit.field import Grid, ScalarField
from symkit.rearrange import rearrange

POWERS = (1.0, 1.5, 2.0, 4.0)


def riesz_sum(f: np.ndarray, k: np.ndarray, g: np.ndarray) -> float:
    """sum_ij f_i k(|i - j|) g_j, with ``k[z]`` the kernel at distance z."""
    i = np.arange(f.size)
    return float(f @ k[np.abs(i[:, None] - i[None, :])] @ g)


def polya_szego_sum(u: np.ndarray, p: float) -> float:
    """sum_{i=-1}^{n-1} |u_{i+1} - u_i|^p with u zero on both sides of the box."""
    return float(np.sum(np.abs(np.diff(u, prepend=0.0, append=0.0)) ** p))


def symmetric_decreasing(values: np.ndarray) -> np.ndarray:
    """``values`` sorted descending onto cells of ascending |2i - (n - 1)|, the left one first on ties."""
    n = values.size
    cells = sorted(range(n), key=lambda i: (abs(2 * i - (n - 1)), i))
    out = np.empty(n)
    out[cells] = np.sort(values)[::-1]
    return out


def _star(u: np.ndarray) -> np.ndarray:
    return rearrange(ScalarField(Grid((u.size,), 1.0), u)).values


def _holds(bad: float, good: float) -> bool:
    return bad - good <= EXACT_TOL * max(abs(bad), abs(good), 1e-300)


def broken_statements(f: np.ndarray, g: np.ndarray, k: np.ndarray) -> list[str]:
    """The statements that ``rearrange`` breaks on f, g and the kernel k."""
    fs, gs = _star(f), _star(g)
    broken = []
    if not _holds(riesz_sum(f, k, g), riesz_sum(fs, k, gs)):
        broken.append("riesz")
    broken += [f"polya-szego p={p}" for p in POWERS if not _holds(polya_szego_sum(fs, p), polya_szego_sum(f, p))]
    return broken


_values = st.floats(0.0, 100.0, allow_nan=False, allow_infinity=False)


@st.composite
def _cases(draw):
    """(f, g, k) on n cells, both parities: f and g rough or symmetric decreasing."""
    n = draw(st.integers(1, 41))
    f, g = (draw(arrays(np.float64, n, elements=_values)) for _ in range(2))
    if draw(st.booleans()):
        f, g = symmetric_decreasing(f), symmetric_decreasing(g)
    k = np.sort(draw(arrays(np.float64, n, elements=_values)))[::-1]
    return f, g, k


@settings(max_examples=150, deadline=None)
@given(_cases())
def test_rearrange_keeps_riesz_and_polya_szego(case):
    assert broken_statements(*case) == []


def _swap_first_with_tenth(order):
    order[0], order[order.size // 10] = order[order.size // 10], order[0]
    return order


def _centre_one_cell_off(order):
    n = order.size
    return np.argsort(np.abs(2 * np.arange(n) - (n - 1) - 2), kind="stable")


def _swap_first_adjacent_radii(order):
    r2 = (2 * order - (order.size - 1)) ** 2
    r = int(np.argmax(r2[1:] != r2[:-1]))
    order[r], order[r + 1] = order[r + 1], order[r]
    return order


@pytest.mark.parametrize("mutate", [_swap_first_with_tenth, _centre_one_cell_off, _swap_first_adjacent_radii])
@pytest.mark.parametrize("n", [40, 41])
def test_a_mutant_cell_order_breaks_a_statement(mutate, n, monkeypatch):
    rng = np.random.default_rng(n)
    cases = [
        (symmetric_decreasing(rng.random(n)), symmetric_decreasing(rng.random(n)), np.sort(rng.random(n))[::-1])
        for _ in range(4)
    ]
    assert all(broken_statements(*case) == [] for case in cases)
    real = rearrange_module.cell_order

    def mutant(shape):
        order = mutate(np.array(real(shape)))
        order.setflags(write=False)
        return order

    # ``_in_cell_order`` reads the module's binding on every call, and the
    # real function's cache only ever holds the real order
    monkeypatch.setattr(rearrange_module, "cell_order", mutant)
    assert any(broken_statements(*case) for case in cases)
