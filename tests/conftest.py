"""Fixtures shared by the test modules."""

import functools
import math
import time

import numpy as np
import pytest

from symkit import experiments
from symkit.cli import DEFAULT_SEED
from symkit.field import ScalarField


@functools.cache
def _suite_run(verb: str, seed: int = DEFAULT_SEED):
    run = getattr(experiments, experiments.VERBS[verb][0])
    t0 = time.monotonic()
    # underflow stays quiet: the heat trace's exp(-t lambda) underflows by design
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        reports = run(seed)
    return reports, time.monotonic() - t0


@pytest.fixture(scope="session")
def default_seed_run():
    """``(verb, seed=DEFAULT_SEED) -> (reports, seconds)`` of a suite verb.

    Each verb runs once per seed and pytest session, so the acceptance criteria
    and the reference check share one run; callers must not modify the reports.
    Overflow, invalid operations and division by zero raise inside the run.
    """
    return _suite_run


# The direct route of the fractional seminorm, a loop over displacements: the
# oracle of ``functionals.fractional_seminorm``, which no verb needs (DECISIONS.md D12).
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


def _seminorm_direct(u: ScalarField, s: float, p: float) -> float:
    """sum_{i != j} |u_i - u_j|^p |x_i - x_j|^(-d - s p) h^(2d), by a loop over displacements.

    At p = 2 this is ``fractional_seminorm``'s sum; the tests keep it as that
    evaluator's oracle.
    """
    expo = -(u.dim + s * p)
    total = 0.0
    for m in _displacement_iter(u.grid.shape):
        a, b = _shifted_views(u.values, m)
        w = (math.sqrt(sum(c * c for c in m)) * u.h) ** expo
        total += 2.0 * w * float(np.sum(np.abs(a - b) ** p))
    return total * u.grid.cell_volume ** 2


@pytest.fixture(scope="session")
def seminorm_direct():
    """``(u, s, p) -> float``: the loop over displacements, ``fractional_seminorm``'s oracle."""
    return _seminorm_direct
