"""Fixtures shared by the test modules."""

import functools
import time

import numpy as np
import pytest

from symkit import experiments
from symkit.cli import DEFAULT_SEED


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
