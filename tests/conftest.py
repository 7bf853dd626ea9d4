"""Fixtures shared by the test modules."""

import functools
import time

import pytest

from symkit import experiments
from symkit.cli import DEFAULT_SEED


@functools.cache
def _default_seed_run(verb: str):
    run = getattr(experiments, experiments.VERBS[verb][0])
    t0 = time.monotonic()
    reports = run(DEFAULT_SEED)
    return reports, time.monotonic() - t0


@pytest.fixture(scope="session")
def default_seed_run():
    """``verb -> (reports, seconds)`` of the suite verb at the default seed.

    Each verb runs once per pytest session, so the acceptance criteria and the
    reference check share one run; callers must not modify the reports.
    """
    return _default_seed_run
