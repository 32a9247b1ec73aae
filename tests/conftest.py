"""Shared test fixtures."""

import contextlib
import signal

import numpy as np
import pytest

from picknorm.finitemodel import FiniteAlgebra


def _random_block_algebra(rng, kind):
    """A subalgebra of C^6 given by a mixed basis of block indicators, with
    its block labels (-1 outside every block)."""
    n = 6
    k = int(rng.integers(2, 5))
    labels = np.concatenate([np.arange(k), rng.integers(-1, k, n - k)])
    rng.shuffle(labels)
    indicators = np.array([labels == b for b in range(k)], dtype=float)
    mix = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    if kind == "lp":
        p = 1.0 if rng.uniform() < 0.25 else float(rng.uniform(1.1, 4.0))
        alg = FiniteAlgebra(n, "lp", p=p, basis=mix @ indicators)
    else:
        alg = FiniteAlgebra(n, kind, weights=rng.uniform(1.0, 3.0, n),
                            basis=mix @ indicators)
    return alg, labels


@pytest.fixture
def random_block_algebra():
    """``(rng, kind) -> (alg, labels)``: a random block subalgebra of C^6."""
    return _random_block_algebra


@contextlib.contextmanager
def _deadline(seconds: float):
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def deadline():
    """``deadline(seconds)``: a context that raises TimeoutError in the
    Python code it runs once ``seconds`` have passed, so a call that never
    returns fails its test instead of hanging the run."""
    return _deadline
