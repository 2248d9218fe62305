"""Shared fixtures: the default experiment context is expensive (it builds
the ODE ladder over the mirrored window), so it is constructed once per
session and reused by every test that needs it."""

import math

import numpy as np
import pytest

from zladder import harness
from zladder.intervals import IntervalCollection
from zladder.quadrature import integrate_collection


@pytest.fixture(scope="session")
def default_cfg():
    return harness.ExperimentConfig()


@pytest.fixture(scope="session")
def default_ctx(default_cfg):
    return harness.ExperimentContext(default_cfg)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)


def _substitution(m, f, T, U, q):
    """Both sides of the change of variables t -> phi(t) of a ladder model m:
    f(phi(t)) * phi'(t) over the preimage of [T, T + U], and f over [T, T + U].

    For a model whose derivative is exactly the integrand that built its
    eval (the ODE model), the two agree up to quadrature error however far
    the model is from the true ladder.
    """
    if not 0.0 < U <= T / math.log(T):
        raise ValueError("U must lie in (0, T / ln T]")
    t_lo, t_hi = m.invert(np.array([T, T + U]))
    lhs = integrate_collection(lambda ts: f(m.eval(ts)) * m.deriv(ts),
                               IntervalCollection(((t_lo, t_hi),)), q)
    rhs = integrate_collection(f, IntervalCollection(((T, T + U),)), q)
    return lhs, rhs


@pytest.fixture(scope="session")
def substitution():
    """The pair of integrals of the substitution identity (lhs, rhs)."""
    return _substitution
