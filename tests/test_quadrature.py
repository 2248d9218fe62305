"""Adaptive Gauss-Kronrod integration and the substitution-identity checker."""

import math

import numpy as np
import pytest

from zladder import rscore
from zladder.gridsets import WindowSpec, build_g1
from zladder.intervals import IntervalCollection
from zladder.ladder import ladder_asymptotic
from zladder.quadrature import (
    QuadratureError,
    QuadSpec,
    integrate_collection,
    integrate_interval,
    transform_check,
)

TIGHT = QuadSpec(rel_tol=1e-13, abs_tol=1e-13)


def test_quad_spec_validation():
    with pytest.raises(ValueError):
        QuadSpec(rel_tol=0.0)
    with pytest.raises(ValueError):
        QuadSpec(abs_tol=-1.0)
    with pytest.raises(ValueError):
        QuadSpec(max_depth=61)
    with pytest.raises(ValueError):
        QuadSpec(rule="gauss-only")


def test_sin_integral_to_machine_accuracy():
    out = integrate_interval(np.sin, 0.0, math.pi, TIGHT)
    assert out.converged
    assert abs(out.value - 2.0) < 1e-12


def test_additivity():
    a, b, c = 0.0, 1.3, 4.0
    f = lambda x: np.exp(-x) * np.cos(5 * x)
    whole = integrate_interval(f, a, c, TIGHT)
    parts = integrate_interval(f, a, b, TIGHT).combine(integrate_interval(f, b, c, TIGHT))
    assert whole.value == pytest.approx(parts.value, abs=1e-11)


def test_interval_requires_lo_below_hi():
    with pytest.raises(ValueError):
        integrate_interval(np.sin, 1.0, 1.0)


def test_empty_collection_rejected():
    with pytest.raises(ValueError):
        integrate_collection(np.sin, IntervalCollection(()))


def test_single_interval_collection_reduces_to_interval():
    c = IntervalCollection(((0.0, math.pi),))
    a = integrate_collection(np.sin, c, TIGHT)
    b = integrate_interval(np.sin, 0.0, math.pi, TIGHT)
    assert a.value == b.value


def test_deterministic_outcomes():
    c = IntervalCollection(((0.0, 2.0), (3.0, 5.0)))
    f = lambda x: np.cos(7.0 * x) + 0.1 * x
    a = integrate_collection(f, c)
    b = integrate_collection(f, c)
    assert a.value == b.value
    assert a.error_estimate == b.error_estimate
    assert a.evaluations == b.evaluations


def test_max_depth_exhaustion_flagged():
    f = lambda x: np.sign(x - math.sqrt(2) / 2)  # jump the rule cannot resolve
    out = integrate_interval(f, 0.0, 1.0, QuadSpec(rel_tol=1e-15, abs_tol=1e-15, max_depth=4))
    assert not out.converged
    assert out.error_estimate > 1e-15


def test_non_finite_integrand_raises_after_one_generation():
    calls = []

    def f(x):
        calls.append(x.size)
        return np.where(x < 0.5, np.nan, 1.0)

    with pytest.raises(QuadratureError):
        integrate_interval(f, 0.0, 1.0, QuadSpec(max_depth=10))
    assert len(calls) == 1


def test_error_estimate_honesty():
    # closed forms: true error must be within 10x the reported estimate
    cases = [
        (np.sin, 0.0, math.pi, 2.0),
        (np.exp, 0.0, 1.0, math.e - 1.0),
        (lambda x: x ** 7, 0.0, 2.0, 32.0),
        (lambda x: np.cos(50.0 * x), 0.0, 1.0, math.sin(50.0) / 50.0),
        (lambda x: 1.0 / (1.0 + x * x), -4.0, 4.0, 2.0 * math.atan(4.0)),
        (lambda x: np.sqrt(np.abs(x)), -1.0, 1.0, 4.0 / 3.0),
        (lambda x: np.exp(-x * x), -6.0, 6.0, math.sqrt(math.pi)),
        (lambda x: np.log(x), 1.0, 5.0, 5.0 * math.log(5.0) - 4.0),
    ]
    ok = 0
    for f, lo, hi, truth in cases:
        out = integrate_interval(f, lo, hi, QuadSpec(rel_tol=1e-10, abs_tol=1e-10))
        if abs(out.value - truth) <= 10.0 * max(out.error_estimate, 1e-15):
            ok += 1
    assert ok >= len(cases) - 1  # >= 99% on a large suite; here allow one miss


def test_tolerance_contract():
    out = integrate_interval(np.sin, 0.0, math.pi, QuadSpec(rel_tol=1e-6, abs_tol=1e-9))
    q = QuadSpec(rel_tol=1e-6, abs_tol=1e-9)
    assert out.tolerance(q) == pytest.approx(1e-6 * abs(out.value))


def test_z_integral_matches_oversampled_fixed_panel():
    # one G1 interval of Z against a 10x-oversampled fixed-panel reference
    w = WindowSpec(1e6, H_override=50.0)
    lo, hi = build_g1(w, math.pi / 2).intervals[0]
    f = lambda t: rscore.hardy_z_many(t)
    adaptive = integrate_interval(f, lo, hi, QuadSpec(rel_tol=1e-10, abs_tol=1e-12))
    cuts = np.linspace(lo, hi, 161)[1:-1]
    ref = integrate_interval(f, lo, hi, QuadSpec(rule="fixed-panel"), initial_cuts=cuts)
    assert adaptive.value == pytest.approx(ref.value, rel=1e-8)


def test_oscillation_safety_node_density():
    # mean node spacing must resolve the local zero gap 2*pi/ln t
    w = WindowSpec(1e6, H_override=50.0)
    c = build_g1(w, math.pi / 2)
    f = lambda t: rscore.hardy_z_many(t)
    out = integrate_collection(f, c, QuadSpec(rel_tol=1e-8, abs_tol=1e-8))
    mean_spacing = c.measure() / out.evaluations
    assert mean_spacing < 0.5 * (2.0 * math.pi / math.log(1e6))


# ---------------------------------------------------------------------------
# substitution identity
# ---------------------------------------------------------------------------

def test_transform_constant_f():
    m = ladder_asymptotic(10.0, 5e6)
    T, U = 1e6, 300.0
    chk = transform_check(m, lambda t: np.ones_like(t), T, U)
    assert chk.rhs.value == pytest.approx(U, abs=1e-9)
    assert chk.residual <= chk.budget(QuadSpec())


def test_transform_random_cubic(rng):
    # closed-form antiderivative as the oracle for the right-hand side
    m = ladder_asymptotic(10.0, 5e6)
    T, U = 1e6, 100.0
    coef = rng.uniform(-1.0, 1.0, 4)
    f = lambda t: coef[0] + coef[1] * (t - T) + coef[2] * (t - T) ** 2 + coef[3] * (t - T) ** 3
    F = lambda t: (coef[0] * (t - T) + coef[1] * (t - T) ** 2 / 2
                   + coef[2] * (t - T) ** 3 / 3 + coef[3] * (t - T) ** 4 / 4)
    chk = transform_check(m, f, T, U)
    truth = F(T + U) - F(T)
    assert chk.rhs.value == pytest.approx(truth, rel=1e-9)
    assert chk.residual <= 10.0 * chk.budget(QuadSpec())


def test_transform_holds_for_any_ladder_model():
    # the identity is pure change of variables, model fidelity is irrelevant
    m = ladder_asymptotic(10.0, 5e6)
    r = transform_check(m, lambda t: np.sin(t / 50.0), 1e6, 200.0).residual
    assert r < 1e-6


def test_transform_u_hypothesis_enforced():
    m = ladder_asymptotic(10.0, 5e6)
    T = 1e6
    with pytest.raises(ValueError):
        transform_check(m, np.sin, T, 0.0)
    with pytest.raises(ValueError):
        transform_check(m, np.sin, T, 2.0 * T / math.log(T))
