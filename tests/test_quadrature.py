"""Adaptive Gauss-Kronrod integration and the substitution identity."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zladder import rscore
from zladder.gridsets import WindowSpec, build_g1
from zladder.intervals import IntervalCollection
from zladder.ladder import AsymptoticLadder
from zladder.quadrature import (
    QuadratureError,
    QuadratureOutcome,
    QuadSpec,
    _panel_estimates,
    integrate_collection,
)

TIGHT = QuadSpec(rel_tol=1e-13, abs_tol=1e-13)


def _integrate(f, lo, hi, q=QuadSpec()):
    """f over the single interval (lo, hi)."""
    return integrate_collection(f, IntervalCollection(((lo, hi),)), q)


def test_quad_spec_validation():
    with pytest.raises(ValueError):
        QuadSpec(rel_tol=0.0)
    with pytest.raises(ValueError):
        QuadSpec(abs_tol=-1.0)
    with pytest.raises(ValueError):
        QuadSpec(max_depth=61)
    # with abs_tol = nan the loop never met its stopping test and split past
    # max_depth without end; rel_tol = nan was silently dropped by max()
    for tols in (dict(abs_tol=math.nan), dict(rel_tol=math.nan),
                 dict(abs_tol=math.inf), dict(rel_tol=math.inf)):
        with pytest.raises(ValueError):
            QuadSpec(**tols)


def test_sin_integral_to_machine_accuracy():
    out = _integrate(np.sin, 0.0, math.pi, TIGHT)
    assert out.converged
    assert abs(out.value - 2.0) < 1e-12


def test_additivity():
    a, b, c = 0.0, 1.3, 4.0
    f = lambda x: np.exp(-x) * np.cos(5 * x)
    whole = _integrate(f, a, c, TIGHT)
    parts = _integrate(f, a, b, TIGHT).combine(_integrate(f, b, c, TIGHT))
    assert whole.value == pytest.approx(parts.value, abs=1e-11)


def test_interval_requires_lo_below_hi():
    with pytest.raises(ValueError):
        _integrate(np.sin, 1.0, 1.0)
    with pytest.raises(ValueError):
        _integrate(np.sin, 2.0, 1.0)


def test_empty_collection_rejected():
    with pytest.raises(ValueError):
        integrate_collection(np.sin, IntervalCollection(()))


def test_single_interval_collection_reduces_to_interval():
    c = IntervalCollection(((0.0, math.pi),))
    assert integrate_collection(np.sin, c, TIGHT) == _worklist_reference(
        np.sin, c, TIGHT, [])


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
    out = _integrate(f, 0.0, 1.0, QuadSpec(rel_tol=1e-15, abs_tol=1e-15, max_depth=4))
    assert not out.converged
    assert out.error_estimate > 1e-15


def test_non_finite_integrand_raises_after_one_generation():
    calls = []

    def f(x):
        calls.append(x.size)
        return np.where(x < 0.5, np.nan, 1.0)

    with pytest.raises(QuadratureError):
        _integrate(f, 0.0, 1.0, QuadSpec(max_depth=10))
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
        out = _integrate(f, lo, hi, QuadSpec(rel_tol=1e-10, abs_tol=1e-10))
        if abs(out.value - truth) <= 10.0 * max(out.error_estimate, 1e-15):
            ok += 1
    assert ok >= len(cases) - 1  # >= 99% on a large suite; here allow one miss


def test_tolerance_contract():
    out = _integrate(np.sin, 0.0, math.pi, QuadSpec(rel_tol=1e-6, abs_tol=1e-9))
    q = QuadSpec(rel_tol=1e-6, abs_tol=1e-9)
    assert out.tolerance(q) == pytest.approx(1e-6 * abs(out.value))


def test_z_integral_matches_oversampled_fixed_panel():
    # one G1 interval of Z against a 10x-oversampled reference: 15-point
    # Gauss-Legendre on each of 160 equal panels
    w = WindowSpec(1e6, H_override=50.0)
    lo, hi = build_g1(w, math.pi / 2).intervals[0]
    f = lambda t: rscore.hardy_z_many(t)
    adaptive = _integrate(f, lo, hi, QuadSpec(rel_tol=1e-10, abs_tol=1e-12))
    cuts = np.linspace(lo, hi, 161)
    x, wts = np.polynomial.legendre.leggauss(15)
    mid, hw = 0.5 * (cuts[1:] + cuts[:-1]), 0.5 * np.diff(cuts)
    vals = f((mid[:, None] + hw[:, None] * x).ravel()).reshape(mid.size, x.size)
    ref = math.fsum((vals @ wts) * hw)
    assert adaptive.value == pytest.approx(ref, rel=1e-8)


def _wiggly(x):
    return np.exp(-0.3 * x) * np.cos(9.0 * x) + 0.05 * x * x


@settings(max_examples=60, deadline=None)
@given(a=st.floats(-5.0, 5.0), w1=st.floats(0.01, 6.0), w2=st.floats(0.01, 6.0),
       tol=st.sampled_from([1e-6, 1e-9, 1e-12]))
def test_additivity_within_contract_tolerances(a, w1, w2, tol):
    q = QuadSpec(rel_tol=tol, abs_tol=tol)
    b, c = a + w1, a + w1 + w2
    whole = _integrate(_wiggly, a, c, q)
    left = _integrate(_wiggly, a, b, q)
    right = _integrate(_wiggly, b, c, q)
    assert whole.converged and left.converged and right.converged
    budget = whole.tolerance(q) + left.tolerance(q) + right.tolerance(q)
    assert abs(whole.value - (left.value + right.value)) <= budget


@settings(max_examples=40, deadline=None)
@given(chunk_seed=st.integers(0, 2**32 - 1),
       cuts=st.lists(st.floats(0.0, 10.0, allow_subnormal=False), max_size=12),
       max_depth=st.integers(1, 40))
def test_outcome_invariant_under_integrand_batching(chunk_seed, cuts, max_depth):
    c = IntervalCollection(((0.0, 2.5), (3.0, 7.0), (7.0, 10.0)))
    q = QuadSpec(rel_tol=1e-11, abs_tol=1e-11, max_depth=max_depth)
    rng = np.random.default_rng(chunk_seed)

    def chunked(x):
        # evaluate the batch in random sub-chunks, as a memory-capped kernel would
        stops = np.sort(rng.integers(0, x.size + 1, size=rng.integers(0, 6)))
        return np.concatenate([_wiggly(p) for p in np.split(x, stops)])

    ref = integrate_collection(_wiggly, c, q, initial_cuts=cuts)
    assert integrate_collection(chunked, c, q, initial_cuts=cuts) == ref


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

def test_transform_constant_f(substitution):
    m = AsymptoticLadder(10.0, 5e6)
    T, U = 1e6, 300.0
    q = QuadSpec()
    lhs, rhs = substitution(m, lambda t: np.ones_like(t), T, U, q)
    assert rhs.value == pytest.approx(U, abs=1e-9)
    assert abs(lhs.value - rhs.value) <= lhs.tolerance(q) + rhs.tolerance(q)


def test_transform_random_cubic(rng, substitution):
    # closed-form antiderivative as the oracle for the right-hand side
    m = AsymptoticLadder(10.0, 5e6)
    T, U = 1e6, 100.0
    coef = rng.uniform(-1.0, 1.0, 4)
    f = lambda t: coef[0] + coef[1] * (t - T) + coef[2] * (t - T) ** 2 + coef[3] * (t - T) ** 3
    F = lambda t: (coef[0] * (t - T) + coef[1] * (t - T) ** 2 / 2
                   + coef[2] * (t - T) ** 3 / 3 + coef[3] * (t - T) ** 4 / 4)
    q = QuadSpec()
    lhs, rhs = substitution(m, f, T, U, q)
    truth = F(T + U) - F(T)
    assert rhs.value == pytest.approx(truth, rel=1e-9)
    assert abs(lhs.value - rhs.value) <= 10.0 * (lhs.tolerance(q) + rhs.tolerance(q))


def test_transform_holds_for_any_ladder_model(substitution):
    # the identity is pure change of variables, model fidelity is irrelevant
    m = AsymptoticLadder(10.0, 5e6)
    lhs, rhs = substitution(m, lambda t: np.sin(t / 50.0), 1e6, 200.0, QuadSpec())
    assert abs(lhs.value - rhs.value) < 1e-6


def test_transform_u_hypothesis_enforced(substitution):
    m = AsymptoticLadder(10.0, 5e6)
    T = 1e6
    with pytest.raises(ValueError):
        substitution(m, np.sin, T, 0.0, QuadSpec())
    with pytest.raises(ValueError):
        substitution(m, np.sin, T, 2.0 * T / math.log(T), QuadSpec())


def _worklist_reference(f, c, q, cuts):
    """The adaptive loop over a Python list of (lo, hi, depth, value, err)
    tuples: a reference for the array loop, with the same arithmetic."""
    panels = []
    for lo, hi in c.intervals:
        inner = [lo] + sorted({x for x in cuts if lo < x < hi}) + [hi]
        panels += [(a, b, 0) for a, b in zip(inner, inner[1:])]
    pending, live, evaluations, subdivisions = sorted(panels), [], 0, 0
    while True:
        value, err, n = _panel_estimates(f, np.array([p[0] for p in pending]),
                                         np.array([p[1] for p in pending]))
        evaluations += n
        live = sorted(live + [p + (v, e) for p, v, e in zip(pending, value, err)])
        tol = max(q.abs_tol, q.rel_tol * abs(math.fsum(p[3] for p in live)))
        if math.fsum(p[4] for p in live) <= tol:
            break
        splittable = [p for p in live if p[2] < q.max_depth]
        to_split = [p for p in splittable if p[4] > tol * (p[1] - p[0]) / c.measure()]
        if not to_split and math.fsum(p[4] for p in live if p[2] >= q.max_depth) > tol:
            return QuadratureOutcome(math.fsum(p[3] for p in live),
                                     math.fsum(p[4] for p in live),
                                     evaluations, subdivisions, False)
        to_split = to_split or [max(splittable, key=lambda p: p[4])]
        live = [p for p in live if all(p is not s for s in to_split)]
        pending = []
        for lo, hi, depth, _, _ in to_split:
            mid = 0.5 * (lo + hi)
            pending += [(lo, mid, depth + 1), (mid, hi, depth + 1)]
        subdivisions += len(to_split)
    return QuadratureOutcome(math.fsum(p[3] for p in live), math.fsum(p[4] for p in live),
                             evaluations, subdivisions, True)


def _step(x):
    # a jump no depth resolves: once its panel reaches max_depth, the loop
    # splits the worst splittable panel, one per generation
    return np.sign(x - math.sqrt(2)) + 0.1 * x


def test_unreachable_tolerance_stops_early():
    # the jump's panels at max_depth alone exceed the budget: stop there
    # rather than split every other panel down to max_depth (2^20 panels)
    c = IntervalCollection(((0.0, 2.5), (3.0, 7.0), (7.0, 10.0)))
    out = integrate_collection(_step, c, QuadSpec(rel_tol=1e-9, abs_tol=1e-9,
                                                  max_depth=20))
    assert out.converged is False
    assert out.subdivisions <= 100


@settings(max_examples=60, deadline=None)
@given(f=st.sampled_from([_wiggly, _step]),
       cuts=st.lists(st.floats(0.0, 10.0, allow_subnormal=False), max_size=12),
       max_depth=st.integers(1, 6), tol=st.sampled_from([1e-5, 1e-9, 1e-13]))
def test_array_loop_matches_tuple_worklist(f, cuts, max_depth, tol):
    c = IntervalCollection(((0.0, 2.5), (3.0, 7.0), (7.0, 10.0)))
    q = QuadSpec(rel_tol=tol, abs_tol=tol, max_depth=max_depth)
    assert (integrate_collection(f, c, q, initial_cuts=cuts)
            == _worklist_reference(f, c, q, cuts))
