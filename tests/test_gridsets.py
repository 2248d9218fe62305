"""Grid equation solves, the G1/G2 set systems, and sign partitions."""

import math

import numpy as np
import pytest

from zladder import rscore
from zladder.gridsets import (
    GRID_T_MIN,
    WindowSpec,
    build_g1,
    build_g2,
    grid_range,
    invert_theta,
    scan_nodes,
    sign_partition,
)
from zladder.intervals import IntervalCollection
from zladder.rscore import theta, theta_deriv

# frozen classical Gram points, derived by bisection on the oracle theta
GRAM_0 = 17.845599540411847
GRAM_1 = 23.170282701246435


# ---------------------------------------------------------------------------
# grid-point solves
# ---------------------------------------------------------------------------

def test_classical_gram_points():
    t0, t1 = invert_theta(np.array([0.0, math.pi]))
    assert t0 == pytest.approx(GRAM_0, abs=1e-8)
    assert t1 == pytest.approx(GRAM_1, abs=1e-8)


def test_tau_pi_wraps_to_next_index():
    for nu in (3, 100, 54321):
        a, b = invert_theta(np.array([math.pi * nu + math.pi, math.pi * (nu + 1)]))
        assert a == pytest.approx(b, abs=1e-7)


def test_grid_point_residuals():
    for nu, tau in ((5, 0.3), (1000, -1.2), (10 ** 6, math.pi / 2)):
        t = invert_theta(np.array([math.pi * nu + tau]))[0]
        assert abs(theta(t) - (math.pi * nu + tau)) <= 1e-10 * t


def test_monotone_in_theta_target():
    # t increases with the target pi*nu + tau (tau ranges overlap between
    # neighboring nu, so plain lexicographic order wraps; the target orders)
    pairs = [(nu, tau) for nu in (10, 11, 12)
             for tau in (-math.pi, -1.0, 0.0, 1.0, math.pi)]
    pairs.sort(key=lambda p: math.pi * p[0] + p[1])
    ts = invert_theta(np.array([math.pi * nu + tau for nu, tau in pairs]))
    assert all(b > a - 1e-7 for a, b in zip(ts, ts[1:]))


def test_target_below_theta_floor_rejected():
    with pytest.raises(ValueError):
        invert_theta(np.array([theta(GRID_T_MIN) - 1.0]))


def test_invert_theta_vectorized():
    targets = np.array([10.0, 1e3, 1e5, 5e6])
    ts = invert_theta(targets)
    assert np.max(np.abs(theta(ts) - targets)) < 1e-6


# ---------------------------------------------------------------------------
# windows and grid ranges
# ---------------------------------------------------------------------------

def test_window_spec_defaults_and_validation():
    w = WindowSpec(1e6)
    assert w.H == pytest.approx(1e6 ** (1 / 6 + 0.1))
    assert WindowSpec(1e6, H_override=1e3).H == 1e3
    with pytest.raises(ValueError):
        WindowSpec(500.0)
    with pytest.raises(ValueError):
        WindowSpec(1e6, epsilon=0.2)
    with pytest.raises(ValueError):
        WindowSpec(1e8, H_override=1e6)  # exceeds validated range
    with pytest.raises(ValueError):
        WindowSpec(1e6, H_override=-1.0)
    for T, H in ((math.nan, None), (1e6, math.nan), (math.inf, 1e3), (1e6, math.inf)):
        with pytest.raises(ValueError):
            WindowSpec(T, H_override=H)


def test_grid_range_count_and_coverage():
    w = WindowSpec(1e6, H_override=1e3)
    pts = grid_range(w)
    # frozen by brute-force enumeration; density estimate H * theta'(T) / pi
    assert len(pts) == 1906
    est = w.H * theta_deriv(w.T) / math.pi
    assert abs(len(pts) - est) <= 2
    nus = [g.nu for g in pts]
    assert nus == list(range(nus[0], nus[0] + len(pts)))
    ts = np.array([g.t for g in pts])
    assert np.all((ts >= w.T) & (ts <= w.T + w.H))
    assert np.all(np.diff(ts) > 0)


def test_grid_range_empty_for_tiny_window():
    pts = grid_range(WindowSpec(1e3, H_override=1e-4))
    assert pts == []


# ---------------------------------------------------------------------------
# G1 / G2
# ---------------------------------------------------------------------------

def test_measure_law():
    w = WindowSpec(1e6, H_override=1e3)
    for build, half in ((build_g1, math.pi / 2), (build_g2, math.pi / 2)):
        c = build(w, half)
        assert abs(c.measure() * math.pi / (half * w.H) - 1.0) <= 0.02


def test_measure_shrinks_with_x():
    w = WindowSpec(1e6, H_override=1e3)
    small = build_g1(w, 1e-3).measure()
    big = build_g1(w, math.pi / 2).measure()
    assert small < 0.01 * big


def test_g1_g2_disjoint_and_interleaved():
    w = WindowSpec(1e6, H_override=200.0)
    g1 = build_g1(w, math.pi / 2)
    g2 = build_g2(w, math.pi / 2)
    merged = sorted(
        [(iv, "G1") for iv in g1.intervals] + [(iv, "G2") for iv in g2.intervals])
    for (a, la), (b, lb) in zip(merged, merged[1:]):
        assert a[1] <= b[0] + 1e-9  # disjoint up to solver tolerance
        assert la != lb             # alternating labels for x = y


def test_half_pi_closure_covers_span():
    # at x = y = pi/2 neighboring endpoints solve the same theta equation
    w = WindowSpec(1e6, H_override=100.0)
    u = build_g1(w, math.pi / 2).union(build_g2(w, math.pi / 2))
    gaps = [lo2 - hi for (_, hi), (lo2, _) in zip(u.intervals, u.intervals[1:])]
    assert max(gaps) < 1e-7


def test_build_rejects_bad_half_width():
    w = WindowSpec(1e6, H_override=100.0)
    with pytest.raises(ValueError):
        build_g1(w, 0.0)
    with pytest.raises(ValueError):
        build_g2(w, 2.0)


def test_labels():
    w = WindowSpec(1e6, H_override=100.0)
    assert build_g1(w, 1.0).label == "G1"
    assert build_g2(w, 1.0).label == "G2"


# ---------------------------------------------------------------------------
# sign partition
# ---------------------------------------------------------------------------

def test_sign_partition_constant_sign():
    c = IntervalCollection(((1e4, 1e4 + 5.0),))
    part = sign_partition(c, lambda t: np.ones_like(t), scan_nodes(c))
    assert part.pos.intervals == c.intervals
    assert len(part.neg) == 0
    assert part.gap_measure == 0.0


def test_sign_partition_measure_audit():
    w = WindowSpec(1e6, H_override=100.0)
    c = build_g1(w, math.pi / 2)
    f = lambda t: rscore.hardy_z_many(t)
    part = sign_partition(c, f, scan_nodes(c))
    total = part.pos.measure() + part.neg.measure() + part.gap_measure
    assert total == pytest.approx(c.measure(), abs=1e-9)
    assert part.gap_measure <= 1e-6 * c.measure()


def test_sign_partition_random_audit(rng):
    w = WindowSpec(1e6, H_override=50.0)
    c = build_g1(w, math.pi / 2)
    f = lambda t: rscore.hardy_z_many(t)
    part = sign_partition(c, f, scan_nodes(c))
    for coll, sgn in ((part.pos, 1.0), (part.neg, -1.0)):
        for lo, hi in coll.intervals:
            ts = rng.uniform(lo, hi, 40)
            assert np.all(sgn * f(ts) > 0)


def test_sign_partition_validation():
    empty = IntervalCollection(())
    with pytest.raises(ValueError):
        sign_partition(empty, lambda t: t, scan_nodes(empty))
