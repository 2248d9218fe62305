"""Ladder models, prime counting, mirrors, and the separation law."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zladder import harness, rscore
from zladder.gridsets import SolverError, WindowSpec, build_g1
from zladder.intervals import IntervalCollection
from zladder.ladder import (
    EULER_GAMMA,
    PANEL_DEGREE,
    PANEL_WIDTH,
    AsymptoticLadder,
    LadderModel,
    LadderRangeError,
    OdeLadder,
    PanelTable,
    ladder_ode,
    li,
    mirror_collection,
    panel_nodes,
    prime_pi,
    save_ladder_csv,
    separation_rho,
)
from zladder.quadrature import QuadSpec, integrate_collection


# ---------------------------------------------------------------------------
# prime counting and Euler's constant
# ---------------------------------------------------------------------------

def test_pi_count_small_values():
    assert prime_pi(2) == 1
    assert prime_pi(3) == 2
    assert prime_pi(10) == 4
    for x in (1.9, 1.0, 0.0, -5.0):
        assert prime_pi(x) == 0


def test_pi_count_at_1e6():
    assert prime_pi(1e6) == 78498


def test_pi_count_matches_trial_division():
    def trial(n):
        if n < 2:
            return False
        return all(n % d for d in range(2, int(n ** 0.5) + 1))

    ref = 0
    for n in range(2, 100_001):
        ref += trial(n)
        if n % 20000 == 0 or n < 50:
            assert prime_pi(n) == ref


def test_euler_constant_against_harmonic_sums():
    # midpoint-corrected partial sums H_n - ln(n + 1/2); chunked to 1e8
    total = 0.0
    n = 100_000_000
    for lo in range(1, n + 1, 10_000_000):
        hi = min(lo + 10_000_000, n + 1)
        total += float(np.sum(1.0 / np.arange(lo, hi, dtype=float)))
    approx = total - math.log(n + 0.5)
    assert abs(EULER_GAMMA - approx) < 1e-8
    assert 0.5 < EULER_GAMMA < 0.6
    assert 1.0 - EULER_GAMMA == pytest.approx(0.42278433509846713, abs=1e-12)


def test_li_reference_value():
    assert li(2.0) == pytest.approx(1.0451637801174927, abs=1e-10)


# ---------------------------------------------------------------------------
# asymptotic model
# ---------------------------------------------------------------------------

def test_asymptotic_below_identity():
    m = AsymptoticLadder(10.0, 2e6)
    ts = np.geomspace(10.0, 2e6, 200)
    assert np.all(m.eval(ts) < ts)


def test_asymptotic_matches_prime_counting():
    m = AsymptoticLadder(10.0, 2e6)
    t = 1e6
    ratio = (t - m.eval(t)) / ((1.0 - EULER_GAMMA) * prime_pi(t))
    assert 0.98 <= ratio <= 1.02


def test_asymptotic_deriv_in_unit_interval():
    m = AsymptoticLadder(10.0, 1e6)
    ts = np.geomspace(10.0, 1e6, 50)
    d = m.deriv(ts)
    assert np.all((d > 0.0) & (d < 1.0))


def test_range_enforced():
    m = AsymptoticLadder(100.0, 1000.0)
    with pytest.raises(LadderRangeError):
        m.eval(50.0)
    for y in (m.eval(100.0) - 10.0, math.nan):
        with pytest.raises(LadderRangeError):
            m.invert(y)
    with pytest.raises(ValueError):
        AsymptoticLadder(5.0, 100.0)


# ---------------------------------------------------------------------------
# ODE model
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def ode_small():
    seed = AsymptoticLadder(10.0, 2e6)
    return ladder_ode(1e6, 60.0, seed)


def test_ode_fundamental_theorem(ode_small):
    m = ode_small
    a, b = m.lo + 3.0, m.lo + 47.0
    ref = integrate_collection(lambda t: rscore.hardy_z_many(t) ** 2 / np.log(t),
                               IntervalCollection(((a, b),)),
                               QuadSpec(rel_tol=1e-11, abs_tol=1e-11))
    assert m.eval(b) - m.eval(a) == pytest.approx(ref.value, abs=1e-8)


def test_ode_monotone(ode_small):
    ts = np.linspace(ode_small.lo, ode_small.hi, 3000)
    assert np.all(np.diff(ode_small.eval(ts)) >= -1e-12)


def test_ode_anchor_and_validation():
    seed = AsymptoticLadder(10.0, 2e6)
    m = ladder_ode(1e6, 10.0, seed)
    assert m.anchor[0] == 1e6
    assert m.eval(1e6) == pytest.approx(seed.eval(1e6), abs=1e-12)
    with pytest.raises(ValueError):
        ladder_ode(50.0, 10.0, seed)  # below fast-path range
    with pytest.raises(ValueError):
        from zladder.ladder import OdeLadder
        OdeLadder(1e6, -1.0, 0.0)


def test_ode_range_is_exactly_lo_hi(ode_tiny):
    m = ode_tiny
    for f in (m.eval, m.deriv, m.z):
        assert np.all(np.isfinite(f(np.array([m.lo, m.hi]))))
        for t in (np.nextafter(m.lo, 0.0), np.nextafter(m.hi, np.inf), math.nan):
            with pytest.raises(LadderRangeError):
                f(np.array([m.lo + 1.0, t]))


def test_ode_vs_asymptotic_drift():
    # increments of the two models agree to 10% over a 1e3 span near 1e6
    seed = AsymptoticLadder(10.0, 2e6)
    m = ladder_ode(1e6, 1e3, seed)
    inc_ode = m.eval(m.hi) - m.eval(m.lo)
    inc_asym = seed.eval(m.hi) - seed.eval(m.lo)
    assert abs(inc_ode - inc_asym) / inc_asym < 0.10


def test_inverse_consistency(ode_small):
    m = ode_small
    ys = np.linspace(m.eval(m.lo) + 0.5, m.eval(m.hi) - 0.5, 500)
    ts = m.invert(ys)
    assert np.all(np.diff(ts) >= 0)
    assert np.max(np.abs(m.eval(ts) - ys)) < 1e-8 * m.hi
    # scalar round trip
    t0 = 0.5 * (m.lo + m.hi)
    assert m.invert(m.eval(t0)) == pytest.approx(t0, abs=1e-6)


def _nearest_double_bound(m, t, y):
    """Largest |eval(t) - y| at the double t nearest the preimage of y, or
    next to it: a step of one ulp(t) at the slope, plus the rounding of y."""
    slope = np.asarray(m.deriv(np.atleast_1d(t)))
    return slope * np.spacing(t) + 2.0 * np.spacing(np.abs(y))


def _assert_round_trip(m, t):
    """invert(eval(t)) stops at a double nearest the preimage of eval(t)."""
    y = m.eval(t)
    back = m.invert(y)
    assert abs(m.eval(back) - y) <= _nearest_double_bound(m, back, y)[0], (t, back)


@settings(max_examples=40, deadline=None)
@given(t=st.floats(min_value=20.0, max_value=1e7))
def test_invert_round_trip_asymptotic(t):
    _assert_round_trip(AsymptoticLadder(10.0, 2e7), t)


@pytest.fixture(scope="module")
def ode_tiny():
    return ladder_ode(1e6, 10.0, AsymptoticLadder(10.0, 2e6))


@settings(max_examples=40, deadline=None)
@given(u=st.floats(min_value=0.0, max_value=1.0))
def test_invert_round_trip_ode(ode_tiny, u):
    m = ode_tiny
    _assert_round_trip(m, min(m.hi, m.lo + u * (m.hi - m.lo)))


def _table_bound(top, amplitude, band, max_fprime, noise):
    """Largest |table - kernel| on panels below ``top`` for a function of l1
    spectral amplitude ``amplitude`` and frequencies at most ``band`` rad per
    unit, sampled by a kernel whose values are each off by at most ``noise``:
    * the table interpolates the samples through the 15 Chebyshev-Lobatto
      nodes, whose Lebesgue constant is below 2.7.  Each sample is off by its
      noise and by its node's rounding to longdouble, at most ulp_ld(t)/2
      times max|f'|; the kernel value it is compared with is off by noise;
    * Chebyshev truncation: a term sweeps at most w = band * PANEL_WIDTH / 2
      rad over a half-panel, so the interpolation error is below
      4 A sum_{k > degree} (w/2)^k / k!.
    """
    w = band * PANEL_WIDTH / 2
    tail = 4.0 * amplitude * sum((w / 2) ** k / math.factorial(k)
                                 for k in range(PANEL_DEGREE + 1, PANEL_DEGREE + 30))
    ulp = float(np.spacing(np.longdouble(top)))
    return 2.7 * (0.5 * ulp * max_fprime + noise) + noise + tail


def _table_bounds(lo, top):
    """The _table_bound of the Z table and of the Z~^2 table on [lo, top].

    Z is a sum of N cosines 2 cos(phase)/sqrt(n), of l1 amplitude
    A = 2 sum n^(-1/2), each turning at most ln N rad per unit, and each
    phase carries a few longdouble ulps of t ln N of rounding.  Z~^2 = Z^2 /
    ln t has amplitude at most A^2 / ln t, twice the band, and 2 max|Z| / ln t
    times Z's noise.
    """
    N = math.floor(math.sqrt(top / (2 * math.pi)))
    A = 2.0 * np.sum(np.arange(1, N + 1) ** -0.5)
    noise = 4.0 * float(np.spacing(np.longdouble(top * math.log(N)))) * A
    fine = np.arange(lo, top, 1e-3)
    z = rscore.hardy_z_many(fine)
    max_dz = np.abs(np.gradient(z, 1e-3)).max()
    max_dzsq = np.abs(np.gradient(z * z / np.log(fine), 1e-3)).max()
    return (_table_bound(top, A, math.log(N), max_dz, noise),
            _table_bound(top, A * A / math.log(lo), 2 * math.log(N), max_dzsq,
                         2.0 * np.abs(z).max() * noise / math.log(lo)))


@pytest.mark.parametrize("T", [1.03e6, 1e7, 9.9e7])
def test_ode_panel_table_matches_kernel(T):
    # the ladder's two tables: Z~^2 (eval, deriv) and Z (mirrored integrand)
    m = OdeLadder(T, 3.0, 0.0)
    z_bound, zsq_bound = _table_bounds(m.lo, m.hi)
    rng = np.random.default_rng([20240817, int(T)])
    ts = T + 0.1 + 2.8 * rng.random(2000)
    z = rscore.hardy_z_many(ts)
    assert np.abs(m.deriv(ts) - z * z / np.log(ts)).max() <= zsq_bound
    assert np.abs(m.z(ts) - z).max() <= z_bound


@pytest.mark.parametrize("T", [1e6, 1e7, 9.9e7])
def test_context_z_table_matches_kernel(T):
    table = harness.ExperimentContext(
        harness.ExperimentConfig(T=T, H_override=3.0)).z_table
    lo, top = table.cuts[0], table.cuts[-1]
    z_bound, _ = _table_bounds(lo, top)
    ts = lo + (top - lo) * np.random.default_rng([20240817, int(T)]).random(2000)
    assert np.abs(table(ts) - rscore.hardy_z_many(ts)).max() <= z_bound


def test_panel_table_rejects_points_off_its_domain():
    cuts, nodes = panel_nodes(1e6, 1e6 + 1.0)
    assert nodes.dtype == np.longdouble
    assert nodes[0] == cuts[0] and nodes[-1] == cuts[-1]
    assert np.all(np.diff(nodes) > 0)
    table = PanelTable(cuts, rscore.hardy_z_many(nodes))
    assert np.all(np.isfinite(table(np.array(cuts))))
    for t in (np.nextafter(cuts[0], 0.0), np.nextafter(cuts[-1], np.inf), math.nan):
        with pytest.raises(ValueError):
            table(np.array([1e6 + 0.5, t]))


def test_context_z_table_holds_both_g_sets():
    ctx = harness.ExperimentContext(harness.ExperimentConfig(T=1e6, H_override=20.0))
    lo, hi = ctx.z_table.cuts[[0, -1]]
    for c in (ctx.g1, ctx.g2):
        assert lo < c.lows[0] and c.highs[-1] < hi


@pytest.mark.parametrize("T", [1e6, 9.9e7])
def test_ode_invert_stops_at_the_nearest_double(T):
    m = ladder_ode(T, 60.0, AsymptoticLadder(10.0, 2e8))
    ys = np.linspace(m.eval(m.lo), m.eval(m.hi), 2002)[1:-1]
    ts = m.invert(ys)
    assert np.all(np.abs(m.eval(ts) - ys) <= _nearest_double_bound(m, ts, ys))


def test_invert_raises_when_rounds_run_out():
    m = AsymptoticLadder(10.0, 2e6)
    with pytest.raises(SolverError):
        m.invert(1e6 + 123.456, max_iter=2)
    assert issubclass(SolverError, ArithmeticError)


# ---------------------------------------------------------------------------
# mirrors
# ---------------------------------------------------------------------------

class _IdentityLadder(LadderModel):
    def __init__(self, lo, hi):
        self.lo, self.hi = lo, hi

    def eval(self, t):
        return self._check_range(t)

    def deriv(self, t):
        return np.ones_like(self._check_range(t))


def test_mirror_identity_ladder():
    m = _IdentityLadder(0.0, 100.0)
    c = IntervalCollection(((1.0, 2.0), (5.0, 7.0)), "G1")
    out = mirror_collection(m, c)
    assert out.label == "mirrored-G1"
    np.testing.assert_allclose(out.lows, c.lows, atol=1e-9)
    np.testing.assert_allclose(out.highs, c.highs, atol=1e-9)


def test_mirror_preserves_order(ode_small):
    m = ode_small
    lo = m.eval(m.lo) + 1.0
    c = IntervalCollection(((lo, lo + 2.0), (lo + 5.0, lo + 9.0)), "G2")
    out = mirror_collection(m, c)
    assert out.label == "mirrored-G2"
    vals = [v for iv in out.intervals for v in iv]
    assert vals == sorted(vals)


def test_mirror_point_inverse_identity():
    m = AsymptoticLadder(10.0, 5e6)
    t = 1.23e6
    assert m.invert(m.eval(t)) == pytest.approx(t, abs=1e-6)


def test_mirror_above_window():
    m = AsymptoticLadder(10.0, 5e6)
    for T in (1e5, 1e6):
        w = WindowSpec(T, H_override=1e3)
        assert m.invert(T) > T + w.H


def test_mirror_distance_tracks_prime_counts():
    m = AsymptoticLadder(10.0, 5e6)
    T = 1e6
    T_ring = m.invert(T)
    assert abs((T_ring - T) / ((1.0 - EULER_GAMMA) * prime_pi(T_ring)) - 1.0) < 0.02


def test_separation_rho():
    m = AsymptoticLadder(10.0, 5e6)
    w = WindowSpec(1e6, H_override=1e3)
    rho, pred = separation_rho(w, m)
    assert rho > 0
    assert rho / pred == pytest.approx(1.0, abs=0.05)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_ladder_csv_round_trip(tmp_path, ode_small):
    # the table holds the model's own values at evenly spaced t, bit-exactly
    path = tmp_path / "ladder.csv"
    lo, hi = ode_small.lo + 1.0, ode_small.lo + 11.5
    save_ladder_csv(ode_small, path, lo, hi)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# kind=ode anchor=")
    assert lines[1] == "t,phi1,dphi1"
    data = np.loadtxt(path, delimiter=",", skiprows=2)
    ts = data[:, 0]
    assert ts[0] == lo and ts[-1] == hi
    assert len(ts) == 12 and np.diff(ts).max() == pytest.approx(10.5 / 11)
    assert np.array_equal(data[:, 1], ode_small.eval(ts))
    assert np.array_equal(data[:, 2], ode_small.deriv(ts))
