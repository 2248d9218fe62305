"""Theta, Hardy Z, and Z~^2: fast path against the high-precision oracle and
the in-house Euler-Maclaurin zeta evaluator."""

import math

import numpy as np
import pytest

from zladder import rscore
from zladder.rscore import (
    hardy_z_many,
    hardy_z_oracle,
    theta,
    theta_deriv,
    theta_oracle,
    z_tilde_sq_many,
    zeta_half_em,
)

# frozen oracle values (loggamma-based theta, bisection roots)
THETA_100 = 87.97216523178722
GRAM_0 = 17.845599540411847
GAMMA_1 = 14.134725141734693


# ---------------------------------------------------------------------------
# theta
# ---------------------------------------------------------------------------

def test_theta_at_100_matches_oracle():
    assert theta(100.0, order=1) == pytest.approx(THETA_100, abs=1e-8)
    assert theta(100.0) == pytest.approx(THETA_100, abs=1e-11)
    assert theta_oracle(100.0) == pytest.approx(THETA_100, abs=1e-12)


def test_theta_vanishes_at_first_gram_point():
    assert abs(theta(GRAM_0)) < 1e-9


def test_theta_strictly_increasing():
    t = np.geomspace(rscore.T_MIN, 1e8, 500)
    assert np.all(np.diff(theta(t)) > 0)
    assert np.all(theta_deriv(t) > 0)


def test_theta_rejects_small_argument():
    with pytest.raises(ValueError):
        theta(2 * math.pi)
    with pytest.raises(ValueError):
        theta_deriv(1.0)


def test_theta_order_validation():
    with pytest.raises(ValueError):
        theta(100.0, order=4)
    with pytest.raises(ValueError):
        theta_deriv(100.0, order=-1)


def test_theta_deriv_main_term_value():
    # main term alone: (1/2) ln(t/2pi) = 1/2 at t = 2*pi*e
    assert theta_deriv(2 * math.pi * math.e, order=0) == pytest.approx(0.5, abs=1e-15)


def test_theta_deriv_at_1e6():
    # frozen oracle: d/dt Im log Gamma(1/4 + it/2) - (ln pi)/2 at t = 1e6
    assert theta_deriv(1e6) == pytest.approx(5.988816745777443, abs=1e-12)


def test_theta_deriv_matches_central_differences():
    for t in (1e3, 3.3e4, 1e6, 5e7):
        h = 1e-4 * math.sqrt(t)
        fd = (theta(t + h) - theta(t - h)) / (2 * h)
        assert theta_deriv(t) == pytest.approx(fd, rel=1e-6)


def test_theta_array_and_scalar_agree():
    ts = np.array([150.0, 1e4, 1e6])
    arr = theta(ts)
    assert arr.shape == (3,)
    for i, t in enumerate(ts):
        assert arr[i] == theta(float(t))


# ---------------------------------------------------------------------------
# hardy_z fast path
# ---------------------------------------------------------------------------

def test_hardy_z_oracle_vanishes_at_first_zero():
    assert abs(hardy_z_oracle(GAMMA_1)) < 1e-12


def test_hardy_z_fast_path_rejects_below_t_min():
    with pytest.raises(ValueError):
        hardy_z_many(np.array([99.0]))


@pytest.mark.parametrize("t", [[math.inf], [math.nan], [1e6, math.inf], [1e6, math.nan]])
def test_hardy_z_many_rejects_non_finite(t):
    with pytest.raises(ValueError):
        hardy_z_many(np.array(t))


def test_hardy_z_matches_oracle_spot_checks():
    # remainder truncation shrinks like t^(-5/4); tolerances follow it
    ts = np.array([1e3, 3.7e4, 1e6])
    for t, z, tol in zip(ts, hardy_z_many(ts), (3e-5, 5e-7, 5e-9)):
        assert z == pytest.approx(hardy_z_oracle(float(t)), abs=tol)


@pytest.mark.parametrize("base", [1e6, 9.9e7])
def test_hardy_z_many_evaluates_a_longdouble_t_exactly(base):
    # t = base + 1/3 is not a double.  The kernel's own truncation error is
    # smooth in t and cancels from a difference at two points ulp(t) apart,
    # so Z(t) - Z(double(t)) must match mpmath's at the exact values; a
    # kernel that rounded t to double would return a difference of 0
    import mpmath as mp

    t_ld = np.longdouble(base) + np.longdouble(1) / 3
    t_d = float(t_ld)
    low = float(t_ld - np.longdouble(t_d))
    assert low != 0.0
    with mp.workdps(30):
        ref = float(mp.siegelz(mp.mpf(t_d) + mp.mpf(low)) - mp.siegelz(mp.mpf(t_d)))
    fast = hardy_z_many(np.array([t_ld, t_d]))
    assert abs(ref) > 1e-10
    assert abs((fast[0] - fast[1]) - ref) <= 0.01 * abs(ref)


def test_hardy_z_same_sign_as_oracle_at_low_end():
    # consistency at the bottom of the fast range
    ts = np.array([150.0, 250.0, 1000.0])
    for t, z in zip(ts, hardy_z_many(ts)):
        assert math.copysign(1, z) == math.copysign(1, hardy_z_oracle(float(t)))


def test_hardy_z_correction_terms_improve_accuracy():
    ts = np.geomspace(1e3, 1e5, 12)
    ref = np.array([hardy_z_oracle(float(t)) for t in ts])
    errs = []
    for k in (0, 1, 2):
        z = hardy_z_many(ts, correction_terms=k)
        errs.append(np.max(np.abs(z - ref)))
    assert errs[1] < errs[0]
    assert errs[2] < errs[1]


def test_hardy_z_sign_constant_between_scan_zeros():
    # continuity: a fine scan between two located sign changes shows one sign
    ts = np.linspace(1e4, 1e4 + 4.0, 2000)
    z = hardy_z_many(ts)
    flips = np.nonzero(np.sign(z[:-1]) * np.sign(z[1:]) < 0)[0]
    assert len(flips) >= 2
    seg = z[flips[0] + 1: flips[1] + 1]
    assert np.all(np.sign(seg) == np.sign(seg[0]))


def test_hardy_z_deterministic_and_order_independent():
    ts = np.geomspace(1e3, 1e6, 257)
    a = hardy_z_many(ts)
    b = hardy_z_many(ts)
    assert np.array_equal(a, b)
    perm = np.random.default_rng(3).permutation(len(ts))
    c = hardy_z_many(ts[perm])
    assert np.array_equal(c, a[perm])


def test_hardy_z_chunking_invariance():
    # one call over at least three chunks equals calls on short slices
    ts = np.linspace(1e6, 1e6 + 100.0, 2001)
    n_max = math.floor(math.sqrt(ts[-1] / (2 * math.pi)))
    assert ts.size >= 3 * (rscore._CHUNK_ELEMS // n_max)
    a = hardy_z_many(ts)
    b = np.concatenate([hardy_z_many(s) for s in np.array_split(ts, 37)])
    assert np.array_equal(a, b)


def test_rs_config_validation():
    with pytest.raises(ValueError):
        hardy_z_many(np.array([1e6]), correction_terms=3)
    with pytest.raises(ValueError):
        hardy_z_many(np.array([1e6]), correction_terms=-1)


# ---------------------------------------------------------------------------
# z_tilde_sq
# ---------------------------------------------------------------------------

def test_z_tilde_sq_nonnegative():
    ts = np.linspace(1e6, 1e6 + 50, 4001)
    assert np.all(z_tilde_sq_many(ts) >= 0.0)


def test_z_tilde_sq_vanishes_at_zero_of_z():
    # bracket a sign change of Z, bisect it down, check the normalized square
    def z(t):
        return hardy_z_many(np.array([t]))[0]

    lo, hi = 1e6, 1e6 + 1.0
    zlo = z(lo)
    while z(hi) * zlo > 0:
        lo, hi = hi, hi + 1.0
        zlo = z(lo)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if z(mid) * zlo <= 0:
            hi = mid
        else:
            lo = mid
    assert z_tilde_sq_many(np.array([0.5 * (lo + hi)]))[0] < 1e-18


def test_z_tilde_sq_equals_z_squared_over_log():
    t = np.array([12345.6])
    assert z_tilde_sq_many(t)[0] == pytest.approx(
        hardy_z_many(t)[0] ** 2 / math.log(12345.6), rel=1e-14)


# ---------------------------------------------------------------------------
# Euler-Maclaurin cross-check
# ---------------------------------------------------------------------------

def test_em_zeta_against_oracle():
    # two fully independent evaluations of |zeta(1/2+it)|
    for t in (1e3, 1e4, 2e5):
        em = abs(zeta_half_em(t))
        ref = abs(hardy_z_oracle(t))
        assert em == pytest.approx(ref, rel=1e-9)


def test_em_zeta_rejects_nonpositive_t():
    with pytest.raises(ValueError):
        zeta_half_em(0.0)
