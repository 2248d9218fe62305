"""Fast evaluation of the Riemann-Siegel theta function and the Hardy Z
signal.

Two evaluation grades live here:

* a fast double-precision path (asymptotic theta series + Riemann-Siegel main
  sum with remainder terms C0, C1), vectorized over numpy arrays, which takes
  longdouble t where a sample point must be finer than a double (the panel
  tables of the ladder module);
* a slow arbitrary-precision oracle built on mpmath (exact theta from
  log-Gamma, zeta from mpmath's independent machinery), used by tests and
  wherever the fast path is outside its validated range.

All functions are pure; the only module state is a lazily built, read-only
Chebyshev table for the remainder coefficient functions.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial import chebyshev as _cheb

TWO_PI = 2.0 * math.pi

# extended-precision constants for phase reduction: theta(t) and t*ln n reach
# ~1e8 at the top of the validated range, where double rounding alone injects
# ~1e-8 of phase noise; carrying the phases in 80-bit longdouble and reducing
# mod 2*pi before the cosine keeps the noise floor near 1e-11
_PI_LD = np.longdouble("3.14159265358979323846264338327950288")
_TWO_PI_LD = np.longdouble(2) * _PI_LD

#: Fast path refuses t below this; asymptotic expansions degrade at small t.
T_MIN = 100.0

#: Maximum number of theta correction terms beyond the main three.
THETA_MAX_ORDER = 3

#: Maximum number of Riemann-Siegel remainder terms (C0 and C1).
RS_MAX_CORRECTION_TERMS = 2

#: Significant digits the mpmath oracle certifies (it works with 10 more).
ORACLE_DIGITS = 30

#: Elements of the (points, terms) matrix hardy_z_many builds per chunk: about
#: 2 MB of temporaries, faster than 8M-element chunks at ~6x less peak RSS.
_CHUNK_ELEMS = 250_000


class PrecisionError(RuntimeError):
    """Raised when the high-precision oracle cannot certify convergence."""


# ---------------------------------------------------------------------------
# theta and its derivative (fast asymptotic path)
# ---------------------------------------------------------------------------

# Coefficients of the 1/t asymptotic tail: 1/(48t) + 7/(5760 t^3) + 31/(80640 t^5)
_THETA_TAIL = (1.0 / 48.0, 7.0 / 5760.0, 31.0 / 80640.0)


def _check_theta_args(t, order: int, name: str):
    if not 0 <= order <= THETA_MAX_ORDER:
        raise ValueError(f"order must be in [0, {THETA_MAX_ORDER}], got {order}")
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr <= TWO_PI):
        raise ValueError(f"{name} requires t > 2*pi")
    return t_arr


def theta(t, order: int = THETA_MAX_ORDER):
    """Riemann-Siegel theta via its asymptotic series. Accepts scalars or arrays.

    ``order`` counts the 1/t correction terms used beyond
    t/2*ln(t/2pi) - t/2 - pi/8; the absolute error for t >= T_MIN is bounded
    by the first dropped term, 1/(48 t) for order 0.  Requires t > 2*pi so the
    expansion point is inside the admissible range.
    """
    t_arr = _check_theta_args(t, order, "theta")
    v = 0.5 * t_arr * np.log(t_arr / TWO_PI) - 0.5 * t_arr - math.pi / 8.0
    tp = t_arr
    for k in range(order):
        v = v + _THETA_TAIL[k] / tp
        tp = tp * t_arr * t_arr
    return v if v.ndim else float(v)


def _theta_ld(t_ld):
    """theta on longdouble input, for phase-accurate use inside hardy_z_many."""
    v = 0.5 * t_ld * np.log(t_ld / _TWO_PI_LD) - 0.5 * t_ld - _PI_LD / 8
    tp = t_ld
    for k in range(THETA_MAX_ORDER):
        v = v + np.longdouble(_THETA_TAIL[k]) / tp
        tp = tp * t_ld * t_ld
    return v


def theta_deriv(t, order: int = THETA_MAX_ORDER):
    """Derivative of theta with ``order`` correction terms (see theta);
    strictly positive for t > 2*pi*e and on [T_MIN, inf)."""
    t_arr = _check_theta_args(t, order, "theta_deriv")
    v = 0.5 * np.log(t_arr / TWO_PI)
    tp = t_arr * t_arr
    for k in range(order):
        v = v - (2 * k + 1) * _THETA_TAIL[k] / tp
        tp = tp * t_arr * t_arr
    return v if v.ndim else float(v)


# ---------------------------------------------------------------------------
# Riemann-Siegel remainder coefficients via Chebyshev tables
# ---------------------------------------------------------------------------
# psi(p) = cos(2*pi*(p^2 - p - 1/16)) / cos(2*pi*p) has removable singularities
# at p = 1/4, 3/4, so direct double evaluation cancels badly there.  We build
# degree-96 Chebyshev interpolants of psi and psi''' on [0, 1] once, from
# high-precision samples, and evaluate those on the hot path.

_CHEB_DEGREE = 96
_cheb_tables = None


def _build_cheb_tables():
    import mpmath as mp

    with mp.workdps(40):
        def psi(p):
            return mp.cos(2 * mp.pi * (p * p - p - mp.mpf(1) / 16)) / mp.cos(2 * mp.pi * p)

        k = np.arange(_CHEB_DEGREE + 1)
        nodes = np.cos((2 * k + 1) * np.pi / (2 * (_CHEB_DEGREE + 1)))
        p_nodes = (nodes + 1.0) / 2.0
        v0 = np.array([float(psi(mp.mpf(p))) for p in p_nodes])
        v3 = np.array([float(mp.diff(psi, mp.mpf(p), 3)) for p in p_nodes])
    c0 = _cheb.chebfit(nodes, v0, _CHEB_DEGREE)
    c3 = _cheb.chebfit(nodes, v3, _CHEB_DEGREE)
    return c0, c3


def _rs_coeffs(p):
    """(C0(p), C1(p)) of the Riemann-Siegel remainder, vectorized over p in [0, 1)."""
    global _cheb_tables
    if _cheb_tables is None:
        _cheb_tables = _build_cheb_tables()
    c0, c3 = _cheb_tables
    x = 2.0 * np.asarray(p, dtype=float) - 1.0
    C0 = _cheb.chebval(x, c0)
    C1 = -_cheb.chebval(x, c3) / (96.0 * math.pi ** 2)
    return C0, C1


# ---------------------------------------------------------------------------
# Hardy Z, fast path
# ---------------------------------------------------------------------------

_SUM_BLOCK = 64  # fixed pairwise block for the compensated reduction


def _reduce_terms(terms):
    """Reduce the (points, n) term matrix along axis 1 with a fixed order:
    pairwise sums over fixed blocks of 64 terms, then a Neumaier-compensated
    left-to-right pass over the block sums."""
    npts, nterm = terms.shape
    nblk = -(-nterm // _SUM_BLOCK)
    padded = np.zeros((npts, nblk * _SUM_BLOCK))
    padded[:, :nterm] = terms
    blocks = padded.reshape(npts, nblk, _SUM_BLOCK).sum(axis=2)
    total = blocks[:, 0].copy()
    comp = np.zeros(npts)
    for j in range(1, nblk):
        b = blocks[:, j]
        s = total + b
        big = np.abs(total) >= np.abs(b)
        comp += np.where(big, (total - s) + b, (b - s) + total)
        total = s
    return total + comp


def hardy_z_many(t, *, correction_terms: int = RS_MAX_CORRECTION_TERMS):
    """Vectorized Hardy Z over a numpy array of t >= T_MIN.

    Evaluates the Riemann-Siegel main sum 2 * sum_{n <= N} cos(theta - t ln n)/sqrt(n)
    with N = floor(sqrt(t/2pi)), plus ``correction_terms`` (0 to
    RS_MAX_CORRECTION_TERMS) remainder terms.  A longdouble t is kept for the
    phases, so Z is evaluated at that t and not at its double rounding.
    Raises ValueError on non-finite t.
    """
    if not 0 <= correction_terms <= RS_MAX_CORRECTION_TERMS:
        raise ValueError(f"correction_terms must be in [0, {RS_MAX_CORRECTION_TERMS}]")
    t_ld = np.asarray(t, dtype=np.longdouble)
    t = t_ld.astype(float)
    if t.size == 0:
        return np.empty(0)
    if not np.all(np.isfinite(t)):
        raise ValueError("hardy_z fast path requires finite t")
    if np.any(t < T_MIN):
        raise ValueError(f"hardy_z fast path requires t >= {T_MIN}")
    a = np.sqrt(t / TWO_PI)
    N = np.floor(a).astype(np.int64)
    p = a - N
    th_ld = _theta_ld(t_ld)
    n_max = int(N.max())
    n = np.arange(1, n_max + 1, dtype=float)
    ln_n_ld = np.log(np.arange(1, n_max + 1, dtype=np.longdouble))
    inv_sqrt_n = 1.0 / np.sqrt(n)

    out = np.empty_like(t)
    chunk = max(1, _CHUNK_ELEMS // max(1, n_max))
    for i in range(0, t.size, chunk):
        sl = slice(i, min(i + chunk, t.size))
        # phases carried in longdouble and reduced mod 2*pi before the cosine
        phase = np.mod(th_ld[sl, None] - t_ld[sl, None] * ln_n_ld[None, :],
                       _TWO_PI_LD).astype(float)
        terms = np.cos(phase) * inv_sqrt_n[None, :]
        terms[n[None, :] > N[sl, None]] = 0.0
        out[sl] = 2.0 * _reduce_terms(terms)

    if correction_terms > 0:
        C0, C1 = _rs_coeffs(p)
        R = C0
        if correction_terms >= 2:
            R = R + C1 / a
        sign = np.where(N % 2 == 1, 1.0, -1.0)
        out = out + sign * R / np.sqrt(a)
    return out


# ---------------------------------------------------------------------------
# High-precision oracle (mpmath)
# ---------------------------------------------------------------------------

def theta_oracle(t: float) -> float:
    """theta(t) = Im log Gamma(1/4 + it/2) - (t/2) ln pi, exact to working digits."""
    import mpmath as mp

    if t <= 0:
        raise ValueError("theta_oracle requires t > 0")
    with mp.workdps(ORACLE_DIGITS + 10):
        v = mp.im(mp.loggamma(mp.mpf("0.25") + 0.5j * mp.mpf(t))) \
            - mp.mpf(t) / 2 * mp.log(mp.pi)
        return float(v)


def hardy_z_oracle(t: float) -> float:
    """Reference Z(t) = Re(e^{i theta(t)} zeta(1/2 + it)) at oracle precision.

    Independent of the fast Riemann-Siegel path above: theta comes from exact
    log-Gamma and zeta from mpmath.  The imaginary part of the product is a
    convergence certificate; if it is not negligible a PrecisionError is raised.
    """
    import mpmath as mp

    if t <= 0:
        raise ValueError("hardy_z_oracle requires t > 0")
    with mp.workdps(ORACLE_DIGITS + 10):
        th = mp.im(mp.loggamma(mp.mpf("0.25") + 0.5j * mp.mpf(t))) \
            - mp.mpf(t) / 2 * mp.log(mp.pi)
        w = mp.exp(1j * th) * mp.zeta(mp.mpc(0.5, t))
        scale = max(1.0, abs(w))
        if abs(mp.im(w)) > scale * mp.mpf(10) ** (-(ORACLE_DIGITS - 5)):
            raise PrecisionError(f"oracle did not converge at t={t}")
        return float(mp.re(w))


# ---------------------------------------------------------------------------
# Independent Euler-Maclaurin zeta(1/2 + it), double precision
# ---------------------------------------------------------------------------

# Bernoulli numbers B_2, B_4, ..., B_50 (exact rationals rounded to double).
_BERNOULLI_EVEN = None


def _bernoulli_even(m):
    global _BERNOULLI_EVEN
    if _BERNOULLI_EVEN is None or len(_BERNOULLI_EVEN) < m + 1:
        from scipy.special import bernoulli

        _BERNOULLI_EVEN = bernoulli(2 * max(m, 25))
    return _BERNOULLI_EVEN


def zeta_half_em(t: float, terms: int = 25) -> complex:
    """zeta(1/2 + it) by a direct Euler-Maclaurin sum, double precision.

    Cutoff N ~ 1.5 t / (2 pi) keeps the Bernoulli tail convergent; with the
    extended-precision phase reduction the accuracy is roughly 1e-11 across
    the validated range.  Used as a second, fully in-house check against both
    Z paths.
    """
    if t <= 0:
        raise ValueError("zeta_half_em requires t > 0")
    s = 0.5 + 1j * t
    N = int(1.5 * t / TWO_PI) + 10
    n = np.arange(1, N, dtype=float)
    # phases in longdouble, reduced mod 2*pi: see hardy_z_many
    ph = np.mod(np.longdouble(t) * np.log(np.arange(1, N, dtype=np.longdouble)),
                _TWO_PI_LD).astype(float)
    main = complex(np.sum(n ** -0.5 * np.exp(-1j * ph)))
    total = main + N ** (1 - s) / (s - 1) + 0.5 * N ** (-s)
    B = _bernoulli_even(terms)
    # keep the pochhammer-times-power product combined: the separate factors
    # overflow double range for t beyond ~3e6 while their product stays small
    poch_pow = s * N ** (-s - 1.0)
    n2 = float(N) * float(N)
    tail = 0j
    for k in range(1, terms + 1):
        term = (B[2 * k] / math.factorial(2 * k)) * poch_pow
        tail += term
        if abs(term) < 1e-17 * max(1.0, abs(total)):
            break
        poch_pow = poch_pow * (s + 2 * k - 1) * (s + 2 * k) / n2
    return complex(total + tail)
