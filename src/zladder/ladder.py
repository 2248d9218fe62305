"""Computable models of the Jacob's ladder phi_1, prime counting, and mirrors.

The exact ladder is defined elsewhere through a nonlinear integral equation;
here it is represented by two surrogates:

* an asymptotic model  phi_1(t) = t - (1 - gamma) * li(t), capturing the
  global geometry t - phi_1(t) ~ (1 - gamma) * pi(t) (the separation law);
* an ODE model whose derivative is exactly Z~^2(t) and whose value is the
  running integral of Z~^2 from an anchor supplied by the asymptotic model.
  This is the model under which the Z~^2 change of variables is an identity.
  Z~^2 is sampled once, when the model is built, into a table of Chebyshev
  panels (dense output in the sense of Hairer, Norsett and Wanner, Solving
  ODEs I, II.6); values and inversion are then answered from that table.

Both models are strictly monotone (the ODE model non-strictly at the isolated
zeros of Z), immutable after construction, and invertible by safeguarded
Newton on a shrinking bracket.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from numpy.polynomial import chebyshev as _cheb
from scipy.special import expi

from . import rscore
from .intervals import IntervalCollection

EULER_GAMMA = float(np.euler_gamma)

# Chebyshev panels of the ODE ladder.  Z~^2 = Z^2 / ln t is a sum of
# oscillations of frequency at most 2 ln N rad per unit, N = floor(sqrt(t/2pi)):
# each Riemann-Siegel term of Z turns at theta'(t) - ln n, in [0, ln N].  At
# T_MAX = 1e8 (ln N = 8.3) that is 16.6 rad per unit, so on a panel of width
# 0.25 a term sweeps at most w = 2.1 rad over the half-width x in [-1, 1].  The
# Chebyshev coefficients of cos(w x + c) decay like 2 (w/2)^k / k!, which at
# degree 14 leaves a dropped tail near 1e-12 of the spectral amplitude.  The
# 15 Chebyshev-Lobatto samples per panel share endpoints with the neighbours,
# so the table costs 14 Z points per panel, 56 per unit.
PANEL_WIDTH = 0.25
PANEL_DEGREE = 14

_k = np.arange(PANEL_DEGREE + 1)
#: Chebyshev-Lobatto nodes cos(k pi / n), k = n..0: ascending from -1 to 1.
_LOBATTO = np.cos(np.pi * _k[::-1] / PANEL_DEGREE)
_halve = np.where((_k == 0) | (_k == PANEL_DEGREE), 0.5, 1.0)
#: Samples at _LOBATTO -> Chebyshev coefficients of the interpolant (DCT-I).
_SAMPLES_TO_COEF = (2.0 / PANEL_DEGREE) * _halve[:, None] \
    * np.cos(np.pi * np.outer(_k, _k[::-1]) / PANEL_DEGREE) * _halve[None, :]
#: Chebyshev coefficients -> coefficients of the antiderivative vanishing at -1.
_COEF_TO_INTEGRAL = _cheb.chebint(np.eye(PANEL_DEGREE + 1), lbnd=-1, axis=0)


class LadderRangeError(ValueError):
    """Requested point falls outside a ladder model's validated range."""


class LadderConvergenceError(ArithmeticError):
    """Ladder inversion ran out of rounds before every point converged."""


def li(t):
    """Principal-value logarithmic integral li(t) = Ei(ln t), li(2) ~ 1.045.

    Defined for t > 0, t != 1 (the PV through the ln-singularity at t = 1 is
    what expi provides); only t >= 10 is exercised here.
    """
    t = np.asarray(t, dtype=float)
    out = expi(np.log(t))
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# prime counting
# ---------------------------------------------------------------------------

def prime_pi(x: float) -> int:
    """Number of primes <= x, by a sieve over the odd numbers up to x.

    Entry i of the sieve stands for 2 i + 1, so it takes x/2 bytes, and the
    primes are counted without a cumulative table.
    """
    n = int(math.floor(x))
    if n < 2:
        return 0
    odd = np.ones((n + 1) // 2, dtype=bool)
    odd[0] = False  # 1
    for p in range(3, math.isqrt(n) + 1, 2):
        if odd[p // 2]:
            odd[p * p // 2::p] = False
    return 1 + int(np.count_nonzero(odd))


# ---------------------------------------------------------------------------
# ladder models
# ---------------------------------------------------------------------------

class LadderModel:
    """Increasing differentiable model of phi_1 on a working range."""

    kind: str
    lo: float
    hi: float

    def eval(self, t):
        raise NotImplementedError

    def deriv(self, t):
        raise NotImplementedError

    def _check_range(self, t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        if np.any(t < self.lo - 1e-9) or np.any(t > self.hi + 1e-9):
            raise LadderRangeError(
                f"t outside model range [{self.lo!r}, {self.hi!r}]"
            )
        return t

    def invert(self, y, tol: float = 1e-10, max_iter: int = 80):
        """Monotone inversion: return t with eval(t) = y (scalar or array).

        Safeguarded Newton on a shrinking bracket: where the slope is bounded
        away from zero the iteration converges in a handful of evaluations;
        near zeros of the slope it degrades to bisection.  Only the
        still-unconverged subset is evaluated each round.  A point has
        converged when its bracket is within ``tol`` or down to two adjacent
        doubles, or when Newton has pinned the residual; a point still open
        after ``max_iter`` rounds raises LadderConvergenceError.
        """
        y_arr = np.atleast_1d(np.asarray(y, dtype=float))
        flo = float(np.asarray(self.eval(np.array([self.lo])))[0])
        fhi = float(np.asarray(self.eval(np.array([self.hi])))[0])
        if np.any(y_arr < flo - 1e-9) or np.any(y_arr > fhi + 1e-9):
            raise LadderRangeError(
                f"value outside model image [{flo!r}, {fhi!r}]"
            )
        a, b = self._initial_bracket(y_arr)
        t = 0.5 * (a + b)
        # eval carries rounding jitter ~eps*|y|, so the residual target cannot
        # sit below that floor
        ftol = np.maximum(0.01 * tol, 8.0 * np.finfo(float).eps * np.abs(y_arr))
        active = np.arange(len(y_arr))
        for _ in range(max_iter):
            ta = t[active]
            ft = np.asarray(self.eval(ta)) - y_arr[active]
            above = ft > 0
            b[active] = np.where(above, ta, b[active])
            a[active] = np.where(above, a[active], ta)
            d = np.asarray(self._slope(ta))
            width = b[active] - a[active]
            # converged when the bracket is tight (at large t, adjacent doubles
            # can be further apart than tol), or Newton has pinned the residual
            # and the local slope bounds the remaining t error
            done = (width <= tol) | (b[active] <= np.nextafter(a[active], np.inf)) | (
                (d > 1e-8) & (np.abs(ft) <= np.maximum(0.01 * tol * d, ftol[active])))
            step = np.where(d > 1e-8, ft / np.where(d > 1e-8, d, 1.0), 0.0)
            nxt = ta - step
            mid = 0.5 * (a[active] + b[active])
            bad = (d <= 1e-8) | (nxt <= a[active]) | (nxt >= b[active])
            t[active] = np.where(done, ta, np.where(bad, mid, nxt))
            active = active[~done]
            if active.size == 0:
                break
        else:
            raise LadderConvergenceError(
                f"{active.size} of {len(y_arr)} points unconverged after "
                f"{max_iter} rounds"
            )
        return t if np.asarray(y).ndim else float(t[0])

    def _slope(self, t):
        """Newton slope for invert: d eval / dt."""
        return self.deriv(t)

    def _initial_bracket(self, y_arr):
        return np.full_like(y_arr, self.lo), np.full_like(y_arr, self.hi)


class AsymptoticLadder(LadderModel):
    """phi_1(t) = t - (1 - gamma) li(t); derivative 1 - (1 - gamma)/ln t."""

    kind = "asymptotic"

    def __init__(self, lo: float, hi: float):
        if not 10.0 <= lo < hi:
            raise ValueError("asymptotic ladder requires 10 <= lo < hi")
        self.lo = float(lo)
        self.hi = float(hi)
        self.anchor = None

    def eval(self, t):
        scalar = np.asarray(t).ndim == 0
        t = self._check_range(t)
        out = t - (1.0 - EULER_GAMMA) * li(t)
        return float(out[0]) if scalar else out

    def deriv(self, t):
        scalar = np.asarray(t).ndim == 0
        t = self._check_range(t)
        out = 1.0 - (1.0 - EULER_GAMMA) / np.log(t)
        return float(out[0]) if scalar else out


class OdeLadder(LadderModel):
    """Model with deriv(t) = Z~^2(t) exactly and eval(t) = anchor value plus
    the integral of Z~^2 from the anchor.

    The build samples Z~^2 once on a table of Chebyshev panels (PANEL_WIDTH
    wide, degree PANEL_DEGREE) and stores each panel's interpolant.  Panel
    integrals come from the same coefficients (Clenshaw-Curtis) and are
    accumulated in extended precision into checkpoint values; eval adds the
    closed-form integral of the interpolant from the panel start.  eval and
    the inversion slope make no Z evaluation; deriv evaluates Z~^2 itself.
    """

    kind = "ode"

    def __init__(self, anchor_t: float, span: float, anchor_value: float):
        if span <= 0:
            raise ValueError("span must be positive")
        if anchor_t < rscore.T_MIN:
            raise ValueError("anchor below fast-path range")
        self.lo = float(anchor_t)
        self.hi = float(anchor_t + span)
        self.anchor = (float(anchor_t), float(anchor_value))
        n = int(math.ceil(span / PANEL_WIDTH))
        self._cp_t = np.linspace(self.lo, self.hi, n + 1)
        self._mid = 0.5 * (self._cp_t[:-1] + self._cp_t[1:])
        self._hw = 0.5 * np.diff(self._cp_t)
        # with n = PANEL_DEGREE, panel i's samples are nodes[n i : n (i + 1) + 1]:
        # neighbours share the checkpoint between them
        nodes = np.append(
            (self._mid[:, None] + self._hw[:, None] * _LOBATTO[:-1]).ravel(), self.hi)
        nodes[::PANEL_DEGREE] = self._cp_t
        vals = sliding_window_view(rscore.z_tilde_sq_many(nodes),
                                   PANEL_DEGREE + 1)[::PANEL_DEGREE]
        # rows are coefficient orders, columns panels
        self._coef = _SAMPLES_TO_COEF @ vals.T
        self._integral = _COEF_TO_INTEGRAL @ self._coef
        panel = self._integral.sum(axis=0) * self._hw  # antiderivative at x = 1
        cum = np.cumsum(panel.astype(np.longdouble))
        self._cp_phi = float(anchor_value) + np.concatenate(
            [[0.0], cum.astype(float)]
        )

    def _locate(self, t):
        """Panel index and local coordinate x in [-1, 1] of each t."""
        t = np.clip(self._check_range(t), self.lo, self.hi)
        idx = np.clip(np.searchsorted(self._cp_t, t, side="right") - 1, 0,
                      len(self._cp_t) - 2)
        return idx, (t - self._mid[idx]) / self._hw[idx]

    def eval(self, t):
        scalar = np.asarray(t).ndim == 0
        idx, x = self._locate(t)
        out = self._cp_phi[idx] + self._hw[idx] * _cheb.chebval(
            x, self._integral[:, idx], tensor=False)
        return float(out[0]) if scalar else out

    def deriv(self, t):
        scalar = np.asarray(t).ndim == 0
        t = self._check_range(t)
        out = rscore.z_tilde_sq_many(t)
        return float(out[0]) if scalar else out

    def _slope(self, t):
        # the interpolant of Z~^2, which is exactly d eval / dt
        idx, x = self._locate(t)
        return _cheb.chebval(x, self._coef[:, idx], tensor=False)

    def _initial_bracket(self, y_arr):
        # checkpoints are monotone nondecreasing, so they bracket the preimage
        idx = np.clip(np.searchsorted(self._cp_phi, y_arr) - 1, 0,
                      len(self._cp_t) - 2)
        return self._cp_t[idx].copy(), self._cp_t[idx + 1].copy()


def ladder_ode(anchor_t: float, span: float, seed_model: LadderModel) -> OdeLadder:
    """ODE ladder on [anchor_t, anchor_t + span], anchored to the seed model."""
    anchor_value = float(np.asarray(seed_model.eval(np.array([anchor_t])))[0])
    return OdeLadder(anchor_t, span, anchor_value)


# ---------------------------------------------------------------------------
# mirroring and the separation law
# ---------------------------------------------------------------------------

_MIRROR_LABEL = {"G1": "mirrored-G1", "G2": "mirrored-G2"}


def mirror_collection(m: LadderModel, c: IntervalCollection) -> IntervalCollection:
    """The preimage of every endpoint under m; monotonicity preserves order."""
    label = _MIRROR_LABEL.get(c.label, "other")
    if len(c) == 0:
        return IntervalCollection((), label)
    ends = np.concatenate([c.lows, c.highs])
    mirrored = np.asarray(m.invert(ends))
    los = mirrored[: len(c)]
    his = mirrored[len(c):]
    return IntervalCollection(tuple(zip(los, his)), label)


def separation_rho(w, m: LadderModel):
    """Distance between [T, T+H] and its mirror, with the predicted value.

    Returns (rho, predicted) where rho = T-ring - (T + H), T-ring the preimage
    of T, and the prediction is (1 - gamma) * pi(T) with exact sieve counts.
    """
    T_ring = m.invert(float(w.T))
    rho = T_ring - (w.T + w.H)
    if rho < 0:
        raise ArithmeticError(
            f"negative separation rho={rho}: model violates T+H < T-ring"
        )
    predicted = (1.0 - EULER_GAMMA) * prime_pi(w.T)
    return rho, predicted


# ---------------------------------------------------------------------------
# checkpoint-table serialization
# ---------------------------------------------------------------------------

#: Largest spacing of the rows save_ladder_csv writes.
CSV_STEP = 1.0


def save_ladder_csv(m: LadderModel, path, lo: float, hi: float):
    """Write a (t, phi1, phi1') table over [lo, hi], evenly spaced at most
    CSV_STEP apart, with a header line declaring kind, anchor, and tolerance
    of the table."""
    ts = np.linspace(lo, hi, int(math.ceil((hi - lo) / CSV_STEP)) + 1)
    phi = np.asarray(m.eval(ts))
    dphi = np.asarray(m.deriv(ts))
    anchor = getattr(m, "anchor", None)
    with open(path, "w") as fh:
        fh.write(f"# kind={m.kind} anchor={anchor!r} tol=1e-9\n")
        fh.write("t,phi1,dphi1\n")
        for a, b, c in zip(ts, phi, dphi):
            fh.write(f"{float(a)!r},{float(b)!r},{float(c)!r}\n")
