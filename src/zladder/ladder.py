"""Computable models of the Jacob's ladder phi_1, prime counting, and mirrors.

The exact ladder is defined elsewhere through a nonlinear integral equation;
here it is represented by two surrogates:

* an asymptotic model  phi_1(t) = t - (1 - gamma) * li(t), capturing the
  global geometry t - phi_1(t) ~ (1 - gamma) * pi(t) (the separation law);
* an ODE model whose derivative is exactly Z~^2(t) and whose value is the
  running integral of Z~^2 from an anchor supplied by the asymptotic model.
  This is the model under which the Z~^2 change of variables is an identity.
  Z is sampled once, when the model is built, and fitted into two tables of
  Chebyshev panels, Z and Z~^2; values, inversion and the Z of the mirrored
  integrand are then answered from those tables.

A PanelTable is the one interpolant of the package: Chebyshev panels fitted
from samples at longdouble nodes (dense output in the sense of Hairer, Norsett
and Wanner, Solving ODEs I, II.6).  The harness tables Z over the window with
it, so that no integrand calls the Z kernel.

Both models are strictly monotone (the ODE model non-strictly at the isolated
zeros of Z), immutable after construction, and inverted by
gridsets.solve_increasing, the safeguarded Newton that also solves the grid
equation, to the double nearest the preimage.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from numpy.polynomial import chebyshev as _cheb
from scipy.special import expi

from . import rscore
from .gridsets import solve_increasing
from .intervals import IntervalCollection

EULER_GAMMA = float(np.euler_gamma)

# Chebyshev panels.  Z is a sum of Riemann-Siegel terms, each turning at
# theta'(t) - ln n in [0, ln N] rad per unit, N = floor(sqrt(t/2pi)), and
# Z~^2 = Z^2 / ln t turns at most twice as fast.  At T_MAX = 1e8 (ln N = 8.3)
# that is 16.6 rad per unit, so on a panel of width 0.25 a term of Z~^2 sweeps
# at most w = 2.1 rad over the half-width x in [-1, 1].  The Chebyshev
# coefficients of cos(w x + c) decay like 2 (w/2)^k / k!, which at degree 14
# leaves a dropped tail near 1e-12 of the spectral amplitude.  The 15
# Chebyshev-Lobatto samples per panel share endpoints with the neighbours, so
# a table costs 14 Z points per panel, 56 per unit.
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


def panel_nodes(lo: float, hi: float):
    """Panel edges over [lo, hi], at most PANEL_WIDTH apart, and the
    Chebyshev-Lobatto sample points of every panel in ascending order.

    The points are longdouble: rounded to double, a point near t would sit up
    to ulp(t)/2 off its node and put ulp(t) |f'| of noise into every
    coefficient.  Panel i's points are nodes[n i : n (i + 1) + 1] with n =
    PANEL_DEGREE; neighbours share the edge between them, which is exact.
    """
    cuts = np.linspace(lo, hi, int(math.ceil((hi - lo) / PANEL_WIDTH)) + 1)
    # b - a is exact for neighbouring edges (Sterbenz), so edge + 2 hw is the
    # next edge exactly; edge + hw (1 + x) is x's node, rounded only in its
    # last longdouble bit, and PanelTable maps t back by x = (t - edge)/hw - 1
    hw = 0.5 * np.diff(cuts)
    inner = cuts[:-1, None].astype(np.longdouble) + hw[:, None] * (1.0 + _LOBATTO[:-1])
    return cuts, np.append(inner.ravel(), np.longdouble(cuts[-1]))


class PanelTable:
    """Chebyshev interpolant of a function on the panels of panel_nodes,
    fitted from its samples at those nodes (dense output in the sense of
    Hairer, Norsett and Wanner, Solving ODEs I, II.6).

    Calling the table evaluates the interpolant at an array of t, by one
    Clenshaw pass that gathers a single coefficient row at a time.  A t
    outside [cuts[0], cuts[-1]], or NaN, raises ValueError: the table never
    extrapolates or clips.
    """

    def __init__(self, cuts, samples):
        self.cuts = np.asarray(cuts, dtype=float)
        self.hw = 0.5 * np.diff(self.cuts)
        vals = sliding_window_view(np.asarray(samples, dtype=float),
                                   PANEL_DEGREE + 1)[::PANEL_DEGREE]
        if vals.shape[0] != self.hw.size:
            raise ValueError("samples do not match the panels of cuts")
        # rows are coefficient orders, columns panels
        self.coef = _SAMPLES_TO_COEF @ vals.T

    def locate(self, t):
        """Panel index and local coordinate x in [-1, 1] of each t."""
        t = np.asarray(t, dtype=float)
        lo, hi = self.cuts[0], self.cuts[-1]
        if not np.all((t >= lo) & (t <= hi)):
            raise ValueError(
                f"t outside the table's domain [{float(lo)!r}, {float(hi)!r}], or NaN")
        idx = np.minimum(np.searchsorted(self.cuts, t, side="right") - 1,
                         self.hw.size - 1)
        return idx, (t - self.cuts[idx]) / self.hw[idx] - 1.0

    def __call__(self, t):
        idx, x = self.locate(t)
        return _clenshaw(self.coef, idx, x)


def _clenshaw(coef, idx, x):
    """sum_k coef[k, idx] T_k(x), gathering one row of coef at a time."""
    b1 = b2 = np.zeros_like(x)
    for k in range(coef.shape[0] - 1, 0, -1):
        b1, b2 = coef[k][idx] + 2.0 * x * b1 - b2, b1
    return coef[0][idx] + x * b1 - b2


class LadderRangeError(ValueError):
    """Requested point falls outside a ladder model's validated range."""


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

    @functools.cached_property
    def image(self) -> tuple[float, float]:
        """(eval(lo), eval(hi)), computed once: the model is immutable."""
        ends = np.asarray(self.eval(np.array([self.lo, self.hi])), dtype=float)
        return float(ends[0]), float(ends[1])

    def invert(self, y, max_iter: int = 80):
        """Monotone inversion: return t with eval(t) = y (scalar or array).

        solve_increasing on eval and _slope from the model's initial bracket:
        each t is the double nearest the preimage, and a point still open
        after ``max_iter`` rounds raises gridsets.SolverError.
        """
        y_arr = np.atleast_1d(np.asarray(y, dtype=float))
        flo, fhi = self.image
        if not np.all((y_arr >= flo - 1e-9) & (y_arr <= fhi + 1e-9)):
            raise LadderRangeError(
                f"value outside model image [{flo!r}, {fhi!r}]"
            )
        a, b = self._initial_bracket(y_arr)
        t = solve_increasing(self.eval, self._slope, y_arr, a, b, 0.5 * (a + b),
                             max_iter)
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

    The build samples Z once at the nodes of panel_nodes and fits two
    PanelTables on them: Z itself (z) and Z~^2 = Z^2 / ln t.  Panel integrals
    of the Z~^2 interpolant come from its coefficients (Clenshaw-Curtis) and
    are accumulated in extended precision into checkpoint values; eval adds
    the closed-form integral of the interpolant from the panel start.  eval,
    z and the inversion slope make no Z evaluation; deriv evaluates Z~^2
    itself.
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
        cuts, nodes = panel_nodes(self.lo, self.hi)
        z = rscore.hardy_z_many(nodes)
        self._z = PanelTable(cuts, z)
        self._zsq = PanelTable(cuts, z * z / np.log(nodes.astype(float)))
        self._integral = _COEF_TO_INTEGRAL @ self._zsq.coef
        panel = self._integral.sum(axis=0) * self._zsq.hw  # antiderivative at x = 1
        cum = np.cumsum(panel.astype(np.longdouble))
        self._cp_phi = float(anchor_value) + np.concatenate(
            [[0.0], cum.astype(float)]
        )

    @property
    def image(self) -> tuple[float, float]:
        return float(self._cp_phi[0]), float(self._cp_phi[-1])

    def _clip(self, t):
        return np.clip(self._check_range(t), self.lo, self.hi)

    def eval(self, t):
        scalar = np.asarray(t).ndim == 0
        idx, x = self._zsq.locate(self._clip(t))
        out = self._cp_phi[idx] + self._zsq.hw[idx] * _clenshaw(self._integral, idx, x)
        return float(out[0]) if scalar else out

    def deriv(self, t):
        scalar = np.asarray(t).ndim == 0
        t = self._check_range(t)
        out = rscore.z_tilde_sq_many(t)
        return float(out[0]) if scalar else out

    def z(self, t):
        """Z at an array of t from the interpolant of the build's samples."""
        return self._z(self._clip(t))

    def _slope(self, t):
        # the interpolant of Z~^2, which is exactly d eval / dt
        return self._zsq(self._clip(t))

    def _initial_bracket(self, y_arr):
        # checkpoints are monotone nondecreasing, so they bracket the preimage
        cuts = self._zsq.cuts
        idx = np.clip(np.searchsorted(self._cp_phi, y_arr) - 1, 0, len(cuts) - 2)
        return cuts[idx].copy(), cuts[idx + 1].copy()


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
