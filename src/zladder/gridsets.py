"""Generalized Gram grid and the disconnected set systems G1, G2.

The grid equation is theta(t_nu(tau)) = pi*nu + tau with tau in [-pi, pi];
tau = 0 gives the classical Gram points.  theta is smooth and strictly
increasing on the working range, so every grid point is found by Newton
iteration started from the Lambert-W inverse of the theta main term, with a
bisection safeguard for the rare step that leaves its bracket.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import lambertw

from .intervals import IntervalCollection
from .rscore import TWO_PI, theta, theta_deriv

#: Upper end of the validated working range.
T_MAX = 1.0e8

#: Lower end for grid solves.  The theta asymptotics are still ~1e-11 accurate
#: here, which admits the classical Gram points starting at t ~ 17.8.
GRID_T_MIN = 10.0

#: Residual tolerance of the theta solves, relative to the solution t: it sits
#: above double rounding of theta throughout the validated range.
THETA_REL_TOL = 1e-10

#: Newton rounds of a theta solve before it is declared unconverged.
THETA_MAX_ITER = 30

#: Root gaps of the sign partition cover at most this share of its measure.
ROOT_TOL = 1e-6


class SolverError(RuntimeError):
    """Grid-point solve failed to converge; message carries the bracket."""


@dataclass(frozen=True)
class GramLikePoint:
    """One solution t_nu(tau) of theta(t) = pi*nu + tau."""

    nu: int
    tau: float
    t: float


@dataclass(frozen=True)
class WindowSpec:
    """Observation window [T, T+H]; H defaults to T^(1/6 + 2*epsilon)."""

    T: float
    epsilon: float = 0.05
    H_override: float | None = None

    def __post_init__(self):
        if not 1.0e3 <= self.T < math.inf:
            raise ValueError("window requires a finite T >= 1e3")
        if not 0.0 < self.epsilon < 1.0 / 12.0:
            raise ValueError("epsilon must lie in (0, 1/12)")
        if self.H_override is not None and not 0.0 < self.H_override < math.inf:
            raise ValueError("H_override must be finite and positive")
        if self.T + self.H > T_MAX:
            raise ValueError(f"window exceeds validated range (T + H <= {T_MAX:g})")

    @property
    def H(self) -> float:
        if self.H_override is not None:
            return float(self.H_override)
        return float(self.T ** (1.0 / 6.0 + 2.0 * self.epsilon))


# ---------------------------------------------------------------------------
# theta inversion
# ---------------------------------------------------------------------------

def _theta_initial_guess(target):
    """Invert the theta main term: (t/2) ln(t/(2 pi e)) = target + pi/8."""
    y = np.asarray(target, dtype=float) + math.pi / 8.0
    w = np.real(lambertw(y / (math.pi * math.e)))
    return TWO_PI * np.exp(w + 1.0)


def invert_theta(targets):
    """Vectorized safeguarded Newton solve of theta(t) = target to a residual
    of THETA_REL_TOL * t."""
    targets = np.atleast_1d(np.asarray(targets, dtype=float))
    theta_min = theta(GRID_T_MIN)
    if np.any(targets < theta_min):
        raise ValueError(f"target below theta({GRID_T_MIN:g}) = {theta_min:.6f}")
    t = np.clip(_theta_initial_guess(targets), GRID_T_MIN, None)
    lo = np.full_like(t, GRID_T_MIN)
    hi = np.full_like(t, T_MAX * 1.01)
    for _ in range(THETA_MAX_ITER):
        resid = theta(t) - targets
        done = np.abs(resid) <= THETA_REL_TOL * t
        if np.all(done):
            return t
        # monotonicity keeps the bracket shrinking
        hi = np.where(resid > 0, np.minimum(hi, t), hi)
        lo = np.where(resid < 0, np.maximum(lo, t), lo)
        step = resid / theta_deriv(t)
        nxt = t - step
        outside = (nxt <= lo) | (nxt >= hi)
        nxt = np.where(outside, 0.5 * (lo + hi), nxt)
        t = np.where(done, t, nxt)
    resid = theta(t) - targets
    bad = np.abs(resid) > THETA_REL_TOL * t
    idx = int(np.argmax(bad))
    raise SolverError(
        f"theta solve did not converge for target {targets[idx]!r}; "
        f"bracket [{lo[idx]!r}, {hi[idx]!r}], residual {resid[idx]!r}"
    )


def grid_range(w: WindowSpec) -> list[GramLikePoint]:
    """All classical grid points t_nu (tau = 0) with T <= t_nu <= T + H."""
    nu_lo = int(math.ceil(theta(w.T) / math.pi))
    nu_hi = int(math.floor(theta(w.T + w.H) / math.pi))
    if nu_hi < nu_lo:
        return []
    nus = np.arange(nu_lo, nu_hi + 1)
    ts = invert_theta(math.pi * nus)
    keep = (ts >= w.T) & (ts <= w.T + w.H)
    return [GramLikePoint(int(nu), 0.0, float(t)) for nu, t in zip(nus[keep], ts[keep])]


# ---------------------------------------------------------------------------
# set systems
# ---------------------------------------------------------------------------

def _build_g(w: WindowSpec, half_width: float, parity: int, label: str) -> IntervalCollection:
    if not 0.0 < half_width <= math.pi / 2.0:
        raise ValueError("half-width must lie in (0, pi/2]")
    points = [g for g in grid_range(w) if g.nu % 2 == parity]
    if not points:
        return IntervalCollection((), label)
    nus = np.array([g.nu for g in points])
    los = invert_theta(math.pi * nus - half_width)
    his = invert_theta(math.pi * nus + half_width)
    return IntervalCollection(tuple(zip(los, his)), label)


def build_g1(w: WindowSpec, x: float) -> IntervalCollection:
    """G1(x; T, H): one interval (t_2nu(-x), t_2nu(x)) per even grid point."""
    return _build_g(w, x, 0, "G1")


def build_g2(w: WindowSpec, y: float) -> IntervalCollection:
    """G2(y; T, H): odd-indexed counterpart of build_g1."""
    return _build_g(w, y, 1, "G2")


# ---------------------------------------------------------------------------
# sign partition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SignPartition:
    pos: IntervalCollection
    neg: IntervalCollection
    gap_measure: float


def scan_nodes(c: IntervalCollection) -> np.ndarray:
    """Uniform nodes over each interval of c, endpoints included, spaced at
    most 2*pi/(8 ln u) apart: an eighth of the zero spacing of Z near u."""
    lo, hi = c.lows, c.highs
    step = TWO_PI / (8.0 * np.log(0.5 * (lo + hi)))
    k = np.maximum(2, np.ceil((hi - lo) / step).astype(int) + 1)
    owner = np.repeat(np.arange(len(c)), k)
    j = np.arange(owner.size) - np.repeat(np.cumsum(k) - k, k)
    return lo[owner] + j * ((hi - lo) / (k - 1))[owner]


def sign_partition(c: IntervalCollection, f, nodes) -> SignPartition:
    """Split ``c`` into subsets where f > 0 and f < 0.

    f must accept numpy arrays.  ``nodes`` are the scan points, close enough
    that no two roots of f lie between neighbours (see scan_nodes).  f is
    evaluated once, at the nodes inside c and the endpoints of c.  Each sign
    flip between neighbours in one interval is bisected into a root gap, and
    the total gap measure is kept at or below ROOT_TOL * measure(c).  Each
    part takes the sign of f at the scan point that starts it: the first
    point of its interval, or the point just after a root gap.
    """
    if len(c) == 0:
        raise ValueError("sign_partition requires a nonempty collection")
    lows, highs = c.lows, c.highs
    nodes = np.asarray(nodes, dtype=float)
    owner = np.searchsorted(lows, nodes, side="right") - 1
    inside = (owner >= 0) & (nodes > lows[owner]) & (nodes < highs[owner])
    xs = np.concatenate([lows, highs, nodes[inside]])
    owner = np.concatenate([np.arange(len(c)), np.arange(len(c)), owner[inside]])
    # touching intervals share an endpoint, so order by interval first
    order = np.lexsort((xs, owner))
    xs, owner = xs[order], owner[order]
    pos = np.asarray(f(xs)) > 0

    same = owner[:-1] == owner[1:]
    flip = same & (pos[:-1] != pos[1:])
    flips = np.flatnonzero(flip)
    # width budget per root gap
    gap_w = ROOT_TOL * c.measure() / max(1, flips.size)
    a, b, pos_a = xs[flips], xs[flips + 1], pos[flips]
    while np.any(b - a > gap_w):
        m = 0.5 * (a + b)
        left = (np.asarray(f(m)) > 0) != pos_a
        b = np.where(left, m, b)
        a = np.where(left, a, m)

    # a part runs from the start of its interval or the end of a root gap to
    # the start of the next root gap or the end of its interval
    part_lo, part_hi = xs.copy(), xs.copy()
    part_lo[flips + 1] = b
    part_hi[flips] = a
    cut = ~same | flip
    starts = np.concatenate([[True], cut])
    ends = np.concatenate([cut, [True]])
    lo, hi, sgn = part_lo[starts], part_hi[ends], pos[starts]
    keep = hi > lo
    return SignPartition(
        IntervalCollection(tuple(zip(lo[keep & sgn], hi[keep & sgn])), "pos-part"),
        IntervalCollection(tuple(zip(lo[keep & ~sgn], hi[keep & ~sgn])), "neg-part"),
        float(np.sum(b - a)))
