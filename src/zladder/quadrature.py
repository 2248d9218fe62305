"""Adaptive Gauss-Kronrod quadrature over intervals and interval collections.

The G7/K15 pair gives an embedded error estimate per panel; panels that miss
their share of the global budget are halved, breadth-first, with every
generation of panels evaluated in one vectorized call.  The reduction over
panels is done in a fixed left-to-right order with math.fsum, so outcomes are
bit-identical for identical inputs regardless of how the work is batched.

Integrands must accept and return 1-D numpy arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .intervals import IntervalCollection

# G7/K15 nodes and weights on [-1, 1] (QUADPACK values).
_XK = np.array([
    0.991455371120813, 0.949107912342759, 0.864864423359769,
    0.741531185599394, 0.586087235467691, 0.405845151377397,
    0.207784955007898, 0.0,
])
_WK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
])

# full symmetric node set, ascending
_NODES = np.concatenate([-_XK[:-1], _XK[::-1]])
_WEIGHTS_K = np.concatenate([_WK[:-1], _WK[::-1]])
_WEIGHTS_G = np.zeros(15)
_WEIGHTS_G[1:14:2] = np.concatenate([_WG[:-1], _WG[::-1]])


class QuadratureError(RuntimeError):
    pass


@dataclass(frozen=True)
class QuadSpec:
    rel_tol: float = 1e-9
    abs_tol: float = 1e-8
    max_depth: int = 40
    rule: str = "adaptive-nested"  # or "fixed-panel"

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be positive")
        if not 1 <= self.max_depth <= 60:
            raise ValueError("max_depth must lie in [1, 60]")
        if self.rule not in ("adaptive-nested", "fixed-panel"):
            raise ValueError(f"unknown rule {self.rule!r}")


@dataclass(frozen=True)
class QuadratureOutcome:
    value: float
    error_estimate: float
    evaluations: int
    subdivisions: int
    converged: bool = True

    def tolerance(self, q: QuadSpec) -> float:
        """The contract tolerance max(abs_tol, rel_tol * |value|)."""
        return max(q.abs_tol, q.rel_tol * abs(self.value))

    def combine(self, other: "QuadratureOutcome") -> "QuadratureOutcome":
        return QuadratureOutcome(
            value=self.value + other.value,
            error_estimate=self.error_estimate + other.error_estimate,
            evaluations=self.evaluations + other.evaluations,
            subdivisions=self.subdivisions + other.subdivisions,
            converged=self.converged and other.converged,
        )


def _panel_estimates(f, los, his):
    """K15 values and damped error estimates for a batch of panels.

    The estimate follows the classic nested-rule recipe: with e = |K15 - G7|
    and the roughness integral r = int |f - mean|, report
    r * min(1, (200 e / r)^1.5), which tracks the accuracy of the K15 value
    rather than the much cruder G7 one.
    """
    mid = 0.5 * (los + his)
    hw = 0.5 * (his - los)
    pts = mid[:, None] + hw[:, None] * _NODES[None, :]
    vals = np.asarray(f(pts.ravel()), dtype=float).reshape(pts.shape)
    k15 = (vals @ _WEIGHTS_K) * hw
    g7 = (vals @ _WEIGHTS_G) * hw
    e = np.abs(k15 - g7)
    mean = k15 / (2.0 * hw)
    resasc = (np.abs(vals - mean[:, None]) @ _WEIGHTS_K) * hw
    with np.errstate(divide="ignore", invalid="ignore"):
        damped = np.where(
            resasc > 0.0,
            resasc * np.minimum(1.0, (200.0 * e / np.where(resasc > 0, resasc, 1.0)) ** 1.5),
            e,
        )
    return k15, damped, vals.shape[0] * vals.shape[1]


def integrate_interval(f, lo: float, hi: float, q: QuadSpec = QuadSpec(),
                       initial_cuts=None) -> QuadratureOutcome:
    """Integrate f over (lo, hi) to max(abs_tol, rel_tol*|value|).

    ``initial_cuts`` (optional, sorted) pre-splits the interval, e.g. at grid
    ordinates so each starting panel sees at most one sign change of Z.
    """
    if not lo < hi:
        raise ValueError("integrate_interval requires lo < hi")
    cuts = [lo]
    if initial_cuts is not None:
        cuts += [float(c) for c in initial_cuts if lo < c < hi]
    cuts.append(hi)
    panels = [(cuts[i], cuts[i + 1], 0) for i in range(len(cuts) - 1)]
    return _integrate_panels(f, panels, hi - lo, q)


def _integrate_panels(f, panels, total_width, q: QuadSpec) -> QuadratureOutcome:
    """Globally adaptive loop over a worklist of panels.

    Each generation evaluates all current panels in one vectorized call; the
    run stops as soon as the summed error estimate meets the global tolerance,
    which keeps floating-point jitter in the integrand from forcing unbounded
    subdivision.  Panels are re-sorted by position for the final reduction, so
    the outcome does not depend on the subdivision history order.  A
    generation with a non-finite panel value raises QuadratureError.
    """
    evaluations = 0
    subdivisions = 0
    converged = True
    pending = sorted(panels)
    live = []  # (lo, hi, depth, value, err)
    while pending:
        los = np.array([p[0] for p in pending])
        his = np.array([p[1] for p in pending])
        depths = [p[2] for p in pending]
        k15, errs, n_evals = _panel_estimates(f, los, his)
        evaluations += n_evals
        finite = np.isfinite(k15)
        if not finite.all():
            i = int(np.argmin(finite))
            raise QuadratureError(
                f"integrand not finite on panel [{los[i]!r}, {his[i]!r}]")
        live.extend(
            (los[i], his[i], depths[i], k15[i], errs[i]) for i in range(len(pending))
        )
        if q.rule == "fixed-panel":
            break
        live.sort()
        total_value = math.fsum(p[3] for p in live)
        total_err = math.fsum(p[4] for p in live)
        tol = max(q.abs_tol, q.rel_tol * abs(total_value))
        if total_err <= tol:
            break
        # split every panel above its proportional share; if rounding noise
        # leaves none above the line, split the single worst offender
        shares = {id(p): tol * (p[1] - p[0]) / total_width for p in live}
        to_split = [p for p in live if p[4] > shares[id(p)] and p[2] < q.max_depth]
        if not to_split:
            splittable = [p for p in live if p[2] < q.max_depth]
            if not splittable:
                converged = False
                break
            to_split = [max(splittable, key=lambda p: p[4])]
        split_ids = {id(p) for p in to_split}
        live = [p for p in live if id(p) not in split_ids]
        pending = []
        for lo, hi, depth, _v, _e in to_split:
            mid = 0.5 * (lo + hi)
            pending.append((lo, mid, depth + 1))
            pending.append((mid, hi, depth + 1))
            subdivisions += 1
    live.sort()
    value = math.fsum(p[3] for p in live)
    err = math.fsum(p[4] for p in live)
    return QuadratureOutcome(value, err, evaluations, subdivisions, converged)


def integrate_collection(f, c: IntervalCollection, q: QuadSpec = QuadSpec(),
                         initial_cuts=None) -> QuadratureOutcome:
    """Integrate f over every interval of the collection and sum the outcomes.

    Per-interval error estimates and evaluation counts combine additively.
    The whole collection is treated as one adaptive job so the per-panel
    budget is shared by measure.
    """
    if len(c) == 0:
        raise ValueError("integrate_collection requires a nonempty collection")
    cuts = np.asarray(initial_cuts, dtype=float) if initial_cuts is not None else None
    panels = []
    for lo, hi in c.intervals:
        inner = [lo]
        if cuts is not None:
            inner += [float(x) for x in cuts[(cuts > lo) & (cuts < hi)]]
        inner.append(hi)
        panels += [(inner[i], inner[i + 1], 0) for i in range(len(inner) - 1)]
    return _integrate_panels(f, panels, c.measure(), q)


# ---------------------------------------------------------------------------
# substitution-identity checker
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TransformCheck:
    lhs: QuadratureOutcome
    rhs: QuadratureOutcome
    residual: float

    def budget(self, q: QuadSpec) -> float:
        """Combined contract tolerance of the two quadratures."""
        return self.lhs.tolerance(q) + self.rhs.tolerance(q)


def transform_check(m, f, T: float, U: float, q: QuadSpec = QuadSpec()) -> TransformCheck:
    """Change-of-variables audit: integrate f(phi(t)) * phi'(t) over the
    mirrored preimage of [T, T+U] and f over [T, T+U] itself.

    For a ladder model whose derivative is exactly the integrand that built
    its eval (the ODE model), the two sides agree up to quadrature error no
    matter how far the model is from the true ladder.
    """
    if not 0.0 < U <= T / math.log(T):
        raise ValueError("U must lie in (0, T / ln T]")
    t_lo = m.invert(T)
    t_hi = m.invert(T + U)

    def pushforward(ts):
        return f(m.eval(ts)) * m.deriv(ts)

    lhs = integrate_interval(pushforward, float(t_lo), float(t_hi), q)
    rhs = integrate_interval(f, T, T + U, q)
    return TransformCheck(lhs, rhs, abs(lhs.value - rhs.value))

