"""Adaptive Gauss-Kronrod quadrature over interval collections.

The G7/K15 pair gives an embedded error estimate per panel; panels that miss
their share of the global budget are halved, breadth-first, with every
generation of panels evaluated in one vectorized call.  The reduction over
panels is done in a fixed left-to-right order with math.fsum, so outcomes are
bit-identical for identical inputs regardless of how the work is batched.

Each interval of a collection starts as one panel.  Integrands must accept
and return 1-D numpy arrays.
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

    def __post_init__(self):
        # a NaN tolerance would disable the stopping test and the max_depth
        # exit with it, so the loop would split panels without end
        if not (0.0 < self.rel_tol < math.inf and 0.0 < self.abs_tol < math.inf):
            raise ValueError("tolerances must be finite and positive")
        if not 1 <= self.max_depth <= 60:
            raise ValueError("max_depth must lie in [1, 60]")


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
    # halving a panel one double wide leaves a zero-width half: hw = 0 makes
    # mean and resasc NaN, and its estimate falls back to e = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        mean = k15 / (2.0 * hw)
        resasc = (np.abs(vals - mean[:, None]) @ _WEIGHTS_K) * hw
        damped = np.where(
            resasc > 0.0,
            resasc * np.minimum(1.0, (200.0 * e / np.where(resasc > 0, resasc, 1.0)) ** 1.5),
            e,
        )
    return k15, damped, vals.shape[0] * vals.shape[1]


def _integrate_panels(f, lo, hi, total_width, q: QuadSpec) -> QuadratureOutcome:
    """Globally adaptive loop over the starting panels (lo[i], hi[i]), sorted
    by position.

    Each generation evaluates all new panels in one vectorized call; the run
    stops as soon as the summed error estimate meets the global tolerance,
    which keeps floating-point jitter in the integrand from forcing unbounded
    subdivision.  The live panels are kept sorted by position, and the sums
    use math.fsum, so the outcome does not depend on the subdivision history.
    A generation with a non-finite panel value raises QuadratureError.
    """
    evaluations = subdivisions = 0
    converged = True
    new = np.array([lo, hi, np.zeros_like(lo)])  # rows lo, hi, depth
    live = np.empty((5, 0))  # rows lo, hi, depth, value, err
    while True:
        value, err, n_evals = _panel_estimates(f, new[0], new[1])
        evaluations += n_evals
        finite = np.isfinite(value)
        if not finite.all():
            i = int(np.argmin(finite))
            raise QuadratureError(
                f"integrand not finite on panel [{new[0, i]!r}, {new[1, i]!r}]")
        live = np.hstack([live, np.vstack([new, value, err])])
        live = live[:, np.lexsort(live[::-1])]  # by lo, then hi, depth, value, err
        lo, hi, depth, value, err = live
        tol = max(q.abs_tol, q.rel_tol * abs(math.fsum(value)))
        if math.fsum(err) <= tol:
            break
        # split every panel above its proportional share; if rounding noise
        # leaves none above the line, split the single worst offender, unless
        # the panels at max_depth, which never change, alone exceed the budget
        splittable = depth < q.max_depth
        split = splittable & (err > tol * (hi - lo) / total_width)
        if not split.any():
            if math.fsum(err[~splittable]) > tol:
                converged = False
                break
            worst = np.argmax(np.where(splittable, err, -np.inf))
            split = np.arange(live.shape[1]) == worst
        mid = 0.5 * (lo[split] + hi[split])
        new = np.array([np.column_stack([lo[split], mid]).ravel(),
                        np.column_stack([mid, hi[split]]).ravel(),
                        np.repeat(depth[split] + 1, 2)])
        subdivisions += mid.size
        live = live[:, ~split]
    return QuadratureOutcome(math.fsum(live[3]), math.fsum(live[4]), evaluations,
                             subdivisions, converged)


def integrate_collection(f, c: IntervalCollection,
                         q: QuadSpec = QuadSpec()) -> QuadratureOutcome:
    """Integrate f over every interval of the collection and sum the outcomes.

    The whole collection is treated as one adaptive job so the per-panel
    budget is shared by measure.
    """
    if len(c) == 0:
        raise ValueError("integrate_collection requires a nonempty collection")
    return _integrate_panels(f, c.lows, c.highs, c.measure(), q)
