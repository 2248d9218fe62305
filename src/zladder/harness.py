"""Experiment runner: assembles grid, ladder, and quadrature into the
verification program and emits machine-readable reports.

The integrands read Chebyshev panel tables only: Z over the window from the
context's Z table, and the mirrored integrand from that table and the ODE
ladder's own tables, so the Z kernel runs only in the table builds.

Every report row pairs a measured integral with its predicted value, one
equation tag from a closed vocabulary, and a verdict.  Structural identities
(the change-of-variables residuals, coverage) are hard pass/fail at quadrature
tolerance; the mean-value rows carry the calibrated error budget
kappa * T^(1/6 + eps), with kappa fitted once on calibration windows disjoint
from the default experiment window and frozen below.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import ladder as ladder_mod
from . import rscore
from .gridsets import (WindowSpec, build_g1, build_g2, grid_range, scan_nodes,
                       sign_partition)
from .intervals import IntervalCollection
from .quadrature import QuadSpec, integrate_collection

REPORT_SCHEMA_VERSION = 6

#: Closed vocabulary of equation tags a report may cite.
EQ_TAGS = ("1.5", "1.8", "2.1", "C2", "3.2", "4.4", "4.5")

#: Error-budget constant for the mean-value rows: budget = KAPPA * T^(1/6+eps).
#: Fitted once on the calibration windows T in {5e5, 2e6} (H = 1e3, x = pi/2,
#: eps = 0.05), disjoint from the default experiment window.  Observed
#: |integral - predicted| / T^(1/6+eps) there: 3.07 and 2.75 (G1, G2 at 5e5),
#: 3.44 and 3.56 (at 2e6); frozen at 1.25x the largest ratio.
KAPPA = 4.5

#: Hard multiple of the combined quadrature tolerance for substitution rows.
SUBSTITUTION_SLACK = 10.0

#: Allowed |area_pos / |area_neg| - 1| of the area-equality law (eq. 3.2).
RATIO_TOL = 0.15

#: Half-widths x of the shape scan: k pi / 16 for k = 1..8.
SHAPE_X_GRID = tuple(k * math.pi / 16 for k in range(1, 9))


class UsageError(ValueError):
    """A valid config that an experiment cannot run on: the CLI reports it
    as a usage error (exit 2), not as a failed verdict."""


@dataclass(frozen=True)
class ExperimentConfig:
    T: float = 1.0e6
    epsilon: float = 0.05
    H_override: float | None = 1.0e3
    x: float = math.pi / 2
    y: float = math.pi / 2
    # mean-value budgets are O(10), so the experiment default trades unneeded
    # quadrature accuracy for speed; pass a tighter QuadSpec to override
    quad: QuadSpec = field(
        default_factory=lambda: QuadSpec(rel_tol=1e-7, abs_tol=1e-5))
    output_dir: str = "out"

    def __post_init__(self):
        if not (0.0 < self.x <= math.pi / 2 and 0.0 < self.y <= math.pi / 2):
            raise ValueError("x and y must lie in (0, pi/2]")
        WindowSpec(self.T, self.epsilon, self.H_override)  # validate window

    @property
    def window(self) -> WindowSpec:
        return WindowSpec(self.T, self.epsilon, self.H_override)

    def snapshot(self) -> dict:
        return dataclasses.asdict(self)


def config_from_file(path=None, overrides: dict | None = None) -> ExperimentConfig:
    """Read a flat ``key = value`` config file, when a path is given;
    ``overrides`` that are not None win over file keys."""
    values: dict = {}
    for raw in Path(path).read_text().splitlines() if path is not None else ():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"bad config line {raw!r}")
        key, val = (s.strip() for s in line.split("=", 1))
        values[key] = val
    if overrides:
        values.update({k: v for k, v in overrides.items() if v is not None})
    kw: dict = {}
    quad_kw: dict = {}
    for key, val in values.items():
        if key in ("T", "epsilon", "x", "y"):
            kw[key] = float(val)
        elif key == "H_override":
            kw[key] = None if str(val).lower() in ("none", "") else float(val)
        elif key == "output_dir":
            kw[key] = str(val)
        elif key in ("rel_tol", "abs_tol"):
            quad_kw[key] = float(val)
        elif key == "max_depth":
            quad_kw[key] = int(val)
        else:
            raise ValueError(f"unknown config key {key!r}")
    if quad_kw:
        kw["quad"] = QuadSpec(**quad_kw)
    return ExperimentConfig(**kw)


@dataclass(frozen=True)
class VerificationReport:
    """One report row; its verdict is derived from the other fields."""

    experiment_id: str
    measured: float
    predicted: float
    error_estimate: float
    paper_eq: str
    verdict: str = field(init=False)
    tolerance: float
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.paper_eq not in EQ_TAGS:
            raise ValueError(f"equation tag {self.paper_eq!r} not in vocabulary")
        object.__setattr__(self, "verdict", _verdict(
            self.measured, self.predicted, self.tolerance, self.metadata))

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


def _verdict(measured, predicted, tolerance, metadata) -> str:
    """pass when |measured - predicted| <= tolerance, unless the metadata
    says an integral behind the row did not converge."""
    converged = metadata.get("converged") is not False
    return "pass" if converged and abs(measured - predicted) <= tolerance else "fail"


def mean_value_budget(cfg: ExperimentConfig) -> float:
    """The frozen calibrated error budget kappa * T^(1/6 + eps)."""
    return KAPPA * cfg.T ** (1.0 / 6.0 + cfg.epsilon)


# ---------------------------------------------------------------------------
# shared experiment context
# ---------------------------------------------------------------------------

class ExperimentContext:
    """Grid sets and integrands shared by the experiments.

    The context owns everything derived from them: the Z table, the ODE
    ladder, each mirrored collection, each mirrored integral and the clipped
    mirrored union are computed on first use and then reused by every
    experiment.  grid_cuts holds the grid points of the window.
    """

    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg
        self.w = cfg.window
        self.g1 = build_g1(self.w, cfg.x)
        self.g2 = build_g2(self.w, cfg.y)
        self.grid_cuts = grid_range(self.w)[1]
        self._mirrors: dict = {}
        self._mirrored_integrals: dict = {}

    @functools.cached_property
    def z_table(self) -> ladder_mod.PanelTable:
        """Z over [T - pi/theta'(T), T + H + pi/theta'(T)], sampled once.

        The margin of one grid spacing holds G1 and G2 at any x, y <= pi/2,
        and so every scan_shape set; the table raises outside it.
        """
        pad = math.pi / rscore.theta_deriv(self.w.T)
        cuts, nodes = ladder_mod.panel_nodes(self.w.T - pad, self.w.T + self.w.H + pad)
        return ladder_mod.PanelTable(cuts, rscore.hardy_z_many(nodes))

    @functools.cached_property
    def ladder(self) -> ladder_mod.OdeLadder:
        """ODE ladder whose image covers the window and both G sets with a
        margin of 3, anchored on the asymptotic model; built on first use."""
        margin = 3.0
        asym = ladder_mod.AsymptoticLadder(10.0, 4.0 * self.cfg.T + 1e6)
        sets = [c for c in (self.g1, self.g2) if len(c)]
        lo_hull = min([self.w.T] + [c.intervals[0][0] for c in sets])
        hi_hull = max([self.w.T + self.w.H] + [c.intervals[-1][1] for c in sets])
        anchor_t = asym.invert(lo_hull - margin)
        span = (hi_hull + margin - lo_hull + 2 * margin) / 0.85
        for _ in range(6):
            ode = ladder_mod.ladder_ode(anchor_t, span, asym)
            if ode.image[1] >= hi_hull + margin:
                return ode
            span *= 1.3
        raise RuntimeError("ODE ladder failed to cover the mirrored window")

    def mirrored(self, c: IntervalCollection) -> IntervalCollection:
        """The mirror of c under the context's ladder, computed once per c."""
        if c not in self._mirrors:
            self._mirrors[c] = ladder_mod.mirror_collection(self.ladder, c)
        return self._mirrors[c]

    def mirrored_integral(self, c: IntervalCollection):
        """The pushforward integral over the mirror of c, computed once per c."""
        if c not in self._mirrored_integrals:
            self._mirrored_integrals[c] = integrate_collection(
                self.pushforward_z, self.mirrored(c), self.cfg.quad)
        return self._mirrored_integrals[c]

    @functools.cached_property
    def mirrored_union(self) -> IntervalCollection:
        """Mirrored G1 and G2 merged into one collection.  Adjacent G1/G2
        endpoints solve the same grid equation, so overlaps up to solver noise
        are clipped."""
        return self.mirrored(self.g1).union(
            self.mirrored(self.g2), clip_tol=1e-8 * self.w.T)

    def pushforward_z(self, ts):
        """Z(phi_1(t)) * Z~^2(t), the mirrored-side integrand, from the tables.

        Z~^2(t) is taken as Z(t)^2 / ln t from the ladder's Z interpolant, not
        from its Z~^2 interpolant: near a zero of Z the latter's absolute
        error does not vanish, while the square of the former's does.
        """
        m = self.ladder
        ts = np.asarray(ts, dtype=float)
        return self.z_table(m.eval(ts)) * m.z(ts) ** 2 / np.log(ts)


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

def integrating_context(cfg: ExperimentConfig,
                        ctx: ExperimentContext | None = None) -> ExperimentContext:
    """ctx, or a new context for cfg, for an experiment that integrates over
    G1 and G2.  A context of another config is refused rather than mixed
    with cfg, and a window without a G1 or a G2 interval raises UsageError."""
    if ctx is None:
        ctx = ExperimentContext(cfg)
    elif ctx.cfg != cfg:
        raise ValueError("ctx was built from a different ExperimentConfig")
    if not (len(ctx.g1) and len(ctx.g2)):
        raise UsageError(f"the window [{ctx.w.T!r}, {ctx.w.T + ctx.w.H!r}] holds "
                         "no G1 or no G2 interval; widen H")
    return ctx


def _quad_meta(outcome) -> dict:
    return {
        "evaluations": outcome.evaluations,
        "subdivisions": outcome.subdivisions,
        "converged": outcome.converged,
    }


def verify_theorem(cfg: ExperimentConfig, ctx: ExperimentContext | None = None) -> list[VerificationReport]:
    """Direct and mirrored mean-value integrals plus the substitution residual."""
    ctx = integrating_context(cfg, ctx)
    H = ctx.w.H
    budget = mean_value_budget(cfg)
    q = cfg.quad
    reports = []
    for name, coll, sgn, amp in (
        ("g1", ctx.g1, 1.0, math.sin(cfg.x)),
        ("g2", ctx.g2, -1.0, math.sin(cfg.y)),
    ):
        pred = sgn * 2.0 / math.pi * H * amp
        out = integrate_collection(ctx.z_table, coll, q)
        mout = ctx.mirrored_integral(coll)
        for kind, o, eq in (("direct", out, "4.5"), ("mirrored", mout, "1.5")):
            meta = _quad_meta(o)
            reports.append(VerificationReport(
                experiment_id=f"theorem.{name}-{kind}",
                measured=o.value, predicted=pred,
                error_estimate=o.error_estimate, paper_eq=eq,
                tolerance=budget, metadata=meta,
            ))
        resid = abs(out.value - mout.value)
        rtol = SUBSTITUTION_SLACK * (out.tolerance(q) + mout.tolerance(q))
        meta = {"converged": out.converged and mout.converged}
        reports.append(VerificationReport(
            experiment_id=f"theorem.{name}-substitution",
            measured=resid, predicted=0.0,
            error_estimate=out.error_estimate + mout.error_estimate,
            paper_eq="4.4", tolerance=rtol, metadata=meta,
        ))
    return reports


def verify_corollaries(cfg: ExperimentConfig, ctx: ExperimentContext | None = None) -> list[VerificationReport]:
    """Union/difference integrals over the mirrored sets, and coverage."""
    ctx = integrating_context(cfg, ctx)
    H = ctx.w.H
    budget = mean_value_budget(cfg)
    m1 = ctx.mirrored_integral(ctx.g1)
    m2 = ctx.mirrored_integral(ctx.g2)
    reports = []

    union = m1.value + m2.value
    same = math.isclose(cfg.x, cfg.y, rel_tol=0.0, abs_tol=1e-12)
    if same:
        # cancellation: budget is a fraction of the single-set magnitude
        tol = 0.2 * (2.0 / math.pi) * H * math.sin(cfg.x)
        pred = 0.0
    else:
        tol = budget
        pred = 2.0 / math.pi * (math.sin(cfg.x) - math.sin(cfg.y)) * H
    meta = _quad_meta(m1.combine(m2))
    reports.append(VerificationReport(
        experiment_id="corollary.union",
        measured=union, predicted=pred,
        error_estimate=m1.error_estimate + m2.error_estimate,
        paper_eq="2.1", tolerance=tol, metadata=meta,
    ))

    diff = m1.value - m2.value
    diff_pred = 2.0 / math.pi * (math.sin(cfg.x) + math.sin(cfg.y)) * H
    at_half_pi = same and math.isclose(cfg.x, math.pi / 2, abs_tol=1e-9)
    meta = {"converged": m1.converged and m2.converged}
    reports.append(VerificationReport(
        experiment_id="corollary.difference",
        measured=diff, predicted=diff_pred,
        error_estimate=m1.error_estimate + m2.error_estimate,
        paper_eq="C2" if at_half_pi else "2.1", tolerance=budget,
        metadata=meta,
    ))

    if at_half_pi:
        # closure of the mirrored union must cover [T-ring, (T+H)-ring]
        merged = ctx.mirrored_union
        # the grid is discrete, so the first and last covered intervals can
        # stop up to one grid spacing pi/theta'(t) short of the window edges;
        # subtract that structural slack (measured in mirrored coordinates)
        T = ctx.w.T
        spacing = math.pi / rscore.theta_deriv(T)
        t_lo, t_hi, in_lo, in_hi = ctx.ladder.invert(
            np.array([T, T + H, T + spacing, T + H - spacing])).tolist()
        allow_lo = in_lo - t_lo
        allow_hi = t_hi - in_hi
        gaps = [max(0.0, merged.intervals[0][0] - t_lo - allow_lo),
                max(0.0, t_hi - merged.intervals[-1][1] - allow_hi)]
        for (_, hi), (lo2, _) in zip(merged.intervals, merged.intervals[1:]):
            if hi < t_hi and lo2 > t_lo:
                gaps.append(max(0.0, min(lo2, t_hi) - max(hi, t_lo)))
        worst = max(gaps)
        cover_tol = 1e-6
        reports.append(VerificationReport(
            experiment_id="corollary.coverage",
            measured=worst, predicted=0.0, error_estimate=0.0,
            paper_eq="C2", tolerance=cover_tol,
            metadata={"interval_count": len(merged)},
        ))
    return reports


def verify_sign_area(cfg: ExperimentConfig, ctx: ExperimentContext | None = None) -> list[VerificationReport]:
    """Area-equality law for the sign partition of Z(phi_1) * Z~^2."""
    if not math.isclose(cfg.x, cfg.y, rel_tol=0.0, abs_tol=1e-12):
        raise UsageError("verify_sign_area requires x == y")
    ctx = integrating_context(cfg, ctx)
    q = cfg.quad
    H = ctx.w.H
    # Z~^2 > 0 off the zeros of Z, so the integrand has the sign of
    # Z(phi_1(t)), whose zeros turn Z~^2(t) times faster than those of Z:
    # scan on the direct side, where the scan step fits the zero spacing, map
    # the nodes back, and partition on Z(phi_1(t)) alone
    nodes = ctx.ladder.invert(np.concatenate([scan_nodes(ctx.g1), scan_nodes(ctx.g2)]))
    part = sign_partition(ctx.mirrored_union,
                          lambda ts: ctx.z_table(ctx.ladder.eval(ts)), nodes)
    a_pos = integrate_collection(ctx.pushforward_z, part.pos, q)
    a_neg = integrate_collection(ctx.pushforward_z, part.neg, q)
    if not (a_pos.value > 0 and a_neg.value < 0):
        raise ArithmeticError("sign partition produced empty or wrong-signed areas")
    ratio = a_pos.value / abs(a_neg.value)
    meta = {
        "area_pos": a_pos.value, "area_neg": a_neg.value,
        "root_gap_measure": part.gap_measure,
        "converged": a_pos.converged and a_neg.converged,
    }
    reports = [VerificationReport(
        experiment_id="sign-area.ratio",
        measured=ratio, predicted=1.0,
        error_estimate=(a_pos.error_estimate + a_neg.error_estimate) / abs(a_neg.value),
        paper_eq="3.2", tolerance=RATIO_TOL, metadata=meta,
    )]
    # positive area dominates the single-set mean value from below: one-sided,
    # so the tolerance is unbounded above the floor and zero below it
    eps_slack = 0.25
    floor = (1.0 - eps_slack) * 2.0 / math.pi * H * math.sin(cfg.x)
    lb_tol = float("inf") if a_pos.value >= floor else 0.0
    meta = {"eps_slack": eps_slack, "converged": a_pos.converged}
    reports.append(VerificationReport(
        experiment_id="sign-area.lower-bound",
        measured=a_pos.value, predicted=floor, error_estimate=a_pos.error_estimate,
        paper_eq="3.2", tolerance=lb_tol, metadata=meta,
    ))
    return reports


def scan_shape(cfg: ExperimentConfig, ctx: ExperimentContext | None = None):
    """Amplitude fit of the measured x -> integral law against (2H/pi) sin x
    over SHAPE_X_GRID.

    Returns (rows, report) where rows are (x, measured, predicted) tuples.
    """
    ctx = integrating_context(cfg, ctx)
    H = ctx.w.H
    rows = []
    converged = True
    for x in SHAPE_X_GRID:
        coll = build_g1(ctx.w, x)
        out = integrate_collection(ctx.z_table, coll, cfg.quad)
        converged = converged and out.converged
        rows.append((x, out.value, 2.0 / math.pi * H * math.sin(x)))
    sines = np.array([math.sin(x) for x, _, _ in rows])
    meas = np.array([v for _, v, _ in rows])
    amp = float(np.dot(sines, meas) / np.dot(sines, sines))
    resid = float(np.linalg.norm(meas - amp * sines))
    rel = amp * math.pi / (2.0 * H)
    meta = {"fitted_amplitude": amp, "residual_norm": resid,
            "x_grid": list(SHAPE_X_GRID), "converged": converged}
    report = VerificationReport(
        experiment_id="shape.amplitude",
        measured=rel, predicted=1.0, error_estimate=resid / (2.0 * H / math.pi),
        paper_eq="1.5", tolerance=0.1, metadata=meta,
    )
    return rows, report


def verify_separation(cfg: ExperimentConfig) -> list[VerificationReport]:
    """Separation law (eq. 1.8): rho against (1 - gamma) * pi(T).

    rho is read from the asymptotic ladder, whose t - phi_1(t) is
    (1 - gamma) * li(t), so the row checks (1 - gamma) * li against the
    sieve's pi(T) and calls no Z.  The ODE ladder inherits that geometry
    from its anchor on the asymptotic model.
    """
    w = cfg.window
    rho, predicted = ladder_mod.separation_rho(
        w, ladder_mod.AsymptoticLadder(10.0, 4.0 * cfg.T + 1e6))
    return [VerificationReport(
        experiment_id="separation.rho",
        measured=rho / predicted, predicted=1.0, error_estimate=0.0,
        paper_eq="1.8", tolerance=0.05,
        metadata={"rho": rho, "predicted_rho": predicted, "H": w.H},
    )]


# ---------------------------------------------------------------------------
# report files
# ---------------------------------------------------------------------------

def write_report(path, cfg: ExperimentConfig, reports: list[VerificationReport],
                 runtime: float | None = None):
    """Serialize a run: schema-versioned JSON, keys sorted, timestamp isolated
    in its own field so deterministic reruns differ only there."""
    payload = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "created": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "runtime_seconds": runtime,
        "config": cfg.snapshot(),
        "reports": [r.as_dict() for r in reports],
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n")
    return path


def merge_reports(paths) -> list[dict]:
    """Flatten the report files among paths into rows keyed by (T, H, x, y);
    other JSON files are skipped."""
    rows = []
    for p in sorted(map(str, paths)):
        payload = json.loads(Path(p).read_text())
        if not {"config", "reports"} <= payload.keys():
            continue  # not a report: interval files share the directory
        c = payload["config"]
        H = c.get("H_override")
        if H is None:
            H = WindowSpec(c["T"], c["epsilon"]).H
        for r in payload["reports"]:
            rows.append({
                "T": c["T"], "H": H, "x": c["x"], "y": c["y"],
                "experiment_id": r["experiment_id"],
                "measured": r["measured"], "predicted": r["predicted"],
                "paper_eq": r["paper_eq"], "verdict": r["verdict"],
                "source": p,
            })
    return rows


def hard_failures(reports: list[VerificationReport]) -> list[str]:
    return [r.experiment_id for r in reports if r.verdict == "fail"]
