"""Acceptance suite: one test per criterion, in criterion order.

Each test line in the verbose report is the pass/fail line for its criterion;
the bodies also print the measured numbers for the record.  Hard identities
(substitution, structure) assert at quadrature tolerance; asymptotic laws
assert at their stated calibrated tolerances.
"""

import math
import os
import time

import numpy as np
import pytest

from zladder import harness, ladder as ladder_mod, rscore
from zladder.gridsets import (WindowSpec, build_g1, build_g2, grid_range, scan_nodes,
                              sign_partition)
from zladder.quadrature import QuadSpec
from zladder.rscore import theta

TWO_OVER_PI = 2.0 / math.pi


@pytest.fixture(scope="session")
def timed_theorem(default_cfg):
    """Full verify-theorem run, timed end to end (context build included)."""
    t0 = time.time()
    ctx = harness.ExperimentContext(default_cfg)
    reports = harness.verify_theorem(default_cfg, ctx)
    return reports, time.time() - t0


def test_criterion_1_substitution_identity(default_ctx, substitution):
    q = QuadSpec(abs_tol=1e-6)
    m = default_ctx.ladder
    T, U = 1e6, 500.0
    fs = {
        "1": lambda t: np.ones_like(t),
        "t": lambda t: t,
        "t^2": lambda t: t * t,
        "Z": rscore.hardy_z_many,
    }
    for name, f in fs.items():
        lhs, rhs = substitution(m, f, T, U, q)
        residual = abs(lhs.value - rhs.value)
        budget = 10.0 * (lhs.tolerance(q) + rhs.tolerance(q))
        print(f"criterion 1 f={name}: residual={residual:.3e} "
              f"allowed={budget:.3e}")
        assert residual <= budget, f"substitution residual too large for f={name}"


def test_criterion_2_mean_value_signal(timed_theorem):
    reports, _ = timed_theorem
    by_id = {r.experiment_id: r for r in reports}
    H = 1e3
    g1 = by_id["theorem.g1-direct"].measured
    g2 = by_id["theorem.g2-direct"].measured
    print(f"criterion 2: int_G1 Z = {g1:.3f} (target +{TWO_OVER_PI * H:.1f}), "
          f"int_G2 Z = {g2:.3f} (target {-TWO_OVER_PI * H:.1f})")
    assert g1 > 0 and abs(g1 - TWO_OVER_PI * H) <= 0.10 * TWO_OVER_PI * H
    assert g2 < 0 and abs(g2 + TWO_OVER_PI * H) <= 0.10 * TWO_OVER_PI * H
    # also consistent with the frozen calibrated budget
    assert by_id["theorem.g1-direct"].verdict == "pass"
    assert by_id["theorem.g2-direct"].verdict == "pass"


def test_criterion_3_shape_law(default_cfg, default_ctx):
    rows, report = harness.scan_shape(default_cfg, ctx=default_ctx)
    print(f"criterion 3: fitted amplitude ratio = {report.measured:.4f} "
          f"over {len(rows)} x-values")
    assert abs(report.measured - 1.0) <= 0.10


def test_criterion_4_cancellation(default_cfg, default_ctx):
    reports = harness.verify_corollaries(default_cfg, default_ctx)
    by_id = {r.experiment_id: r for r in reports}
    H = default_ctx.w.H
    union = by_id["corollary.union"].measured
    diff = by_id["corollary.difference"].measured
    print(f"criterion 4: union = {union:.3f} (cap {0.2 * TWO_OVER_PI * H:.1f}), "
          f"difference = {diff:.3f} (target {2 * TWO_OVER_PI * H:.1f})")
    assert abs(union) <= 0.2 * TWO_OVER_PI * H
    assert abs(diff - 2.0 * TWO_OVER_PI * H) <= 0.10 * 2.0 * TWO_OVER_PI * H


def test_criterion_5_area_equality(default_cfg, default_ctx):
    ratios = {}
    for H in (1e2, 1e3, 1e4):
        cfg = harness.ExperimentConfig(H_override=H)
        ctx = default_ctx if H == 1e3 else None
        reports = harness.verify_sign_area(cfg, ctx)
        ratios[H] = reports[0].measured
    devs = [abs(ratios[H] - 1.0) for H in (1e2, 1e3, 1e4)]
    print(f"criterion 5: ratios {ratios}, deviations {devs}")
    assert 0.85 <= ratios[1e3] <= 1.15
    # three-point trend non-increasing on average
    assert devs[2] <= devs[0]


def test_criterion_6_separation_law():
    asym = ladder_mod.AsymptoticLadder(10.0, 5e6)
    rhos = []
    for T in (1e4, 1e5, 1e6):
        w = WindowSpec(T)
        rho, pred = ladder_mod.separation_rho(w, asym)
        assert asym.invert(T) > T + w.H
        rhos.append(rho)
        if T == 1e6:
            print(f"criterion 6: rho={rho:.1f} predicted={pred:.1f} "
                  f"ratio={rho / pred:.4f}")
            assert 0.95 <= rho / pred <= 1.05
    assert rhos[0] < rhos[1] < rhos[2]


def test_criterion_7_kernel_accuracy():
    rng = np.random.default_rng(20240401)
    ts = np.sort(np.exp(rng.uniform(math.log(1e3), math.log(1e7), 1000)))
    fast = rscore.hardy_z_many(ts, correction_terms=1)
    ref = np.array([rscore.hardy_z_oracle(float(t)) for t in ts])
    diff = np.abs(fast - ref)
    edges = np.geomspace(1e3, 1e7, 9)
    centers, maxima = [], []
    for lo, hi in zip(edges, edges[1:]):
        m = (ts >= lo) & (ts < hi)
        if m.any():
            centers.append(math.sqrt(lo * hi))
            maxima.append(diff[m].max())
    slope = np.polyfit(np.log(centers), np.log(maxima), 1)[0]
    alpha = -slope
    print(f"criterion 7: power-law exponent alpha = {alpha:.3f}")
    assert alpha >= 0.70

    rng2 = np.random.default_rng(777)
    ts2 = np.sort(np.exp(rng2.uniform(math.log(1e6), math.log(1e7), 100)))
    fast2 = np.abs(rscore.hardy_z_many(ts2, correction_terms=2))
    em = np.array([abs(rscore.zeta_half_em(float(t))) for t in ts2])
    rel = np.abs(fast2 - em) / em
    print(f"criterion 7: max relative gap to Euler-Maclaurin zeta = {rel.max():.3e}")
    assert rel.max() <= 1e-8


def test_criterion_8_structural_invariants(default_ctx, rng):
    w = default_ctx.w
    # grid residuals
    pts = grid_range(w)
    res = max(abs(theta(g.t) - math.pi * g.nu) for g in pts)
    assert res <= 1e-10 * (w.T + w.H)
    # disjointness across the union of both set systems
    u = default_ctx.g1.union(default_ctx.g2)
    assert all(hi <= lo2 for (_, hi), (lo2, _) in zip(u.intervals, u.intervals[1:]))
    # measure law
    for coll, half in ((default_ctx.g1, math.pi / 2), (default_ctx.g2, math.pi / 2)):
        assert abs(coll.measure() * math.pi / (half * w.H) - 1.0) <= 0.02
    # mirror-inverse round trip
    m = default_ctx.ladder
    mirrored = default_ctx.mirrored(default_ctx.g1)
    ends = np.concatenate([mirrored.lows, mirrored.highs])
    orig = np.concatenate([default_ctx.g1.lows, default_ctx.g1.highs])
    back = np.asarray(m.eval(np.sort(ends)))
    assert np.max(np.abs(back - np.sort(orig))) <= 1e-8 * w.T
    # sign-partition audit on a moderate sub-window
    wsmall = WindowSpec(w.T, H_override=100.0)
    c = build_g1(wsmall, math.pi / 2)
    part = sign_partition(c, rscore.hardy_z_many, scan_nodes(c))
    assert part.gap_measure <= 1e-6 * c.measure()
    for coll, sgn in ((part.pos, 1.0), (part.neg, -1.0)):
        for lo, hi in coll.intervals[:50]:
            sample = rng.uniform(lo, hi, 20)
            assert np.all(sgn * rscore.hardy_z_many(sample) > 0)
    print("criterion 8: grid residuals, disjointness, measure law, "
          "mirror round-trip, sign-partition audit all green")


def test_criterion_9_performance(timed_theorem):
    reports, seconds = timed_theorem
    cores = os.cpu_count() or 1
    budget = 60.0 * max(1.0, 8.0 / cores)
    print(f"criterion 9: verify-theorem took {seconds:.1f}s on {cores} core(s), "
          f"budget {budget:.0f}s (60s at 8 cores)")
    assert all(r.verdict == "pass" for r in reports)
    assert seconds <= budget
