"""Correctness checks run after the timed part of a benchmark round.

Each check recomputes something the workload produced by a path apart from
the code that produced it (mpmath's Z and theta, a fixed-order
Gauss-Legendre rule, counts taken at the integrand), or tests a property the
method must have (eq. 4.4, the mirror round trip, the measure law).  Every
check can fail; none compares a value with a stored copy of an earlier
output.

``PartitionAudit`` is not a check but an operation of the suite workload: it
counts sign-partition intervals that hold a point of the other sign, and a
round whose audit finds any counts one failed operation.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np
from numpy.polynomial.legendre import leggauss

from zladder import rscore

#: |Z_fast - Z_mpmath| allowed at t = 1e6: the program's own oracle
#: tolerance there.  The Riemann-Siegel remainder truncation scales like
#: t^(-5/4), and so does the bound.
Z_TOL_AT_1E6 = 5e-9

#: Grid solves are contracted to |theta(t) - pi nu| <= 1e-10 t.
GRID_REL_TOL = 1e-10

#: Slack of the program's substitution verdict (eq. 4.4) on the summed
#: quadrature tolerances.
SUBSTITUTION_SLACK = 10.0

#: Mirrored endpoints must map back to the originals within this share of T.
MIRROR_REL_TOL = 1e-8

#: |measure * pi / (half_width * H) - 1| allowed for a G set.
MEASURE_LAW_TOL = 0.02

#: Gauss-Legendre orders of the independent recomputation; their difference
#: is the rule's own error estimate.
GL_ORDERS = (10, 14)


def z_tol(t):
    return Z_TOL_AT_1E6 * (1e6 / np.asarray(t, dtype=float)) ** 1.25


def mp_z(t: float) -> float:
    with mp.workdps(20):
        return float(mp.siegelz(mp.mpf(t)))


def mp_theta(t: float):
    return mp.siegeltheta(mp.mpf(t))


class Checks:
    """Collects the outcome of each named check of one round."""

    def __init__(self, seed: int):
        self.rng = np.random.default_rng([seed, 0xC4EC])
        self.failures: list[str] = []
        self.count = 0

    def expect(self, ok: bool, name: str, detail: str):
        self.count += 1
        if not ok:
            self.failures.append(f"{name}: {detail}")

    def pick(self, items, k: int):
        """A seeded sample of k distinct items (all of them if fewer)."""
        items = list(items)
        if len(items) <= k:
            return items
        idx = self.rng.choice(len(items), size=k, replace=False)
        return [items[i] for i in sorted(idx)]

    # -- Z kernel ----------------------------------------------------------

    def z_direct(self, integrals, k: int):
        """hardy_z_many at seeded direct quadrature nodes against mpmath."""
        nodes = [t for r in integrals if r["direct"] for t in r["nodes"]]
        self.expect(bool(nodes), "z.direct", "no direct quadrature nodes captured")
        for t in self.pick(nodes, k):
            fast = float(rscore.hardy_z_many(np.array([t]))[0])
            ref = mp_z(t)
            self.expect(abs(fast - ref) <= z_tol(t), "z.direct",
                        f"t={t!r}: fast {fast!r} vs mpmath {ref!r}")

    def z_mirrored(self, ctx, integrals, k: int):
        """Z at mirrored nodes t and at phi_1(t), and the whole pushforward
        integrand Z(phi_1(t)) Z~^2(t), against mpmath."""
        nodes = [t for r in integrals if not r["direct"] for t in r["nodes"]]
        self.expect(bool(nodes), "z.mirrored", "no mirrored quadrature nodes captured")
        for t in self.pick(nodes, k):
            phi = float(np.asarray(ctx.ladder.eval(np.array([t])))[0])
            fast_t, fast_phi = rscore.hardy_z_many(np.array([t, phi]))
            ref_t, ref_phi = mp_z(t), mp_z(phi)
            for s, fast, ref in ((t, fast_t, ref_t), (phi, fast_phi, ref_phi)):
                self.expect(abs(fast - ref) <= z_tol(s), "z.mirrored",
                            f"t={s!r}: fast {fast!r} vs mpmath {ref!r}")
            push = float(ctx.pushforward_z(np.array([t]))[0])
            ln_t = math.log(t)
            ref_push = ref_phi * ref_t * ref_t / ln_t
            tol = (z_tol(phi) * ref_t * ref_t + 2.0 * abs(ref_phi * ref_t) * z_tol(t)) / ln_t
            self.expect(abs(push - ref_push) <= tol + 1e-9 * max(1.0, abs(ref_push)),
                        "z.pushforward",
                        f"t={t!r}: pushforward {push!r} vs mpmath {ref_push!r}")

    # -- grid ---------------------------------------------------------------

    def grid(self, ctx):
        """Every grid point solves theta(t) = pi nu with mpmath's theta, the
        indices run without a gap, and they cover exactly [T, T + H]."""
        ts = np.asarray(ctx.grid_cuts, dtype=float)
        self.expect(ts.size > 0, "grid", "empty grid")
        if not ts.size:
            return
        with mp.workdps(30):
            nus, worst = [], 0.0
            for t in ts:
                th = mp_theta(t)
                nu = int(mp.nint(th / mp.pi))
                nus.append(nu)
                worst = max(worst, float(abs(th - nu * mp.pi)) / t)
            nu_lo = int(mp.ceil(mp_theta(ctx.w.T) / mp.pi))
            nu_hi = int(mp.floor(mp_theta(ctx.w.T + ctx.w.H) / mp.pi))
        self.expect(worst <= GRID_REL_TOL, "grid.residual",
                    f"max |theta(t) - pi nu| / t = {worst:.3e}")
        self.expect(nus == list(range(nu_lo, nu_hi + 1)), "grid.indices",
                    f"got nu {nus[0]}..{nus[-1]} ({len(nus)} points), "
                    f"expected {nu_lo}..{nu_hi}")

    # -- quadrature -----------------------------------------------------------

    def gauss_legendre(self, rec, reported: float, quad):
        """Recompute a direct G-set integral with fixed-order Gauss-Legendre
        rules per interval and compare it with the reported value within the
        adaptive rule's contract tolerance plus the fixed rule's own error."""
        c = rec["collection"]
        los, his = c.lows, c.highs
        mid, hw = 0.5 * (los + his), 0.5 * (his - los)
        values = []
        for n in GL_ORDERS:
            x, w = leggauss(n)
            pts = mid[:, None] + hw[:, None] * x[None, :]
            vals = rscore.hardy_z_many(pts.ravel()).reshape(pts.shape)
            values.append(math.fsum((vals @ w) * hw))
        gl, gl_err = values[-1], abs(values[-1] - values[0])
        tol = max(quad.abs_tol, quad.rel_tol * abs(reported)) + gl_err
        self.expect(abs(gl - reported) <= tol, "quadrature.gauss-legendre",
                    f"{c.label}: reported {reported!r}, Gauss-Legendre {gl!r}, "
                    f"allowed {tol:.3e}")

    def evaluation_counts(self, integrals, reports):
        """Integrand points counted at the integrand equal the evaluations the
        quadrature reports, per call and in the report metadata."""
        for r in integrals:
            out = r["outcome"]
            self.expect(r["points"] == out.evaluations, "evaluations.call",
                        f"{r['label']}: counted {r['points']}, "
                        f"outcome says {out.evaluations}")
        by_value = {}
        for r in integrals:
            by_value.setdefault((r["label"], r["outcome"].value), r["points"])
        for rep in reports:
            meta = rep.get("metadata") or {}
            if "evaluations" not in meta:
                continue
            eid = rep["experiment_id"]
            if eid == "corollary.union":
                counted = [p1 + p2
                           for (l1, v1), p1 in by_value.items() if l1 == "mirrored-G1"
                           for (l2, v2), p2 in by_value.items() if l2 == "mirrored-G2"
                           if v1 + v2 == rep["measured"]]
            else:
                s = eid.split(".")[1].split("-")
                label = ("mirrored-" if s[1] == "mirrored" else "") + s[0].upper()
                counted = [p for (lab, v), p in by_value.items()
                           if lab == label and v == rep["measured"]]
            self.expect(meta["evaluations"] in counted, "evaluations.report",
                        f"{eid}: metadata says {meta['evaluations']}, "
                        f"counted {counted}")

    # -- properties of the method ---------------------------------------------

    def substitution(self, by_id, quad):
        """Eq. 4.4: each direct integral equals its mirrored counterpart."""
        for s in ("g1", "g2"):
            d = by_id[f"theorem.{s}-direct"]["measured"]
            m = by_id[f"theorem.{s}-mirrored"]["measured"]
            tol = SUBSTITUTION_SLACK * (max(quad.abs_tol, quad.rel_tol * abs(d))
                                        + max(quad.abs_tol, quad.rel_tol * abs(m)))
            self.expect(abs(d - m) <= tol, "eq4.4",
                        f"{s}: direct {d!r} vs mirrored {m!r}, allowed {tol:.3e}")

    def corollaries(self, by_id, quad):
        """The corollary union and difference are sums of the same mirrored
        integrals that verify_theorem computed."""
        m1 = by_id["theorem.g1-mirrored"]["measured"]
        m2 = by_id["theorem.g2-mirrored"]["measured"]
        tol = 2.0 * (max(quad.abs_tol, quad.rel_tol * abs(m1))
                     + max(quad.abs_tol, quad.rel_tol * abs(m2)))
        for eid, expected in (("corollary.union", m1 + m2),
                              ("corollary.difference", m1 - m2)):
            got = by_id[eid]["measured"]
            self.expect(abs(got - expected) <= tol, "corollary",
                        f"{eid}: {got!r} vs {expected!r} from the theorem rows")

    def mirror_round_trip(self, ctx, integrals):
        """Mirrored endpoints increase, and phi_1 maps them back to the
        endpoints of the original set within 1e-8 T."""
        originals = {"mirrored-G1": ctx.g1, "mirrored-G2": ctx.g2}
        seen = [r for r in integrals if r["label"] in originals]
        self.expect(len({r["label"] for r in seen}) == 2, "mirror",
                    "mirrored G1 and G2 integrals not both captured")
        for r in seen:
            mc, orig = r["collection"], originals[r["label"]]
            ends = np.array(mc.intervals).ravel()
            want = np.array(orig.intervals).ravel()
            self.expect(ends.size == want.size, "mirror.count",
                        f"{r['label']}: {ends.size // 2} intervals, "
                        f"original has {want.size // 2}")
            if ends.size != want.size:
                continue
            self.expect(bool(np.all(np.diff(ends) > 0)), "mirror.increasing",
                        f"{r['label']}: endpoints not strictly increasing")
            back = np.asarray(ctx.ladder.eval(ends))
            worst = float(np.max(np.abs(back - want)))
            self.expect(worst <= MIRROR_REL_TOL * ctx.w.T, "mirror.round-trip",
                        f"{r['label']}: max |phi_1(mirror) - original| = {worst:.3e}")

    def measure_law(self, coll, half_width: float, H: float):
        measure = math.fsum(hi - lo for lo, hi in coll.intervals)
        dev = abs(measure * math.pi / (half_width * H) - 1.0)
        self.expect(dev <= MEASURE_LAW_TOL, "measure-law",
                    f"{coll.label} at half-width {half_width!r}: deviation {dev:.4f}")

    def sign_audit(self, audit, k: int):
        """At seeded points of the partition audit, mpmath's sign of
        Z(phi_1(t)) Z~^2(t) agrees with the program's, on points the audit
        found of the right sign and on points it found of the wrong one."""
        right = audit.signs == audit.expected
        for agree in (True, False):
            idx = np.flatnonzero(right == agree)
            for i in self.pick(idx, k):
                t, phi = audit.ts[i], audit.phis[i]
                z_t = mp_z(t)
                value = mp_z(phi) * z_t * z_t / math.log(t)
                self.expect(np.sign(value) == audit.signs[i], "sign-audit.mpmath",
                            f"t={t!r}: mpmath {value!r}, program sign {audit.signs[i]}")


#: Fixed interior points per interval in the sign-partition audit.
AUDIT_POINTS = 16


class PartitionAudit:
    """Sign of the pushforward integrand at AUDIT_POINTS fixed interior points
    of every interval of a sign partition, against the interval's label.

    Seed-independent: the same partition gives the same audit.
    """

    def __init__(self, ctx, partition):
        frac = (np.arange(AUDIT_POINTS) + 0.5) / AUDIT_POINTS
        ts, expected = [], []
        for coll, sgn in ((partition.pos, 1.0), (partition.neg, -1.0)):
            for lo, hi in coll.intervals:
                ts.append(lo + frac * (hi - lo))
                expected.append(np.full(AUDIT_POINTS, sgn))
        self.ts = np.concatenate(ts)
        self.expected = np.concatenate(expected)
        self.phis = np.asarray(ctx.ladder.eval(self.ts))
        self.signs = np.sign(np.asarray(ctx.pushforward_z(self.ts)))
        wrong = (self.signs != self.expected).reshape(-1, AUDIT_POINTS)
        self.intervals = wrong.shape[0]
        self.mislabelled = int(np.count_nonzero(wrong.any(axis=1)))
