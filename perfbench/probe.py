"""Wrappers around zladder's public functions, installed from outside the
package for the length of one benchmark round.

Two levels share one set of wrappers:

* capture (always on): keeps the ExperimentContext objects, every
  ``integrate_collection`` call made by the harness (collection, outcome,
  integrand points counted at the integrand) and one seeded quadrature node
  per integrand call.  The correctness checks read these after the timed
  part.  The cost is a few Python calls per quadrature generation.
* tracing (``--trace 1``): additionally records a span (name, start, end,
  parent) at every wrapped boundary, with the point counts of that call.
  Spans stay in memory and are written out when the run ends.

Every wrapper is installed on the name its callers look up at call time
(``harness.build_g1``, ``rscore.hardy_z_many``, ``OdeLadder.eval``, ...), so
the program runs unchanged, and ``uninstall`` puts the originals back.
"""

from __future__ import annotations

import contextlib
import functools
import math
import time

import numpy as np

from zladder import cli, harness, intervals, ladder, rscore

TWO_PI = 2.0 * math.pi

#: Collections integrated with Z itself; every other label is integrated
#: with the pushforward Z(phi_1(t)) * Z~^2(t) over a mirrored domain.
DIRECT_LABELS = ("G1", "G2")


class Probe:
    def __init__(self, seed: int, trace: bool):
        self.trace = trace
        self.rng = np.random.default_rng([seed, 0x5EED])
        self._saved: list = []
        self.reset()

    def reset(self):
        """Forget the previous round's captures and spans."""
        self.contexts: list = []
        self.integrals: list = []  # one dict per completed integrate_collection
        self.partitions: list = []
        self.spans: list = []  # [name, start, end, parent, points, terms]
        self._stack: list = []

    @contextlib.contextmanager
    def paused(self):
        """Record no spans inside the block."""
        trace, self.trace = self.trace, False
        try:
            yield
        finally:
            self.trace = trace

    # -- spans -----------------------------------------------------------

    def _open(self, name, points=0, terms=0):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, points, terms])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _call(self, name, fn, *args, points=0, terms=0, **kwargs):
        """Call ``fn``, inside a span when tracing."""
        if not self.trace:
            return fn(*args, **kwargs)
        idx = self._open(name, points, terms)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def _spanned(self, name, fn, points_of=None, terms_of=None):
        """Wrap ``fn`` so that each call records one span."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._call(name, fn, *args,
                              points=points_of(*args) if points_of else 0,
                              terms=terms_of(*args) if terms_of else 0, **kwargs)
        return wrapper

    # -- install ---------------------------------------------------------

    def _patch(self, owner, attr, new):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self):
        """Install the capturing wrappers, and the span wrappers when tracing."""
        self._patch(harness.ExperimentContext, "__init__",
                    self._wrap_context(harness.ExperimentContext.__init__))
        self._patch(harness, "integrate_collection",
                    self._wrap_integrate(harness.integrate_collection))
        self._patch(harness, "sign_partition",
                    self._wrap_sign_partition(harness.sign_partition))
        if not self.trace:
            return
        sp = self._spanned
        size0 = _size_of_arg(0)
        size1 = _size_of_arg(1)
        self._patch(rscore, "hardy_z_many",
                    sp("rscore.hardy_z_many", rscore.hardy_z_many, size0, _rs_terms))
        for name in ("grid_range", "build_g1", "build_g2"):
            self._patch(harness, name, sp(f"gridsets.{name}", getattr(harness, name)))
        self._patch(ladder, "ladder_ode", sp("ladder.ladder_ode", ladder.ladder_ode))
        self._patch(ladder.OdeLadder, "eval",
                    sp("ladder.eval", ladder.OdeLadder.eval, size1))
        self._patch(ladder.OdeLadder, "deriv",
                    sp("ladder.deriv", ladder.OdeLadder.deriv, size1))
        self._patch(ladder.LadderModel, "invert",
                    sp("ladder.invert", ladder.LadderModel.invert, size1))
        self._patch(ladder, "mirror_collection",
                    sp("ladder.mirror_collection", ladder.mirror_collection))
        self._patch(intervals.IntervalCollection, "union",
                    sp("intervals.union", intervals.IntervalCollection.union))
        for name in ("verify_theorem", "verify_corollaries", "verify_sign_area",
                     "scan_shape"):
            self._patch(harness, name, sp(f"harness.{name}", getattr(harness, name)))
        self._patch(harness.ExperimentContext, "pushforward_z",
                    sp("harness.pushforward_z",
                       harness.ExperimentContext.pushforward_z, size1))
        self._patch(cli, "run_cli", sp("cli.run_cli", cli.run_cli))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- capturing wrappers ----------------------------------------------

    def _wrap_context(self, init):
        @functools.wraps(init)
        def wrapper(ctx, *args, **kwargs):
            self._call("harness.context", init, ctx, *args, **kwargs)
            self.contexts.append(ctx)
        return wrapper

    def _wrap_integrate(self, integrate):
        @functools.wraps(integrate)
        def wrapper(f, c, *args, **kwargs):
            rec = {"label": c.label, "collection": c, "points": 0,
                   "generations": 0, "nodes": [],
                   "direct": c.label in DIRECT_LABELS}

            def integrand(ts):
                ts = np.asarray(ts)
                rec["points"] += ts.size
                rec["generations"] += 1
                rec["nodes"].append(float(ts[self.rng.integers(ts.size)]))
                return self._call("quadrature.integrand", f, ts, points=ts.size)

            rec["outcome"] = self._call("quadrature.integrate_collection", integrate,
                                        integrand, c, *args, **kwargs)
            self.integrals.append(rec)
            return rec["outcome"]
        return wrapper

    def _wrap_sign_partition(self, partition):
        @functools.wraps(partition)
        def wrapper(c, f, *args, **kwargs):
            def scanned(ts):
                return self._call("gridsets.sign_partition.f", f, ts,
                                  points=int(np.size(ts)))

            part = self._call("gridsets.sign_partition", partition,
                              c, scanned, *args, **kwargs)
            self.partitions.append(part)
            return part
        return wrapper


def _size_of_arg(i):
    def size(*args):
        return int(np.size(args[i])) if len(args) > i else 0
    return size


def _rs_terms(*args):
    """Main-sum terms of one hardy_z_many call: sum of floor(sqrt(t / 2 pi))."""
    t = np.asarray(args[0], dtype=float)
    return int(np.floor(np.sqrt(t / TWO_PI)).sum()) if t.size else 0


# ---------------------------------------------------------------------------
# per-layer metrics from the spans of one round
# ---------------------------------------------------------------------------

#: (name, unit, better) of every per-layer metric, in output order.
PER_LAYER = (
    ("rscore.z_calls", "count", "lower"),
    ("rscore.z_points", "count", "lower"),
    ("rscore.z_terms", "count", "lower"),
    ("rscore.z_s", "s", "lower"),
    ("rscore.ns_per_term", "ns/term", "lower"),
    ("rscore.points_per_call", "points/call", "higher"),
    ("gridsets.build_s", "s", "lower"),
    ("gridsets.grid_points", "count", "lower"),
    ("gridsets.sign_partition_s", "s", "lower"),
    ("gridsets.sign_partition_f_calls", "count", "lower"),
    ("gridsets.sign_partition_f_points", "count", "lower"),
    ("gridsets.sign_parts", "count", "lower"),
    ("intervals.union_s", "s", "lower"),
    ("ladder.build_s", "s", "lower"),
    ("ladder.build_z_points", "count", "lower"),
    ("ladder.eval_points", "count", "lower"),
    ("ladder.eval_s", "s", "lower"),
    ("ladder.deriv_points", "count", "lower"),
    ("ladder.z_points_per_eval_point", "ratio", "lower"),
    ("ladder.invert_calls", "count", "lower"),
    ("ladder.invert_points", "count", "lower"),
    ("ladder.invert_rounds", "count", "lower"),
    ("ladder.invert_s", "s", "lower"),
    ("ladder.mirror_calls", "count", "lower"),
    ("ladder.mirror_s", "s", "lower"),
    ("quadrature.calls", "count", "lower"),
    ("quadrature.generations", "count", "lower"),
    ("quadrature.s", "s", "lower"),
    ("quadrature.direct_nodes", "count", "lower"),
    ("quadrature.mirrored_nodes", "count", "lower"),
    ("quadrature.direct_subdivisions", "count", "lower"),
    ("quadrature.mirrored_subdivisions", "count", "lower"),
    ("quadrature.unconverged", "count", "lower"),
    ("harness.context_s", "s", "lower"),
    ("harness.theorem_s", "s", "lower"),
    ("harness.corollaries_s", "s", "lower"),
    ("harness.sign_area_s", "s", "lower"),
    ("harness.shape_s", "s", "lower"),
    ("harness.pushforward_points", "count", "lower"),
    ("harness.z_points_per_pushforward_point", "ratio", "lower"),
    ("harness.z_points_per_verdict", "count", "lower"),
    ("cli.s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(probe: Probe, verdicts: int, wall_s: float) -> dict:
    """Per-layer figures of one traced round.

    A layer's self time is its span's duration minus the durations of its
    direct child spans.  A workload that never enters a layer reports 0.
    """
    spans = probe.spans
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]

    def ids(name):
        return [i for i, s in enumerate(spans) if s[0] == name]

    def total(name):
        return sum(dur[i] for i in ids(name))

    def self_time(name):
        return sum(dur[i] - child[i] for i in ids(name))

    def points(name):
        return sum(spans[i][4] for i in ids(name))

    def parent_is(i, name):
        p = spans[i][3]
        return p >= 0 and spans[p][0] == name

    def under(i, name):
        p = spans[i][3]
        while p >= 0:
            if spans[p][0] == name:
                return True
            p = spans[p][3]
        return False

    z = ids("rscore.hardy_z_many")
    z_points = sum(spans[i][4] for i in z)
    z_terms = sum(spans[i][5] for i in z)
    z_s = sum(dur[i] for i in z)
    eval_points = points("ladder.eval")
    push_points = points("harness.pushforward_z")
    integrals = probe.integrals
    direct = [r for r in integrals if r["direct"]]
    mirrored = [r for r in integrals if not r["direct"]]

    m = {
        "rscore.z_calls": len(z),
        "rscore.z_points": z_points,
        "rscore.z_terms": z_terms,
        "rscore.z_s": z_s,
        "rscore.ns_per_term": _ratio(z_s * 1e9, z_terms),
        "rscore.points_per_call": _ratio(z_points, len(z)),
        "gridsets.build_s": sum(total(f"gridsets.{n}")
                                for n in ("grid_range", "build_g1", "build_g2")),
        "gridsets.grid_points": sum(len(ctx.grid_cuts) for ctx in probe.contexts),
        "gridsets.sign_partition_s": self_time("gridsets.sign_partition"),
        "gridsets.sign_partition_f_calls": len(ids("gridsets.sign_partition.f")),
        "gridsets.sign_partition_f_points": points("gridsets.sign_partition.f"),
        "gridsets.sign_parts": sum(len(p.pos) + len(p.neg) for p in probe.partitions),
        "intervals.union_s": total("intervals.union"),
        "ladder.build_s": total("ladder.ladder_ode"),
        "ladder.build_z_points": sum(spans[i][4] for i in z
                                     if under(i, "ladder.ladder_ode")),
        "ladder.eval_points": eval_points,
        "ladder.eval_s": self_time("ladder.eval"),
        "ladder.deriv_points": points("ladder.deriv"),
        "ladder.z_points_per_eval_point": _ratio(
            sum(spans[i][4] for i in z if parent_is(i, "ladder.eval")), eval_points),
        "ladder.invert_calls": len(ids("ladder.invert")),
        "ladder.invert_points": points("ladder.invert"),
        "ladder.invert_rounds": sum(1 for i in ids("ladder.eval")
                                    if parent_is(i, "ladder.invert")),
        "ladder.invert_s": total("ladder.invert"),
        "ladder.mirror_calls": len(ids("ladder.mirror_collection")),
        "ladder.mirror_s": total("ladder.mirror_collection"),
        "quadrature.calls": len(integrals),
        "quadrature.generations": sum(r["generations"] for r in integrals),
        "quadrature.s": self_time("quadrature.integrate_collection"),
        "quadrature.direct_nodes": sum(r["points"] for r in direct),
        "quadrature.mirrored_nodes": sum(r["points"] for r in mirrored),
        "quadrature.direct_subdivisions": sum(r["outcome"].subdivisions for r in direct),
        "quadrature.mirrored_subdivisions": sum(r["outcome"].subdivisions
                                                for r in mirrored),
        "quadrature.unconverged": sum(1 for r in integrals
                                      if not r["outcome"].converged),
        "harness.context_s": total("harness.context"),
        "harness.theorem_s": total("harness.verify_theorem"),
        "harness.corollaries_s": total("harness.verify_corollaries"),
        "harness.sign_area_s": total("harness.verify_sign_area"),
        "harness.shape_s": total("harness.scan_shape"),
        "harness.pushforward_points": push_points,
        "harness.z_points_per_pushforward_point": _ratio(
            sum(spans[i][4] for i in z if under(i, "harness.pushforward_z")),
            push_points),
        "harness.z_points_per_verdict": _ratio(z_points, verdicts),
        "cli.s": self_time("cli.run_cli"),
        "trace.wall_s": wall_s,
        "trace.spans": len(spans),
    }
    return m
