#!/usr/bin/env python3
"""Benchmark of zladder's verification runs, end to end and per module.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload theorem --seed 1 --seconds 10 --trace 0

One run is one fresh process.  It imports the package from ``src/``, builds
its lazy tables (``setup_s``), then repeats whole rounds of the workload until
``--seconds`` have passed (at least one round), runs the correctness checks on
the last round, and prints one JSON object as the last line of standard
output.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1`` wraps
every layer boundary in a span, reports the per-layer metrics and writes the
spans to ``perfbench/out/``.  See perfbench/README.md.
"""

import os
import sys
import time

_T0 = time.perf_counter()


def _process_age() -> float:
    """Seconds since this process started (10 ms resolution), so that
    ``setup_s`` includes interpreter start-up."""
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        with open("/proc/uptime") as fh:
            uptime = float(fh.read().split()[0])
        return max(0.0, uptime - int(fields[19]) / os.sysconf("SC_CLK_TCK"))
    except (OSError, ValueError, IndexError):
        return 0.0


_AGE0 = _process_age()

# the workload is single-process; cap numpy's BLAS pool at the 2 cores the
# benchmark is specified for, unless the caller set it
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, str(min(2, os.cpu_count() or 1)))

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

WORKLOADS = {
    # window T, window H, operations per round (verdicts, plus the
    # sign-partition audit on suite)
    "theorem": (1.0e6, 1.0e3, 6),
    "suite": (1.0e6, 200.0, 12),
    "shape": (1.0e7, 600.0, 1),
}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def setup():
    """Import the package and build the Riemann-Siegel remainder tables."""
    src = ROOT / "src"
    if not (src / "zladder" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no zladder sources under {src}")
    sys.path.insert(0, str(src))
    import numpy as np

    from zladder import cli, harness, rscore  # noqa: F401

    rscore.hardy_z_many(np.array([1.0e6]))
    return _AGE0 + time.perf_counter() - _T0


# ---------------------------------------------------------------------------
# one round of each workload; each returns (verdict rows, extra outputs)
# ---------------------------------------------------------------------------

def _cli(argv, out_dir: Path, report: str):
    from zladder import cli

    with contextlib.redirect_stdout(sys.stderr):
        rc = cli.run_cli(argv + ["--out", str(out_dir)])
    payload = json.loads((out_dir / f"{report}.json").read_text())
    return payload["reports"], {"rc": rc}


def round_theorem(T, H, out_dir):
    return _cli(["verify-theorem", "--T", repr(T), "--H", repr(H)],
                out_dir, "verify-theorem")


def round_suite(T, H, out_dir):
    from zladder import harness

    cfg = harness.ExperimentConfig(T=T, H_override=H)
    ctx = harness.ExperimentContext(cfg)
    reports = (harness.verify_theorem(cfg, ctx)
               + harness.verify_corollaries(cfg, ctx)
               + harness.verify_sign_area(cfg, ctx))
    return [r.as_dict() for r in reports], {}


def round_shape(T, H, out_dir):
    reports, extra = _cli(["scan-shape", "--T", repr(T), "--H", repr(H)],
                          out_dir, "scan-shape")
    with open(out_dir / "scan-shape.csv", newline="") as fh:
        extra["rows"] = [tuple(map(float, row)) for row in list(csv.reader(fh))[1:]]
    return reports, extra


ROUNDS = {"theorem": round_theorem, "suite": round_suite, "shape": round_shape}


# ---------------------------------------------------------------------------
# operations and checks of a round
# ---------------------------------------------------------------------------

def round_operations(workload, probe, reports, extra):
    """Outcome (True = passed) of every operation of a finished round: its
    verdicts, and on suite the audit of the sign partition, which runs
    untimed and untraced."""
    ops = [r["verdict"] != "fail" for r in reports]
    if workload == "suite":
        from checks import PartitionAudit

        with probe.paused():
            audit = PartitionAudit(probe.contexts[-1], probe.partitions[-1])
        extra["audit"] = audit
        ops.append(audit.mislabelled == 0)
        if audit.mislabelled:
            print(f"sign-partition audit: {audit.mislabelled} of {audit.intervals} "
                  f"sign-part intervals hold a point of the other sign",
                  file=sys.stderr)
    return ops


def check_round(workload, probe, reports, extra, seed):
    from checks import Checks

    chk = Checks(seed)
    by_id = {r["experiment_id"]: r for r in reports}
    if "rc" in extra:
        failed = any(r["verdict"] == "fail" for r in reports)
        chk.expect(extra["rc"] == (1 if failed else 0), "cli.exit",
                   f"exit code {extra['rc']} with failed={failed}")
    chk.expect(len(probe.contexts) == 1, "context",
               f"{len(probe.contexts)} experiment contexts built")
    ctx = probe.contexts[-1]
    quad = ctx.cfg.quad
    direct = [r for r in probe.integrals if r["direct"]]

    chk.grid(ctx)
    chk.evaluation_counts(probe.integrals, reports)
    if workload == "shape":
        rows = extra["rows"]
        chk.z_direct(probe.integrals, 4)
        chk.expect(len(direct) == len(rows), "shape.rows",
                   f"{len(direct)} integrals for {len(rows)} rows")
        for rec, (x, _, _) in zip(direct, rows):
            chk.measure_law(rec["collection"], x, ctx.w.H)
        if direct and len(direct) == len(rows):
            i = int(chk.rng.integers(len(rows)))
            chk.gauss_legendre(direct[i], rows[i][1], quad)
        return chk

    chk.z_direct(probe.integrals, 2)
    chk.z_mirrored(ctx, probe.integrals, 2)
    chk.measure_law(ctx.g1, ctx.cfg.x, ctx.w.H)
    chk.measure_law(ctx.g2, ctx.cfg.y, ctx.w.H)
    g1 = [r for r in direct if r["label"] == "G1"]
    chk.expect(bool(g1), "quadrature", "no direct G1 integral captured")
    if g1:
        chk.gauss_legendre(g1[0], by_id["theorem.g1-direct"]["measured"], quad)
    chk.substitution(by_id, quad)
    chk.mirror_round_trip(ctx, probe.integrals)
    if workload == "suite":
        chk.corollaries(by_id, quad)
        chk.expect(len(probe.partitions) == 1, "sign-partition",
                   f"{len(probe.partitions)} sign partitions captured")
        chk.sign_audit(extra["audit"], 2)
    return chk


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    args = parse_args(argv)
    setup_s = setup()
    sys.path.insert(0, str(BENCH_DIR))
    from probe import PER_LAYER, Probe, layer_metrics

    T, H, ops_per_round = WORKLOADS[args.workload]
    run_round = ROUNDS[args.workload]
    out_dir = OUT_DIR / f"{args.workload}-{os.getpid()}"

    probe = Probe(args.seed, bool(args.trace))
    walls, attempted, failed = [], 0, 0
    peak_rss_mb = None
    last = None
    probe.install()
    start = time.perf_counter()
    try:
        while True:
            probe.reset()
            shutil.rmtree(out_dir, ignore_errors=True)
            t0 = time.perf_counter()
            wall = None
            try:
                reports, extra = run_round(T, H, out_dir)
                wall = time.perf_counter() - t0
                # read before any audit, so that only the workload sets it
                peak_rss_mb = peak_rss_mb or _peak_rss_mb()
                ops = round_operations(args.workload, probe, reports, extra)
                last = (reports, extra)
            except Exception:  # a crashed round counts all its operations failed
                wall = wall or time.perf_counter() - t0
                traceback.print_exc()
                ops, last = [False] * ops_per_round, None
            walls.append(wall)
            attempted += len(ops)
            failed += ops.count(False)
            if time.perf_counter() - start >= args.seconds:
                break
    finally:
        probe.uninstall()
        shutil.rmtree(out_dir, ignore_errors=True)
    peak_rss_mb = peak_rss_mb or _peak_rss_mb()

    correct = False
    if last is not None:
        try:
            chk = check_round(args.workload, probe, *last, args.seed)
        except Exception:  # outputs missing or malformed: not verified
            traceback.print_exc()
        else:
            for msg in chk.failures:
                print(f"CHECK FAILED {msg}", file=sys.stderr)
            correct = not chk.failures
            print(f"{chk.count - len(chk.failures)}/{chk.count} checks passed",
                  file=sys.stderr)

    if args.trace:
        values = layer_metrics(probe, len(last[0]) if last else 0, walls[-1])
        units = {name: unit for name, unit, _ in PER_LAYER}
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        trace_path = OUT_DIR / f"trace-{args.workload}-{args.seed}.json"
        trace_path.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "T": T, "H": H,
            "metrics": values,
            "spans": [{"name": s[0], "start": s[1], "end": s[2], "parent": s[3],
                       "points": s[4]} for s in probe.spans],
        }) + "\n")
    else:
        values = {"wall_s": statistics.median(walls), "setup_s": setup_s,
                  "peak_rss_mb": peak_rss_mb}
        units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

    for name, value in values.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"{args.workload}: T={T!r} H={H!r} rounds={len(walls)} "
          f"operations attempted={attempted} failed={failed} correct={correct}")
    metrics = {name: {"value": v, "unit": units[name]} for name, v in values.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
