"""Command-line interface for the verification experiments.

Each subcommand reads an optional ``key = value`` config file plus flag
overrides, runs one experiment, and writes JSON reports / CSV plot data under
--out.  Exit status: 0 when all hard verdicts pass, 1 on verification failure,
2 on usage errors.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import harness, ladder as ladder_mod
from .gridsets import build_g1, build_g2, grid_range
from .harness import ExperimentContext
from .quadrature import integrate_collection


#: The flags every subcommand accepts: (flag, config key, type).
_COMMON_FLAGS = (
    ("--T", "T", float),
    ("--eps", "epsilon", float),
    ("--H", "H_override", float),
    ("--x", "x", float),
    ("--y", "y", float),
    ("--rel-tol", "rel_tol", float),
    ("--abs-tol", "abs_tol", float),
    ("--out", "output_dir", str),
)


def _add_common_flags(p: argparse.ArgumentParser):
    p.add_argument("--config", type=str, default=None, help="key = value config file")
    for flag, key, kind in _COMMON_FLAGS:
        p.add_argument(flag, type=kind, default=None, dest=key)


def _write_csv(path: Path, header, rows):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _finish(cfg, reports, t0, name) -> int:
    out_dir = Path(cfg.output_dir)
    harness.write_report(out_dir / f"{name}.json", cfg, reports, time.time() - t0)
    for r in reports:
        print(f"[{r.verdict:>11}] {r.experiment_id}: measured={r.measured:.6g} "
              f"predicted={r.predicted:.6g} (eq {r.paper_eq})")
    return 1 if harness.hard_failures(reports) else 0


def _cmd_grid(args, cfg) -> int:
    nus, ts = grid_range(cfg.window)
    _write_csv(Path(cfg.output_dir) / "grid.csv", ["nu", "tau", "t"],
               [[nu, "0.0", repr(t)] for nu, t in zip(nus.tolist(), ts.tolist())])
    print(f"{ts.size} grid points in [{cfg.T}, {cfg.T + cfg.window.H}]")
    return 0


def _cmd_gsets(args, cfg) -> int:
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, coll in (("g1", build_g1(cfg.window, cfg.x)),
                       ("g2", build_g2(cfg.window, cfg.y))):
        (out / f"{name}.csv").write_text(coll.to_csv())
        (out / f"{name}.json").write_text(coll.to_json() + "\n")
        print(f"{name}: {len(coll)} intervals, measure {coll.measure():.6f}")
    return 0


def _cmd_ladder(args, cfg) -> int:
    model = ExperimentContext(cfg).ladder
    w = cfg.window
    lo, hi = model.invert(np.array([w.T, w.T + w.H]))
    path = Path(cfg.output_dir) / "ladder-ode.csv"
    path.parent.mkdir(parents=True, exist_ok=True)
    ladder_mod.save_ladder_csv(model, path, lo, hi)
    print(f"wrote {path} over the mirrored window [{lo:.3f}, {hi:.3f}]")
    return 0


def _cmd_integrate(args, cfg) -> int:
    t0 = time.time()
    ctx = harness.integrating_context(cfg)
    coll = ctx.g1 if args.set == "g1" else ctx.g2
    out = integrate_collection(ctx.z_table, coll, cfg.quad)
    sgn = 1.0 if args.set == "g1" else -1.0
    amp = math.sin(cfg.x if args.set == "g1" else cfg.y)
    pred = sgn * 2.0 / math.pi * ctx.w.H * amp
    print(f"integral over {args.set}: {out.value:.6f} (predicted {pred:.6f}, "
          f"error estimate {out.error_estimate:.2e}, {out.evaluations} evals, "
          f"{time.time() - t0:.1f}s)")
    return 0


#: Verification subcommands and the harness function each runs.  The name is
#: looked up on the harness module at call time, so a replaced function is the
#: one that runs.
_VERIFY = {
    "verify-theorem": "verify_theorem",
    "verify-corollaries": "verify_corollaries",
    "sign-area": "verify_sign_area",
    "verify-separation": "verify_separation",
}


def _cmd_verify(args, cfg) -> int:
    t0 = time.time()
    reports = getattr(harness, _VERIFY[args.command])(cfg)
    return _finish(cfg, reports, t0, args.command)


def _cmd_scan_shape(args, cfg) -> int:
    t0 = time.time()
    rows, report = harness.scan_shape(cfg)
    _write_csv(Path(cfg.output_dir) / "scan-shape.csv",
               ["x", "measured", "predicted"],
               [[repr(x), repr(m), repr(p)] for x, m, p in rows])
    return _finish(cfg, [report], t0, "scan-shape")


def _cmd_report(args, cfg) -> int:
    rows = harness.merge_reports(Path(cfg.output_dir).glob("*.json"))
    if not rows:
        print("no report files found", file=sys.stderr)
        return 1
    header = ["T", "H", "x", "y", "experiment_id", "measured", "predicted",
              "paper_eq", "verdict", "source"]
    _write_csv(Path(cfg.output_dir) / "summary.csv", header,
               [[row[k] for k in header] for row in rows])
    print(f"merged {len({row['source'] for row in rows})} report files into "
          f"summary.csv ({len(rows)} rows)")
    return 0


def _usage_error(args, exc) -> int:
    print(f"zladder {args.command}: {exc}", file=sys.stderr)
    return 2


def run_cli(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="zladder",
        description="verification experiments for the Z-signal set systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    handlers = {
        "grid": _cmd_grid,
        "gsets": _cmd_gsets,
        "ladder": _cmd_ladder,
        "integrate": _cmd_integrate,
        **dict.fromkeys(_VERIFY, _cmd_verify),
        "scan-shape": _cmd_scan_shape,
        "report": _cmd_report,
    }
    for name in handlers:
        p = sub.add_parser(name)
        _add_common_flags(p)
        if name == "integrate":
            p.add_argument("--set", choices=("g1", "g2"), default="g1")

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        cfg = harness.config_from_file(
            args.config, {key: getattr(args, key) for _, key, _ in _COMMON_FLAGS})
    except (OSError, ValueError) as exc:
        return _usage_error(args, exc)
    try:
        return handlers[args.command](args, cfg)
    except harness.UsageError as exc:
        return _usage_error(args, exc)


def main():
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
