"""Experiment configs, report records, file outputs, and the CLI."""

import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import zladder
from zladder import gridsets, harness, ladder, rscore
from zladder.cli import run_cli
from zladder.harness import (
    EQ_TAGS,
    ExperimentConfig,
    VerificationReport,
    config_from_file,
    mean_value_budget,
    merge_reports,
    write_report,
)
from zladder.quadrature import QuadSpec


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------

def test_default_config_valid():
    cfg = ExperimentConfig()
    assert cfg.T == 1e6
    assert cfg.window.H == 1e3


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(x=0.0)
    with pytest.raises(ValueError):
        ExperimentConfig(y=2.0)
    with pytest.raises(ValueError):
        ExperimentConfig(T=100.0)
    # a NaN window passed every comparison and failed only in grid_range
    with pytest.raises(ValueError):
        ExperimentConfig(T=math.nan)
    with pytest.raises(ValueError):
        ExperimentConfig(H_override=math.nan)


def test_config_from_file_and_overrides(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text(
        "# comment\n"
        "T = 2e6\n"
        "H_override = 500\n"
        "x = 1.0\n"
        "rel_tol = 1e-6\n"
    )
    cfg = config_from_file(p)
    assert cfg.T == 2e6
    assert cfg.window.H == 500.0
    assert cfg.x == 1.0
    assert cfg.quad.rel_tol == 1e-6
    over = config_from_file(p, {"T": "3e6", "y": 0.5})
    assert over.T == 3e6
    assert over.y == 0.5


def test_config_file_rejects_unknown_key(tmp_path):
    p = tmp_path / "bad.cfg"
    for key in ("tee", "ladder_kind"):
        p.write_text(f"{key} = 1\n")
        with pytest.raises(ValueError):
            config_from_file(p)
    p.write_text("just a line\n")
    with pytest.raises(ValueError):
        config_from_file(p)


def test_mean_value_budget_shape():
    cfg = ExperimentConfig()
    assert mean_value_budget(cfg) == pytest.approx(
        harness.KAPPA * 1e6 ** (1 / 6 + 0.05))


# ---------------------------------------------------------------------------
# report records
# ---------------------------------------------------------------------------

def _report(**kw):
    base = dict(experiment_id="x", measured=1.0, predicted=1.0,
                error_estimate=0.0, paper_eq="1.5", tolerance=0.1)
    base.update(kw)
    return VerificationReport(**base)


def test_report_eq_tag_vocabulary():
    for tag in EQ_TAGS:
        assert _report(paper_eq=tag).paper_eq == tag
    with pytest.raises(ValueError):
        _report(paper_eq="5.1")


def test_report_verdict_consistency():
    assert _report().verdict == "pass"  # |1-1| <= 0.1
    assert _report(measured=2.0).verdict == "fail"  # |2-1| > 0.1
    with pytest.raises(TypeError):
        _report(verdict="pass")


def test_report_pass_requires_converged_integrals():
    assert _report(metadata={"converged": False}).verdict == "fail"
    assert _report(metadata={"converged": True}).verdict == "pass"


def test_write_and_merge_reports(tmp_path):
    cfg = ExperimentConfig()
    reports = [_report(), _report(experiment_id="y", paper_eq="4.4")]
    p = write_report(tmp_path / "a.json", cfg, reports, runtime=1.0)
    payload = json.loads(p.read_text())
    assert payload["schema_version"] == harness.REPORT_SCHEMA_VERSION
    assert len(payload["reports"]) == 2
    rows = merge_reports([p])
    assert len(rows) == 2
    assert rows[0]["T"] == 1e6 and rows[0]["H"] == 1e3


# ---------------------------------------------------------------------------
# experiments on a small cheap window
# ---------------------------------------------------------------------------

SMALL = dict(T=1e3, H_override=25.0, quad=QuadSpec(rel_tol=1e-7, abs_tol=1e-6))


def test_verify_theorem_small_window_substitution_exact():
    cfg = ExperimentConfig(**SMALL)
    reports = harness.verify_theorem(cfg)
    by_id = {r.experiment_id: r for r in reports}
    assert set(by_id) == {
        "theorem.g1-direct", "theorem.g1-mirrored", "theorem.g1-substitution",
        "theorem.g2-direct", "theorem.g2-mirrored", "theorem.g2-substitution",
    }
    # the substitution rows are exact mathematics at any window size
    assert by_id["theorem.g1-substitution"].verdict == "pass"
    assert by_id["theorem.g2-substitution"].verdict == "pass"
    for r in reports:
        assert r.paper_eq in EQ_TAGS


def test_ode_ladder_calls_no_kernel_after_build(monkeypatch, tmp_path):
    # after the two table builds, nothing calls the kernel: not the ladder,
    # not the mirrored integrand over the preimage of the Z table, and not
    # the experiments on the built context
    cfg = ExperimentConfig(**SMALL)
    ctx = harness.ExperimentContext(cfg)
    m, table = ctx.ladder, ctx.z_table
    kernel = rscore.hardy_z_many
    points = []

    def counting(t, *args, **kwargs):
        points.append(np.size(t))
        return kernel(t, *args, **kwargs)

    monkeypatch.setattr(rscore, "hardy_z_many", counting)
    ts = np.linspace(m.lo, m.hi, 1001)
    m.deriv(ts)
    m.invert(m.eval(ts)[1:-1])
    ctx.mirrored(ctx.g1)
    lo, hi = m.invert(table.cuts[[0, -1]])
    ctx.pushforward_z(np.linspace(lo, hi, 1001)[1:-1])
    ladder.save_ladder_csv(m, tmp_path / "ladder.csv", lo, hi)
    for experiment in (harness.verify_theorem, harness.verify_corollaries,
                       harness.verify_sign_area, harness.scan_shape):
        experiment(cfg, ctx)
    assert sum(points) == 0


def _count_calls(monkeypatch, owner, name):
    """Replace owner.name with a wrapper that records each call."""
    calls = []
    fn = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def test_context_mirrors_and_integrates_each_set_once(monkeypatch):
    cfg = ExperimentConfig(**SMALL)
    ctx = harness.ExperimentContext(cfg)
    builds = _count_calls(monkeypatch, ladder, "ladder_ode")
    mirrors = _count_calls(monkeypatch, ladder, "mirror_collection")
    integrals = _count_calls(monkeypatch, harness, "integrate_collection")
    harness.verify_theorem(cfg, ctx)
    harness.verify_corollaries(cfg, ctx)
    harness.verify_sign_area(cfg, ctx)
    # G1 and G2 mirrored once each; two direct, two mirrored and the two
    # sign-part integrals
    assert len(builds) == 1
    assert len(mirrors) == 2
    assert len(integrals) == 6


def test_sign_area_lower_bound_reports_a_shortfall():
    # on this window the positive area falls short of the one-sided floor
    lower = harness.verify_sign_area(ExperimentConfig(**SMALL))[1]
    assert lower.measured < lower.predicted
    assert lower.verdict == "fail"


def test_mirrored_sign_partition_labels_every_part_from_few_calls(monkeypatch):
    # Z(phi_1(t)) turns Z~^2(t) times faster than Z(t), so a scan at Z's zero
    # spacing in mirrored coordinates misses pairs of sign changes
    cfg = ExperimentConfig(T=1e6, H_override=100.0)
    ctx = harness.ExperimentContext(cfg)
    partition = harness.sign_partition
    parts, sizes = [], []

    def capturing(c, f, *args):
        def counted(ts):
            sizes.append(np.size(ts))
            return f(ts)
        parts.append((c, partition(c, counted, *args)))
        return parts[-1][1]

    monkeypatch.setattr(harness, "sign_partition", capturing)
    harness.verify_sign_area(cfg, ctx)
    [(c, part)] = parts
    # no part holds a point of the other sign, at 16 interior points each
    frac = (np.arange(16) + 0.5) / 16
    mislabelled = 0
    for coll, sgn in ((part.pos, 1.0), (part.neg, -1.0)):
        ts = coll.lows[:, None] + frac * (coll.highs - coll.lows)[:, None]
        values = ctx.pushforward_z(ts.ravel()).reshape(ts.shape)
        mislabelled += np.count_nonzero(np.any(sgn * values <= 0, axis=1))
    assert mislabelled == 0
    # one scan call, then one call per bisection round on the root brackets
    # still wider than their budget: a round halves each of them, and each
    # starts inside one interval of c.  Every root starts wide, and a bracket
    # leaves once it is within budget, so later calls are smaller
    roots = len(part.pos) + len(part.neg) - len(c)  # each gap splits a part
    gap_w = gridsets.ROOT_TOL * c.measure() / roots
    rounds = math.ceil(math.log2(np.max(c.highs - c.lows) / gap_w))
    assert len(part.pos) + len(part.neg) > 300
    bisections = sizes[1:]
    assert bisections[0] == roots
    assert all(n >= m for n, m in zip(bisections, bisections[1:]))
    assert sum(bisections) < bisections[0] * len(bisections)
    assert len(sizes) <= 1 + rounds


def test_ode_ladder_built_only_when_used(monkeypatch, tmp_path):
    builds = _count_calls(monkeypatch, ladder, "ladder_ode")
    cfg = ExperimentConfig(**SMALL)
    harness.scan_shape(cfg)
    assert run_cli(_argv("grid", tmp_path)) == 0
    assert run_cli(_argv("integrate", tmp_path)) == 0
    assert builds == []
    harness.ExperimentContext(cfg).ladder
    assert len(builds) == 1


def test_shared_context_gives_the_same_corollaries():
    cfg = ExperimentConfig(**SMALL)
    ctx = harness.ExperimentContext(cfg)
    harness.verify_theorem(cfg, ctx)
    shared = harness.verify_corollaries(cfg, ctx)
    fresh = harness.verify_corollaries(cfg)
    assert [r.as_dict() for r in shared] == [r.as_dict() for r in fresh]


def test_context_of_another_config_is_refused():
    cfg = ExperimentConfig(**SMALL)
    ctx = harness.ExperimentContext(cfg)
    other = dataclasses.replace(cfg, H_override=30.0)
    for verify in (harness.verify_theorem, harness.verify_corollaries,
                   harness.verify_sign_area):
        with pytest.raises(ValueError):
            verify(other, ctx)
    with pytest.raises(ValueError):
        harness.scan_shape(other, ctx=ctx)


def test_unconverged_integrals_never_pass():
    q = QuadSpec(rel_tol=1e-14, abs_tol=1e-14, max_depth=1)
    cfg = ExperimentConfig(T=1e5, H_override=10.0, quad=q)
    ctx = harness.ExperimentContext(cfg)
    _, shape = harness.scan_shape(cfg, ctx=ctx)
    rows = (harness.verify_theorem(cfg, ctx) + harness.verify_corollaries(cfg, ctx)
            + harness.verify_sign_area(cfg, ctx) + [shape])
    unconverged = [r for r in rows if r.metadata.get("converged") is False]
    assert {"theorem.g1-substitution", "theorem.g2-substitution",
            "corollary.union", "corollary.difference", "sign-area.ratio",
            "sign-area.lower-bound", "shape.amplitude",
            } <= {r.experiment_id for r in unconverged}
    assert all(r.verdict == "fail" for r in unconverged)


def test_verify_corollaries_small_window():
    cfg = ExperimentConfig(**SMALL)
    reports = harness.verify_corollaries(cfg)
    ids = [r.experiment_id for r in reports]
    assert "corollary.union" in ids
    assert "corollary.difference" in ids
    assert "corollary.coverage" in ids  # x = y = pi/2 case
    cov = [r for r in reports if r.experiment_id == "corollary.coverage"][0]
    assert cov.verdict == "pass"


def test_sign_area_requires_equal_angles():
    with pytest.raises(ValueError):
        harness.verify_sign_area(ExperimentConfig(x=1.0, y=0.5))


def test_separation_report_passes_at_default_window():
    [r] = harness.verify_separation(ExperimentConfig())
    assert r.paper_eq == "1.8"
    assert r.verdict == "pass"
    assert r.metadata["rho"] > 0
    # pi(1e6) = 78498
    assert r.metadata["predicted_rho"] == (1.0 - ladder.EULER_GAMMA) * 78498


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def _argv(cmd, out, *extra):
    return [cmd, "--T", "1e3", "--H", "25", "--out", str(out), *extra]


def test_cli_grid_and_gsets(tmp_path):
    assert run_cli(_argv("grid", tmp_path)) == 0
    assert (tmp_path / "grid.csv").exists()
    assert run_cli(_argv("gsets", tmp_path)) == 0
    assert (tmp_path / "g1.csv").exists()
    assert (tmp_path / "g2.json").exists()


def test_cli_ladder_and_integrate(tmp_path):
    assert run_cli(_argv("ladder", tmp_path)) == 0
    assert (tmp_path / "ladder-ode.csv").exists()
    assert run_cli(_argv("integrate", tmp_path, "--set", "g2")) == 0


def test_cli_ladder_tabulates_only_the_mirrored_window(tmp_path):
    # Z~^2 has mean value about 1, so the window's mirror is about H wide
    assert run_cli(_argv("ladder", tmp_path)) == 0
    rows = np.loadtxt(tmp_path / "ladder-ode.csv", delimiter=",", skiprows=2)
    assert 25 <= len(rows) <= 1.2 * 25 + 2


def test_cli_ode_ladder_table_spans_the_mirrored_window(tmp_path):
    assert run_cli(_argv("ladder", tmp_path)) == 0
    rows = np.loadtxt(tmp_path / "ladder-ode.csv", delimiter=",", skiprows=2)
    ode = harness.ExperimentContext(ExperimentConfig(T=1e3, H_override=25.0)).ladder
    assert rows[0, 0] == ode.invert(1e3)
    assert rows[-1, 0] == ode.invert(1e3 + 25.0)
    assert rows[0, 1] == pytest.approx(1e3, abs=1e-6)
    assert rows[-1, 1] == pytest.approx(1e3 + 25.0, abs=1e-6)
    assert np.diff(rows[:, 0]).max() <= 1.0 + 1e-12


def test_cli_usage_error_exit_2():
    assert run_cli(["no-such-command"]) == 2
    assert run_cli([]) == 2


@pytest.mark.parametrize("cmd, flag, value", [
    pytest.param("verify-theorem", "--x", "5", id="--x-5"),
    pytest.param("verify-theorem", "--abs-tol", "nan", id="--abs-tol-nan"),
    pytest.param("sign-area", "--x", "1.0", id="sign-area-x-not-y"),
    # a window with no G1 or no G2 interval
    *(pytest.param(cmd, "--H", "0.1", id=f"{cmd}-empty-g-sets")
      for cmd in ("verify-theorem", "verify-corollaries", "sign-area",
                  "scan-shape", "integrate")),
])
def test_cli_bad_config_value_exits_2(tmp_path, capsys, cmd, flag, value):
    # a bad value is a usage error (2), not a failed verdict (1)
    assert run_cli(_argv(cmd, tmp_path, flag, value)) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert not list(tmp_path.glob("*.json"))


@pytest.mark.parametrize("cmd", ["grid", "gsets", "ladder", "verify-separation"])
def test_cli_commands_without_integrals_run_on_empty_g_sets(tmp_path, cmd):
    assert run_cli([cmd, "--T", "1e6", "--H", "0.1",
                    "--out", str(tmp_path)]) == 0


def test_cli_verify_separation(tmp_path):
    assert run_cli(["verify-separation", "--T", "1e6", "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "verify-separation.json").read_text())
    [row] = payload["reports"]
    assert row["paper_eq"] == "1.8"
    assert row["verdict"] == "pass"


def test_cli_verify_separation_memory_at_top_of_range(tmp_path):
    # the sieve takes T/2 bytes: at T = 9.9e7 about 50 MB over the import.
    # VmHWM is the peak of the child's own address space; ru_maxrss would
    # carry over the peak of the forking test process through exec
    script = ("import pathlib, re, sys\n"
              "from zladder.cli import run_cli\n"
              "rc = run_cli(sys.argv[1:])\n"
              "status = pathlib.Path('/proc/self/status').read_text()\n"
              "print(rc, re.search(r'VmHWM:\\s*(\\d+) kB', status).group(1))\n")
    src = str(Path(zladder.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run(
        [sys.executable, "-c", script, "verify-separation", "--T", "9.9e7",
         "--H", "300", "--out", str(tmp_path)],
        env=env, capture_output=True, text=True, check=True)
    rc, peak_rss_kb = map(int, out.stdout.split()[-2:])
    assert rc == 0
    assert peak_rss_kb / 1024.0 <= 150.0


def test_cli_verify_theorem_writes_report(tmp_path):
    code = run_cli(_argv("verify-theorem", tmp_path))
    assert code in (0, 1)  # small-window mean-value rows may legitimately miss
    payload = json.loads((tmp_path / "verify-theorem.json").read_text())
    assert payload["config"]["T"] == 1e3
    assert len(payload["reports"]) == 6


def test_cli_deterministic_rerun(tmp_path):
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    run_cli(_argv("verify-theorem", a_dir))
    run_cli(_argv("verify-theorem", b_dir))

    def normalized(d):
        payload = json.loads((d / "verify-theorem.json").read_text())
        payload.pop("created")
        payload.pop("runtime_seconds")
        payload["config"].pop("output_dir")
        return json.dumps(payload, sort_keys=True)

    assert normalized(a_dir) == normalized(b_dir)


def test_cli_report_merges(tmp_path):
    run_cli(_argv("verify-theorem", tmp_path))
    assert run_cli(["report", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "summary.csv").read_text().splitlines()
    assert lines[0].startswith("T,H,x,y,experiment_id")
    assert len(lines) == 7  # header + six theorem rows


def test_cli_report_skips_interval_files(tmp_path):
    # gsets writes g1.json and g2.json next to the report files
    assert run_cli(["verify-separation", "--T", "1e6", "--out", str(tmp_path)]) == 0
    assert run_cli(_argv("gsets", tmp_path)) == 0
    assert run_cli(["report", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "summary.csv").read_text().splitlines()
    assert len(lines) == 2 and ",separation.rho," in lines[1]


def test_cli_report_empty_dir(tmp_path):
    assert run_cli(["report", "--out", str(tmp_path / "empty")]) == 1
