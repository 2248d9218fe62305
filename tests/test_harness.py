"""Experiment configs, report records, file outputs, and the CLI."""

import dataclasses
import json
import math

import numpy as np
import pytest

from zladder import harness, ladder, rscore
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
    assert cfg.ladder_kind == "ode"


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(x=0.0)
    with pytest.raises(ValueError):
        ExperimentConfig(y=2.0)
    with pytest.raises(ValueError):
        ExperimentConfig(ladder_kind="exact")
    with pytest.raises(ValueError):
        ExperimentConfig(T=100.0)


def test_config_from_file_and_overrides(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text(
        "# comment\n"
        "T = 2e6\n"
        "H_override = 500\n"
        "x = 1.0\n"
        "rel_tol = 1e-6\n"
        "correction_terms = 1\n"
    )
    cfg = config_from_file(p)
    assert cfg.T == 2e6
    assert cfg.window.H == 500.0
    assert cfg.x == 1.0
    assert cfg.quad.rel_tol == 1e-6
    assert cfg.rs.correction_terms == 1
    over = config_from_file(p, {"T": "3e6", "y": 0.5})
    assert over.T == 3e6
    assert over.y == 0.5


def test_config_file_rejects_unknown_key(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("tee = 1\n")
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
                error_estimate=0.0, paper_eq="1.5", verdict="pass",
                tolerance=0.1)
    base.update(kw)
    return VerificationReport(**base)


def test_report_eq_tag_vocabulary():
    for tag in EQ_TAGS:
        assert _report(paper_eq=tag).paper_eq == tag
    with pytest.raises(ValueError):
        _report(paper_eq="5.1")


def test_report_verdict_consistency():
    with pytest.raises(ValueError):
        _report(measured=2.0, verdict="pass")  # |2-1| > 0.1
    with pytest.raises(ValueError):
        _report(verdict="fail")  # |1-1| <= 0.1
    with pytest.raises(ValueError):
        _report(verdict="maybe")
    assert _report(measured=5.0, verdict="informative").verdict == "informative"


def test_report_pass_requires_converged_integrals():
    with pytest.raises(ValueError):
        _report(metadata={"converged": False})
    assert _report(verdict="fail", metadata={"converged": False}).verdict == "fail"
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


def test_ode_ladder_calls_no_kernel_after_build(monkeypatch):
    ctx = harness.ExperimentContext(ExperimentConfig(**SMALL))
    m = ctx.ode
    kernel = rscore.hardy_z_many
    points = []

    def counting(t, *args, **kwargs):
        points.append(np.size(t))
        return kernel(t, *args, **kwargs)

    monkeypatch.setattr(rscore, "hardy_z_many", counting)
    ts = np.linspace(m.lo, m.hi, 1001)
    m.invert(m.eval(ts)[1:-1])
    ctx.mirrored(ctx.g1)
    assert sum(points) == 0
    ctx.pushforward_z(ts)
    assert sum(points) == 2 * ts.size


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


def test_ode_ladder_built_only_when_used(monkeypatch, tmp_path):
    builds = _count_calls(monkeypatch, ladder, "ladder_ode")
    cfg = ExperimentConfig(**SMALL)
    harness.scan_shape(cfg)
    assert run_cli(_argv("integrate", tmp_path)) == 0
    assert run_cli(_argv("ladder", tmp_path, "--ladder", "asymptotic")) == 0
    assert run_cli(_argv("verify-theorem", tmp_path, "--ladder", "asymptotic")) in (0, 1)
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
    _, shape = harness.scan_shape(cfg)
    rows = harness.verify_theorem(cfg) + [shape]
    unconverged = [r for r in rows if r.metadata["converged"] is False]
    assert {"theorem.g1-substitution", "theorem.g2-substitution",
            "shape.amplitude"} <= {r.experiment_id for r in unconverged}
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


def test_scan_shape_validation():
    cfg = ExperimentConfig(**SMALL)
    with pytest.raises(ValueError):
        harness.scan_shape(cfg, x_grid=[0.1, 0.2])
    with pytest.raises(ValueError):
        harness.scan_shape(cfg, x_grid=[0.0] + [0.1 * k for k in range(1, 8)])


def test_separation_report_passes_at_default_window():
    r = harness.separation_report(ExperimentConfig())
    assert r.paper_eq == "1.8"
    assert r.verdict == "pass"
    assert r.metadata["rho"] > 0


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
    assert run_cli(_argv("ladder", tmp_path, "--ladder", "asymptotic")) == 0
    assert (tmp_path / "ladder-asymptotic.csv").exists()
    assert run_cli(_argv("integrate", tmp_path, "--set", "g2")) == 0


def test_cli_usage_error_exit_2():
    assert run_cli(["no-such-command"]) == 2
    assert run_cli([]) == 2


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


def test_cli_report_empty_dir(tmp_path):
    assert run_cli(["report", "--out", str(tmp_path / "empty")]) == 1
