"""The benchmark's probe (perfbench/probe.py) wraps zladder functions by
attribute name.  Installing and removing it here makes a renamed or deleted
name fail in the module tests, not only in a benchmark run."""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_probe_patches_existing_names_and_restores_them(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    probe = importlib.import_module("probe").Probe(1, trace=True)
    try:
        probe.install()
        saved = list(probe._saved)
        assert saved
        for owner, attr, original in saved:
            assert owner.__dict__[attr] is not original, (owner, attr)
    finally:
        probe.uninstall()
    for owner, attr, original in saved:
        assert owner.__dict__[attr] is original, (owner, attr)
