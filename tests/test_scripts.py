"""Smoke runs of the scripts under ``scripts/`` on small datasets."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name: str, *args: str) -> list[str]:
    """Run ``scripts/<name>`` in a fresh interpreter; returns its stdout lines."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_run_pipeline_prints_a_delay_row_per_day():
    lines = run_script("run_pipeline.py", "--days", "12", "--components", "2")
    header = lines.index(f"{'day':>12} {'nominal':>9} {'seg':>9} {'seg+par':>9} {'bound':>9}")
    rows = [line.split() for line in lines[header + 1: header + 4]]
    assert [r[0] for r in rows] == ["above-avg", "below-avg", "typical"]
    for row in rows:
        nominal, seg, seg_params, bound = map(float, row[1:])
        assert 0.0 < bound <= min(nominal, seg, seg_params)


def test_sweep_components_prints_a_row_per_count():
    lines = run_script("sweep_components.py", "--days", "12", "--max-components", "2")
    header = lines.index(f"{'k':>3} {'mean decrease':>14} {'positive days':>14}")
    rows = [line.split() for line in lines[header + 1:]]
    assert [r[0] for r in rows] == ["1", "2"]
    for _, decrease, positive in rows:
        float(decrease)
        n_positive, n_days = map(int, positive.split("/"))
        assert n_days == 12 and 0 <= n_positive <= 12
