"""Smoke test: the demos that write no files, and README's Quick start, run
to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "demo", ["01_rowsum_matrix_walkthrough.py", "02_graph_bounds_tour.py", "README.md"]
)
def test_demo_runs(demo):
    if demo == "README.md":  # its first python block, the Quick start
        args = ["-c", (ROOT / demo).read_text().split("```python\n", 1)[1].split("```", 1)[0]]
    else:
        args = [str(ROOT / "demos" / demo)]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, *args],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
