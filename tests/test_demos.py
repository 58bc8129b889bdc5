"""Smoke test: every demo runs to the end."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import bectube

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("demo", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_exits_zero(demo, tmp_path):
    src = str(Path(bectube.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, str(DEMOS / demo)], cwd=tmp_path,
                          env=env, capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
