"""Smoke test: every script under demos/ runs to completion."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import fifkit

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_runs(name, tmp_path):
    # run a copy, so a demo that writes next to itself (01 writes
    # out/four_piece.svg) leaves the tracked output alone
    script = shutil.copy(DEMOS / name, tmp_path)
    src = str(Path(fifkit.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
