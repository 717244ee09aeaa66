"""The benchmark's set-up probe runs against the package in src/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("cached", [False, True], ids=["no-cache", "cache-dir"])
def test_setup_probe_prints_one_float(tmp_path, cached):
    argv = [sys.executable, str(ROOT / "perfbench" / "setup_probe.py"),
            "spin_half", "2", "3"]
    if cached:
        argv.append(str(tmp_path / "cache"))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 1, proc.stdout
    assert float(lines[0]) > 0
