"""Each demo script runs to completion against the package in `src`."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


def _env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


@pytest.mark.parametrize("script", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(script):
    proc = subprocess.run(
        [sys.executable, str(script)],
        cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.skipif(shutil.which("bash") is None, reason="needs bash")
def test_cli_pipeline_demo_runs(tmp_path):
    # the shell demo calls `dwfnet`; a shim on PATH runs this interpreter's
    # copy of the CLI, so the test needs no installed console script
    shim = tmp_path / "dwfnet"
    shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m dwfnet.cli "$@"\n')
    shim.chmod(0o755)
    env = _env()
    env["PATH"] = os.pathsep.join([str(tmp_path), env.get("PATH", "")])
    proc = subprocess.run(
        ["bash", str(ROOT / "demos" / "05_cli_pipeline.sh")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "suites passed" in proc.stdout
