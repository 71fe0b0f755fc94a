"""Smoke tests of the benchmark itself, at tiny run lengths.

    python3 -m pytest perfbench/test_perfbench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_named_metric_is_emitted(workload, trace):
    out = bench("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert any(line.startswith("# env ") for line in out.stdout.splitlines())


def test_corrupted_output_is_counted(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(HERE))
    import dwfnet.wigner
    import workloads

    original = dwfnet.wigner.rho_from_dwf

    def corrupted(w, net):
        state = original(w, net)
        nudge = np.zeros_like(state.rho)
        nudge[0, 0], nudge[1, 1] = 1e-6, -1e-6
        return dwfnet.wigner.DensityState(state.n, state.rho + nudge)

    monkeypatch.setattr(dwfnet.wigner, "rho_from_dwf", corrupted)
    result = workloads.run_stream(seed=3, seconds=0.2, mode="untraced")
    assert result["attempted"] > 0
    # one failed round-trip check per net, on each state's oracle-checked round
    assert result["failed"] == workloads.STREAM_STATES * workloads.N4_NETS


def test_cli_check_rejects_changed_output():
    sys.path.insert(0, str(HERE))
    import run

    req = {"code": 0, "stdout": '{"n": 1, "net": 0, "w": [0.25, 0.25, 0.25, 0.25]}\n'}
    assert run.cli_ok(req, 0, req["stdout"])
    assert not run.cli_ok(req, 0, req["stdout"].replace("0.25]", "0.26]"))
    assert not run.cli_ok(req, 2, "")


def test_scaled_pass_uses_the_host_speed_of_its_pass():
    sys.path.insert(0, str(HERE))
    import hostspeed
    import run

    nominal = hostspeed.NOMINAL_S
    # reference samples at twice the nominal time: the host ran at half speed
    busy, durations = run.scaled_pass({"durations": [0.2, None, 0.4],
                                       "refs": [2 * nominal, 3 * nominal, nominal]})
    assert busy == pytest.approx(0.3) and durations == pytest.approx([0.1, 0.2])
    # census passes carry their busy time, which holds more than the items
    busy, _ = run.scaled_pass({"durations": [0.2], "busy_s": 0.5, "refs": [nominal]})
    assert busy == pytest.approx(0.5)


def test_cli_expectation_comes_from_the_cli(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(HERE))
    import cli_step

    code, out = cli_step.run_cli(["nets", "--n", "2", "--describe", "5"], "")
    assert (code, out) == (0, '{"id": 5, "digits": [0, 0, 0, 1, 1]}\n')
    assert cli_step.run_cli(["to-rho"], "{")[0] == 2


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = bench("--workload", "census", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
