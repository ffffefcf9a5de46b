"""Smoke test of the benchmark itself, at tiny sizes.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace),
         "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_prints_every_metric_and_evaluates_every_gate(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}

    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    assert all(isinstance(m["value"], (int, float))
               for m in result["metrics"].values())

    # each realization is gated: failures are gate misses, not exceptions,
    # and every one is listed with its seed
    failures = [ln for ln in lines if ln.startswith("# failure:")]
    assert result["attempted"] >= 1
    assert result["failed"] == len(failures)
    assert result["correct"] == (result["failed"] == 0)
    assert all(" gate:" in ln and "master_seed=" in ln for ln in failures)
    assert any(ln.startswith("# fail_rate ") for ln in lines)
    env = json.loads(next(ln for ln in lines if ln.startswith("# env "))[6:])
    for key in ("numpy", "scipy", "blas", "OPENBLAS_NUM_THREADS",
                "OMP_NUM_THREADS", "nproc", "threads", "seed", "numba"):
        assert key in env


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
