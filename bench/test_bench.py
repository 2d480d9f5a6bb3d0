"""Smoke test of the benchmark: tiny-size runs emit exactly the metrics BENCHMARK.json declares.

    python -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from layers import COUNTS, PER_LAYER
from run import END_TO_END
from workloads import ROOT, WORKLOADS

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def smoke(workload: str, trace: int, root: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=170)


def test_tables_match_benchmark_json():
    assert sorted(w["name"] for w in DECLARED["workloads"]) == sorted(WORKLOADS)
    declared = {m["name"]: (m["unit"], m["better"]) for m in DECLARED["end_to_end"]}
    assert declared == {name: (unit, better) for name, unit, better in END_TO_END}
    declared = {m["name"]: (m["unit"], m["better"]) for m in DECLARED["per_layer"]}
    assert declared == {name: (unit, better) for name, unit, better in PER_LAYER}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_emits_declared_metrics(workload, trace):
    proc = smoke(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_counts_repeat_between_runs():
    first, second = (json.loads(smoke("fig3_sweep", 1).stdout.splitlines()[-1])["metrics"] for _ in range(2))
    counts = [name for name, _, _ in PER_LAYER if name.endswith(".calls") or name in COUNTS]
    assert {n: first[n]["value"] for n in counts} == {n: second[n]["value"] for n in counts}


def test_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = smoke("fig3_sweep", 0, root=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
