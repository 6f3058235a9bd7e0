"""Runs every workload once at reduced size, untraced and traced.

    python3 -m pytest perfbench/test_bench.py

Each run must print every metric BENCHMARK.json names, with its unit, and
fail no operation. The benchmark must refuse to run without the program.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFINITION = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
# rolling-4x is not in BENCHMARK.json (too unsteady to gate) but still runs.
WORKLOADS = ("cli-paper", "analysis-4x", "rolling-4x")
COUNTS = ("eigen.solves", "eigen.dense_solves", "panel.bytes_read", "model.json_bytes", "model.dense_mb")


def run_bench(workload: str, trace: int, root: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", str(trace), "--quick"],
        cwd=root, capture_output=True, text=True, timeout=600,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_and_no_operation_failed(workload, trace):
    result = result_of(run_bench(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = DEFINITION["per_layer" if trace else "end_to_end"]
    printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in wanted}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_counts_repeat_exactly():
    first, second = (result_of(run_bench("cli-paper", 1))["metrics"] for _ in range(2))
    for name in COUNTS:
        assert first[name]["value"] == second[name]["value"] > 0, name


def test_refuses_to_run_without_the_program():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run_bench("cli-paper", 0, root=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
