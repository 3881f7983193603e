"""Smoke test of the benchmark at toy size: output schema and metric names only.

It sets no time bounds and does not require ``correct``: toy inputs train
for two steps, so the accuracy checks are expected to fail.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
ENVIRONMENT_KEYS = {"git_sha", "python", "numpy", "blas", "thread_env", "nproc",
                    "cpus_usable", "platform", "workload"}


def run_bench(cwd: Path, script: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_result_line_schema(tmp_path, workload, trace):
    proc = run_bench(tmp_path, BENCH / "run.py", "--workload", workload, "--seed", "3",
                     "--seconds", "1", "--trace", str(trace), "--toy")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["correct"], bool)
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"]
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    for m in result["metrics"].values():
        assert set(m) == {"value", "unit"}
        assert isinstance(m["value"], (int, float))

    record = json.loads((tmp_path / ".bench_work" / f"{workload}-seed3-trace{trace}"
                         / "results.json").read_text(encoding="utf-8"))
    assert set(record["environment"]) == ENVIRONMENT_KEYS
    assert record["environment"]["workload"]["seed"] == 3
    assert record["result"] == result
    assert (tmp_path / ".bench_work" / f"{workload}-seed3-trace{trace}"
            / "spans.jsonl").exists() == bool(trace)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(BENCH.parent / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, tmp_path / "bench" / "run.py", "--workload", "build",
                     "--seed", "0", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
