"""Smoke test of the benchmark: tiny inputs, every metric printed, every check passing.

    python3 -m pytest bench/test_smoke.py -q
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED, SIZE = 3, 12


@functools.lru_cache(maxsize=None)
def run(workload: str, trace: int) -> tuple[str, dict]:
    """(standard output, the run's full record) of a tiny run."""
    res = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--size", str(SIZE), "--seconds", "1",
         "--trace", str(trace)],
        capture_output=True, text=True, timeout=170)
    assert res.returncode == 0, res.stderr
    record = ROOT / ".bench_out" / f"{workload}-seed{SEED}-trace{trace}.json"
    return res.stdout, json.loads(record.read_text(encoding="utf-8"))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_named_metric_printed_and_every_check_passes(workload, trace):
    stdout, record = run(workload, trace)
    result = json.loads(stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert (result["correct"], result["attempted"], result["failed"]) == (True, SIZE, 0)
    assert record["messages"] == []
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    printed = {line.split()[0] for line in stdout.splitlines()[1:-1]}
    assert "failed_share" in printed
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
        extra = {"encode": {"item_p50_ms", "item_p99_ms"}, "ensemble": {"f05"}}
        assert extra.get(workload, set()) <= printed


def test_every_layer_metric_is_measured_by_some_workload():
    measured = set()
    for workload in WORKLOADS:
        measured |= set(run(workload, 1)[1]["metrics"])
    assert {m["name"] for m in SPEC["per_layer"]} <= measured


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    res = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert res.returncode != 0
    assert res.stdout == ""
