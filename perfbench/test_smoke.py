"""Smoke test of the benchmark at tiny sizes.

Runs every workload once untraced and once traced on graphs shrunk 50x
and checks that each run passes its correctness gate and prints every
metric BENCHMARK.json names, with its unit.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("gnm-kw", "powerlaw-pool", "forests-mpc", "fabric-batched")


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run_all(trace: int) -> dict:
    proc = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", "all",
            "--seed", "5", "--seconds", "1", "--trace", str(trace),
            "--scale", "0.02",
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    if "native kernel unavailable" in proc.stderr:
        pytest.skip("compiled wave kernel cannot be built on this host")
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in _spec()["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize(
    ("trace", "section"), [(0, "end_to_end"), (1, "per_layer")]
)
def test_every_workload_prints_every_metric(trace, section):
    result = _run_all(trace)
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= len(WORKLOADS)
    for workload in WORKLOADS:
        for m in _spec()[section]:
            printed = result["metrics"][f"{workload}/{m['name']}"]
            assert printed["unit"] == m["unit"]
            assert isinstance(printed["value"], (int, float))
