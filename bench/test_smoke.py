"""Smoke test of the benchmark at its smallest size: one pass per workload.

    python3 -m pytest -q bench/test_smoke.py

Each run must verify every job against its recorded reference, so a change
that alters an exact answer fails here.
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent / "run.py"
SPEC = json.loads((RUN.parent.parent / "BENCHMARK.json").read_text())


def bench(workload, trace):
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, timeout=600,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_verifies(workload):
    result = bench(workload, trace=0)
    assert result["attempted"] >= 1
    assert result["failed"] / result["attempted"] == 0
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_layer_metric():
    result = bench("scripts", trace=1)
    assert result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert result["metrics"]["dsl.statements"]["value"] > 0
