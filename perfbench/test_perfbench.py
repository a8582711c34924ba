"""Smoke tests of the benchmark: ``python3 -m pytest perfbench -q``.

Each workload runs once untraced and once traced with ``--smoke``
(tiny inputs, one set-up); the result line must carry exactly the
metrics ``BENCHMARK.json`` names, with no failed operation.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

#: Per-layer metrics each workload must drive above zero.
BUSY = {
    "gate_estimate": ["fastsim.collect_s", "fastsim.gate_cycles_per_s",
                      "fasttimer.activity_s", "backend.resolve_calls",
                      "estimator.self_s"],
    "opt_sweep": ["incremental.delta_s", "incremental.cone_keys_s",
                  "incremental.calls", "store.puts", "store.gets",
                  "store.disk_mb", "search.map_s", "search.job_s",
                  "search.pool_efficiency"],
    "serve_batch": ["serve.request_s", "serve.job_ms", "serve.wait_ms",
                    "serve.store_hit_ratio", "store.gets",
                    "probabilistic.density_s", "fastsim.compile_calls"],
    "isa_energy": ["machine.run_s", "machine.instructions",
                   "machine.encode_calls", "machine.encodes_per_instr"],
}


def run(workload: str, trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "0.5", "--trace", str(trace),
         "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    report = json.loads(lines[-2])
    assert report["error_rate"] == 0.0
    assert set(report["manifest"]) == {"nproc", "python", "numpy",
                                       "engine", "store_max_bytes"}
    return result


def test_spec_matches_code():
    from workloads import WORKLOADS as CODE

    assert WORKLOADS == list(CODE)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] \
        == layers.METRICS
    assert "setup_s" in [m["name"] for m in SPEC["end_to_end"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    metrics = result_of(run(workload, 0))["metrics"]
    assert [(k, v["unit"]) for k, v in metrics.items()] \
        == [(m["name"], m["unit"]) for m in SPEC["end_to_end"]]
    assert all(v["value"] > 0 for v in metrics.values()), metrics


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_every_per_layer_metric(workload):
    metrics = result_of(run(workload, 1))["metrics"]
    assert [(k, v["unit"]) for k, v in metrics.items()] == layers.METRICS
    idle = [name for name in BUSY[workload]
            if not metrics[name]["value"] > 0]
    assert not idle, idle


def test_fails_without_the_program(tmp_path):
    """A directory with only the benchmark files: no result, exit != 0."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("gate_estimate", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
