"""Tests of the benchmark harness itself (not of coreglab's speed).

    python3 -m pytest bench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_spec_matches_harness():
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == workloads.WHY
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == [
        (name, unit) for name, unit, _ in tracing.LAYER_METRICS]
    assert "setup_s" in {m["name"] for m in SPEC["end_to_end"]}


def test_train_rows_counts_partial_epochs():
    assert workloads.train_rows(100, 4, 64) == 200
    assert workloads.train_rows(100, 3, 64) == 164
    assert workloads.train_rows(2000, 1280, 64) == 80000


def test_smoke_runs_every_workload_untraced_and_traced():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.splitlines()
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert len(lines) == 2 * len(SPEC["workloads"])
    assert all(line.endswith(": ok") for line in lines)


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", SPEC["workloads"][0]["name"],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_probe_speed_uses_chunks_started_within_the_interval():
    from reference import REFERENCE_S, Probe

    probe = Probe()
    probe.samples = [(0.0, 4 * REFERENCE_S), (1.0, REFERENCE_S), (2.0, 3 * REFERENCE_S)]
    assert probe.speed(0.5, 2.5) == 0.5
    assert probe.speed(1.2, 1.8) == 1.0
