"""Tests of the benchmark harness itself; run with

    python -m pytest bench/test_smoke.py
"""

import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "bench", "run.py")


def test_smoke_runs_every_workload_and_the_trace():
    proc = subprocess.run([sys.executable, RUN, "--smoke"], cwd=ROOT, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    *_, summary, result = proc.stdout.strip().splitlines()
    result, summary = json.loads(result), json.loads(summary)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    timed = {r["workload"]: r for r in summary["reports"] if "end_to_end" in r}
    traced = {r["workload"]: r for r in summary["reports"] if "per_layer" in r}
    assert set(timed) == set(traced) == {"maze_anneal", "flat_maze"}
    for name in timed:
        assert timed[name]["end_to_end"]["iter_s_p50"] > 0
        assert traced[name]["per_layer"]["envs.point.step.calls"] > 0
        assert traced[name]["per_layer"]["trpo.update.ms"] > 0
        assert traced[name]["fingerprints"] == timed[name]["fingerprints"]
    assert traced["maze_anneal"]["layers"]["hierarchy.collect_rollouts.ms"] > 0
    assert traced["flat_maze"]["layers"]["hierarchy.collect_rollouts.ms"] == 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(os.path.join(ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, str(tmp_path / "bench" / "run.py"),
                           "--workload", "flat_maze", "--seed", "0", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
