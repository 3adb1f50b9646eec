"""End-to-end runs of the benchmark at smoke sizes."""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def test_smoke_run_checks_every_workload_traced_and_untraced():
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--smoke", "--trace", "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    results = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    assert [r["correct"] for r in results] == [True, True, True]
    formulas, toric, cli = (r["metrics"] for r in results)
    assert formulas["paths.candidates_scored"]["value"] == 0
    assert toric["paths.candidates_scored"]["value"] > 0
    assert [m["capacities.disk_cache.entries"]["value"] > 0 for m in (formulas, toric, cli)] \
        == [False, False, True]
    assert cli["cli.startup_s"]["value"] > 0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "formulas",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
