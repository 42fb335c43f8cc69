"""A whole benchmark run leaves nothing behind and reports every metric."""

import json
import multiprocessing
import shutil
import subprocess
import sys
import threading

import pytest

from perfbench import bench
from perfbench.workloads import SMOKE, WORKLOADS

from .conftest import ROOT


def declared(kind):
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


@pytest.mark.parametrize("trace", [False, True])
def test_run_is_clean_and_complete(trace, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    report = bench.run("fine_regulation", 5, 0.05, trace, SMOKE)
    assert report.correct, report.problems
    assert report.attempted >= SMOKE.sims
    assert multiprocessing.active_children() == []
    assert threading.enumerate() == [threading.main_thread()]
    # Nothing written to the working directory: no .repro_cache either.
    assert list(tmp_path.iterdir()) == []
    line = json.loads(report.result_line())
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    expected = declared("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in line["metrics"].items()} == expected


def test_layer_self_times_cover_traced_wall(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    metrics = bench.run("hog_contention", 2, 0.05, True, SMOKE).metrics
    layers = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert layers + metrics["unattributed_s"] == pytest.approx(
        metrics["traced_wall_s"]
    )
    assert 0 <= metrics["unattributed_s"] < 0.05 * metrics["traced_wall_s"]
    assert metrics["regulation.self_s"] == 0.0


def test_refuses_to_run_without_the_simulator(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mixed_rw",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_rationale_covers_every_workload_and_metric():
    with open(ROOT / "BENCHMARK.json") as fh:
        workloads = {w["name"] for w in json.load(fh)["workloads"]}
    with open(ROOT / "perfbench" / "rationale.json") as fh:
        rationale = json.load(fh)
    assert rationale["claim"] is None
    assert set(rationale["workloads"]) == workloads == set(WORKLOADS)
    assert set(rationale["per_layer"]) == set(declared("per_layer"))
    assert set(rationale["end_to_end"]) == set(declared("end_to_end")) | {
        "failed_frac"
    }
