"""Tests of the benchmark itself, each workload at a tiny size.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

from perfbench import child, run
from perfbench.workloads import SIZES, WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
TINY = SIZES["tiny"]

#: per-layer counters read from the simulation, exact for a given seed
SIMULATED = ("sim.cycles", "sim.events", "core.accesses", "core.retired",
             "core.memory_stall_cycles", "llc.hits", "llc.misses",
             "dram.requests", "dram.writebacks", "dram.row_hit_rate",
             "mc.peak_queue_depth", "mc.backpressure_events",
             "shaper.stall_cycles", "shaper.released", "shaper.refunds",
             "macrotick.eligible_systems", "checkpoint.bytes")


def cli(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    env = {key: value for key, value in os.environ.items()
           if key != "PYTHONPATH"}
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=600)


def test_metric_tables_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] \
        == list(run.WORKLOADS) == list(WORKLOADS)
    assert spec["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_workload_matches_heap_oracle(name, tmp_path):
    workload = WORKLOADS[name]
    outcome = workload.run(workload.setup(3, TINY, tmp_path))
    assert outcome.ops >= 1 and outcome.sim_cycles > 0
    assert workload.digests(outcome) == workload.oracle(3, TINY, tmp_path)


def test_plain_cli_run_prints_every_end_to_end_metric():
    proc = cli("--workload", "shaped-replay", "--seed", "3", "--seconds",
               "1", "--trace", "0", "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= run.MIN_TRIALS
    assert list(result["metrics"]) == [name for name, _, _ in run.END_TO_END]
    printed = proc.stdout.splitlines()[1:-1]
    for (name, unit, _better), line in zip(run.END_TO_END, printed):
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0
        assert line.split()[0] == name and line.split()[2] == unit


def test_traced_cli_run_reports_layers_and_nested_spans():
    proc = cli("--workload", "campaign-drain", "--seed", "3", "--seconds",
               "1", "--trace", "1", "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [name for name, _, _ in run.PER_LAYER]
    assert result["metrics"]["fabric.claims"]["value"] > 0
    assert result["metrics"]["checkpoint.saves"]["value"] > 0

    spans = json.loads(
        (child.OUT_DIR / "spans-campaign-drain-seed3.json").read_text())
    by_id = {span["id"]: span for span in spans}
    children = defaultdict(float)
    for span in spans:
        assert span["start"] <= span["end"]
        if span["parent"] is None:
            assert span["name"] in ("bench.setup", "bench.timed")
            continue
        parent = by_id[span["parent"]]
        assert parent["start"] <= span["start"]
        assert span["end"] <= parent["end"]
        children[span["parent"]] += span["end"] - span["start"]
    for span in spans:
        assert span["end"] - span["start"] - children[span["id"]] >= 0
    names = {span["name"] for span in spans}
    assert {"runner.run", "fabric.claim", "checkpoint.save",
            "workloads.synth", "sim.build", "sim.run"} <= names


def test_simulated_layer_counters_repeat_exactly(tmp_path):
    workload = WORKLOADS["shaped-replay"]
    runs = []
    for attempt in range(2):
        result = child.run_trial(workload, TINY, 3, tmp_path, 0.0,
                                 trace_out=str(tmp_path / f"{attempt}.json"))
        runs.append({name: result["layers"][name] for name in SIMULATED})
    assert runs[0] == runs[1]
    assert runs[0]["shaper.stall_cycles"] > 0
    assert runs[0]["macrotick.eligible_systems"] == 1


def test_injected_digest_mismatch_counts_as_a_failure(monkeypatch, capsys):
    def fake_spawn(role, workload, seed, size, *extra):
        if role == "oracle":
            return {"digests": ["a", "b"], "spawned": 0.0}
        return {"digests": [["a", "corrupted"]], "spawned": 0.5,
                "setup_end": 1.0, "peak_rss_mb": 50.0, "extras": {},
                "reps": [{"wall_s": 1.0, "ops": 1, "sim_cycles": 10}]}

    monkeypatch.setattr(run, "spawn", fake_spawn)
    assert run.main(["--workload", "sched-mix8", "--seed", "1",
                     "--seconds", "0"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] is False
    assert result["attempted"] == 2 * run.MIN_TRIALS
    assert result["failed"] == run.MIN_TRIALS


def test_missing_digest_counts_as_a_failure():
    assert run.check(["a", "b"], {"digests": [["a"]]}) == (2, 1)
    assert run.check(["a"], {"digests": [["a"], ["a"]]}) == (2, 0)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = cli("--workload", "ga-tune", "--seed", "1", "--seconds", "1",
               "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
