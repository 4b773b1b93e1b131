"""CLI coverage for ``python -m repro.bench`` (golden-free).

Pins exit codes and the shape of the ``BENCH_sim.json`` document -- the
schema tag, per-workload keys, history append, baseline comparison
verdicts -- without asserting any machine-dependent throughput numbers.
Every invocation uses ``--quick --workload single`` with one repeat, so
the whole module times one small deterministic simulation a handful of
times.
"""

import json

import pytest

from repro.bench import (QUICK_CYCLES, SCHEMA, compare_to_baseline,
                         run_benchmarks)
from repro.bench.__main__ import main as bench_main

FAST = ["--quick", "--workload", "single", "--repeat", "1"]


class TestTimingRun:
    def test_exit_zero_and_document_schema(self, tmp_path, capsys):
        out = tmp_path / "BENCH_sim.json"
        assert bench_main(FAST + ["--output", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "events/sec" in printed and f"wrote {out}" in printed

        document = json.loads(out.read_text())
        assert document["schema"] == SCHEMA
        assert document["mode"] == "quick"
        assert set(document["workloads"]) == {"single"}
        entry = document["workloads"]["single"]
        assert entry["cycles"] == QUICK_CYCLES
        assert entry["repeats"] == 1
        assert entry["events_executed"] > 0
        assert entry["wall_seconds"] > 0
        assert entry["events_per_second"] > 0
        assert len(entry["wall_seconds_all"]) == 1

    def test_no_output_writes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert bench_main(FAST + ["--no-output"]) == 0
        assert list(tmp_path.iterdir()) == []

    def test_label_appends_history(self, tmp_path):
        out = tmp_path / "BENCH_sim.json"
        assert bench_main(FAST + ["--output", str(out),
                                  "--label", "first"]) == 0
        assert bench_main(FAST + ["--output", str(out),
                                  "--label", "second"]) == 0
        history = json.loads(out.read_text())["history"]
        assert [h["label"] for h in history] == ["first", "second"]
        assert history[-1]["workloads"]["single"]["events_executed"] > 0

    def test_rejects_unknown_workload(self):
        with pytest.raises(SystemExit):
            bench_main(["--workload", "nonexistent"])

    def test_rejects_zero_repeats(self):
        with pytest.raises(ValueError, match="repeats must be >= 1"):
            run_benchmarks(quick=True, workload_names=["single"], repeats=0)


class TestBreakdown:
    def test_cli_prints_subsystem_attribution(self, capsys):
        assert bench_main(["--quick", "--workload", "single",
                           "--breakdown"]) == 0
        printed = capsys.readouterr().out
        assert "s profiled" in printed
        # at least the big three subsystems appear with percentages
        for subsystem in ("engine", "core"):
            assert subsystem in printed
        assert "%" in printed


class TestBaselineComparison:
    def _results(self):
        return run_benchmarks(quick=True, workload_names=["single"],
                              repeats=1)

    def test_improvement_passes(self):
        results = self._results()
        baseline = {"workloads": {"single": {"events_per_second": 1.0}}}
        comparison = compare_to_baseline(results, baseline, 0.15)
        assert comparison["ok"] is True
        assert comparison["workloads"]["single"]["change"] > 0

    def test_regression_fails(self):
        results = self._results()
        baseline = {"workloads": {
            "single": {"events_per_second": 1e15}}}
        comparison = compare_to_baseline(results, baseline, 0.15)
        assert comparison["ok"] is False
        assert comparison["workloads"]["single"]["ok"] is False

    def test_unknown_baseline_workloads_are_skipped(self):
        results = self._results()
        baseline = {"workloads": {"renamed": {"events_per_second": 5.0}}}
        comparison = compare_to_baseline(results, baseline, 0.15)
        assert comparison["workloads"] == {}
        assert comparison["ok"] is True

    def test_cli_exit_one_on_regression(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(
            {"workloads": {"single": {"events_per_second": 1e15}}}))
        code = bench_main(FAST + ["--no-output",
                                  "--baseline", str(baseline)])
        assert code == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_cli_exit_zero_on_improvement(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(
            {"workloads": {"single": {"events_per_second": 1.0}}}))
        code = bench_main(FAST + ["--no-output",
                                  "--baseline", str(baseline)])
        assert code == 0
        assert "[ok]" in capsys.readouterr().out
