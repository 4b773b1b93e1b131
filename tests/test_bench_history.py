"""The committed throughput trajectory in BENCH_sim.json."""

from repro.bench import with_history


def run_doc(eps):
    return {"schema": "repro.bench/v1", "mode": "full",
            "workloads": {"single": {"cycles": 1, "repeats": 1,
                                     "events_executed": 100,
                                     "wall_seconds": 100 / eps,
                                     "events_per_second": eps}}}


class TestWithHistory:
    def test_first_entry_starts_trajectory(self):
        merged = with_history(run_doc(1000.0), None, "pr-a")
        assert [e["label"] for e in merged["history"]] == ["pr-a"]
        entry = merged["history"][0]["workloads"]["single"]
        assert entry["events_per_second"] == 1000.0
        assert set(entry) == {"events_executed", "events_per_second",
                              "wall_seconds"}

    def test_history_accumulates_in_order(self):
        first = with_history(run_doc(1000.0), None, "pr-a")
        second = with_history(run_doc(2000.0), first, "pr-b")
        assert [e["label"] for e in second["history"]] == ["pr-a", "pr-b"]
        # the top-level workloads block is always the latest run
        assert second["workloads"]["single"]["events_per_second"] == 2000.0

    def test_pre_change_baseline_carried_forward(self):
        previous = dict(with_history(run_doc(1000.0), None, "pr-a"),
                        pre_change_baseline={"note": "hand-measured"})
        merged = with_history(run_doc(2000.0), previous, "pr-b")
        assert merged["pre_change_baseline"] == {"note": "hand-measured"}

    def test_input_documents_not_mutated(self):
        document = run_doc(1000.0)
        previous = with_history(run_doc(500.0), None, "pr-a")
        with_history(document, previous, "pr-b")
        assert "history" not in document
        assert len(previous["history"]) == 1


class TestRepeatsOverride:
    def test_repeat_must_be_positive(self):
        import pytest

        from repro.bench import run_benchmarks
        with pytest.raises(ValueError, match="repeats"):
            run_benchmarks(quick=True, repeats=0)


class TestBreakdownClassification:
    """The --breakdown attribution rules, pinned without profiling."""

    def test_batched_module_is_core(self):
        # batched.py hosts only the fused core; the LLC lookup and the
        # controller dispatch it used to copy are attributed by module.
        from repro.bench import _classify
        path = "/x/src/repro/sim/batched.py"
        assert _classify(path, "_run") == "core"
        assert _classify(path, "_next_row") == "core"
        assert _classify("/x/src/repro/sim/llc.py", "lookup") == "llc"
        assert _classify("/x/src/repro/sim/memctrl.py", "_dispatch") \
            == "memctrl+dram"
        assert _classify("/x/src/repro/dram/device.py", "service") \
            == "memctrl+dram"

    def test_module_rules(self):
        from repro.bench import _classify
        assert _classify("/x/src/repro/sim/engine.py", "run") == "engine"
        assert _classify("~", "<built-in method _heapq.heappush>") \
            == "engine"
        assert _classify("~", "<built-in method _heapq.heappop>") \
            == "engine"
        assert _classify("/x/src/repro/sim/llc.py", "lookup") == "llc"
        assert _classify("/x/src/repro/core/shaper.py", "issue") == "shaper"
        assert _classify("/x/src/repro/sim/stats.py", "add") == "stats"
        assert _classify("/usr/lib/python3.11/heapq.py", "x") == "other"
        assert _classify("~", "<built-in>") == "other"
