"""Tests for phase detection and trace file I/O."""

import io

import pytest

from repro.sim.system import SCALED_MULTI_CONFIG, SimSystem
from repro.workloads.benchmarks import trace_for
from repro.workloads.phases import (PhaseDetector, PhaseSample,
                                    SystemPhaseMonitor)
from repro.workloads.trace import ListTrace, TraceEvent
from repro.workloads.traceio import dump_trace, load_trace


class TestPhaseDetector:
    def test_stable_behaviour_no_changes(self):
        detector = PhaseDetector(threshold=0.5)
        for _ in range(20):
            assert not detector.observe(PhaseSample(0.01, 0.3))
        assert detector.changes == 0

    def test_sharp_change_detected_with_confirmation(self):
        detector = PhaseDetector(threshold=0.5, confirm=2)
        for _ in range(5):
            detector.observe(PhaseSample(0.01, 0.3))
        assert not detector.observe(PhaseSample(0.10, 0.9))  # 1st deviant
        assert detector.observe(PhaseSample(0.10, 0.9))      # confirmed
        assert detector.changes == 1

    def test_single_spike_ignored(self):
        detector = PhaseDetector(threshold=0.5, confirm=2)
        for _ in range(5):
            detector.observe(PhaseSample(0.01, 0.3))
        detector.observe(PhaseSample(0.10, 0.9))  # spike
        for _ in range(5):
            assert not detector.observe(PhaseSample(0.01, 0.3))
        assert detector.changes == 0

    def test_slow_drift_tracked_without_change(self):
        detector = PhaseDetector(threshold=0.5, confirm=2)
        rate = 0.010
        detector.observe(PhaseSample(rate, 0.3))
        for _ in range(60):
            rate *= 1.01  # 1% per window: inside the threshold
            assert not detector.observe(PhaseSample(rate, 0.3))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            PhaseDetector(threshold=0.0)
        with pytest.raises(ValueError):
            PhaseDetector(confirm=0)


class TestSystemPhaseMonitor:
    def test_detects_benchmark_phase_changes(self):
        # gcc has three distinct phases that wrap repeatedly.
        system = SimSystem([trace_for("gcc")],
                           config=SCALED_MULTI_CONFIG)
        monitor = SystemPhaseMonitor(system, window=4_000, threshold=0.8)
        system.run(120_000)
        assert monitor.changes_at == sorted(monitor.changes_at)

    def test_on_change_callback(self):
        system = SimSystem([trace_for("bhm_mail")],
                           config=SCALED_MULTI_CONFIG)
        fired = []
        monitor = SystemPhaseMonitor(system, window=3_000, threshold=0.4,
                                     on_change=lambda: fired.append(
                                         system.engine.now))
        system.run(90_000)
        assert fired == monitor.changes_at

    def test_window_validation(self):
        system = SimSystem([trace_for("gcc")],
                           config=SCALED_MULTI_CONFIG)
        with pytest.raises(ValueError):
            SystemPhaseMonitor(system, window=0)


class TestTraceIO:
    def sample_trace(self):
        return ListTrace([TraceEvent(3, 0x1000, False),
                          TraceEvent(0, 0xdeadc0, True),
                          TraceEvent(17, 0x40, False)])

    def test_round_trip_via_buffer(self):
        buffer = io.StringIO()
        count = dump_trace(self.sample_trace(), buffer)
        assert count == 3
        buffer.seek(0)
        loaded = load_trace(buffer)
        assert list(loaded) == list(self.sample_trace())

    def test_round_trip_via_file(self, tmp_path):
        path = tmp_path / "trace.txt"
        dump_trace(self.sample_trace(), path)
        assert list(load_trace(path)) == list(self.sample_trace())

    def test_comments_and_blank_lines_skipped(self):
        text = "# repro-trace v1\n\n# comment\n5 40 r\n"
        loaded = load_trace(io.StringIO(text))
        assert list(loaded) == [TraceEvent(5, 0x40, False)]

    @pytest.mark.parametrize("bad_line", [
        "5 40",               # missing kind
        "x 40 r",             # bad work
        "5 zz r",             # bad address
        "5 40 q",             # bad kind
        "-1 40 r",            # negative work
    ])
    def test_malformed_lines_rejected(self, bad_line):
        with pytest.raises(ValueError):
            load_trace(io.StringIO(bad_line + "\n"))

    @pytest.mark.parametrize("bad_line", [
        "5 8000000000000000 r",      # address one past the column
        "9223372036854775808 40 r",  # work one past the column
    ])
    def test_values_outside_the_trace_columns_rejected(self, bad_line):
        text = "# repro-trace v1\n5 40 r\n" + bad_line + "\n"
        with pytest.raises(ValueError, match="line 3: .*does not fit"):
            load_trace(io.StringIO(text))
        widest = load_trace(io.StringIO("5 7fffffffffffffff w\n"))
        assert list(widest) == [TraceEvent(5, (1 << 63) - 1, True)]

    def test_loaded_trace_runs_in_simulator(self, tmp_path):
        from repro.workloads.traceio import record_benchmark
        path = tmp_path / "gcc.trace"
        count = record_benchmark("gcc", path)
        assert count == len(trace_for("gcc"))
        system = SimSystem([load_trace(path)],
                           config=SCALED_MULTI_CONFIG)
        stats = system.run(10_000)
        assert stats.cores[0].work_cycles > 0
