"""Unit tests for MemoryRequest and the statistics containers."""

import pytest

from repro.sim.request import MemoryRequest
from repro.sim.stats import CoreStats, SystemStats


class TestMemoryRequest:
    def test_unique_ids(self):
        a = MemoryRequest(core_id=0, address=0)
        b = MemoryRequest(core_id=0, address=0)
        assert a.req_id != b.req_id

    def test_latency_accessors(self):
        request = MemoryRequest(core_id=0, address=64, l1_miss_cycle=10)
        request.issue_cycle = 25
        request.mc_arrival_cycle = 60
        request.dram_start_cycle = 100
        request.complete_cycle = 150
        assert request.shaper_delay == 15
        assert request.queue_delay == 40
        assert request.total_latency == 140

    def test_defaults(self):
        request = MemoryRequest(core_id=2, address=128)
        assert not request.is_write
        assert request.shaper_bin == -1


class TestCoreStats:
    def test_histograms_bucketed(self):
        stats = CoreStats(core_id=0)
        stats.interarrival.add(0 // 10)
        stats.interarrival.add(9 // 10)
        stats.interarrival.add(10 // 10)
        assert stats.interarrival == {0: 2, 1: 1}

    def test_mem_histogram_independent(self):
        stats = CoreStats(core_id=0)
        stats.interarrival.add(5 // 10)
        stats.mem_interarrival.add(25 // 10)
        assert stats.interarrival == {0: 1}
        assert stats.mem_interarrival == {2: 1}

    def test_custom_bucket_width(self):
        stats = CoreStats(core_id=0)
        stats.interarrival.add(30 // 20)
        assert stats.interarrival == {1: 1}

    def test_average_latency(self):
        stats = CoreStats(core_id=0)
        assert stats.average_latency == 0.0
        stats.dram_requests = 4
        stats.total_latency = 400
        assert stats.average_latency == 100.0

    def test_l1_miss_rate(self):
        stats = CoreStats(core_id=0)
        assert stats.l1_miss_rate == 0.0
        stats.accesses = 10
        stats.l1_misses = 3
        assert stats.l1_miss_rate == pytest.approx(0.3)

    def test_snapshot_and_delta(self):
        stats = CoreStats(core_id=0)
        stats.accesses = 5
        before = stats.snapshot()
        stats.accesses = 9
        stats.work_cycles = 100
        after = stats.snapshot()
        delta = CoreStats.delta(after, before)
        assert delta["accesses"] == 4
        assert delta["work_cycles"] == 100

    def test_snapshot_keys_stable(self):
        stats = CoreStats(core_id=0)
        snap = stats.snapshot()
        assert {"accesses", "dram_requests", "work_cycles",
                "shaper_stall_cycles", "post_shaper_latency"} <= set(snap)


class TestSystemStats:
    def make(self):
        return SystemStats(cores=[CoreStats(core_id=0),
                                  CoreStats(core_id=1)])

    def test_total_dram_includes_writebacks(self):
        stats = self.make()
        stats.cores[0].dram_requests = 3
        stats.cores[1].writebacks = 2
        assert stats.total_dram_requests == 5

    def test_row_hit_rate(self):
        stats = self.make()
        assert stats.row_hit_rate == 0.0
        stats.row_hits = 3
        stats.row_misses = 1
        assert stats.row_hit_rate == pytest.approx(0.75)

    def test_bandwidth(self):
        stats = self.make()
        stats.cores[0].dram_requests = 100
        stats.cycles = 6400
        assert stats.bandwidth_bytes_per_cycle() == pytest.approx(1.0)

    def test_bandwidth_zero_cycles(self):
        assert self.make().bandwidth_bytes_per_cycle() == 0.0

    def test_core_accessor(self):
        stats = self.make()
        assert stats.core(1).core_id == 1
