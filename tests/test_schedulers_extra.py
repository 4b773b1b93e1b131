"""Unit tests for the related-work schedulers: STFM, PAR-BS, ATLAS."""

import pytest

from repro.dram.address_map import AddressMapper
from repro.dram.device import DramDevice
from repro.dram.timing import DramTiming
from repro.sched.atlas import AtlasScheduler
from repro.sched.parbs import ParbsScheduler
from repro.sched.stfm import StfmScheduler
from repro.sim.request import MemoryRequest
from repro.sim.system import SCALED_MULTI_CONFIG, SimSystem
from repro.workloads.mixes import workload_traces


class FakeController:
    def __init__(self):
        self.dram = DramDevice(DramTiming(refresh_enabled=False))


#: stamps hand-built requests through the public mapping entry
MAPPER = AddressMapper(DramTiming(refresh_enabled=False))


def request(core, address, arrival=0):
    req = MemoryRequest(core_id=core, address=address,
                        dram_coord=MAPPER.coord(address))
    req.mc_arrival_cycle = arrival
    return req


class TestStfm:
    def test_fair_mode_is_frfcfs(self):
        controller = FakeController()
        sched = StfmScheduler(2)
        # No history: unfairness 1.0 -> throughput mode, oldest first.
        a = request(0, 0, arrival=5)
        b = request(1, 8192, arrival=1)
        assert sched.select([a, b], 10, controller) is b

    def test_slowdown_tracking(self):
        controller = FakeController()
        sched = StfmScheduler(2)
        sched._baseline(controller)
        # Core 0 suffers long service; core 1 gets unloaded service.
        slow = request(0, 0, arrival=0)
        sched.on_complete(slow, now=1000)
        fast = request(1, 64, arrival=0)
        sched.on_complete(fast, now=int(sched._unloaded_latency))
        assert sched.slowdown(0) > sched.slowdown(1)
        assert sched.unfairness() > 1.0

    def test_prioritises_most_slowed_when_unfair(self):
        controller = FakeController()
        sched = StfmScheduler(2, alpha=1.05)
        sched._baseline(controller)
        for _ in range(10):
            victim = request(0, 0, arrival=0)
            sched.on_complete(victim, now=2000)
            lucky = request(1, 64, arrival=0)
            sched.on_complete(lucky, now=int(sched._unloaded_latency))
        queue = [request(1, 128, arrival=0), request(0, 192, arrival=50)]
        assert sched.select(queue, 100, controller).core_id == 0

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            StfmScheduler(2, alpha=1.0)
        with pytest.raises(ValueError):
            StfmScheduler(2, mlp=0)


class TestParbs:
    def test_batch_marks_and_serves_before_unmarked(self):
        controller = FakeController()
        sched = ParbsScheduler(2, cap=1)
        old_a = request(0, 0, arrival=0)
        old_b = request(1, 1 << 20, arrival=1)
        queue = [old_a, old_b]
        first = sched.select(queue, 10, controller)
        queue.remove(first)
        assert sched.batches_formed == 1
        # A newly arriving request is NOT in the batch; the remaining
        # marked request goes first even if the new one row-hits.
        newcomer = request(first.core_id, first.address + 64, arrival=11)
        queue.append(newcomer)
        second = sched.select(queue, 12, controller)
        assert second is not newcomer

    def test_cap_limits_marks_per_core_bank(self):
        sched = ParbsScheduler(1, cap=2)
        queue = [request(0, i * 64, arrival=i) for i in range(5)]
        sched._form_batch(queue)
        assert len(sched._marked) == 2

    def test_shortest_job_ranked_first(self):
        sched = ParbsScheduler(2, cap=4)
        queue = [request(0, i * 64, arrival=i) for i in range(4)] \
            + [request(1, 1 << 20, arrival=10)]
        sched._form_batch(queue)
        assert sched._rank[1] < sched._rank[0]

    def test_cap_validation(self):
        with pytest.raises(ValueError):
            ParbsScheduler(2, cap=0)


class TestAtlas:
    def test_least_attained_ranked_first(self):
        controller = FakeController()
        sched = AtlasScheduler(2, quantum=100)
        heavy = request(0, 0)
        heavy.dram_start_cycle = 0
        for _ in range(20):
            sched.on_complete(heavy, now=50)
        sched.select([request(0, 0)], now=150, controller=controller)
        assert sched._order[0] == 1  # light thread first

    def test_decay_forgets_history(self):
        controller = FakeController()
        sched = AtlasScheduler(2, quantum=100, decay=0.5)
        heavy = request(0, 0)
        heavy.dram_start_cycle = 0
        for _ in range(20):
            sched.on_complete(heavy, now=50)
        sched.select([request(0, 0)], now=150, controller=controller)
        first = sched.attained[0]
        # Several idle quanta later the history has decayed.
        sched.select([request(0, 0)], now=850, controller=controller)
        assert sched.attained[0] < first

    def test_selects_highest_priority_backlogged(self):
        controller = FakeController()
        sched = AtlasScheduler(3, quantum=100)
        sched._order = [2, 0, 1]
        queue = [request(0, 0), request(1, 1 << 20)]
        assert sched.select(queue, 10, controller).core_id == 0

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            AtlasScheduler(2, quantum=0)
        with pytest.raises(ValueError):
            AtlasScheduler(2, decay=1.0)


class TestIntegration:
    @pytest.mark.parametrize("scheduler_cls",
                             [StfmScheduler, ParbsScheduler,
                              AtlasScheduler])
    def test_full_system_run(self, scheduler_cls):
        traces = workload_traces(1)
        system = SimSystem(traces, config=SCALED_MULTI_CONFIG,
                           scheduler=scheduler_cls(len(traces)))
        stats = system.run(30_000)
        assert all(core.work_cycles > 0 for core in stats.cores)
        assert stats.total_dram_requests > 0
