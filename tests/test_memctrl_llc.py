"""Unit tests for the shared LLC and the memory controller."""

from dataclasses import replace

import pytest

from repro.analysis import contracts
from repro.dram.device import DramDevice
from repro.dram.timing import DramTiming
from repro.sim.cache import Cache, CacheGeometry
from repro.sim.engine import Engine
from repro.sim.llc import SharedLLC
from repro.sim.memctrl import MemoryController
from repro.sim.request import MemoryRequest
from repro.sim.stats import CoreStats, SystemStats
from repro.sim.system import SCALED_SINGLE_CONFIG, SimSystem
from repro.workloads.benchmarks import trace_for


def make_request(core=0, address=0, write=False):
    return MemoryRequest(core_id=core, address=address, is_write=write)


class FifoSched:
    def select(self, queue, now, controller):
        return queue[0] if queue else None

    def on_complete(self, request, now):
        pass


class TestSharedLLC:
    def make_llc(self, cores=2, hit_latency=30, banks=2):
        engine = Engine()
        stats = SystemStats(cores=[CoreStats(core_id=i)
                                   for i in range(cores)])
        forwarded, responses = [], []
        llc = SharedLLC(engine, Cache(CacheGeometry(4096, 2)),
                        forward_miss=forwarded.append,
                        respond_hit=lambda r: responses.append((r, True)),
                        respond_miss=lambda r: responses.append((r, False)),
                        hit_latency=hit_latency, banks=banks,
                        stats=stats)
        return engine, llc, forwarded, responses, stats

    def test_miss_determined_not_forwarded(self):
        # The owner's miss handler forwards demand misses (see
        # TestMissForwarding); the LLC forwards only victim writebacks.
        engine, llc, forwarded, responses, _ = self.make_llc()
        request = make_request(address=0)
        llc.lookup(request)
        engine.run()
        assert responses == [(request, False)]
        assert forwarded == []

    def test_hit_responds_without_forwarding(self):
        engine, llc, forwarded, responses, _ = self.make_llc()
        llc.lookup(make_request(address=0))
        engine.run()
        second = make_request(address=0)
        llc.lookup(second)
        engine.run()
        assert responses[-1] == (second, True)
        assert forwarded == []

    def test_hit_latency_observed(self):
        engine, llc, _, _, _ = self.make_llc(hit_latency=25)
        stamps = []
        llc.respond_hit = lambda r: stamps.append((engine.now, True))
        llc.respond_miss = lambda r: stamps.append((engine.now, False))
        llc.lookup(make_request(address=0))
        engine.run()
        llc.lookup(make_request(address=0))
        engine.run()
        # Both determinations arrive hit_latency after their lookup start
        # (the bank is free again by the second lookup).
        assert stamps == [(25, False), (50, True)]

    def test_bank_serialisation_delays_same_bank(self):
        engine, llc, _, responses, _ = self.make_llc(banks=1, hit_latency=10)
        llc.lookup(make_request(address=0))
        llc.lookup(make_request(core=1, address=64))
        engine.run()
        # Second lookup started bank_busy cycles later.
        assert engine.now >= 10 + llc.bank_busy

    def test_per_core_stats_attributed(self):
        engine, llc, _, _, stats = self.make_llc()
        llc.lookup(make_request(core=1, address=0))
        engine.run()
        assert stats.cores[1].llc_misses == 1
        assert stats.cores[0].llc_misses == 0

    def test_writeback_lookup_not_counted_in_demand_stats(self):
        engine, llc, _, _, stats = self.make_llc()
        writeback = make_request(core=0, address=0, write=True)
        writeback.shaper_bin = -2
        llc.lookup(writeback)
        engine.run()
        assert stats.cores[0].llc_misses == 0

    def test_dirty_llc_eviction_generates_memory_write(self):
        engine, llc, forwarded, _, _ = self.make_llc()
        # Fill one set (2 ways) with writes, then evict.
        sets = llc.cache.geometry.num_sets
        stride = sets * 64
        llc.lookup(make_request(address=0, write=True))
        llc.lookup(make_request(address=stride, write=True))
        llc.lookup(make_request(address=2 * stride, write=True))
        engine.run()
        assert len(forwarded) == 1
        assert forwarded[0].shaper_bin == -2
        assert forwarded[0].address == 0

    @pytest.mark.parametrize("banks, line_bytes, fast",
                             [(2, 64, True), (3, 64, False),
                              (2, 48, False)])
    def test_lookup_matches_cache_access(self, banks, line_bytes, fast):
        # The inlined LRU operations (power-of-two geometry) and the
        # Cache.access fallback leave the same cache state and report the
        # same hits, misses and victims as a plain Cache.
        engine = Engine()
        geometry = CacheGeometry(8 * 2 * line_bytes, 2, line_bytes)
        results, forwarded = [], []
        llc = SharedLLC(engine, Cache(geometry),
                        forward_miss=forwarded.append,
                        respond_hit=lambda r: results.append(True),
                        respond_miss=lambda r: results.append(False),
                        banks=banks)
        assert llc._fast is fast
        reference = Cache(geometry)
        expected, victims = [], []
        for step in range(400):
            address = (step * 7919 % 61) * line_bytes + step % line_bytes
            write = step % 3 == 0
            hit, victim = reference.access(address, write)
            expected.append(hit)
            if victim is not None:
                victims.append(victim)
            llc.lookup(make_request(address=address, write=write))
            engine.run()
        assert results == expected
        assert [r.address for r in forwarded] == victims
        assert victims
        assert llc.cache._sets == reference._sets
        assert (llc.cache.hits, llc.cache.misses, llc.cache.writebacks) \
            == (reference.hits, reference.misses, reference.writebacks)
        assert (llc.hits, llc.misses) == (reference.hits, reference.misses)


class TestMissForwarding:
    """The system's LLC miss handler forwards every demand miss."""

    @pytest.mark.parametrize("kernel", ["heap", "batched"])
    def test_every_demand_miss_reaches_the_controller(self, kernel):
        config = replace(SCALED_SINGLE_CONFIG, kernel=kernel)
        system = SimSystem([trace_for("mcf", seed=5)], config=config)
        forwarded = []
        enqueue = system.llc.forward_miss

        def record(request):
            forwarded.append(request)
            enqueue(request)

        system.llc.forward_miss = record
        system.run(20_000)
        demand = [r for r in forwarded if r.shaper_bin != -2]
        undetermined = sum(
            1 for _, _, callback, arg in system.engine._queue
            if callback == system.llc.respond_miss and arg.shaper_bin != -2)
        assert len({id(r) for r in demand}) == len(demand)
        assert len(demand) == system.stats.cores[0].llc_misses \
            - undetermined
        assert len(demand) > 100

    @pytest.mark.parametrize("enabled", [False, True])
    def test_forward_is_the_checked_enqueue_under_contracts(self, enabled):
        # Misses enter through the controller's own ``enqueue`` in both
        # modes: its post-check is an inline guard on the live flag, so
        # there is no separate unchecked variant to bind.
        with contracts.enabled_scope(enabled):
            system = SimSystem([trace_for("mcf", seed=5)],
                               config=SCALED_SINGLE_CONFIG)
        assert system.llc.forward_miss == system.mc.enqueue
        assert system.llc.forward_miss.__func__ is MemoryController.enqueue
        assert system.mc._complete_cb.__func__ is MemoryController._complete


class TestMemoryController:
    def make_mc(self, depth=4, cores=1):
        engine = Engine()
        stats = SystemStats(cores=[CoreStats(core_id=i)
                                   for i in range(cores)])
        completed = []
        timing = DramTiming(refresh_enabled=False)
        mc = MemoryController(engine, DramDevice(timing), FifoSched(),
                              complete=completed.append,
                              queue_depth=depth, stats=stats)
        return engine, mc, completed, stats

    def test_request_completes(self):
        engine, mc, completed, stats = self.make_mc()
        mc.enqueue(make_request(address=0))
        engine.run()
        assert len(completed) == 1
        assert completed[0].complete_cycle == 0  # set by core normally
        assert stats.cores[0].dram_requests == 1

    def test_writeback_counted_separately(self):
        engine, mc, completed, stats = self.make_mc()
        writeback = make_request(address=0, write=True)
        writeback.shaper_bin = -2
        mc.enqueue(writeback)
        engine.run()
        assert stats.cores[0].writebacks == 1
        assert stats.cores[0].dram_requests == 0

    def test_overflow_beyond_queue_depth(self):
        # 8 bank-parallel slots dispatch immediately; beyond depth=2 more
        # queued entries spill into the overflow FIFO.
        engine, mc, completed, stats = self.make_mc(depth=2)
        for i in range(16):
            mc.enqueue(make_request(address=i * 64))
        assert stats.queue_backpressure_events > 0
        engine.run()
        assert len(completed) == 16

    def test_peak_queue_depth_recorded(self):
        engine, mc, _, stats = self.make_mc(depth=3)
        for i in range(16):
            mc.enqueue(make_request(address=i * 64))
        assert stats.peak_queue_depth >= 4

    def test_all_requests_eventually_complete(self):
        engine, mc, completed, _ = self.make_mc(depth=4)
        for i in range(32):
            mc.enqueue(make_request(address=i * 8192))  # spread banks
        engine.run()
        assert len(completed) == 32

    def test_completion_hook_only_when_defined(self):
        # A scheduler without ``on_complete`` inherits None and the
        # controller skips the call; one that defines it is called once
        # per completed request.
        from repro.sched.base import FrFcfsScheduler
        from repro.sched.tcm import TcmScheduler
        assert FrFcfsScheduler(1).on_complete is None
        assert TcmScheduler(1).on_complete is not None
        engine, mc, completed, _ = self.make_mc()
        hooked = []
        mc.scheduler.on_complete = lambda request, now: hooked.append(now)
        for i in range(3):
            mc.enqueue(make_request(address=i * 64))
        engine.run()
        assert len(hooked) == len(completed) == 3
        engine, mc, completed, _ = self.make_mc()
        mc.scheduler = FrFcfsScheduler(1)
        mc.enqueue(make_request(address=0))
        engine.run()
        assert len(completed) == 1

    def test_dram_start_recorded(self):
        engine, mc, completed, _ = self.make_mc()
        request = make_request(address=0)
        mc.enqueue(request)
        engine.run()
        assert request.dram_start_cycle >= request.mc_arrival_cycle
