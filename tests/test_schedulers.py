"""Unit tests for the comparator memory schedulers."""

import pytest

from repro.dram.address_map import AddressMapper
from repro.dram.device import DramDevice
from repro.dram.timing import DramTiming
from repro.sched.base import FcfsScheduler, FrFcfsScheduler
from repro.sched.fairqueue import FairQueueScheduler
from repro.sched.fst import FstController
from repro.sched.memguard import MemGuardScheduler
from repro.sched.mise import MiseScheduler
from repro.sched.tcm import TcmScheduler
from repro.sim.engine import Engine
from repro.sim.memctrl import MemoryController
from repro.sim.request import MemoryRequest
from repro.sim.system import SCALED_MULTI_CONFIG, SimSystem
from repro.workloads.benchmarks import trace_for


class FakeController:
    """Just enough controller for select(): a DRAM device handle."""

    def __init__(self):
        self.dram = DramDevice(DramTiming(refresh_enabled=False))


#: stamps hand-built requests through the public mapping entry
MAPPER = AddressMapper(DramTiming(refresh_enabled=False))


def request(core, address, arrival=0):
    req = MemoryRequest(core_id=core, address=address,
                        dram_coord=MAPPER.coord(address))
    req.mc_arrival_cycle = arrival
    return req


class TestFcfs:
    def test_oldest_first(self):
        sched = FcfsScheduler(2)
        queue = [request(0, 0, arrival=5), request(1, 64, arrival=2)]
        assert sched.select(queue, 10, FakeController()).core_id == 1

    def test_empty_queue(self):
        assert FcfsScheduler(1).select([], 0, FakeController()) is None


class TestFrFcfs:
    def test_row_hit_preferred_over_older(self):
        controller = FakeController()
        controller.dram.service(request(0, 0), 0)  # open row 0 of bank 0
        sched = FrFcfsScheduler(2)
        older_conflict = request(0, 8192 * 8, arrival=0)  # same bank, new row
        newer_hit = request(1, 64, arrival=5)
        chosen = sched.select([older_conflict, newer_hit], 10, controller)
        assert chosen is newer_hit

    def test_falls_back_to_oldest_without_hits(self):
        controller = FakeController()
        sched = FrFcfsScheduler(2)
        a = request(0, 0, arrival=3)
        b = request(1, 8192, arrival=1)
        assert sched.select([a, b], 10, controller) is b


class TestFairQueue:
    def test_alternates_between_backlogged_cores(self):
        controller = FakeController()
        sched = FairQueueScheduler(2)
        queue = [request(0, i * 64, arrival=i) for i in range(4)] \
            + [request(1, 1 << 20, arrival=0)]
        first = sched.select(queue, 0, controller)
        queue.remove(first)
        second = sched.select(queue, 0, controller)
        assert {first.core_id, second.core_id} == {0, 1}

    def test_shares_weight_selection(self):
        controller = FakeController()
        sched = FairQueueScheduler(2, shares=[4.0, 1.0])
        picks = []
        queue = [request(0, i * 64) for i in range(16)] \
            + [request(1, (1 << 20) + i * 64) for i in range(16)]
        for _ in range(10):
            chosen = sched.select(queue, 0, controller)
            queue.remove(chosen)
            picks.append(chosen.core_id)
        assert picks.count(0) > picks.count(1)

    def test_idle_core_earns_no_credit(self):
        controller = FakeController()
        sched = FairQueueScheduler(2)
        # Core 0 served a lot; core 1 idle the whole time.
        queue0 = [request(0, i * 64) for i in range(8)]
        for _ in range(8):
            chosen = sched.select(queue0, 0, controller)
            queue0.remove(chosen)
        # Now core 1 arrives: its clock catches up, not banks history.
        queue = [request(0, 1 << 16), request(1, 1 << 20)]
        chosen = sched.select(queue, 100, controller)
        assert chosen.core_id == 1  # min clock after catch-up, ties to 1?
        # After one service each, the clocks are near parity again.
        assert abs(sched.virtual_time[0] - sched.virtual_time[1]) \
            < 2 * controller.dram.timing.row_conflict_latency

    def test_invalid_shares_rejected(self):
        with pytest.raises(ValueError):
            FairQueueScheduler(2, shares=[1.0])
        with pytest.raises(ValueError):
            FairQueueScheduler(2, shares=[1.0, 0.0])


class TestTcm:
    def test_reclustering_separates_intensities(self):
        controller = FakeController()
        sched = TcmScheduler(4, quantum=100)
        # Core 3 is very intensive, cores 0-2 light.
        for _ in range(30):
            sched.on_complete(request(3, 0), 0)
        for core in range(3):
            sched.on_complete(request(core, 0), 0)
        sched.select([request(0, 0)], now=150, controller=controller)
        assert 3 not in sched.latency_cluster
        assert {0, 1, 2} <= sched.latency_cluster

    def test_latency_cluster_prioritised(self):
        controller = FakeController()
        sched = TcmScheduler(2, quantum=100)
        for _ in range(30):
            sched.on_complete(request(1, 0), 0)
        sched.on_complete(request(0, 0), 0)
        queue = [request(1, 0, arrival=0), request(0, 64, arrival=9)]
        chosen = sched.select(queue, 150, controller)
        assert chosen.core_id == 0

    def test_shuffle_changes_bandwidth_ranks(self):
        controller = FakeController()
        sched = TcmScheduler(4, quantum=50, shuffle_period=10, seed=3)
        for core in range(4):
            for _ in range(20):
                sched.on_complete(request(core, 0), 0)
        sched.select([request(0, 0)], now=60, controller=controller)
        ranks_before = dict(sched._rank)
        orders = set()
        for step in range(6):
            sched.select([request(0, 0)], now=80 + step * 10,
                         controller=controller)
            orders.add(tuple(sorted(sched._rank.items())))
        assert len(orders) > 1 or ranks_before != dict(sched._rank)

    def test_cluster_thresh_default(self):
        assert TcmScheduler(8).cluster_thresh == pytest.approx(0.25)


class TestMise:
    def test_measurement_rotates_priority(self):
        controller = FakeController()
        sched = MiseScheduler(2, epoch=100, interval=1000)
        assert sched.priority_core == 0
        sched.select([request(0, 0)], now=100, controller=controller)
        assert sched.priority_core == 1

    def test_priority_core_requests_first(self):
        controller = FakeController()
        sched = MiseScheduler(2, epoch=100, interval=1000)
        queue = [request(1, 0, arrival=0), request(0, 64, arrival=50)]
        chosen = sched.select(queue, 10, controller)
        assert chosen.core_id == 0  # measurement epoch for core 0

    def test_slowdown_estimates_update_at_interval(self):
        controller = FakeController()
        sched = MiseScheduler(2, epoch=50, interval=300)
        # Core 0 fast alone, slow shared; core 1 steady.
        for now in range(0, 301, 10):
            sched.on_complete(request(now % 2, 0), now)
            sched.select([request(0, 0)], now=now, controller=controller)
        sched.select([request(0, 0)], now=320, controller=controller)
        assert all(s >= 1.0 for s in sched.slowdowns)

    def test_interval_too_short_rejected(self):
        with pytest.raises(ValueError):
            MiseScheduler(4, epoch=100, interval=300)


class TestMemGuard:
    def test_within_budget_prioritised(self):
        controller = FakeController()
        sched = MemGuardScheduler(2, period=1000, budgets=[1, 1])
        queue = [request(0, 0, arrival=0), request(1, 1 << 20, arrival=1)]
        first = sched.select(queue, 0, controller)
        queue.remove(first)
        # First core used its budget; over-budget core now loses to the
        # in-budget one regardless of age.
        queue.append(request(first.core_id, 128, arrival=2))
        second = sched.select(queue, 1, controller)
        assert second.core_id != first.core_id

    def test_best_effort_when_all_over_budget(self):
        controller = FakeController()
        sched = MemGuardScheduler(1, period=1000, budgets=[1])
        sched.select([request(0, 0)], 0, controller)
        follow_up = sched.select([request(0, 64)], 1, controller)
        assert follow_up is not None  # reclaimed as best effort

    def test_budget_resets_each_period(self):
        controller = FakeController()
        sched = MemGuardScheduler(1, period=100, budgets=[1])
        sched.select([request(0, 0)], 0, controller)
        assert sched.used_this_period() == [1]
        sched.select([request(0, 64)], 150, controller)
        assert sched.used_this_period() == [1]  # fresh period count

    def test_auto_budget_positive(self):
        controller = FakeController()
        sched = MemGuardScheduler(4, period=10_000)
        budgets = sched.budgets(controller)
        assert len(budgets) == 4
        assert all(b >= 1 for b in budgets)


class TestFstIntegration:
    def test_controller_installs_limiters(self):
        traces = [trace_for("gcc"), trace_for("libquantum", seed=2)]
        system = SimSystem(traces, config=SCALED_MULTI_CONFIG,
                           scheduler=FrFcfsScheduler(2))
        controller = FstController(system, epoch=5_000)
        assert len(controller.limiters) == 2
        system.run(30_000)
        assert all(est >= 1.0 for est in controller.slowdown_estimates)

    def test_invalid_parameters_rejected(self):
        traces = [trace_for("gcc")]
        system = SimSystem(traces, config=SCALED_MULTI_CONFIG)
        with pytest.raises(ValueError):
            FstController(system, epoch=0)
        system2 = SimSystem(traces, config=SCALED_MULTI_CONFIG)
        with pytest.raises(ValueError):
            FstController(system2, unfairness_threshold=0.9)

    def test_throttle_reacts_to_unfairness(self):
        traces = [trace_for("sjeng"), trace_for("libquantum", seed=2),
                  trace_for("mcf", seed=3)]
        system = SimSystem(traces, config=SCALED_MULTI_CONFIG,
                           scheduler=FrFcfsScheduler(3))
        controller = FstController(system, epoch=5_000,
                                   unfairness_threshold=1.01)
        system.run(60_000)
        assert controller.throttle_events > 0
