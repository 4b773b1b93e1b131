"""Tests for the runtime invariant contracts (repro.analysis.contracts).

Contracts must (a) catch genuine invariant violations when enabled,
(b) cost nothing semantically when disabled, and (c) never perturb
simulation results (the latter is pinned in tests/test_determinism.py).
"""

import heapq
import subprocess
import sys
from dataclasses import replace

import pytest

from repro.analysis import ContractViolation, contracts
from repro.core.bins import BinConfig
from repro.core.credits import CreditState
from repro.core.shaper import MittsShaper
from repro.dram.device import DramDevice
from repro.dram.timing import DDR3_1333
from repro.sched.base import FrFcfsScheduler
from repro.sim.engine import Engine, _NO_ARG
from repro.sim.memctrl import MemoryController
from repro.sim.request import MemoryRequest
from repro.sim.system import SCALED_MULTI_CONFIG, SimSystem
from repro.workloads.mixes import workload_traces


@pytest.fixture
def contracts_on():
    with contracts.enabled_scope():
        yield


def _shaped_limiters():
    """Method-2 shapers for a Table III mix: one fast and three slow
    credits per window, so every program stalls in its shaper."""
    credits = (1, 0, 0, 0, 0, 0, 0, 0, 0, 3)
    return [MittsShaper(BinConfig.from_credits(credits)) for _ in range(4)]


class TestToggle:
    def test_default_follows_environment(self):
        # Off unless REPRO_CONTRACTS opts in (the suite also runs under
        # REPRO_CONTRACTS=1, where the default is on).
        assert contracts.enabled == contracts._env_enabled()

    def test_enabled_scope_restores_previous_state(self):
        before = contracts.enabled
        with contracts.enabled_scope():
            assert contracts.enabled
            with contracts.enabled_scope(False):
                assert not contracts.enabled
            assert contracts.enabled
        assert contracts.enabled == before

    def test_env_variable_activates(self):
        import os

        import repro
        src_dir = os.path.dirname(os.path.dirname(
            os.path.abspath(repro.__file__)))
        script = ("from repro.analysis import contracts; "
                  "import sys; sys.exit(0 if contracts.enabled else 1)")
        for value, expected in [("1", 0), ("0", 1), ("", 1), ("yes", 0)]:
            env = dict(os.environ, REPRO_CONTRACTS=value, PYTHONPATH=src_dir)
            result = subprocess.run([sys.executable, "-c", script], env=env)
            assert result.returncode == expected, (value, expected)

    def test_check_is_noop_when_disabled(self):
        with contracts.enabled_scope(False):
            contracts.check(False, "never raised while disabled")

    def test_check_raises_when_enabled(self, contracts_on):
        with pytest.raises(ContractViolation, match="cycle 7"):
            contracts.check(False, "bad cycle %d", 7)
        contracts.check(True, "fine")

    def test_violation_is_an_assertion_error(self):
        assert issubclass(ContractViolation, AssertionError)


class TestEngineContracts:
    def test_rejects_float_cycle(self, contracts_on):
        engine = Engine()
        with pytest.raises(ContractViolation, match="integer CPU cycles"):
            engine.schedule(1.5, lambda: None)

    def test_rejects_non_callable(self, contracts_on):
        engine = Engine()
        with pytest.raises(ContractViolation, match="not callable"):
            engine.schedule(1, None)

    def test_detects_time_regression(self, contracts_on):
        engine = Engine()
        engine.schedule(10, lambda: None)
        engine.run()
        # Corrupt the queue behind schedule()'s back: an event in the past.
        heapq.heappush(engine._queue, (5, 999, lambda: None, _NO_ARG))
        with pytest.raises(ContractViolation, match="monotonicity"):
            engine.run()

    def test_detects_fifo_breakage(self, contracts_on):
        engine = Engine()
        # Two same-cycle events with the same sequence number can only be
        # produced by a broken scheduler; the FIFO contract must object.
        # (Assigned directly: a real heappush would refuse the duplicate.)
        engine._queue = [(5, 1, lambda: None, _NO_ARG),
                 (5, 1, lambda: None, _NO_ARG)]
        with pytest.raises(ContractViolation, match="FIFO"):
            engine.run()

    def test_clean_run_is_unaffected(self, contracts_on):
        engine = Engine()
        log = []
        for index in range(4):
            engine.schedule(3, lambda i=index: log.append(i))
        engine.run()
        assert log == [0, 1, 2, 3]

    def test_flag_is_read_live(self):
        # An engine built while contracts are off checks as soon as they
        # are switched on: nothing captured the flag at construction.
        with contracts.enabled_scope(False):
            engine = Engine()
            engine.schedule(0.5, lambda: None)  # silently accepted
        with contracts.enabled_scope():
            with pytest.raises(ContractViolation, match="integer CPU"):
                engine.schedule(0.5, lambda: None)


class TestCreditContracts:
    def make_state(self):
        return CreditState(
            BinConfig.from_credits([4, 2, 1, 0, 0, 0, 0, 0, 0, 0]))

    def test_normal_operations_hold(self, contracts_on):
        state = self.make_state()
        state.deduct(0)
        state.refund(0)
        state.replenish()
        assert state.counts == [4, 2, 1, 0, 0, 0, 0, 0, 0, 0]

    def test_negative_credit_is_caught(self, contracts_on):
        state = self.make_state()
        state.counts[1] = -3  # corrupted by a hypothetical scheduler bug
        with pytest.raises(ContractViolation, match="postcondition"):
            state.refund(1)

    def test_counter_count_mismatch_is_caught(self, contracts_on):
        state = self.make_state()
        state.counts.append(7)
        with pytest.raises(ContractViolation, match="postcondition"):
            state.refund(0)

    def test_switched_on_after_construction_checks_next_deduct(self):
        # A system built and run with contracts off checks its credit
        # counters at the next deduct once they are switched on.
        with contracts.enabled_scope(False):
            system = SimSystem(workload_traces(1, seed=3),
                               config=SCALED_MULTI_CONFIG,
                               limiters=_shaped_limiters())
            system.run(2_000)
            state = system.ports[0].limiter.state
            state.counts[0] = 1
            state.counts[9] = state.config.credits[9] + 2  # n_9 > K_9
        with contracts.enabled_scope():
            with pytest.raises(ContractViolation,
                               match=r"CreditState\.deduct .*\[0, K_i\]"):
                state.deduct(0)


class TestMemoryControllerContracts:
    class NullScheduler:
        def select(self, queue, now, controller):
            return None

        def on_complete(self, request, now):
            pass

    def make_mc(self, depth=2):
        engine = Engine()
        dram = DramDevice(DDR3_1333)
        return MemoryController(engine, dram, self.NullScheduler(),
                                complete=lambda request: None,
                                queue_depth=depth)

    def test_enqueue_respects_bound(self, contracts_on):
        mc = self.make_mc(depth=2)
        for req_id in range(5):
            mc.enqueue(MemoryRequest(core_id=0, address=64 * req_id))
        assert len(mc.queue) == 2
        assert len(mc.overflow) == 3

    def test_overfilled_queue_is_caught(self, contracts_on):
        mc = self.make_mc(depth=2)
        mc.queue = [MemoryRequest(core_id=0, address=64 * i)
                    for i in range(5)]
        with pytest.raises(ContractViolation, match="queue_depth"):
            mc.enqueue(MemoryRequest(core_id=0, address=0))


def _request_for_row(device, row):
    """A stamped request for ``row`` of flat bank 0."""
    timing = device.timing
    address = row * timing.banks_per_rank * timing.row_buffer_bytes
    return MemoryRequest(core_id=0, address=address,
                         dram_coord=device.mapper.coord(address))


class TestBankContracts:
    """The bank state machine's checks, in ``DramDevice.service``."""

    def test_legal_access_sequence(self, contracts_on):
        device = DramDevice(DDR3_1333)
        done = device.service(_request_for_row(device, 3), 0)
        assert device.banks[0].open_row == 3
        later = device.service(_request_for_row(device, 3), done)
        assert later > done

    def test_float_cycle_is_caught(self, contracts_on):
        device = DramDevice(DDR3_1333)
        with pytest.raises(ContractViolation, match="integers"):
            device.service(_request_for_row(device, 1), 2.5)

    def test_negative_cycle_is_caught(self, contracts_on):
        device = DramDevice(DDR3_1333)
        with pytest.raises(ContractViolation, match="negative"):
            device.service(_request_for_row(device, 1), -4)

    def test_refresh_keeps_ready_cycle_monotonic(self, contracts_on):
        device = DramDevice(DDR3_1333)
        bank = device.banks[0]
        device.service(_request_for_row(device, 1), 0)
        before = bank.ready_cycle
        bank.refresh(now=0)
        assert bank.open_row is None
        assert bank.ready_cycle >= before


class TestContractsOffPath:
    """With contracts off, a run makes no call into the contracts module:
    every guard is an inline flag read."""

    @pytest.mark.parametrize("kernel", ["heap", "batched"])
    @pytest.mark.parametrize("mix, shaped", [(1, True), (4, False)],
                             ids=["shaped-mix1", "frfcfs-mix4"])
    def test_run_enters_no_contract_function(self, mix, shaped, kernel):
        traces = workload_traces(mix, seed=1)
        config = replace(SCALED_MULTI_CONFIG, kernel=kernel)
        entered = []

        def profile(frame, event, arg):
            if event == "call" and \
                    frame.f_globals.get("__name__") == contracts.__name__:
                entered.append(frame.f_code.co_name)

        with contracts.enabled_scope(False):
            if shaped:
                system = SimSystem(traces, config=config,
                                   limiters=_shaped_limiters())
            else:
                system = SimSystem(traces, config=config,
                                   scheduler=FrFcfsScheduler(len(traces)))
            previous = sys.getprofile()
            sys.setprofile(profile)
            try:
                system.run(20_000)
            finally:
                sys.setprofile(previous)
        assert sum(core.dram_requests for core in system.stats.cores) > 0
        assert entered == []
