"""Aligned-shaper eligibility and heap-vs-batched equality at ``T_r`` edges.

:meth:`~repro.core.macrotick.MacroTickPump.eligible` classifies a system's
shapers: phase-aligned method-2 reset shapers share one ``(period,
next_boundary)``; staggered phases, foreign limiters and unshaped ports do
not.  Replenishment itself has one path -- the lazy
:class:`~repro.core.replenish.ResetReplenisher` clock inside every shaper
decision -- so the equality tests here pin the batched kernel to the heap
oracle across window boundaries, periodic observers and a mid-run limiter
swap.  (Plain aligned-shaper equality and the aligned checkpoint
round-trip live in ``tests/test_batched_kernel.py``.)
"""

from dataclasses import replace

from repro.core.bins import BinConfig
from repro.core.limiter import NoLimiter
from repro.core.macrotick import MacroTickPump
from repro.core.shaper import MittsShaper
from repro.sched.base import FrFcfsScheduler
from repro.sim.system import SCALED_MULTI_CONFIG, SimSystem
from repro.workloads.mixes import workload_traces

CYCLES = 60_000
CREDITS = [4, 4, 3, 3, 2, 2, 1, 1, 1, 1]
#: observer period for the boundary-crossing test; longer than ``T_r``
PERIOD = 5_096


def _build(kernel: str = "batched", phase_stride: int = 0) -> SimSystem:
    traces = workload_traces(2, seed=5)
    config = replace(SCALED_MULTI_CONFIG, kernel=kernel)
    limiters = [MittsShaper(BinConfig.from_credits(CREDITS),
                            phase=phase_stride * i)
                for i in range(len(traces))]
    return SimSystem(traces, config=config, limiters=limiters,
                     scheduler=FrFcfsScheduler(len(traces)))


class TestEligibility:
    def test_aligned_mitts_shapers_eligible(self):
        system = _build()
        replenisher = system.ports[0].limiter.replenisher
        assert MacroTickPump.eligible(system) \
            == (replenisher.period, replenisher._next)

    def test_staggered_phases_stay_lazy(self):
        assert MacroTickPump.eligible(_build(phase_stride=17)) is None

    def test_heap_kernel_same_verdict(self):
        # The predicate reads the limiters only; the kernel is irrelevant.
        assert MacroTickPump.eligible(_build(kernel="heap")) \
            == MacroTickPump.eligible(_build())

    def test_unshaped_ports_stay_lazy(self):
        system = SimSystem(workload_traces(1, seed=5),
                           config=SCALED_MULTI_CONFIG)
        assert MacroTickPump.eligible(system) is None

    def test_limiter_swap_breaks_alignment(self):
        system = _build()
        system.set_limiter(0, NoLimiter())
        assert MacroTickPump.eligible(system) is None


class TestEquivalence:
    def test_every_crossing_macro_tick_boundaries(self):
        # A periodic observer whose period exceeds T_r: its callbacks
        # interleave with the shapers' window boundaries and must fire at
        # exactly the same cycles under both kernels without perturbing
        # the run.
        def drive(kernel):
            system = _build(kernel)
            assert PERIOD > system.ports[0].limiter.replenisher.period
            observed = []
            system.every(PERIOD,
                         lambda: observed.append(system.engine.now))
            system.run(CYCLES)
            return observed, system.stats.snapshot()

        batched_log, batched_snapshot = drive("batched")
        heap_log, heap_snapshot = drive("heap")
        assert batched_log \
            == [(i + 1) * PERIOD for i in range(len(batched_log))]
        assert len(batched_log) == CYCLES // PERIOD
        assert batched_log == heap_log
        assert batched_snapshot == heap_snapshot

    def test_limiter_swap_matches_heap_kernel(self):
        # Swapping one port's limiter mid-run (the online tuner's move)
        # breaks the common boundary; both kernels must agree on the run
        # that follows.
        def drive(kernel):
            system = _build(kernel)
            swap_at = system.ports[0].limiter.replenisher.period * 3 + 7

            def swap():
                system.set_limiter(0, NoLimiter())

            system.engine.schedule(swap_at, swap)
            system.run(CYCLES)
            return system

        batched = drive("batched")
        heap = drive("heap")
        assert batched.stats.snapshot() == heap.stats.snapshot()
