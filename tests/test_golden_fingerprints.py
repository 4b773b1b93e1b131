"""Golden result fingerprints: the event-kernel bit-identity oracle.

Each scenario below runs a seeded system and hashes the complete
:meth:`~repro.sim.stats.SystemStats.snapshot` canonically
(:meth:`~repro.sim.stats.SystemStats.fingerprint`).  The hashes were
recorded before the event-kernel fast path landed, so any optimisation
that changes *any* statistic -- event ordering, request ids feeding a
tie-break, histogram contents, queue depths -- trips these tests.

The scenarios cover the three main simulation shapes: the simple core
model on the FCFS fallback, the instruction-window model under MITTS
shaping with FR-FCFS, and mix 3 on an explicit FCFS scheduler.  Every
scenario runs under both accepted values of ``SystemConfig.kernel``,
which build the same system (the field is inert until the layered
benchmark stops naming it), and the suite runs with and without
``REPRO_CONTRACTS=1`` in CI; the fingerprints must be identical in every
combination (contracts observe, never perturb; the fast path reorders
nothing).

If a fingerprint changes *intentionally* (a modelling change, not an
optimisation), re-record it here and say why in the commit message.
"""

from dataclasses import replace

import pytest

from repro.core.bins import BinConfig
from repro.core.shaper import MittsShaper
from repro.sched.base import FcfsScheduler, FrFcfsScheduler
from repro.sim.system import SCALED_MULTI_CONFIG, SimSystem
from repro.workloads.mixes import workload_traces

GOLDEN_CYCLES = 120_000

KERNELS = ("heap", "batched")

#: recorded at commit 64122aa (pre-fast-path), Python 3.11
GOLDEN_MIX_SIMPLE = \
    "369d311002b2a07f286310fff31020990b7eb97403239c4d83bed04fa93a6672"
GOLDEN_MIX_WINDOW_SHAPED = \
    "7223a59c3d2b69faf28e69934064828a9d55d71052c53efc3ec72bddbe8a12b9"
#: recorded at commit 1199f9e under both kernels, Python 3.11
GOLDEN_MIX_FCFS = \
    "46d2cff0013accd5acf68f40c33544ec69cf7752b03ff8737c74557af4a79f6a"


def run_mix_simple(kernel: str = "batched") -> SimSystem:
    """Workload mix 1, simple cores, FCFS fallback scheduler."""
    traces = workload_traces(1, seed=11)
    config = replace(SCALED_MULTI_CONFIG, kernel=kernel)
    system = SimSystem(traces, config=config)
    system.run(GOLDEN_CYCLES)
    return system


def run_mix_window_shaped(kernel: str = "batched") -> SimSystem:
    """Workload mix 2, window cores, MITTS shapers, FR-FCFS."""
    traces = workload_traces(2, seed=22)
    config = replace(SCALED_MULTI_CONFIG, core_model="window",
                     kernel=kernel)
    credits = [4, 4, 3, 3, 2, 2, 1, 1, 1, 1]
    limiters = [MittsShaper(BinConfig.from_credits(credits), phase=17 * i)
                for i in range(len(traces))]
    system = SimSystem(traces, config=config, limiters=limiters,
                       scheduler=FrFcfsScheduler(len(traces)))
    system.run(GOLDEN_CYCLES)
    return system


def run_mix_fcfs(kernel: str = "batched") -> SimSystem:
    """Workload mix 3, simple cores, an explicit FCFS scheduler."""
    traces = workload_traces(3, seed=33)
    config = replace(SCALED_MULTI_CONFIG, kernel=kernel)
    system = SimSystem(traces, config=config,
                       scheduler=FcfsScheduler(len(traces)))
    system.run(GOLDEN_CYCLES)
    return system


@pytest.mark.parametrize("kernel", KERNELS)
class TestGoldenFingerprints:
    def test_mix_simple(self, kernel):
        assert run_mix_simple(kernel).stats.fingerprint() \
            == GOLDEN_MIX_SIMPLE

    @pytest.mark.slow
    def test_mix_window_shaped(self, kernel):
        assert run_mix_window_shaped(kernel).stats.fingerprint() \
            == GOLDEN_MIX_WINDOW_SHAPED

    def test_mix_fcfs(self, kernel):
        assert run_mix_fcfs(kernel).stats.fingerprint() == GOLDEN_MIX_FCFS


class TestBackToBackDeterminism:
    """Request ids are allocated per system, not process-globally.

    A module-global id counter would give the second system of a process
    different (shifted) request ids than a fresh process -- harmless while
    ids only break ties, but a latent determinism trap for anything keyed
    on absolute ids.  Running the same scenario twice in one process must
    reproduce the golden hash both times.
    """

    def test_second_system_matches_golden(self):
        first = run_mix_simple().stats.fingerprint()
        second = run_mix_simple().stats.fingerprint()
        assert first == GOLDEN_MIX_SIMPLE
        assert second == GOLDEN_MIX_SIMPLE

    def test_request_ids_restart_per_system(self):
        system_a = run_mix_simple()
        system_b = run_mix_simple()
        assert system_a.request_ids is not system_b.request_ids
        # Both systems consumed the same id range from their own allocator.
        assert next(system_a.request_ids._count) \
            == next(system_b.request_ids._count)
