"""Heap-vs-batched kernel equivalence on full systems.

Both kernels run on the one heap :class:`~repro.sim.engine.Engine` and
build the same LLC, memory controller and DRAM; they differ only in the
core class (the checked :class:`~repro.sim.core_model.CoreModel` vs. the
fused :class:`~repro.sim.batched.BatchedCoreModel`).  The golden-fingerprint suite pins both
kernels to recorded hashes; these
tests assert the stronger property directly -- the complete
:meth:`~repro.sim.stats.SystemStats.snapshot` documents are *equal*
between kernels, so a divergence points at the exact statistic instead of
an opaque hash mismatch.  They also cover the batched kernel's config
surface (validation, checkpointing) that the goldens don't touch.
"""

from dataclasses import replace

import pytest

from repro.analysis import contracts
from repro.core.bins import BinConfig
from repro.core.shaper import MittsShaper
from repro.experiments.common import conventional_schedulers
from repro.sched import (FairQueueScheduler, FcfsScheduler, FrFcfsScheduler,
                         FstController, MemGuardScheduler, MiseScheduler,
                         TcmScheduler, build_hybrid)
from repro.sim.batched import BatchedCoreModel
from repro.sim.core_model import CoreModel
from repro.sim.engine import Engine
from repro.sim.llc import SharedLLC
from repro.sim.memctrl import MemoryController
from repro.sim.system import (SCALED_MULTI_CONFIG, SCALED_SINGLE_CONFIG,
                              SimSystem)
from repro.workloads.benchmarks import trace_for
from repro.workloads.mixes import workload_traces

CYCLES = 60_000


def _shaped_system(kernel: str, phase_stride: int = 0) -> SimSystem:
    traces = workload_traces(2, seed=5)
    config = replace(SCALED_MULTI_CONFIG, kernel=kernel)
    credits = [4, 4, 3, 3, 2, 2, 1, 1, 1, 1]
    limiters = [MittsShaper(BinConfig.from_credits(credits),
                            phase=phase_stride * i)
                for i in range(len(traces))]
    return SimSystem(traces, config=config, limiters=limiters,
                     scheduler=FrFcfsScheduler(len(traces)))


class TestKernelSelection:
    def test_default_config_uses_engine(self):
        # One component set: the engine, LLC and memory controller are the
        # same classes whatever the kernel or contract mode; only the core
        # class varies, and only with the kernel, so contracts check the
        # core that default runs use.
        heap = replace(SCALED_MULTI_CONFIG, kernel="heap")
        for enabled in (False, True):
            for config, core_type in ((SCALED_MULTI_CONFIG,
                                       BatchedCoreModel),
                                      (heap, CoreModel)):
                with contracts.enabled_scope(enabled):
                    system = SimSystem(workload_traces(1, seed=3),
                                       config=config)
                assert type(system.engine) is Engine
                assert type(system.llc) is SharedLLC
                assert type(system.mc) is MemoryController
                assert {type(core) for core in system.cores} == {core_type}

    def test_heap_config_uses_heap_engine(self):
        config = replace(SCALED_MULTI_CONFIG, kernel="heap")
        system = SimSystem(workload_traces(1, seed=3), config=config)
        assert isinstance(system.engine, Engine)

    def test_unknown_kernel_rejected(self):
        config = replace(SCALED_MULTI_CONFIG, kernel="quantum")
        with pytest.raises(ValueError, match="kernel"):
            SimSystem(workload_traces(1, seed=3), config=config)


class TestSnapshotEquality:
    """Full snapshot documents match between kernels, field for field."""

    def _run_pair(self, build):
        snapshots = {}
        for kernel in ("heap", "batched"):
            system = build(kernel)
            system.run(CYCLES)
            snapshots[kernel] = system.stats.snapshot()
        return snapshots

    def test_unshaped_multi(self):
        def build(kernel):
            config = replace(SCALED_MULTI_CONFIG, kernel=kernel)
            return SimSystem(workload_traces(1, seed=5), config=config)

        snapshots = self._run_pair(build)
        assert snapshots["heap"] == snapshots["batched"]

    def test_single_core(self):
        def build(kernel):
            config = replace(SCALED_SINGLE_CONFIG, kernel=kernel)
            return SimSystem([trace_for("mcf", seed=5)], config=config)

        snapshots = self._run_pair(build)
        assert snapshots["heap"] == snapshots["batched"]

    def test_shaped_aligned_phases(self):
        # Aligned phases: every shaper crosses its T_r boundary on the
        # same cycle.
        snapshots = self._run_pair(lambda k: _shaped_system(k))
        assert snapshots["heap"] == snapshots["batched"]

    def test_shaped_staggered_phases(self):
        # Staggered phases (anti-lockstep) have no common boundary.
        snapshots = self._run_pair(
            lambda k: _shaped_system(k, phase_stride=17))
        assert snapshots["heap"] == snapshots["batched"]

    @pytest.mark.parametrize("overrides, llc_fast, core_fast", [
        ({"llc_banks": 6, "llc_size": 3 * 64 * 1024}, False, True),
        ({"l1_size": 6 * 1024, "l1_ways": 4}, True, False),
        ({"line_bytes": 48, "l1_size": 6 * 1024,
          "llc_size": 3 * 64 * 1024}, False, False),
    ], ids=["llc-6-banks-384-sets", "l1-24-sets", "48-byte-lines"])
    def test_non_power_of_two_geometry(self, overrides, llc_fast,
                                       core_fast):
        # A geometry without shift/mask indexing takes the div/mod
        # fallbacks: Cache.access in the LLC, CoreModel._run in the core.
        def build(kernel):
            config = replace(SCALED_MULTI_CONFIG, kernel=kernel,
                             **overrides)
            system = SimSystem(workload_traces(1, seed=5), config=config)
            assert system.llc._fast is llc_fast
            for core in system.cores:
                if type(core) is BatchedCoreModel:
                    assert core._fast is core_fast
            return system

        snapshots = self._run_pair(build)
        assert snapshots["heap"] == snapshots["batched"]
        assert snapshots["heap"]["row_hits"] + \
            snapshots["heap"]["row_misses"] > 0

    def test_events_executed_matches(self):
        counts = {}
        for kernel in ("heap", "batched"):
            config = replace(SCALED_MULTI_CONFIG, kernel=kernel)
            system = SimSystem(workload_traces(1, seed=5), config=config)
            system.run(CYCLES)
            counts[kernel] = system.engine.events_executed
        assert counts["heap"] == counts["batched"]


#: every scheduler the controller dispatches for ("FST" is FR-FCFS with
#: the source-throttling controller attached)
SCHEDULERS = {
    "FCFS": FcfsScheduler, "FR-FCFS": FrFcfsScheduler,
    "FairQueue": FairQueueScheduler, "TCM": TcmScheduler,
    "MemGuard": MemGuardScheduler, "MISE": MiseScheduler,
    "FST": FrFcfsScheduler,
}


def test_scheduler_table_covers_every_comparator():
    # A comparator added to the experiments must also run the heap-vs-
    # batched check below, under the class the experiments build.
    for name, factory in conventional_schedulers().items():
        assert SCHEDULERS.get(name) is factory, name


def _scheduled_system(kernel: str, name: str) -> SimSystem:
    """Mix 1 under the scheduler ``name``: a key of ``SCHEDULERS``,
    ``"fallback"`` (no scheduler given) or ``"hybrid"`` (MITTS+MISE)."""
    traces = workload_traces(1, seed=5)
    cores = len(traces)
    config = replace(SCALED_MULTI_CONFIG, kernel=kernel)
    limiters = None
    if name == "hybrid":
        configs = [BinConfig.from_credits([4, 4, 3, 3, 2, 2, 1, 1, 1, 1])
                   for _ in range(cores)]
        scheduler, limiters = build_hybrid(cores, configs)
    elif name == "fallback":
        scheduler = None
    else:
        scheduler = SCHEDULERS[name](cores)
    system = SimSystem(traces, config=config, limiters=limiters,
                       scheduler=scheduler)
    if name == "FST":
        FstController(system, epoch=5_000)
    return system


@pytest.mark.parametrize("name", sorted(SCHEDULERS) + ["fallback",
                                                       "hybrid"])
def test_every_scheduler_matches_heap_kernel(name):
    # Both kernels share the ports, LLC and controller; the fused core
    # hands them the same requests at the same cycles under every policy.
    results = {}
    for kernel in ("heap", "batched"):
        system = _scheduled_system(kernel, name)
        system.run(40_000)
        results[kernel] = (system.stats.snapshot(),
                           system.stats.fingerprint(), system.mc.dispatched)
    assert results["heap"] == results["batched"]
    assert results["heap"][2] > 500


class TestBatchedCheckpoint:
    def test_roundtrip_reproduces_uninterrupted_run(self, tmp_path):
        config = replace(SCALED_MULTI_CONFIG, kernel="batched")
        reference = SimSystem(workload_traces(1, seed=5), config=config)
        reference.run(CYCLES)

        system = SimSystem(workload_traces(1, seed=5), config=config)
        system.run(CYCLES // 2)
        path = tmp_path / "batched.ckpt"
        system.save_checkpoint(path)
        resumed = SimSystem.load_checkpoint(path)
        # The prefix columns and the DRAM stamp memo are left out of the
        # checkpoint and re-derived on load; losing them would still be
        # bit-identical, just silently on the slow paths.
        assert {type(core) for core in resumed.cores} == {BatchedCoreModel}
        assert all(core._fast for core in resumed.cores)
        assert resumed.dram.mapper._memo is system.dram.mapper._memo
        resumed.run(CYCLES - CYCLES // 2)
        assert resumed.stats.snapshot() == reference.stats.snapshot()
        assert resumed.stats.fingerprint() == reference.stats.fingerprint()

    @pytest.mark.parametrize("kernel", ["heap", "batched"])
    def test_frfcfs_roundtrip_with_requests_queued_and_in_flight(
            self, tmp_path, kernel):
        # The stamps travel with the requests: a checkpoint taken while
        # requests wait in the queue and in DRAM restores them stamped.
        reference = _scheduled_system(kernel, "FR-FCFS")
        reference.run(CYCLES)

        system = _scheduled_system(kernel, "FR-FCFS")
        mc = system.mc
        while system.engine.now < CYCLES // 2 \
                and not (len(mc.queue) > 1 and mc._inflight > 0):
            system.run(250)
        assert len(mc.queue) > 1 and mc._inflight > 0
        path = tmp_path / "frfcfs.ckpt"
        system.save_checkpoint(path)
        resumed = SimSystem.load_checkpoint(path)
        mapper = resumed.dram.mapper
        assert [r.dram_coord for r in resumed.mc.queue] \
            == [mapper.fresh_coord(r.address) for r in resumed.mc.queue]
        assert resumed.mc._inflight == mc._inflight > 0
        resumed.run(CYCLES - resumed.engine.now)
        assert resumed.stats.snapshot() == reference.stats.snapshot()
        assert resumed.stats.fingerprint() == reference.stats.fingerprint()

    def test_checkpoint_omits_derivable_tables(self, tmp_path):
        # Per-trace tables are rebuilt from the memo on load, so a fused
        # checkpoint carries simulator state only; pickling the trace
        # iterators and the coordinate table would push it to ~1 MB.
        with contracts.enabled_scope(False):
            config = replace(SCALED_MULTI_CONFIG, kernel="batched")
            system = SimSystem(workload_traces(1, seed=7), config=config)
            system.run(10_000)
            path = tmp_path / "small.ckpt"
            system.save_checkpoint(path)
        assert path.stat().st_size < 100_000

    def test_heap_checkpoint_omits_the_trace(self, tmp_path):
        # The checked cores replay by position too: their checkpoint
        # carries (position, wraps), not an iterator over the memoised
        # events (which made a mix-1 heap checkpoint ~600 KB).
        config = replace(SCALED_MULTI_CONFIG, kernel="heap")
        system = SimSystem(workload_traces(1, seed=7), config=config)
        system.run(10_000)
        path = tmp_path / "small.ckpt"
        system.save_checkpoint(path)
        assert path.stat().st_size < 100_000

    def test_shaped_roundtrip_matches_heap(self, tmp_path):
        # Checkpoint mid-window with aligned shapers, restore, run to the
        # horizon: the result must still equal the heap kernel's.
        heap_system = _shaped_system("heap")
        heap_system.run(CYCLES)

        system = _shaped_system("batched")
        system.run(CYCLES // 2)
        path = tmp_path / "shaped.ckpt"
        system.save_checkpoint(path)
        resumed = SimSystem.load_checkpoint(path)
        resumed.run(CYCLES - CYCLES // 2)
        assert resumed.stats.snapshot() == heap_system.stats.snapshot()
