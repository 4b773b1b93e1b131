"""Full-system pins of the one core model, carried over from the kernels.

The simulator used to build either a checked core (``kernel="heap"``) or
a fused copy of it (``kernel="batched"``), and these tests asserted that
the two produced equal statistics.  There is one core now, and
``SystemConfig.kernel`` is inert: both values build
:class:`~repro.sim.core_model.CoreModel`.  Each former equality is a pin
against the stats fingerprint (:meth:`~repro.sim.stats.SystemStats.
fingerprint`) recorded at commit 536483f, where both kernels agreed on
it.  The tests also cover configuration surface the goldens don't touch
(non-power-of-two geometries, every scheduler, checkpointing).
"""

import importlib
from dataclasses import replace

import pytest

from repro.analysis import contracts
from repro.core.bins import BinConfig
from repro.core.shaper import MittsShaper
from repro.experiments.common import conventional_schedulers
from repro.sched import (FairQueueScheduler, FcfsScheduler, FrFcfsScheduler,
                         FstController, MemGuardScheduler, MiseScheduler,
                         TcmScheduler, build_hybrid)
from repro.sim.core_model import CoreModel
from repro.sim.engine import Engine
from repro.sim.llc import SharedLLC
from repro.sim.memctrl import MemoryController
from repro.sim.system import (SCALED_MULTI_CONFIG, SCALED_SINGLE_CONFIG,
                              SimSystem)
from repro.workloads.benchmarks import trace_for
from repro.workloads.mixes import workload_traces

CYCLES = 60_000

#: fingerprints recorded at commit 536483f under both kernels, Python 3.11
PIN_UNSHAPED_MULTI = \
    "d7e87d6f8b0b1c312fe9e26c20cce744af28223b59513e2bc3e28d9688c46668"
PIN_SINGLE_CORE = \
    "8dd50169061ba1ddf8603ae34be59ff66ed4fe1f235164030af65d14b81141f0"
PIN_SHAPED_ALIGNED = \
    "5dc8766af40e53807c1cfe0ec47901405182adda5ef316458d7378c9c0624971"
PIN_SHAPED_STAGGERED = \
    "c8a0712e64472d2a21c3b93259f37473ffdf52fdae83130c853275d801012a50"


def _shaped_system(phase_stride: int = 0) -> SimSystem:
    traces = workload_traces(2, seed=5)
    credits = [4, 4, 3, 3, 2, 2, 1, 1, 1, 1]
    limiters = [MittsShaper(BinConfig.from_credits(credits),
                            phase=phase_stride * i)
                for i in range(len(traces))]
    return SimSystem(traces, config=SCALED_MULTI_CONFIG, limiters=limiters,
                     scheduler=FrFcfsScheduler(len(traces)))


class TestKernelSelection:
    def test_default_config_uses_engine(self):
        # One component set: the engine, LLC, memory controller and core
        # are the same classes whatever the kernel value or contract mode,
        # so contracts check the code that default runs use.
        heap = replace(SCALED_MULTI_CONFIG, kernel="heap")
        for enabled in (False, True):
            for config in (SCALED_MULTI_CONFIG, heap):
                with contracts.enabled_scope(enabled):
                    system = SimSystem(workload_traces(1, seed=3),
                                       config=config)
                assert type(system.engine) is Engine
                assert type(system.llc) is SharedLLC
                assert type(system.mc) is MemoryController
                assert {type(core) for core in system.cores} == {CoreModel}

    def test_heap_config_uses_heap_engine(self):
        config = replace(SCALED_MULTI_CONFIG, kernel="heap")
        system = SimSystem(workload_traces(1, seed=3), config=config)
        assert isinstance(system.engine, Engine)

    @pytest.mark.parametrize("kernel", ["heap", "batched"])
    def test_every_kernel_value_builds_the_one_core(self, kernel):
        with pytest.raises(ImportError):
            importlib.import_module("repro.sim.batched")
        config = replace(SCALED_MULTI_CONFIG, kernel=kernel)
        system = SimSystem(workload_traces(1, seed=3), config=config)
        assert all(type(core) is CoreModel for core in system.cores)

    def test_unknown_kernel_rejected(self):
        config = replace(SCALED_MULTI_CONFIG, kernel="quantum")
        with pytest.raises(ValueError, match="kernel"):
            SimSystem(workload_traces(1, seed=3), config=config)


class TestSnapshotEquality:
    """Runs reproduce the fingerprints both kernels recorded."""

    def test_unshaped_multi(self):
        system = SimSystem(workload_traces(1, seed=5),
                           config=SCALED_MULTI_CONFIG)
        system.run(CYCLES)
        assert system.stats.fingerprint() == PIN_UNSHAPED_MULTI

    def test_single_core(self):
        system = SimSystem([trace_for("mcf", seed=5)],
                           config=SCALED_SINGLE_CONFIG)
        system.run(CYCLES)
        assert system.stats.fingerprint() == PIN_SINGLE_CORE

    def test_shaped_aligned_phases(self):
        # Aligned phases: every shaper crosses its T_r boundary on the
        # same cycle.
        system = _shaped_system()
        system.run(CYCLES)
        assert system.stats.fingerprint() == PIN_SHAPED_ALIGNED

    def test_shaped_staggered_phases(self):
        # Staggered phases (anti-lockstep) have no common boundary.
        system = _shaped_system(phase_stride=17)
        system.run(CYCLES)
        assert system.stats.fingerprint() == PIN_SHAPED_STAGGERED

    @pytest.mark.parametrize("overrides, llc_fast, pin", [
        ({"llc_banks": 6, "llc_size": 3 * 64 * 1024}, False,
         "d45db2d8718b8cfa0bd64560e656323792059ea4f87a6901712ce533d01fcd29"),
        ({"l1_size": 6 * 1024, "l1_ways": 4}, True,
         "58f6afffeb4c4768a1bbabd059f56dbb4b90d0b6256d2d5d1216305caac1f974"),
        ({"line_bytes": 48, "l1_size": 6 * 1024,
          "llc_size": 3 * 64 * 1024}, False,
         "2951f4c6bcc1ca8a8f1103073f2d0c84d788b578f3d944450fa18b80f0379067"),
    ], ids=["llc-6-banks-384-sets", "l1-24-sets", "48-byte-lines"])
    def test_non_power_of_two_geometry(self, overrides, llc_fast, pin):
        # A geometry without shift/mask indexing takes the div/mod
        # expressions: in Cache.access for the L1 and the LLC, and in the
        # core's line computation for a 48-byte line.
        config = replace(SCALED_MULTI_CONFIG, **overrides)
        system = SimSystem(workload_traces(1, seed=5), config=config)
        assert system.llc._fast is llc_fast
        system.run(CYCLES)
        assert system.stats.fingerprint() == pin
        assert system.stats.row_hits + system.stats.row_misses > 0

    def test_events_executed_matches(self):
        system = SimSystem(workload_traces(1, seed=5),
                           config=SCALED_MULTI_CONFIG)
        system.run(CYCLES)
        assert system.engine.events_executed == 5_184


#: every scheduler the controller dispatches for ("FST" is FR-FCFS with
#: the source-throttling controller attached)
SCHEDULERS = {
    "FCFS": FcfsScheduler, "FR-FCFS": FrFcfsScheduler,
    "FairQueue": FairQueueScheduler, "TCM": TcmScheduler,
    "MemGuard": MemGuardScheduler, "MISE": MiseScheduler,
    "FST": FrFcfsScheduler,
}


#: fingerprint and ``mc.dispatched`` after 40k cycles, per scheduler name
SCHEDULER_PINS = {
    "FCFS": ("1a1592adc62ca34f74b2d88c3832879c"
             "1de1cda747b8b8a903962e1f714d717d", 1_301),
    "FR-FCFS": ("b4b9d940ac11fa2673fe775204fdf88b"
                "d7fabedf3483ae0959a871b1f51004f3", 1_847),
    "FST": ("9d7fe61a0ba9e7e7b52baeb52332e141"
            "6125fad45b4ca27fc53fc4a9b7385d7f", 1_872),
    "FairQueue": ("617475eda02fbf5ad564002acfcafffc"
                  "f8b21245001d94ec9866222d47aca363", 1_127),
    "MISE": ("e3e6823e24f675814f4c471626c41023"
             "1f4238542c749c9b37e33e0d06c0bb42", 1_751),
    "MemGuard": ("265d4a6ecf06250a4ad564c1ede551c6"
                 "b793a97d0c0ea117a121c0a84a526e68", 1_583),
    "TCM": ("cd6ae7af93efb1a69e09cd5c0c7510c8"
            "c7e78d9a2819a3403f25bf34c07bf61e", 1_493),
    # no scheduler given: the FCFS fallback dispatches exactly as FCFS
    "fallback": ("1a1592adc62ca34f74b2d88c3832879c"
                 "1de1cda747b8b8a903962e1f714d717d", 1_301),
    "hybrid": ("6be737163c069a56d49be621905d3d9e"
               "c3cbde9551c8c60f3c1230e7fffc3996", 1_600),
}


def test_scheduler_table_covers_every_comparator():
    # A comparator added to the experiments must also run the pinned
    # check below, under the class the experiments build.
    for name, factory in conventional_schedulers().items():
        assert SCHEDULERS.get(name) is factory, name


def _scheduled_system(name: str) -> SimSystem:
    """Mix 1 under the scheduler ``name``: a key of ``SCHEDULERS``,
    ``"fallback"`` (no scheduler given) or ``"hybrid"`` (MITTS+MISE)."""
    traces = workload_traces(1, seed=5)
    cores = len(traces)
    limiters = None
    if name == "hybrid":
        configs = [BinConfig.from_credits([4, 4, 3, 3, 2, 2, 1, 1, 1, 1])
                   for _ in range(cores)]
        scheduler, limiters = build_hybrid(cores, configs)
    elif name == "fallback":
        scheduler = None
    else:
        scheduler = SCHEDULERS[name](cores)
    system = SimSystem(traces, config=SCALED_MULTI_CONFIG, limiters=limiters,
                       scheduler=scheduler)
    if name == "FST":
        FstController(system, epoch=5_000)
    return system


@pytest.mark.parametrize("name", sorted(SCHEDULERS) + ["fallback",
                                                       "hybrid"])
def test_every_scheduler_matches_heap_kernel(name):
    # The core hands the ports, LLC and controller the requests the
    # checked heap-kernel core handed them, under every policy: the run
    # reproduces the fingerprint and dispatch count recorded for it.
    system = _scheduled_system(name)
    system.run(40_000)
    assert (system.stats.fingerprint(), system.mc.dispatched) \
        == SCHEDULER_PINS[name]
    assert system.mc.dispatched > 500


class TestBatchedCheckpoint:
    def test_roundtrip_reproduces_uninterrupted_run(self, tmp_path):
        config = SCALED_MULTI_CONFIG
        reference = SimSystem(workload_traces(1, seed=5), config=config)
        reference.run(CYCLES)

        system = SimSystem(workload_traces(1, seed=5), config=config)
        system.run(CYCLES // 2)
        path = tmp_path / "batched.ckpt"
        system.save_checkpoint(path)
        resumed = SimSystem.load_checkpoint(path)
        # The prefix columns and the DRAM stamp memo are left out of the
        # checkpoint and re-derived on load: the cores index the shared
        # columns again and the mapper shares the stamp memo.
        for core, before in zip(resumed.cores, system.cores):
            assert core._works is before._prefix.works
        assert resumed.dram.mapper._memo is system.dram.mapper._memo
        resumed.run(CYCLES - CYCLES // 2)
        assert resumed.stats.snapshot() == reference.stats.snapshot()
        assert resumed.stats.fingerprint() == PIN_UNSHAPED_MULTI

    def test_frfcfs_roundtrip_with_requests_queued_and_in_flight(
            self, tmp_path):
        # The stamps travel with the requests: a checkpoint taken while
        # requests wait in the queue and in DRAM restores them stamped.
        reference = _scheduled_system("FR-FCFS")
        reference.run(CYCLES)

        system = _scheduled_system("FR-FCFS")
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
        # Per-trace tables are rebuilt from the memo on load, so a
        # checkpoint carries simulator state only; pickling the trace
        # iterators and the coordinate table would push it to ~1 MB.
        with contracts.enabled_scope(False):
            system = SimSystem(workload_traces(1, seed=7),
                               config=SCALED_MULTI_CONFIG)
            system.run(10_000)
            path = tmp_path / "small.ckpt"
            system.save_checkpoint(path)
        assert path.stat().st_size < 100_000

    def test_heap_checkpoint_omits_the_trace(self, tmp_path):
        # The cores replay by position: a checkpoint carries (position,
        # wraps), not an iterator over the memoised events (which made a
        # mix-1 checkpoint ~600 KB), whatever the kernel value.
        config = replace(SCALED_MULTI_CONFIG, kernel="heap")
        system = SimSystem(workload_traces(1, seed=7), config=config)
        system.run(10_000)
        path = tmp_path / "small.ckpt"
        system.save_checkpoint(path)
        assert path.stat().st_size < 100_000

    def test_shaped_roundtrip_matches_heap(self, tmp_path):
        # Checkpoint mid-window with aligned shapers, restore, run to the
        # horizon: the result still equals the heap kernel's recorded one.
        system = _shaped_system()
        system.run(CYCLES // 2)
        path = tmp_path / "shaped.ckpt"
        system.save_checkpoint(path)
        resumed = SimSystem.load_checkpoint(path)
        resumed.run(CYCLES - CYCLES // 2)
        assert resumed.stats.fingerprint() == PIN_SHAPED_ALIGNED
