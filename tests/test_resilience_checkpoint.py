"""Checkpoint/restore: resumed runs must be bit-identical.

The oracle is the golden-fingerprint set: each golden mix is run to its
halfway point, checkpointed, restored from disk, and run to completion --
the final fingerprint must equal the recorded golden hash exactly, with
contracts both off and on.  The format tests prove a damaged checkpoint
is *rejected* (``CheckpointError``), never silently half-loaded.
"""

import os
import pickletools
from dataclasses import replace

import pytest

from repro.analysis import ContractViolation, contracts
from repro.core.bins import BinConfig
from repro.core.shaper import MittsShaper
from repro.resilience.checkpoint import (CHECKPOINT_VERSION, CheckpointError,
                                         checkpoint_scope,
                                         discard_checkpoint,
                                         job_checkpoint_path,
                                         load_checkpoint,
                                         read_checkpoint_meta,
                                         run_with_checkpoints,
                                         save_checkpoint)
from repro.sched.base import FcfsScheduler, FrFcfsScheduler
from repro.sim.system import SCALED_MULTI_CONFIG, SimSystem
from repro.workloads.mixes import workload_traces

from tests.test_golden_fingerprints import (GOLDEN_CYCLES, GOLDEN_MIX_FCFS,
                                            GOLDEN_MIX_SIMPLE,
                                            GOLDEN_MIX_WINDOW_SHAPED)

HALFWAY = GOLDEN_CYCLES // 2


def build_mix_simple() -> SimSystem:
    return SimSystem(workload_traces(1, seed=11),
                     config=SCALED_MULTI_CONFIG)


def build_mix_window_shaped() -> SimSystem:
    traces = workload_traces(2, seed=22)
    config = replace(SCALED_MULTI_CONFIG, core_model="window")
    credits = [4, 4, 3, 3, 2, 2, 1, 1, 1, 1]
    limiters = [MittsShaper(BinConfig.from_credits(credits), phase=17 * i)
                for i in range(len(traces))]
    return SimSystem(traces, config=config, limiters=limiters,
                     scheduler=FrFcfsScheduler(len(traces)))


def build_mix_fcfs() -> SimSystem:
    traces = workload_traces(3, seed=33)
    return SimSystem(traces, config=SCALED_MULTI_CONFIG,
                     scheduler=FcfsScheduler(len(traces)))


GOLDEN_MIXES = [
    pytest.param(build_mix_simple, GOLDEN_MIX_SIMPLE, id="simple"),
    pytest.param(build_mix_window_shaped, GOLDEN_MIX_WINDOW_SHAPED,
                 id="window-shaped"),
    pytest.param(build_mix_fcfs, GOLDEN_MIX_FCFS, id="fcfs"),
]


def _small_system() -> SimSystem:
    return build_mix_simple()


@pytest.mark.slow
class TestGoldenResume:
    @pytest.mark.parametrize("build, golden", GOLDEN_MIXES)
    def test_resume_reproduces_golden(self, build, golden, tmp_path):
        path = tmp_path / "half.ckpt"
        system = build()
        system.run(HALFWAY)
        system.save_checkpoint(path)
        del system

        resumed = SimSystem.load_checkpoint(path)
        assert resumed.engine.now == HALFWAY
        resumed.run(GOLDEN_CYCLES - HALFWAY)
        assert resumed.stats.fingerprint() == golden

    def test_resume_reproduces_golden_with_contracts(self, tmp_path):
        path = tmp_path / "half.ckpt"
        with contracts.enabled_scope():
            system = build_mix_window_shaped()
            system.run(HALFWAY)
            save_checkpoint(system, path)
            resumed = load_checkpoint(path)
            resumed.run(GOLDEN_CYCLES - HALFWAY)
            assert resumed.stats.fingerprint() == GOLDEN_MIX_WINDOW_SHAPED

    def test_contracts_switched_on_after_load_check_next_deduct(
            self, tmp_path):
        # Saved and restored with contracts off, then switched on: the
        # restored credit counters are checked at the very next deduct.
        # A restore rebinds nothing, because nothing captured the flag.
        path = tmp_path / "toggle.ckpt"
        with contracts.enabled_scope(False):
            system = build_mix_window_shaped()
            system.run(1_000)
            save_checkpoint(system, path)
            resumed = load_checkpoint(path)
            state = resumed.ports[0].limiter.state
            state.counts[0] = 2
            state.counts[1] = state.config.credits[1] + 5  # n_1 > K_1
            state.deduct(0)  # off: unchecked
        with contracts.enabled_scope():
            with pytest.raises(ContractViolation,
                               match=r"CreditState\.deduct .*\[0, K_i\]"):
                state.deduct(0)


class TestCheckpointFormat:
    def test_meta_readable_without_unpickling(self, tmp_path):
        path = tmp_path / "meta.ckpt"
        system = _small_system()
        system.run(2_000)
        save_checkpoint(system, path)
        meta = read_checkpoint_meta(path)
        assert meta["version"] == CHECKPOINT_VERSION
        assert meta["cycle"] == 2_000
        assert meta["cores"] == len(system.cores)
        assert meta["pending_events"] == system.engine.pending_events

    def test_corrupted_body_rejected(self, tmp_path):
        path = tmp_path / "corrupt.ckpt"
        system = _small_system()
        system.run(1_000)
        save_checkpoint(system, path)
        raw = bytearray(path.read_bytes())
        raw[-10] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="integrity"):
            load_checkpoint(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "not-a-checkpoint"
        path.write_bytes(b"definitely not a checkpoint\n")
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)
        with pytest.raises(CheckpointError, match="magic"):
            read_checkpoint_meta(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            load_checkpoint(tmp_path / "never-written.ckpt")

    def test_version_mismatch_rejected(self, tmp_path, monkeypatch):
        path = tmp_path / "future.ckpt"
        system = _small_system()
        system.run(500)
        import repro.resilience.checkpoint as checkpoint_module
        monkeypatch.setattr(checkpoint_module, "CHECKPOINT_VERSION", 999)
        save_checkpoint(system, path)
        monkeypatch.undo()
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    @pytest.mark.parametrize("version", [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11])
    def test_previous_format_rejected(self, tmp_path, version):
        # A file from an earlier release carries its old magic line; it
        # must fail as a version mismatch, never reach the unpickler.
        path = tmp_path / "old.ckpt"
        system = _small_system()
        system.run(500)
        save_checkpoint(system, path)
        raw = path.read_bytes()
        path.write_bytes(b"repro-checkpoint-v%d\n" % version
                         + raw.partition(b"\n")[2])
        with pytest.raises(CheckpointError, match=f"version {version}"):
            load_checkpoint(path)

    @pytest.mark.parametrize("kernel", ["heap", "batched"])
    def test_body_holds_no_itertools_objects(self, tmp_path, kernel):
        # Pickling itertools objects is deprecated since Python 3.12 and
        # removed in 3.14: the engine's event counter and the request-id
        # allocator must serialise as plain ints.
        path = tmp_path / "counters.ckpt"
        system = SimSystem(workload_traces(1, seed=11),
                           config=replace(SCALED_MULTI_CONFIG, kernel=kernel))
        system.run(500)
        counter = system.engine._counter
        ids = system.request_ids._count
        save_checkpoint(system, path)
        assert b"itertools" not in path.read_bytes()
        # Saving reads the live counters; it never replaces them.
        assert system.engine._counter is counter
        assert system.request_ids._count is ids
        resumed = load_checkpoint(path)
        assert next(resumed.engine._counter) == next(counter)
        assert resumed.request_ids() == system.request_ids()

    def test_checkpoint_pickles_cache_sets_natively(self, tmp_path):
        # Cache sets are plain dicts, which pickle in C; an OrderedDict
        # set would pickle through a Python-level __reduce__ per set.
        path = tmp_path / "sets.ckpt"
        with contracts.enabled_scope(False):
            system = SimSystem(workload_traces(1, seed=11),
                               config=replace(SCALED_MULTI_CONFIG,
                                              kernel="batched"))
            system.run(750)
            save_checkpoint(system, path)
        body = path.read_bytes().split(b"\n", 3)[3]
        # Protocol 4+ names a global by pushing its module and name as
        # strings before STACK_GLOBAL.
        strings = {arg for _op, arg, _pos in pickletools.genops(body)
                   if isinstance(arg, str)}
        assert {"repro.sim.cache", "Cache"} <= strings
        assert "OrderedDict" not in strings

    def test_unpicklable_system_raises_checkpoint_error(self, tmp_path):
        system = _small_system()
        system.run(100)
        # a lambda in the event heap cannot pickle
        system.engine.schedule_in(1, lambda: None)
        with pytest.raises(CheckpointError, match="not checkpointable"):
            save_checkpoint(system, tmp_path / "nope.ckpt")
        assert not (tmp_path / "nope.ckpt").exists()

    def test_discard_is_none_safe_and_idempotent(self, tmp_path):
        discard_checkpoint(None)
        path = tmp_path / "gone.ckpt"
        path.write_bytes(b"x")
        discard_checkpoint(path)
        assert not path.exists()
        discard_checkpoint(path)  # already gone: still fine


class TestRunWithCheckpoints:
    def test_chunked_run_matches_straight_run(self, tmp_path):
        straight = _small_system()
        straight.run(10_000)
        expected = straight.stats.fingerprint()

        path = tmp_path / "periodic.ckpt"
        system = run_with_checkpoints(_small_system, 10_000, path=path,
                                      interval=3_000)
        assert system.stats.fingerprint() == expected
        # The last periodic save (cycle 9_000) is left for the caller.
        assert read_checkpoint_meta(path)["cycle"] == 9_000

    def test_resumes_from_existing_checkpoint(self, tmp_path):
        path = tmp_path / "resume.ckpt"
        half = _small_system()
        half.run(6_000)
        save_checkpoint(half, path)

        calls = []

        def tracked_make():
            calls.append(1)
            return _small_system()

        system = run_with_checkpoints(tracked_make, 10_000, path=path,
                                      interval=50_000)
        assert calls == []  # resumed, never rebuilt from scratch
        straight = _small_system()
        straight.run(10_000)
        assert system.stats.fingerprint() == straight.stats.fingerprint()

    def test_corrupt_checkpoint_discarded_and_restarted(self, tmp_path):
        path = tmp_path / "rotted.ckpt"
        half = _small_system()
        half.run(6_000)
        save_checkpoint(half, path)
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF
        path.write_bytes(bytes(raw))

        system = run_with_checkpoints(_small_system, 10_000, path=path,
                                      interval=50_000)
        straight = _small_system()
        straight.run(10_000)
        assert system.stats.fingerprint() == straight.stats.fingerprint()

    def test_no_path_runs_without_saving(self, tmp_path):
        system = run_with_checkpoints(_small_system, 5_000, interval=1_000)
        assert system.engine.now == 5_000
        assert list(tmp_path.iterdir()) == []

    def test_bad_interval_rejected(self):
        with pytest.raises(ValueError, match="interval"):
            run_with_checkpoints(_small_system, 1_000, interval=0)


class TestAmbientCheckpointPath:
    def test_scope_publishes_and_restores(self):
        assert job_checkpoint_path() is None
        with checkpoint_scope("/tmp/a.ckpt"):
            assert job_checkpoint_path() == "/tmp/a.ckpt"
            with checkpoint_scope(None):
                assert job_checkpoint_path() is None
            assert job_checkpoint_path() == "/tmp/a.ckpt"
        assert job_checkpoint_path() is None

    def test_run_with_checkpoints_uses_ambient_path(self, tmp_path):
        path = tmp_path / "ambient.ckpt"
        with checkpoint_scope(str(path)):
            run_with_checkpoints(_small_system, 8_000, interval=3_000)
        assert path.exists()
        assert read_checkpoint_meta(path)["cycle"] == 6_000
