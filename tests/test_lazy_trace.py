"""Trace work proportional to simulated cycles.

Cores replay a trace by ``(position, wraps)`` over its shared growing
prefix (:class:`~repro.workloads.trace.TracePrefix`), the batched kernel
indexes the prefix's columns directly, and every DRAM line is mapped once
into a shared bounded memo (tested in ``test_dram_mapping.py``).  These
tests pin that a short run synthesises only a fraction of its traces, that
chunk edges and wraps replay exactly what the heap kernel does, that
systems sharing a memo agree, that a checkpoint carries the position but
not the events, and that a prefix holds nothing per event but its
columns.
"""

import gc
from dataclasses import replace

import pytest

from repro.analysis import contracts
from repro.dram.address_map import coord_memo
from repro.resilience.checkpoint import load_checkpoint, save_checkpoint
from repro.sim import soa
from repro.sim.system import SCALED_MULTI_CONFIG, SimSystem
from repro.workloads import generator
from repro.workloads.generator import (BenchmarkProfile, PhaseProfile,
                                       SyntheticTrace)
from repro.workloads.mixes import workload_traces
from repro.workloads.trace import (TRACE_CHUNK, ListTrace, TraceEvent,
                                   TracePrefix, trace_prefix)

HEAP = replace(SCALED_MULTI_CONFIG, kernel="heap")
BATCHED = replace(SCALED_MULTI_CONFIG, kernel="batched")


def _short_trace(name: str, length: int, seed: int = 3) -> SyntheticTrace:
    """A single-phase trace of exactly ``length`` events, dense enough in
    time to wrap several times in a few tens of thousands of cycles."""
    phase = PhaseProfile(length=length, burst_gap=1.0, idle_gap=4.0,
                         working_set=48 * 1024, sequential_fraction=0.6,
                         write_fraction=0.3)
    return SyntheticTrace(BenchmarkProfile(name=name, phases=(phase,),
                                           base_address=1 << 24, mlp=4),
                          seed=seed)


def _traces(name: str, length: int, seed: int):
    """Two short traces; equal arguments give equal (memo-sharing)
    traces."""
    return [_short_trace(f"{name}-{i}", length, seed=seed + i)
            for i in range(2)]


def _events(trace):
    """Every event of ``trace``, synthesised afresh outside the memo."""
    prefix = TracePrefix(fill=trace._synthesise)
    prefix.reach(len(trace) + 1)
    return [prefix.event(pos) for pos in range(len(prefix))]


def _assert_proportional(system: SimSystem) -> None:
    """Each core's prefix ends less than a chunk past what it read, far
    short of the whole trace."""
    for core in system.cores:
        materialised = len(core.trace.prefix())
        assert core.wraps == 0
        assert 0 < core._pos <= materialised < core._pos + TRACE_CHUNK
        assert materialised * 4 < len(core.trace)


def _snapshot(traces, config, cycles: int):
    system = SimSystem(traces, config=config)
    system.run(cycles)
    return system


class TestTracePrefix:
    @pytest.mark.parametrize("length", [
        TRACE_CHUNK - 1, TRACE_CHUNK, TRACE_CHUNK + 1, 3 * TRACE_CHUNK])
    def test_prefix_grows_in_chunks_to_the_generator_output(self, length):
        trace = _short_trace(f"prefix-{length}", length)
        events = _events(trace)
        assert len(events) == length
        for source in ({"fill": trace._synthesise}, {"source": iter(events)}):
            prefix = TracePrefix(**source)
            sizes = []
            while prefix.extend():
                sizes.append(len(prefix))
            assert [prefix.event(pos) for pos in range(length)] == events
            assert all(size % TRACE_CHUNK == 0 for size in sizes[:-1])
            assert sizes[-1] == length
            assert not prefix.extend()

    def test_iteration_replays_the_shared_prefix(self):
        trace = _short_trace("iterate", 2 * TRACE_CHUNK + 5)
        assert list(trace) == _events(trace)
        assert all(type(event) is TraceEvent for event in trace)
        assert list(trace) == list(trace)
        assert trace_prefix(trace) is trace.prefix()
        assert not trace.prefix().extend()

    def test_plain_iterables_get_a_private_prefix(self):
        events = _events(_short_trace("plain", 40))
        listed = ListTrace(events)
        first, second = trace_prefix(listed), trace_prefix(listed)
        assert first is not second
        first.reach(10)
        assert [first.event(pos) for pos in range(len(first))] == events
        with pytest.raises(TypeError):
            trace_prefix(object())


class TestProportionalWork:
    @pytest.mark.parametrize("config", [HEAP, BATCHED])
    def test_short_mix1_run_materialises_a_fraction(self, config):
        # A 3k-cycle mix-1 run reads a few dozen events per core; the
        # traces hold 1.2k-20k events each.  Fresh seeds, so no earlier
        # test has grown these prefixes.
        seed = 70_001 if config is HEAP else 70_101
        traces = workload_traces(1, seed=seed)
        system = SimSystem(traces, config=config)
        system.run(3_000)
        _assert_proportional(system)
        if config is BATCHED and not contracts.enabled:
            assert all(core._works is core._prefix.works
                       and core._n == len(core._prefix)
                       for core in system.cores)


class TestChunkEdges:
    @pytest.mark.parametrize("length", [
        37, TRACE_CHUNK - 1, TRACE_CHUNK, TRACE_CHUNK + 1, 2 * TRACE_CHUNK])
    def test_wrapping_replay_matches_heap_kernel(self, length):
        cycles = 40_000
        name = f"edge-{length}"
        heap = _snapshot(_traces(name, length, 11), HEAP, cycles)
        batched = _snapshot(_traces(name, length, 11), BATCHED, cycles)
        assert all(core.wraps >= 3 for core in heap.cores)
        assert [core.wraps for core in batched.cores] \
            == [core.wraps for core in heap.cores]
        assert batched.stats.snapshot() == heap.stats.snapshot()

    @pytest.mark.parametrize("config", [HEAP, BATCHED])
    def test_wraps_equal_an_unrolled_trace(self, config):
        # Position replay across wraps reads exactly the events a trace
        # holding the same events back to back would.
        length = TRACE_CHUNK + 1
        trace = _short_trace("unrolled", length, seed=4)
        wrapped = _snapshot([trace], config, 40_000)
        wraps = wrapped.cores[0].wraps
        assert wraps >= 3
        unrolled = ListTrace(_events(trace) * (wraps + 2))
        flat = _snapshot([unrolled], replace(config, default_mlp=4), 40_000)
        assert flat.cores[0].wraps == 0
        assert wrapped.stats.snapshot() == flat.stats.snapshot()

    def test_window_core_wraps_equal_an_unrolled_trace(self):
        config = replace(SCALED_MULTI_CONFIG, core_model="window")
        trace = _short_trace("window-unrolled", TRACE_CHUNK - 1, seed=6)
        wrapped = _snapshot([trace], config, 30_000)
        wraps = wrapped.cores[0].wraps
        assert wraps >= 3
        unrolled = ListTrace(_events(trace) * (wraps + 2))
        flat = _snapshot([unrolled], config, 30_000)
        assert flat.cores[0].wraps == 0
        assert wrapped.stats.snapshot() == flat.stats.snapshot()

    def test_window_core_synthesises_only_what_it_reads(self):
        config = replace(SCALED_MULTI_CONFIG, core_model="window")
        traces = workload_traces(1, seed=70_201)
        system = SimSystem(traces, config=config)
        assert all(not t.prefix() for t in traces)
        system.run(3_000)
        _assert_proportional(system)


class TestSharedMemo:
    def test_systems_sharing_a_memo_agree(self):
        cycles = 30_000
        length = 6 * TRACE_CHUNK
        first = SimSystem(_traces("shared", length, 21), config=BATCHED)
        early = SimSystem(_traces("shared", length, 21), config=BATCHED)
        first.run(cycles)
        # ``early`` was built before ``first`` grew the shared prefix and
        # picks up the events it added; ``late`` is built after.
        late = SimSystem(_traces("shared", length, 21), config=BATCHED)
        early.run(cycles)
        late.run(cycles)
        reference = _snapshot(_traces("shared", length, 21), HEAP, cycles)
        assert len(first.cores[0].trace.prefix()) > TRACE_CHUNK
        for system in (first, early, late):
            assert system.stats.snapshot() == reference.stats.snapshot()
        assert early.cores[0]._prefix is first.cores[0]._prefix
        assert late.cores[0]._prefix is first.cores[0]._prefix
        if not contracts.enabled:
            assert early.cores[0]._works is first.cores[0]._prefix.works
        assert early.dram.mapper._memo is first.dram.mapper._memo

    def test_coord_table_is_exactly_the_trace_lines(self):
        trace = _short_trace("coords", 300, seed=8)
        table = soa.dram_coord_table(trace, BATCHED.timing, "row")
        lines = {event.address >> 6 for event in trace}
        assert set(table) == lines
        memo = coord_memo(BATCHED.timing, "row")
        assert all(memo.get(line, value) == value
                   for line, value in table.items())


class TestCheckpointPosition:
    @pytest.mark.parametrize("config", [
        HEAP, BATCHED, replace(SCALED_MULTI_CONFIG, core_model="window")])
    def test_restore_after_clearing_memos_continues_exactly(self, tmp_path,
                                                            config):
        cycles = 40_000
        length = 12 * TRACE_CHUNK + 3
        reference = _snapshot(_traces("ckpt", length, 31), config, cycles)

        system = SimSystem(_traces("ckpt", length, 31), config=config)
        system.run(cycles // 4)
        saved = [(core._pos, core.wraps) for core in system.cores]
        assert all(0 < pos and wraps == 0 for pos, wraps in saved)
        path = tmp_path / "mid.ckpt"
        save_checkpoint(system, path)
        generator._TRACE_MEMO.clear()
        resumed = load_checkpoint(path)
        for core, (pos, _wraps) in zip(resumed.cores, saved):
            assert pos <= len(core._prefix) < length
            assert core._prefix is core.trace.prefix()
        resumed.run(cycles - cycles // 4)
        assert resumed.stats.snapshot() == reference.stats.snapshot()

    @pytest.mark.parametrize("config", [HEAP, BATCHED])
    def test_checkpoint_body_carries_no_events(self, tmp_path, config):
        system = SimSystem(workload_traces(1, seed=7), config=config)
        system.run(3_000)
        path = tmp_path / "small.ckpt"
        save_checkpoint(system, path)
        assert b"TraceEvent" not in path.read_bytes()
        assert b"TracePrefix" not in path.read_bytes()


class TestPrefixColumns:
    def test_prefix_holds_no_per_event_objects(self):
        # One trace, one representation: a grown prefix references its
        # two 8-byte columns and its flag bytes, never an object per event.
        traces = workload_traces(4, seed=70_301)
        for trace in traces:
            prefix = soa.trace_columns(trace, 64)
            assert len(prefix) == len(trace)
            referents = [ref for ref in gc.get_referents(prefix)
                         if ref is not None and ref is not type(prefix)]
            assert sorted(type(ref).__name__ for ref in referents) \
                == ["array", "array", "bytearray"]
            assert prefix.works.typecode == prefix.addrs.typecode == "q"
            size = sum(column.buffer_info()[1] * column.itemsize
                       for column in (prefix.works, prefix.addrs)) \
                + len(prefix.flags)
            assert size == 17 * len(prefix)
            allocated = sum(column.__sizeof__() for column in referents)
            assert allocated <= 24 * len(prefix)

    def test_malformed_record_names_its_event(self):
        events = [TraceEvent(1, 64, False)] * (TRACE_CHUNK + 2)
        events[TRACE_CHUNK + 1] = TraceEvent(1, "not an address", False)
        prefix = trace_prefix(ListTrace(events))
        assert prefix.extend()
        for _ in range(2):
            # the error sticks: no retry skips past the bad event
            with pytest.raises(ValueError,
                               match=f"trace event {TRACE_CHUNK + 1}:"):
                prefix.extend()
        assert len(prefix) == len(prefix.addrs) == len(prefix.flags) \
            == TRACE_CHUNK + 1

    @pytest.mark.parametrize("event", [
        TraceEvent(1, 1 << 63, False), TraceEvent(1 << 64, 0, True),
        TraceEvent(None, 0, False), (1, 2, False)])
    def test_out_of_range_or_malformed_field_is_a_value_error(self, event):
        listed = ListTrace([TraceEvent(0, 64, False), event])
        with pytest.raises(ValueError, match="trace event 1:"):
            trace_prefix(listed).extend()
        with pytest.raises(ValueError, match="trace event 1:"):
            SimSystem([listed], config=BATCHED).run(100)
