"""Unit tests for the derivable per-trace state (prefix columns, DRAM
coordinates) that the batched kernel replays from."""

import pytest

from repro.dram.address_map import AddressMapper
from repro.dram.timing import DDR3_1333
from repro.sim.soa import dram_coord_table, trace_columns
from repro.workloads import generator
from repro.workloads.benchmarks import trace_for
from repro.workloads.trace import FLAG_DEPENDS, FLAG_WRITE, ListTrace, \
    TraceEvent

LINE_BYTES = 64


class TestTraceColumns:
    def test_columns_match_iterator_replay(self):
        trace = trace_for("mcf", seed=9)
        prefix = trace_columns(trace, LINE_BYTES)
        assert prefix is not None
        events = list(iter(trace))
        assert len(prefix) == len(events) == len(trace)
        for work, address, flag, event in zip(prefix.works, prefix.addrs,
                                              prefix.flags, events):
            assert work == event.work
            assert address == event.address
            assert bool(flag & FLAG_WRITE) == event.is_write
            assert bool(flag & FLAG_DEPENDS) == event.depends

    def test_columns_hold_plain_python_scalars(self):
        # Foreign integer types leaking into requests would poison
        # fingerprints and JSON documents downstream; every replayed event
        # must be plain (int, int, bool, bool), however the trace spelt it.
        class Wide(int):
            pass

        listed = ListTrace([TraceEvent(Wide(3), Wide(4096), 1, 0),
                            (True, 64.0, "w", [1])])
        prefix = trace_columns(listed, LINE_BYTES)
        assert [prefix.event(pos) for pos in range(len(prefix))] \
            == [(3, 4096, True, False), (1, 64, True, True)]
        prefix = trace_columns(trace_for("omnetpp", seed=9), LINE_BYTES)
        for pos in range(len(prefix)):
            event = prefix.event(pos)
            assert type(event) is TraceEvent
            assert [type(value) for value in event] \
                == [int, int, bool, bool]

    def test_non_power_of_two_line_size_falls_back(self):
        assert trace_columns(trace_for("mcf", seed=9), 48) is None
        assert trace_columns(trace_for("mcf", seed=9), 0) is None

    def test_unmaterialisable_trace_falls_back(self):
        assert trace_columns(object(), LINE_BYTES) is None

    def test_memoized_per_profile_seed(self):
        a = trace_columns(trace_for("mcf", seed=9), LINE_BYTES)
        b = trace_columns(trace_for("mcf", seed=9), LINE_BYTES)
        assert a is b
        assert a is trace_for("mcf", seed=9).prefix()
        c = trace_columns(trace_for("mcf", seed=10), LINE_BYTES)
        assert c is not a

    def test_memo_stays_bounded(self):
        before = len(generator._TRACE_MEMO)
        for seed in range(3):
            trace_columns(trace_for("mcf", seed=1000 + seed), LINE_BYTES)
        assert len(generator._TRACE_MEMO) <= generator._TRACE_MEMO_MAX
        assert len(generator._TRACE_MEMO) \
            >= min(before, generator._TRACE_MEMO_MAX - 3)

    def test_private_prefix_for_unmemoisable_traces(self):
        # A plain iterable has no (profile, seed) key: every call converts
        # a fresh private prefix.
        listed = ListTrace([TraceEvent(1, 64, False)] * 3)
        assert trace_columns(listed, LINE_BYTES) \
            is not trace_columns(listed, LINE_BYTES)


class TestDramCoordTable:
    @pytest.mark.parametrize("scheme", ["row", "bank"])
    def test_table_matches_scalar_mapper(self, scheme):
        trace = trace_for("mcf", seed=9)
        timing = DDR3_1333
        table = dram_coord_table(trace, timing, scheme=scheme)
        assert table is not None
        mapper = AddressMapper(timing, scheme=scheme)
        shift = timing.line_bytes.bit_length() - 1
        lines = {address >> shift for address in
                 trace_columns(trace, timing.line_bytes).addrs}
        assert set(table) == lines
        for line in sorted(lines)[:64]:
            coords = mapper.map(line * timing.line_bytes)
            assert table[line] == (mapper.flat_index(coords), coords.row,
                                   coords.channel)

    def test_table_values_are_plain_ints(self):
        table = dram_coord_table(trace_for("mcf", seed=9), DDR3_1333,
                                 scheme="row")
        flat, row, channel = next(iter(table.values()))
        assert type(flat) is int and type(row) is int \
            and type(channel) is int
