"""Unit tests for the derivable per-trace tables (batched kernel)."""

import pytest

from repro.dram.address_map import AddressMapper
from repro.dram.timing import DDR3_1333
from repro.sim.soa import _ROW_MEMO, dram_coord_table, trace_columns, \
    trace_key
from repro.workloads.benchmarks import trace_for

LINE_BYTES = 64


class TestTraceColumns:
    def test_columns_match_iterator_replay(self):
        trace = trace_for("mcf", seed=9)
        rows = trace_columns(trace, LINE_BYTES)
        assert rows is not None
        events = list(iter(trace))
        assert len(rows) == len(events)
        shift = LINE_BYTES.bit_length() - 1
        for (work, address, is_write, line), event in zip(rows, events):
            assert work == event[0]
            assert address == event[1]
            assert is_write == bool(event[2])
            assert line == event[1] >> shift

    def test_columns_hold_plain_python_scalars(self):
        # Foreign integer types leaking into requests would poison
        # fingerprints and JSON documents downstream; every row must be
        # plain (int, int, bool, int).
        rows = trace_columns(trace_for("omnetpp", seed=9), LINE_BYTES)
        for row in rows:
            assert type(row) is tuple and len(row) == 4
            assert [type(value) for value in row] == [int, int, bool, int]

    def test_non_power_of_two_line_size_falls_back(self):
        assert trace_columns(trace_for("mcf", seed=9), 48) is None
        assert trace_columns(trace_for("mcf", seed=9), 0) is None

    def test_unmaterialisable_trace_falls_back(self):
        assert trace_columns(object(), LINE_BYTES) is None

    def test_memoized_per_profile_seed(self):
        a = trace_columns(trace_for("mcf", seed=9), LINE_BYTES)
        b = trace_columns(trace_for("mcf", seed=9), LINE_BYTES)
        assert a is b
        c = trace_columns(trace_for("mcf", seed=10), LINE_BYTES)
        assert c is not a

    def test_memo_stays_bounded(self):
        before = len(_ROW_MEMO)
        for seed in range(3):
            trace_columns(trace_for("mcf", seed=1000 + seed), LINE_BYTES)
        assert len(_ROW_MEMO) <= 64
        assert len(_ROW_MEMO) >= min(before, 61)

    def test_trace_key_requires_profile_and_seed(self):
        assert trace_key(object()) is None
        assert trace_key(trace_for("mcf", seed=9)) is not None


class TestDramCoordTable:
    @pytest.mark.parametrize("scheme", ["row", "bank"])
    def test_table_matches_scalar_mapper(self, scheme):
        trace = trace_for("mcf", seed=9)
        timing = DDR3_1333
        table = dram_coord_table(trace, timing, scheme=scheme)
        assert table is not None
        mapper = AddressMapper(timing, scheme=scheme)
        lines = {row[3] for row in trace_columns(trace, timing.line_bytes)}
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
