"""Unit tests for the DRAM substrate: timing, mapping, banks, device."""

import pytest

from repro.dram.address_map import AddressMapper
from repro.dram.device import DramDevice
from repro.dram.timing import DDR3_1333, DramTiming
from repro.sim.request import MemoryRequest


def stamped(device, address):
    """A request stamped through the public mapping entry."""
    return MemoryRequest(core_id=0, address=address,
                         dram_coord=device.mapper.coord(address))


class TestTiming:
    def test_table_ii_geometry(self):
        assert DDR3_1333.channels == 1
        assert DDR3_1333.ranks_per_channel == 1
        assert DDR3_1333.banks_per_rank == 8
        assert DDR3_1333.row_buffer_bytes == 8192

    def test_memory_clock_conversion(self):
        # 9 memory clocks at 3.6 CPU cycles each, rounded
        assert DDR3_1333.t_cl == 32

    def test_latency_ordering(self):
        t = DDR3_1333
        assert t.row_hit_latency < t.row_closed_latency \
            < t.row_conflict_latency

    def test_peak_bandwidth(self):
        # one 64B line per burst slot
        expected = 64 / DDR3_1333.t_bl
        assert DDR3_1333.peak_bandwidth_bytes_per_cycle() == \
            pytest.approx(expected)

    def test_total_banks(self):
        assert DDR3_1333.total_banks == 8


class TestAddressMapper:
    def test_consecutive_lines_walk_columns(self):
        mapper = AddressMapper(DDR3_1333)
        first = mapper.map(0)
        second = mapper.map(64)
        assert second.row == first.row
        assert second.bank == first.bank
        assert second.column == first.column + 1

    def test_row_spans_row_buffer_bytes(self):
        mapper = AddressMapper(DDR3_1333)
        lines_per_row = DDR3_1333.row_buffer_bytes // 64
        last_in_row = mapper.map((lines_per_row - 1) * 64)
        next_row = mapper.map(lines_per_row * 64)
        assert last_in_row.bank == 0
        assert next_row.bank == 1  # next bank before wrapping rows

    def test_bank_index_range(self):
        mapper = AddressMapper(DDR3_1333)
        indices = {mapper.coord(i * DDR3_1333.row_buffer_bytes)[0]
                   for i in range(16)}
        assert indices == set(range(8))

    def test_distinct_rows_after_all_banks(self):
        mapper = AddressMapper(DDR3_1333)
        stride = DDR3_1333.row_buffer_bytes * DDR3_1333.banks_per_rank
        a = mapper.map(0)
        b = mapper.map(stride)
        assert b.bank == a.bank
        assert b.row == a.row + 1


def at_row(device, row, write=False):
    """A stamped request for ``row`` of flat bank 0."""
    timing = device.timing
    address = row * timing.banks_per_rank * timing.row_buffer_bytes
    request = MemoryRequest(core_id=0, address=address, is_write=write,
                            dram_coord=device.mapper.coord(address))
    assert request.dram_coord[:2] == (0, row)
    return request


class TestBank:
    """The row-buffer state machine of ``DramDevice.service``, one bank."""

    def test_closed_bank_latency(self):
        device = DramDevice(DDR3_1333)
        done = device.service(at_row(device, 5), 0)
        assert done == DDR3_1333.row_closed_latency

    def test_row_hit_latency(self):
        device = DramDevice(DDR3_1333)
        bank = device.banks[0]
        device.service(at_row(device, 5), 0)
        start = bank.ready_cycle
        done = device.service(at_row(device, 5), start)
        assert done - start == DDR3_1333.row_hit_latency
        assert bank.row_hits == 1

    def test_row_conflict_includes_precharge(self):
        device = DramDevice(DDR3_1333)
        device.service(at_row(device, 5), 0)
        # Move far past tRC so only the conflict latency matters.
        now = 10_000
        done = device.service(at_row(device, 6), now)
        assert done - now == DDR3_1333.row_conflict_latency

    def test_trc_gates_back_to_back_activates(self):
        device = DramDevice(DDR3_1333)
        device.service(at_row(device, 1), 0)
        done = device.service(at_row(device, 2), 1)
        # Second activate cannot start before tRC after the first.
        assert done >= DDR3_1333.t_rc

    def test_row_hits_pipeline_at_burst_rate(self):
        device = DramDevice(DDR3_1333)
        bank = device.banks[0]
        device.service(at_row(device, 1), 0)
        first_ready = bank.ready_cycle
        device.service(at_row(device, 1), first_ready)
        # Ready advanced by ~tBL, not by the full CAS latency.
        assert bank.ready_cycle - first_ready <= DDR3_1333.t_bl + 1

    def test_refresh_closes_row(self):
        device = DramDevice(DDR3_1333)
        bank = device.banks[0]
        device.service(at_row(device, 1), 0)
        bank.refresh(now=1000)
        assert bank.open_row is None
        assert bank.ready_cycle >= 1000 + DDR3_1333.t_rfc

    def test_write_recovery_extends_ready(self):
        read_device = DramDevice(DDR3_1333)
        write_device = DramDevice(DDR3_1333)
        read_device.service(at_row(read_device, 1, write=False), 0)
        write_device.service(at_row(write_device, 1, write=True), 0)
        assert write_device.banks[0].ready_cycle == \
            read_device.banks[0].ready_cycle + DDR3_1333.t_wr


class TestDevice:
    def make_device(self, refresh=False):
        timing = DramTiming(refresh_enabled=refresh)
        return DramDevice(timing), timing

    def test_streaming_throughput_near_bus_peak(self):
        device, timing = self.make_device()
        done = 0
        requests = 64
        now = 0
        for i in range(requests):
            done = device.service(stamped(device, i * 64), now)
            now = max(now, done - timing.t_cl)
        # One line per tBL after the pipeline fills.
        assert done <= timing.row_closed_latency \
            + requests * (timing.t_bl + 1)

    def test_row_hit_tracking(self):
        device, _ = self.make_device()
        device.service(stamped(device, 0), 0)
        device.service(stamped(device, 64), 0)
        assert device.row_hits == 1
        assert device.row_misses == 1

    def test_would_row_hit(self):
        device, _ = self.make_device()
        assert not device.would_row_hit(device.mapper.coord(0))
        device.service(stamped(device, 0), 0)
        assert device.would_row_hit(device.mapper.coord(64))

    def test_bus_serialises_parallel_banks(self):
        device, timing = self.make_device()
        # Two requests to different banks at the same cycle: second data
        # burst must wait for the bus.
        done_a = device.service(stamped(device, 0), 0)
        done_b = device.service(stamped(device, timing.row_buffer_bytes), 0)
        assert done_b >= done_a + timing.t_bl

    def test_refresh_steals_bandwidth(self):
        busy, _ = self.make_device(refresh=True)
        idle, _ = self.make_device(refresh=False)
        horizon = 200_000
        now_busy = now_idle = 0
        count_busy = count_idle = 0
        while now_busy < horizon:
            now_busy = busy.service(stamped(busy, count_busy * 64),
                                    now_busy)
            count_busy += 1
        while now_idle < horizon:
            now_idle = idle.service(stamped(idle, count_idle * 64),
                                    now_idle)
            count_idle += 1
        assert count_busy < count_idle

    def test_bank_ready_cycle_accessor(self):
        device, _ = self.make_device()
        device.service(stamped(device, 0), 0)
        assert device.banks[device.mapper.coord(0)[0]].ready_cycle > 0
