"""Tests for address-interleaving schemes, multi-channel DRAM and the
request stamp (each request mapped once, on entry to the controller)."""

import pickle
from collections import OrderedDict
from dataclasses import replace

import pytest

from repro.analysis import contracts
from repro.analysis.contracts import ContractViolation
from repro.dram import address_map
from repro.dram.address_map import AddressMapper
from repro.dram.device import DramDevice
from repro.dram.timing import DramTiming
from repro.sched.base import FrFcfsScheduler
from repro.sim.request import MemoryRequest
from repro.sim.system import SCALED_MULTI_CONFIG, SimSystem, single_config
from repro.workloads.mixes import workload_traces
from repro.workloads.trace import uniform_trace


def stamped(device, address, is_write=False):
    """A request stamped through the public mapping entry."""
    return MemoryRequest(core_id=0, address=address, is_write=is_write,
                         dram_coord=device.mapper.coord(address))


class TestBankInterleaving:
    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            AddressMapper(DramTiming(), scheme="diagonal")

    def test_consecutive_lines_rotate_banks(self):
        mapper = AddressMapper(DramTiming(), scheme="bank")
        banks = [mapper.map(i * 64).bank for i in range(8)]
        assert banks == list(range(8))

    def test_row_scheme_keeps_lines_in_row(self):
        mapper = AddressMapper(DramTiming(), scheme="row")
        rows = {mapper.map(i * 64).row for i in range(8)}
        banks = {mapper.map(i * 64).bank for i in range(8)}
        assert rows == {0}
        assert banks == {0}

    def test_mapping_is_injective_within_region(self):
        for scheme in AddressMapper.SCHEMES:
            mapper = AddressMapper(DramTiming(), scheme=scheme)
            seen = set()
            for i in range(4096):
                coords = mapper.map(i * 64)
                key = (coords.channel, coords.rank, coords.bank,
                       coords.row, coords.column)
                assert key not in seen
                seen.add(key)

    def test_streaming_row_hits_differ_by_scheme(self):
        timing = DramTiming(refresh_enabled=False)
        row_dev = DramDevice(timing, mapping_scheme="row")
        bank_dev = DramDevice(timing, mapping_scheme="bank")
        for i in range(256):
            row_dev.service(stamped(row_dev, i * 64), 10_000 * i)
            bank_dev.service(stamped(bank_dev, i * 64), 10_000 * i)
        # Row interleaving turns a stream into row hits; bank
        # interleaving rotates banks so each line opens a row.
        assert row_dev.row_hits > bank_dev.row_hits

    def test_system_config_plumbs_scheme(self):
        config = single_config(dram_mapping="bank")
        system = SimSystem([uniform_trace(200, 10)], config=config)
        assert system.dram.mapper.scheme == "bank"
        system.run(5_000)


class TestMultiChannel:
    def test_two_channels_double_banks(self):
        timing = DramTiming(channels=2, refresh_enabled=False)
        assert timing.total_banks == 16
        device = DramDevice(timing)
        assert len(device.bus_free) == 2

    def test_channels_serve_in_parallel(self):
        timing = DramTiming(channels=2, refresh_enabled=False)
        mapper = AddressMapper(timing)
        device = DramDevice(timing)
        # Find two addresses on different channels (row interleaving
        # switches channel only after a full rank of banks: every 64KB).
        addresses = {}
        for i in range(4096):
            addresses.setdefault(mapper.map(i * 64).channel, i * 64)
            if len(addresses) == 2:
                break
        assert len(addresses) == 2
        done = [device.service(stamped(device, addr), 0)
                for addr in addresses.values()]
        # Neither burst waited for the other's bus.
        assert abs(done[0] - done[1]) < timing.t_bl

    def test_peak_bandwidth_scales_with_channels(self):
        one = DramTiming(channels=1)
        two = DramTiming(channels=2)
        assert two.peak_bandwidth_bytes_per_cycle() == pytest.approx(
            2 * one.peak_bandwidth_bytes_per_cycle())

    def test_multichannel_system_runs(self):
        config = single_config(
            timing=DramTiming(channels=2, refresh_enabled=False))
        system = SimSystem([uniform_trace(500, 5)], config=config)
        stats = system.run(10_000)
        assert stats.cores[0].dram_requests > 0


class TestStamp:
    def _mix_system(self, kernel):
        traces = workload_traces(1, seed=5)
        config = replace(SCALED_MULTI_CONFIG, kernel=kernel)
        return SimSystem(traces, config=config,
                         scheduler=FrFcfsScheduler(len(traces)))

    @pytest.mark.parametrize("kernel", ["heap", "batched"])
    def test_map_runs_at_most_once_per_enqueue(self, monkeypatch, kernel):
        # FR-FCFS looks at every queued request on every dispatch; it must
        # read their stamps, not map their addresses again (it used to map
        # ~20x per dispatch).  Contracts are off: with them on, the checked
        # service re-maps each dispatch on purpose to verify the stamp.
        calls = [0]
        original = AddressMapper.map

        def counting_map(self, address):
            calls[0] += 1
            return original(self, address)

        monkeypatch.setattr(address_map, "_COORD_MEMO", OrderedDict())
        monkeypatch.setattr(AddressMapper, "map", counting_map)
        with contracts.enabled_scope(False):
            system = self._mix_system(kernel)
            system.run(30_000)
        mc = system.mc
        enqueues = mc.dispatched + len(mc.queue) + len(mc.overflow)
        assert mc.dispatched > 1_000
        assert 0 < calls[0] <= enqueues

    def test_coordinate_memo_stays_bounded(self, monkeypatch):
        monkeypatch.setattr(address_map, "_COORD_MEMO", OrderedDict())
        monkeypatch.setattr(address_map, "_COORD_LINES_MAX", 64)
        config = SCALED_MULTI_CONFIG
        system = SimSystem(workload_traces(1, seed=5), config=config)
        system.run(20_000)
        memo = address_map.coord_memo(config.timing, config.dram_mapping)
        assert 0 < len(memo) <= 64
        assert len(address_map._COORD_MEMO) == 1
        # Evicting stamps changes no result: the run reproduces the
        # fingerprint recorded at commit 536483f under both kernels.
        assert system.stats.fingerprint() == \
            "ddb47a69dcbe0fa7aac358c0bf8579aa6c5faa19ba79a02b7053df1f328910f2"

    def test_memo_matches_a_fresh_mapping(self):
        for scheme in AddressMapper.SCHEMES:
            mapper = AddressMapper(DramTiming(channels=2), scheme=scheme)
            for address in range(0, 1 << 20, 4160):
                coords = mapper.map(address)
                assert mapper.coord(address) == (
                    mapper.flat_index(coords), coords.row, coords.channel)
                assert mapper.coord(address) is mapper.coord(address)

    def test_mapper_pickles_without_its_memo(self):
        mapper = AddressMapper(DramTiming())
        for i in range(1_000):
            mapper.coord(i * 64)
        restored = pickle.loads(pickle.dumps(mapper))
        assert len(pickle.dumps(mapper)) < 1_000
        assert restored._memo is mapper._memo
        assert restored.coord(64) == mapper.coord(64)

    def test_unstamped_request_fails_loudly(self):
        device = DramDevice(DramTiming(refresh_enabled=False))
        device.service(stamped(device, 0), 0)
        bare = MemoryRequest(core_id=0, address=64)
        assert bare.dram_coord is None
        with pytest.raises(TypeError):
            device.service(bare, 10)
        controller = type("Controller", (), {"dram": device})()
        with pytest.raises(TypeError):
            FrFcfsScheduler(1).select([bare], 10, controller)

    def test_contracts_check_the_stamp_against_the_address(self):
        device = DramDevice(DramTiming(refresh_enabled=False))
        wrong = MemoryRequest(core_id=0, address=0,
                              dram_coord=device.mapper.coord(1 << 20))
        with contracts.enabled_scope(True):
            device.service(stamped(device, 64), 0)
            with pytest.raises(ContractViolation, match="stamped"):
                device.service(wrong, 100)
