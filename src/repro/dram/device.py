"""The DRAM device: banks behind a shared per-channel data bus.

This is the DRAMSim2 substitute.  It is request-level rather than
command-level: given a request and the current cycle it computes the cycle
at which the data burst finishes, honouring per-bank row-buffer state, the
tRC activate window, write recovery, data-bus serialisation, and periodic
refresh.  That is the level of fidelity MITTS and the comparator schedulers
actually exercise -- they reorder and throttle *requests*, not DDR commands.
Requests arrive stamped with their ``(flat_bank, row, channel)``; the
device reads the stamp and never maps an address itself.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from ..analysis import contracts
from .address_map import AddressMapper, Coord
from .bank import Bank
from .timing import DramTiming

if TYPE_CHECKING:
    from ..sim.request import MemoryRequest


class DramDevice:
    """Request-level DRAM model with banked row buffers."""

    __slots__ = ("timing", "mapper", "banks", "bus_free", "_next_refresh",
                 "_refresh_bank", "_t_bl")

    def __init__(self, timing: DramTiming,
                 mapping_scheme: str = "row") -> None:
        self.timing = timing
        self.mapper = AddressMapper(timing, scheme=mapping_scheme)
        self.banks: List[Bank] = [Bank(timing) for _ in range(timing.total_banks)]
        #: per-channel cycle at which the data bus is next free
        self.bus_free: List[int] = [0] * timing.channels
        self._next_refresh = timing.t_refi if timing.refresh_enabled else None
        self._refresh_bank = 0
        self._t_bl = timing.t_bl

    def _maybe_refresh(self, now: int) -> None:
        """Round-robin per-bank refresh, one bank per tREFI/banks slot."""
        if self._next_refresh is None:
            return
        while now >= self._next_refresh:
            bank = self.banks[self._refresh_bank % len(self.banks)]
            bank.refresh(self._next_refresh)
            self._refresh_bank += 1
            self._next_refresh += max(1, self.timing.t_refi // len(self.banks))

    def would_row_hit(self, coord: Coord) -> bool:
        """True if stamp ``coord`` would hit the open row of its bank."""
        return self.banks[coord[0]].open_row == coord[1]

    def service(self, request: "MemoryRequest", now: int) -> int:
        """Service one stamped cache-line request; returns the
        data-complete cycle.

        Runs the bank's row-buffer state machine, then serialises the data
        burst on the channel bus.  Successive column commands to an open
        row pipeline at the burst rate (tCCD ~= tBL), so the bank becomes
        ready for the *next* command well before this access's data has
        returned -- this is what lets streaming traffic approach the bus's
        peak bandwidth.  A closed bank activates, and a bank with another
        row open precharges first; both wait out the tRC window since the
        bank's last activate.  Writes add write recovery to the bank's
        ready time.
        """
        if self._next_refresh is not None and now >= self._next_refresh:
            self._maybe_refresh(now)
        flat, row, channel = request.dram_coord
        bank = self.banks[flat]
        prev_ready = start = bank.ready_cycle
        if contracts.enabled:
            fresh = self.mapper.fresh_coord(request.address)
            contracts.check(request.dram_coord == fresh,
                            "request %r stamped %r, but its address maps "
                            "to %r", request.req_id, request.dram_coord,
                            fresh)
            contracts.check(isinstance(now, int) and isinstance(row, int),
                            "DramDevice.service(row=%r, now=%r): cycles "
                            "and rows are integers", row, now)
            contracts.check(now >= 0, "DRAM access at negative cycle %r",
                            now)
        timing = self.timing
        t_bl = self._t_bl
        if now > start:
            start = now
        open_row = bank.open_row
        if open_row == row:
            done = start + timing.t_cl + t_bl
            next_ready = start + t_bl
            bank.row_hits += 1
        else:
            gate = bank.last_activate + timing.t_rc
            if gate > start:
                start = gate
            if open_row is None:
                done = start + timing.t_rcd + timing.t_cl + t_bl
                next_ready = start + timing.t_rcd + t_bl
                bank.last_activate = start
            else:
                t_rp = timing.t_rp
                done = start + t_rp + timing.t_rcd + timing.t_cl + t_bl
                next_ready = start + t_rp + timing.t_rcd + t_bl
                bank.last_activate = start + t_rp
            bank.row_misses += 1
            bank.open_row = row
        if request.is_write:
            next_ready += timing.t_wr
        bank.ready_cycle = next_ready
        if contracts.enabled:
            # Row-buffer legality: the access leaves ``row`` open, never
            # finishes before it starts, and bank readiness only advances.
            contracts.check(bank.open_row == row,
                            "Bank left row %r open after accessing row %r",
                            bank.open_row, row)
            contracts.check(done >= start >= now,
                            "Bank access time ran backwards: now=%d "
                            "start=%d done=%d", now, start, done)
            contracts.check(bank.ready_cycle >= prev_ready,
                            "Bank ready_cycle regressed from %d to %d",
                            prev_ready, bank.ready_cycle)
            contracts.check(bank.last_activate <= bank.ready_cycle,
                            "Bank last_activate %d beyond ready_cycle %d",
                            bank.last_activate, bank.ready_cycle)
        # Serialise the data burst on the channel bus.
        bus_free = self.bus_free
        bus_start = done - t_bl
        free_at = bus_free[channel]
        if free_at > bus_start:
            bus_start = free_at
        done = bus_start + t_bl
        bus_free[channel] = done
        return done

    @property
    def row_hits(self) -> int:
        return sum(bank.row_hits for bank in self.banks)

    @property
    def row_misses(self) -> int:
        return sum(bank.row_misses for bank in self.banks)
