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
        data-complete cycle."""
        if self._next_refresh is not None and now >= self._next_refresh:
            self._maybe_refresh(now)
        flat, row, channel = request.dram_coord
        if contracts.is_enabled():
            fresh = self.mapper.fresh_coord(request.address)
            contracts.check(request.dram_coord == fresh,
                            "request %r stamped %r, but its address maps "
                            "to %r", request.req_id, request.dram_coord,
                            fresh)
        done = self.banks[flat].access(row, now, is_write=request.is_write)
        # Serialise the data burst on the channel bus.
        t_bl = self._t_bl
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
