"""Per-bank DRAM state: open row tracking and ready-time bookkeeping.

The row-buffer state machine that advances this state on an access runs
in :meth:`repro.dram.device.DramDevice.service`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..analysis import contracts
from .timing import DramTiming


@dataclass(slots=True)
class Bank:
    """One DRAM bank's row-buffer state.

    The bank is modelled with two pieces of state: the currently open row
    (or ``None`` after a precharge) and the cycle at which the bank can
    accept its next column command, plus the cycle of its last activate
    and its row hit/miss counts.
    """

    timing: DramTiming
    open_row: Optional[int] = None
    ready_cycle: int = 0
    row_hits: int = 0
    row_misses: int = 0
    #: cycle of the last activate, to honour the tRC window
    last_activate: int = field(default=-(10 ** 9))

    def refresh(self, now: int) -> None:
        """Apply a refresh: closes the row and blocks the bank for tRFC."""
        prev_ready = self.ready_cycle
        start = max(now, self.ready_cycle)
        self.open_row = None
        self.ready_cycle = start + self.timing.t_rfc
        if contracts.enabled:
            contracts.check(self.ready_cycle >= prev_ready,
                            "Bank refresh regressed ready_cycle from %d "
                            "to %d", prev_ready, self.ready_cycle)
