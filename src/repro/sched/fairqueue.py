"""Fair-queuing memory scheduler [Nesbit et al., MICRO 2006].

Start-time fair queuing adapted to the memory controller: each core owns a
virtual clock that advances by the (bank-state-dependent) estimated cost of
every request it gets serviced.  The scheduler always serves the backlogged
core with the smallest virtual clock, so each thread receives its allocated
1/N fraction of the memory system "regardless of the load placed by other
threads" -- and within the chosen core, row hits go first so fairness costs
as little throughput as possible.
"""

from __future__ import annotations

from typing import List, Optional

from ..sim.memctrl import MemoryController
from ..sim.request import MemoryRequest
from .base import MemoryScheduler


class FairQueueScheduler(MemoryScheduler):
    """Per-core virtual-time fair queuing."""

    name = "FairQueue"

    __slots__ = ("shares", "virtual_time", "_vnow", "_was_backlogged")

    def __init__(self, num_cores: int,
                 shares: Optional[List[float]] = None) -> None:
        super().__init__(num_cores)
        if shares is None:
            shares = [1.0] * num_cores
        if len(shares) != num_cores:
            raise ValueError("one share per core required")
        if any(s <= 0 for s in shares):
            raise ValueError("shares must be positive")
        self.shares = list(shares)
        self.virtual_time: List[float] = [0.0] * num_cores
        #: system virtual clock: start tag of the most recent service
        self._vnow = 0.0
        self._was_backlogged: set = set()

    def _cost(self, request: MemoryRequest,
              controller: MemoryController) -> float:
        timing = controller.dram.timing
        if controller.dram.would_row_hit(request.dram_coord):
            return float(timing.row_hit_latency)
        return float(timing.row_conflict_latency)

    def select(self, queue, now, controller):
        if not queue:
            return None
        grouped = self.by_core(queue)
        # Start-time fair queuing: a core that just became backlogged has
        # its clock raised to the system virtual clock, so idle periods
        # are not banked as service credit.
        for core in grouped:
            if core not in self._was_backlogged \
                    and self.virtual_time[core] < self._vnow:
                self.virtual_time[core] = self._vnow
        self._was_backlogged = set(grouped)
        core = min(grouped, key=lambda c: (self.virtual_time[c], c))
        self._vnow = max(self._vnow, self.virtual_time[core])
        request = self.row_hit_first(grouped[core], controller)
        self.virtual_time[core] += (self._cost(request, controller)
                                    / self.shares[core])
        return request
