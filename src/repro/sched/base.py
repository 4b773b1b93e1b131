"""Common machinery for memory-controller scheduling policies.

Every comparator from Section IV-D implements
:class:`~repro.sim.memctrl.MemorySchedulerProtocol`; this module adds the
helpers they share -- the core count and the selection primitives (oldest
request, row-hit preference).
"""

from __future__ import annotations

import operator
from typing import List, Optional

from ..sim.memctrl import MemoryController, MemorySchedulerProtocol
from ..sim.request import MemoryRequest

#: arrival-order key, built once: C-level attribute access beats a
#: per-call ``lambda r: (r.mc_arrival_cycle, r.req_id)`` in the hot scan
_ARRIVAL_ORDER = operator.attrgetter("mc_arrival_cycle", "req_id")


class MemoryScheduler(MemorySchedulerProtocol):
    """Base scheduler over a fixed number of cores."""

    name = "base"

    __slots__ = ("num_cores",)

    def __init__(self, num_cores: int) -> None:
        if num_cores < 1:
            raise ValueError("num_cores must be >= 1")
        self.num_cores = num_cores

    # ------------------------------------------------------------------
    # selection helpers

    @staticmethod
    def oldest(requests: List[MemoryRequest]) -> Optional[MemoryRequest]:
        if not requests:
            return None
        return min(requests, key=_ARRIVAL_ORDER)

    @staticmethod
    def row_hit_first(requests: List[MemoryRequest],
                      controller: MemoryController
                      ) -> Optional[MemoryRequest]:
        """Oldest row-hitting request, else oldest overall (FR-FCFS order),
        read from each request's ``dram_coord`` stamp."""
        if not requests:
            return None
        banks = controller.dram.banks
        hits = [r for r in requests
                if banks[r.dram_coord[0]].open_row == r.dram_coord[1]]
        return MemoryScheduler.oldest(hits or requests)

    def by_core(self, queue: List[MemoryRequest]) -> dict:
        grouped: dict = {}
        for request in queue:
            grouped.setdefault(request.core_id, []).append(request)
        return grouped


class FcfsScheduler(MemoryScheduler):
    """First-come first-served: the simplest (and least fair under row
    locality) baseline."""

    name = "FCFS"

    __slots__ = ()

    def select(self, queue, now, controller):
        return self.oldest(queue)


class FrFcfsScheduler(MemoryScheduler):
    """FR-FCFS [Rixner et al., ISCA 2000]: row hits first, then oldest.

    Maximises DRAM throughput but "unfairly favors applications with higher
    row-buffer hits or higher memory intensity" (Section V) -- the standard
    unmanaged baseline of Figures 12/13.
    """

    name = "FR-FCFS"

    __slots__ = ()

    def select(self, queue, now, controller):
        return self.row_hit_first(queue, controller)
