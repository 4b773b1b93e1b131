"""PAR-BS: Parallelism-Aware Batch Scheduling [Mutlu et al., ISCA 2008].

Reference [8] of the paper.  The controller forms *batches*: it marks up
to ``cap`` oldest requests per (core, bank) pair, then services marked
requests before any unmarked one -- a starvation-freedom guarantee.
Within a batch, threads are ranked shortest-job-first (fewest marked
requests first: the "max-total" rule approximated by total marked count)
so that each thread's bank-level parallelism is serviced together, and
row hits are preferred among equal-rank candidates.
"""

from __future__ import annotations

from typing import Dict, List, Set

from ..sim.request import MemoryRequest
from .base import MemoryScheduler


class ParbsScheduler(MemoryScheduler):
    """Batch-based scheduling with shortest-job-first thread ranking."""

    name = "PAR-BS"

    __slots__ = ("cap", "batches_formed", "_marked", "_rank")

    def __init__(self, num_cores: int, cap: int = 5) -> None:
        super().__init__(num_cores)
        if cap < 1:
            raise ValueError("cap must be >= 1")
        self.cap = cap
        self._marked: Set[int] = set()
        self._rank: Dict[int, int] = {}
        self.batches_formed = 0

    def _form_batch(self, queue: List[MemoryRequest]) -> None:
        """Mark up to ``cap`` oldest requests per (core, bank)."""
        per_core_bank: Dict[tuple, List[MemoryRequest]] = {}
        for request in queue:
            key = (request.core_id, request.dram_coord[0])
            per_core_bank.setdefault(key, []).append(request)
        self._marked = set()
        marked_per_core: Dict[int, int] = {}
        # sorted() pins the marking order to (core, bank) rather than dict
        # insertion history, keeping batch formation order-explicit (SIM004)
        for (core, _bank), requests in sorted(per_core_bank.items()):
            requests.sort(key=lambda r: r.mc_arrival_cycle)
            for request in requests[:self.cap]:
                self._marked.add(request.req_id)
                marked_per_core[core] = marked_per_core.get(core, 0) + 1
        # Shortest job first: fewest marked requests -> highest priority.
        order = sorted(marked_per_core, key=lambda c: (marked_per_core[c],
                                                       c))
        self._rank = {core: position for position, core in
                      enumerate(order)}
        self.batches_formed += 1

    def select(self, queue, now, controller):
        if not queue:
            return None
        marked = [r for r in queue if r.req_id in self._marked]
        if not marked:
            self._form_batch(queue)
            marked = [r for r in queue if r.req_id in self._marked]
        if not marked:
            return self.row_hit_first(queue, controller)
        best_rank = min(self._rank.get(r.core_id, self.num_cores)
                        for r in marked)
        candidates = [r for r in marked
                      if self._rank.get(r.core_id, self.num_cores)
                      == best_rank]
        chosen = self.row_hit_first(candidates, controller)
        self._marked.discard(chosen.req_id)
        return chosen
