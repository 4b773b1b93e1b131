"""Memory request objects passed between simulator components."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional, Tuple

from .engine import peek_count


class RequestIdAllocator:
    """Monotonic source of ``req_id`` values for one simulated system.

    Request ids exist for two purposes: keying the MITTS shaper's pending
    tables and breaking ties deterministically in memory schedulers that
    order by ``(mc_arrival_cycle, req_id)``.  Both only need ids that are
    unique and monotonic *within one system*.  A process-global counter
    would hand the second :class:`~repro.sim.system.SimSystem` built in a
    process a different id range than the first -- a latent determinism
    hazard for anything comparing id values -- so each system owns an
    allocator and every request it creates draws from it, making a
    system's stats independent of whatever ran earlier in the process.
    """

    __slots__ = ("_count",)

    def __init__(self) -> None:
        self._count = itertools.count()

    def __call__(self) -> int:
        return next(self._count)

    # Checkpoints hold the counter's position as an int (see
    # :func:`~repro.sim.engine.peek_count`); a dict, because a falsy
    # state (position 0) would skip ``__setstate__`` on unpickling.
    def __getstate__(self) -> dict:
        return {"_count": peek_count(self._count)}

    def __setstate__(self, state: dict) -> None:
        self._count = itertools.count(state["_count"])


#: fallback allocator for requests constructed outside a ``SimSystem``
#: (unit tests building components by hand); systems never use it.
_default_request_ids = RequestIdAllocator()


@dataclass(slots=True, eq=False)
class MemoryRequest:
    """A single memory transaction as seen below the L1 cache.

    A request is created by a core on an L1 miss, possibly delayed by the
    MITTS shaper, looked up in the shared LLC and -- on an LLC miss --
    serviced by the memory controller and DRAM.  Timestamps for each stage
    are recorded so latency statistics can be derived afterwards.

    Requests compare by identity (``eq=False``): every request is unique
    (ids are never reused), and identity comparison keeps hot membership
    operations like the memory controller's ``queue.remove`` at pointer
    speed instead of field-by-field tuple comparison.
    """

    core_id: int
    address: int
    is_write: bool = False
    #: cycle the L1 miss occurred (before any shaper delay)
    l1_miss_cycle: int = 0
    #: cycle the shaper released the request towards the LLC
    issue_cycle: int = 0
    #: cycle the request arrived at the memory controller (LLC miss only)
    mc_arrival_cycle: int = 0
    #: cycle DRAM service started
    dram_start_cycle: int = 0
    #: cycle the data response reached the core
    complete_cycle: int = 0
    #: MITTS bin a credit was deducted from (hybrid method 2 bookkeeping)
    shaper_bin: int = -1
    req_id: int = field(default_factory=_default_request_ids)
    #: ``(flat_bank, row, channel)``, stamped once when the request enters
    #: the memory controller (:meth:`repro.dram.AddressMapper.coord`); an
    #: unstamped request fails loudly wherever the stamp is read
    dram_coord: Optional[Tuple[int, int, int]] = None

    @property
    def total_latency(self) -> int:
        """End-to-end latency from L1 miss to completion."""
        return self.complete_cycle - self.l1_miss_cycle

    @property
    def shaper_delay(self) -> int:
        """Cycles the request spent stalled in the MITTS shaper."""
        return self.issue_cycle - self.l1_miss_cycle

    @property
    def queue_delay(self) -> int:
        """Cycles spent waiting in the memory-controller transaction queue."""
        return self.dram_start_cycle - self.mc_arrival_cycle
