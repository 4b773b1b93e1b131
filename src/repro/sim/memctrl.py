"""Memory controller: transaction queue + pluggable scheduling policy.

Table II's controller has a 32-entry transaction queue; Section III-C adds
a small fixed FIFO that absorbs global burstiness when many cores spend
burst credits simultaneously.  Requests beyond the queue depth back up into
an overflow FIFO (they "back up to the cores" in the paper's words) and are
invisible to the scheduler until a slot frees, which bounds the scheduling
window just like real hardware.

A request is mapped once, on entry: its ``dram_coord`` stamp serves every
later look (scheduler row-hit and bank tests, the DRAM service).

Bank-level parallelism is preserved: the controller keeps dispatching
selected requests to the DRAM device while the data bus is not booked too
far ahead, so independent banks overlap their activates.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, List, Optional

from ..analysis import contracts
from ..dram.device import DramDevice
from .engine import Engine
from .request import MemoryRequest
from .stats import SystemStats


class MemoryController:
    """Transaction queue feeding the DRAM device via a scheduler policy."""

    __slots__ = ("engine", "dram", "scheduler", "complete", "queue_depth",
                 "stats", "queue", "overflow", "_inflight", "_max_inflight",
                 "_complete_cb", "_cores", "dispatched", "probe")

    def __init__(self, engine: Engine, dram: DramDevice,
                 scheduler: "MemorySchedulerProtocol",
                 complete: Callable[[MemoryRequest], None],
                 queue_depth: int = 32,
                 stats: Optional[SystemStats] = None) -> None:
        self.engine = engine
        self.dram = dram
        self.scheduler = scheduler
        self.complete = complete
        self.queue_depth = queue_depth
        self.stats = stats
        self.queue: List[MemoryRequest] = []
        self.overflow: Deque[MemoryRequest] = deque()
        self._inflight = 0
        self._max_inflight = dram.timing.total_banks
        #: the completion callback, bound once (one allocation, not one
        #: per event)
        self._complete_cb = self._complete
        self._cores = stats.cores if stats is not None else None
        #: cumulative requests handed to DRAM -- the forward-progress
        #: watchdog's dequeue probe; never feeds back into behaviour
        self.dispatched = 0
        #: optional completion observer (``on_mc_complete(request, now)``);
        #: the analytic bound checker (repro.validate) attaches here to
        #: measure request sojourn.  Observers never mutate simulator
        #: state, so attaching one is bit-neutral.
        self.probe = None

    def enqueue(self, request: MemoryRequest) -> None:
        request.mc_arrival_cycle = self.engine.now
        request.dram_coord = self.dram.mapper.coord(request.address)
        queue = self.queue
        stats = self.stats
        if len(queue) >= self.queue_depth:
            self.overflow.append(request)
            if stats is not None:
                stats.queue_backpressure_events += 1
        else:
            queue.append(request)
        if stats is not None:
            depth = len(queue) + len(self.overflow)
            if depth > stats.peak_queue_depth:
                stats.peak_queue_depth = depth
        if self._inflight < self._max_inflight:
            self._dispatch()
        if contracts.enabled:
            self._check_occupancy("enqueue")

    @property
    def pending(self) -> int:
        return len(self.queue) + len(self.overflow) + self._inflight

    def _dispatch(self) -> None:
        """Dispatch selected requests while bank-level slots are free.

        One in-flight request per bank keeps independent banks overlapped
        (that is where DRAM parallelism comes from) while the rest of the
        queue stays visible to the scheduler, so late decisions -- row-hit
        prioritisation, per-core ranking -- still apply.  Each dispatch
        refills the window from the overflow FIFO before the next select;
        ``enqueue`` overflows only a full window, so the overflow FIFO is
        never waiting behind free window slots.
        """
        queue = self.queue
        inflight = self._inflight
        max_inflight = self._max_inflight
        if not queue or inflight >= max_inflight:
            return
        engine = self.engine
        now = engine.now
        select = self.scheduler.select
        overflow = self.overflow
        depth = self.queue_depth
        service = self.dram.service
        schedule = engine.schedule
        complete_cb = self._complete_cb
        dispatched = 0
        while queue and inflight < max_inflight:
            request = select(queue, now, self)
            if request is None:
                break
            queue.remove(request)
            while overflow and len(queue) < depth:
                queue.append(overflow.popleft())
            request.dram_start_cycle = now
            done = service(request, now)
            inflight += 1
            dispatched += 1
            schedule(done, complete_cb, request)
        self._inflight = inflight
        self.dispatched += dispatched

    def _complete(self, request: MemoryRequest) -> None:
        self._inflight -= 1
        now = self.engine.now
        if self.probe is not None:
            self.probe.on_mc_complete(request, now)
        cores = self._cores
        if cores is not None:
            core = cores[request.core_id]
            if request.shaper_bin == -2:
                core.writebacks += 1
            else:
                core.dram_requests += 1
        on_complete = self.scheduler.on_complete
        if on_complete is not None:
            on_complete(request, now)
        self.complete(request)
        if self.queue:
            self._dispatch()
        if contracts.enabled:
            self._check_occupancy("_complete")

    def _check_occupancy(self, method: str) -> None:
        """Post-check of ``enqueue`` and ``_complete``: the
        scheduler-visible queue stays within ``queue_depth`` and in-flight
        DRAM requests within ``[0, total_banks]``.  Called only under
        ``if contracts.enabled:``."""
        contracts.check(
            len(self.queue) <= self.queue_depth,
            "MemoryController.%s postcondition violated: scheduler-visible "
            "transaction queue (%d) stays within queue_depth (%d)", method,
            len(self.queue), self.queue_depth)
        contracts.check(
            0 <= self._inflight <= self._max_inflight,
            "MemoryController.%s postcondition violated: in-flight DRAM "
            "requests (%d) stay within [0, total_banks=%d]", method,
            self._inflight, self._max_inflight)


class MemorySchedulerProtocol:
    """Interface memory schedulers implement (see :mod:`repro.sched`)."""

    __slots__ = ()

    #: Declares that ``select`` always returns ``queue[0]`` (strict FCFS
    #: over the controller's arrival-ordered queue).  Only the analytic
    #: bound oracle (:mod:`repro.validate.bounds`) reads it, to decide
    #: whether its FCFS ceilings apply; schedulers that reorder must leave
    #: it False.
    selects_head = False

    def select(self, queue: List[MemoryRequest], now: int,
               controller: MemoryController) -> Optional[MemoryRequest]:
        raise NotImplementedError

    #: Completion hook ``on_complete(request, now)`` (service-rate
    #: accounting for TCM/MISE).  ``None`` means the scheduler has none,
    #: and the controller skips the call.
    on_complete: Optional[Callable[[MemoryRequest, int], None]] = None
