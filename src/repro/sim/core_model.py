"""Trace-driven core model and the shaper port that throttles its misses.

The core replays a workload trace of ``(work, address, is_write)`` events.
Compute cycles advance the core's clock; memory accesses look up the L1.
L1 misses are handed to the :class:`ShaperPort`, which releases them toward
the LLC at the times the core's :class:`~repro.core.limiter.SourceLimiter`
permits.  Memory-level parallelism is bounded by ``mlp`` outstanding misses
(MSHR-style): when the bound is hit the core blocks until a response
returns, which is how shaper stalls backpressure into lost performance --
exactly the "stalls the core" behaviour of Section III-B1.

Progress is measured in *work cycles retired*: the slowdown metrics of
Section IV-D compare work retired alone vs. shared over the same wall-clock
window.

Hot-path notes: both classes pre-bind their own event callbacks once at
construction (``self._run`` / ``self._wake`` re-bound per ``schedule``
call would allocate a bound method per event) and pass requests to the
engine as ``(callback, arg)`` pairs instead of closures.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, Iterable, Optional

from ..core.limiter import NoLimiter, SourceLimiter
from .cache import Cache
from .engine import Engine
from .request import MemoryRequest, RequestIdAllocator, _default_request_ids
from .soa import TraceReplay
from .stats import CoreStats


class ShaperPort:
    """FIFO between a core's L1 miss path and the LLC, policed by a limiter.

    Requests are released in order; each release consults the limiter's
    ``earliest_issue`` and commits with ``issue``.  When the limiter can
    never release (zero-credit config), requests park until the limiter is
    reconfigured and :meth:`kick` is called.
    """

    __slots__ = ("engine", "limiter", "send", "stats",
                 "interarrival_bucket", "queue", "_wakeup_at", "_parked",
                 "_wake_cb", "_unshaped")

    def __init__(self, engine: Engine, limiter: SourceLimiter,
                 send: Callable[[MemoryRequest], None],
                 stats: CoreStats,
                 interarrival_bucket: int = 10) -> None:
        self.engine = engine
        self.limiter = limiter
        self.send = send
        self.stats = stats
        self.interarrival_bucket = interarrival_bucket
        self.queue: Deque[MemoryRequest] = deque()
        self._wakeup_at: Optional[int] = None
        self._parked = False
        self._wake_cb = self._wake
        #: exact pass-through limiter: _drain may skip its no-op calls
        self._unshaped = type(limiter) is NoLimiter

    def submit(self, request: MemoryRequest) -> None:
        self.queue.append(request)
        self._drain()

    def submit_bypass(self, request: MemoryRequest) -> None:
        """Send without consuming shaper budget (L1 writeback traffic).

        The paper's shaper polices L1 *misses*; dirty-victim writebacks are
        eviction side-effects, not demand requests, so they bypass the bins.
        """
        request.issue_cycle = self.engine.now
        self.send(request)

    def set_limiter(self, limiter: SourceLimiter) -> None:
        """Swap the limiter (online tuner installing a new config)."""
        self.limiter = limiter
        self._unshaped = type(limiter) is NoLimiter
        self.kick()

    def kick(self) -> None:
        """Re-evaluate release times after an external state change."""
        self._wakeup_at = None
        self._parked = False
        self._drain()

    @property
    def occupancy(self) -> int:
        return len(self.queue)

    def _drain(self) -> None:
        """Release every request whose time has come; sleep until the next."""
        if self._parked:
            return
        engine = self.engine
        limiter = self.limiter
        queue = self.queue
        stats = self.stats
        now = engine.now
        if self._unshaped:
            # NoLimiter always answers earliest_issue(now) == now and its
            # issue() is a no-op: drain without the two calls per request.
            bucket = self.interarrival_bucket
            send = self.send
            while queue:
                request = queue.popleft()
                request.issue_cycle = now
                stats.shaper_stall_cycles += now - request.l1_miss_cycle
                last = stats.last_issue_cycle
                if last >= 0:
                    stats.interarrival.add((now - last) // bucket)
                stats.last_issue_cycle = now
                send(request)
            return
        while queue:
            release_at = limiter.earliest_issue(now)
            if release_at is None:
                if limiter.stall_forever():
                    # Genuinely blocked until reconfiguration + kick().
                    self._parked = True
                else:
                    # Defensive: no shipped limiter answers None while
                    # live; retry shortly rather than deadlock.
                    self._wakeup_at = now + 64
                    engine.schedule(self._wakeup_at, self._wake_cb)
                return
            if release_at > now:
                if self._wakeup_at is None or release_at < self._wakeup_at:
                    self._wakeup_at = release_at
                    engine.schedule(release_at, self._wake_cb)
                return
            request = queue.popleft()
            limiter.issue(now, request.req_id)
            request.issue_cycle = now
            stats.shaper_stall_cycles += now - request.l1_miss_cycle
            last = stats.last_issue_cycle
            if last >= 0:
                stats.interarrival.add(
                    (now - last) // self.interarrival_bucket)
            stats.last_issue_cycle = now
            self.send(request)

    def _wake(self) -> None:
        if self._wakeup_at is not None and self.engine.now >= self._wakeup_at:
            self._wakeup_at = None
            self._drain()


class CoreModel(TraceReplay):
    """One trace-replaying core with an L1 cache and MSHR-bounded MLP.

    The trace is replayed by position (:class:`~repro.sim.soa.TraceReplay`)
    from its shared growing prefix, so a run synthesises only what it
    reads and a checkpoint carries the position, not the events.
    """

    __slots__ = ("core_id", "engine", "l1", "port", "stats",
                 "mlp", "line_bytes", "throttle_multiplier",
                 "outstanding", "_blocked", "_block_start",
                 "_pending_work", "_running", "_run_cb", "_new_req_id",
                 "_line_shift")

    def __init__(self, core_id: int, engine: Engine,
                 trace: Iterable, l1: Cache, port: ShaperPort,
                 stats: CoreStats, mlp: int = 8,
                 line_bytes: int = 64,
                 throttle_multiplier: float = 1.0,
                 req_ids: Optional[RequestIdAllocator] = None) -> None:
        if mlp < 1:
            raise ValueError("mlp must be >= 1")
        self.core_id = core_id
        self.engine = engine
        self.l1 = l1
        self.port = port
        self.stats = stats
        self.mlp = mlp
        self.line_bytes = line_bytes
        #: >1.0 slows the core's compute (FST-style source throttling knob)
        self.throttle_multiplier = throttle_multiplier
        self.outstanding: Dict[int, bool] = {}
        self._blocked = False
        self._block_start = 0
        self._pending_work: Optional[list] = None
        self._running = False
        self._run_cb = self._run
        self._new_req_id = req_ids or _default_request_ids
        self._line_shift = line_bytes.bit_length() - 1 \
            if line_bytes & (line_bytes - 1) == 0 else None
        self._start_replay(trace)

    def start(self) -> None:
        """Schedule the first activity; call once before ``engine.run``."""
        self.engine.schedule(self.engine.now, self._run_cb)

    # ------------------------------------------------------------------

    def _run(self) -> None:
        """Process trace events until compute time elapses or we block."""
        if self._blocked or self._running:
            return
        self._running = True
        engine = self.engine
        multiplier = self.throttle_multiplier
        # At most issue-width zero-work accesses retire per cycle; beyond
        # that the core re-schedules itself one cycle later so simulated
        # time always advances (an all-hit trace must not spin forever).
        inline_budget = 4
        try:
            while True:
                pending = self._pending_work
                if pending is None:
                    event = self._next_event()
                    work = event.work if multiplier == 1.0 \
                        else int(event.work * multiplier)
                    pending = [work, work, event.address, event.is_write]
                    self._pending_work = pending
                remaining, work, address, is_write = pending
                if remaining > 0:
                    pending[0] = 0
                    engine.schedule(engine.now + remaining, self._run_cb)
                    return
                if inline_budget <= 0:
                    engine.schedule(engine.now + 1, self._run_cb)
                    return
                if not self._try_access(address, is_write, work):
                    # MSHRs full: block until a response frees one.
                    self._blocked = True
                    self._block_start = engine.now
                    return
                inline_budget -= 1
                self._pending_work = None
        finally:
            self._running = False

    def _try_access(self, address: int, is_write: bool, work: int) -> bool:
        """Perform the L1 access; False when blocked on MSHRs."""
        now = self.engine.now
        stats = self.stats
        shift = self._line_shift
        line = address >> shift if shift is not None \
            else address // self.line_bytes
        outstanding = self.outstanding
        if line in outstanding:
            # Coalesced secondary miss: the line is already in flight.
            stats.accesses += 1
            stats.retired += 1
            stats.work_cycles += 1 + work
            return True
        if len(outstanding) >= self.mlp and not self.l1.probe(address):
            return False
        stats.accesses += 1
        hit, dirty_victim = self.l1.access(address, is_write)
        if hit:
            stats.l1_hits += 1
            stats.retired += 1
            stats.work_cycles += 1 + work
            return True
        stats.l1_misses += 1
        outstanding[line] = True
        request = MemoryRequest(core_id=self.core_id, address=address,
                                is_write=is_write, l1_miss_cycle=now,
                                req_id=self._new_req_id())
        self.port.submit(request)
        if dirty_victim is not None:
            # Writeback travels the same path but needs no response.
            writeback = MemoryRequest(core_id=self.core_id,
                                      address=dirty_victim, is_write=True,
                                      l1_miss_cycle=now,
                                      req_id=self._new_req_id())
            writeback.shaper_bin = -2  # marks fire-and-forget
            self.port.submit_bypass(writeback)
        stats.retired += 1
        stats.work_cycles += 1 + work
        return True

    # ------------------------------------------------------------------

    def on_response(self, request: MemoryRequest) -> None:
        """Data returned (LLC hit or DRAM completion)."""
        now = self.engine.now
        shift = self._line_shift
        line = request.address >> shift if shift is not None \
            else request.address // self.line_bytes
        self.outstanding.pop(line, None)
        request.complete_cycle = now
        self.stats.total_latency += now - request.l1_miss_cycle
        self.stats.post_shaper_latency += now - request.issue_cycle
        if self._blocked:
            self._blocked = False
            self.stats.memory_stall_cycles += now - self._block_start
            self._run()
