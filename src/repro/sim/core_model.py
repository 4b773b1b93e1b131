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
engine as ``(callback, arg)`` pairs instead of closures.  The core's one
run loop indexes the columns of the trace's prefix and looks up the L1
through :meth:`~repro.sim.cache.Cache.access`, whose indexing covers every
geometry.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, Iterable, Optional

from ..core.limiter import NoLimiter, SourceLimiter
from ..workloads.trace import FLAG_WRITE
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
    from the columns of its shared growing prefix, so a run synthesises
    only what it reads and a checkpoint carries the position, not the
    events.
    """

    __slots__ = ("core_id", "engine", "l1", "port", "stats",
                 "mlp", "line_bytes", "throttle_multiplier",
                 "outstanding", "_blocked", "_block_start",
                 "_pending_work", "_running", "_run_cb", "_new_req_id",
                 "_next_rid", "_line_shift")

    _DERIVED = TraceReplay._DERIVED | {"_next_rid"}

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
        #: ``(work, address, is_write)`` of a fetched event whose access
        #: waits for its compute gap or for a free MSHR
        self._pending_work: Optional[tuple] = None
        self._running = False
        self._run_cb = self._run
        self._new_req_id = req_ids or _default_request_ids
        self._line_shift = line_bytes.bit_length() - 1 \
            if line_bytes & (line_bytes - 1) == 0 else None
        self._start_replay(trace)

    def _derive(self) -> None:
        # Request ids come from ``next()`` on the allocator's raw counter
        # (one C call) instead of the allocator's ``__call__`` frame.
        allocator = self._new_req_id
        counter = getattr(allocator, "_count", None)
        self._next_rid = counter.__next__ if counter is not None \
            else allocator
        TraceReplay._derive(self)

    def start(self) -> None:
        """Schedule the first activity; call once before ``engine.run``."""
        self.engine.schedule(self.engine.now, self._run_cb)

    # ------------------------------------------------------------------

    def _run(self) -> None:
        """Process trace events until compute time elapses or we block.

        Shaped for the dominant activation: one access, one event fetch,
        one self-reschedule.  An event with a compute gap is fetched,
        parked in ``_pending_work`` and accessed when the core wakes at
        the end of the gap.
        """
        if self._blocked or self._running:
            return
        self._running = True
        engine = self.engine
        now = engine.now
        pending = self._pending_work
        # At most issue-width zero-work accesses retire per cycle; beyond
        # that the core re-schedules itself one cycle later so simulated
        # time always advances (an all-hit trace must not spin forever).
        budget = 4
        try:
            while True:
                if pending is None:
                    pos = self._pos
                    try:
                        work = self._works[pos]
                    except IndexError:
                        pos = self._row_at_end(pos)
                        work = self._works[pos]
                    address = self._addrs[pos]
                    is_write = self._flags[pos] & FLAG_WRITE != 0
                    self._pos = pos + 1
                    multiplier = self.throttle_multiplier
                    if multiplier != 1.0:
                        work = int(work * multiplier)
                    if work > 0 or budget <= 0:
                        self._pending_work = (work, address, is_write)
                        engine.schedule(now + work if work > 0 else now + 1,
                                        self._run_cb)
                        return
                else:
                    work, address, is_write = pending
                shift = self._line_shift
                line = address >> shift if shift is not None \
                    else address // self.line_bytes
                outstanding = self.outstanding
                stats = self.stats
                # A line already in flight coalesces: no L1 access.
                if line not in outstanding:
                    l1 = self.l1
                    if len(outstanding) >= self.mlp \
                            and not l1.probe(address):
                        # MSHRs full: block until a response frees one
                        # (the miss leaves the L1 untouched).
                        self._blocked = True
                        self._block_start = now
                        if pending is None:
                            self._pending_work = (work, address, is_write)
                        return
                    hit, victim = l1.access(address, is_write)
                    if hit:
                        stats.l1_hits += 1
                    else:
                        stats.l1_misses += 1
                        outstanding[line] = True
                        port = self.port
                        core_id = self.core_id
                        # positional MemoryRequest: (core_id, address,
                        # is_write, l1_miss, issue, mc_arrival, dram_start,
                        # complete, shaper_bin, req_id)
                        port.submit(MemoryRequest(core_id, address, is_write,
                                                  now, 0, 0, 0, 0, -1,
                                                  self._next_rid()))
                        if victim is not None:
                            # Writeback: fire-and-forget, past the shaper.
                            port.submit_bypass(MemoryRequest(
                                core_id, victim, True, now, 0, 0, 0, 0, -2,
                                self._next_rid()))
                stats.accesses += 1
                stats.retired += 1
                stats.work_cycles += 1 + work
                if pending is not None:
                    self._pending_work = pending = None
                budget -= 1
        finally:
            self._running = False

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
