"""Fused fast-path components of the batched simulation kernel.

The heap engine's component graph (``CoreModel -> ShaperPort -> SharedLLC
-> MemoryController -> DramDevice``) is semantically clean but pays a deep
Python call chain per simulated access.  The subclasses here collapse those
chains when -- and only when -- the collapse is provably bit-identical:

* :class:`BatchedCoreModel` replays its trace by indexing the columns of
  the trace's prefix (:class:`~repro.workloads.trace.TracePrefix`)
  instead of building event records, and inlines the L1 lookup (the
  plain-``dict`` LRU set operations of
  :meth:`~repro.sim.cache.Cache.access`) plus the pass-through
  :class:`~repro.sim.core_model.ShaperPort` drain into its run loop.  Per-
  access statistics accumulate in locals and flush once per activation.
* :class:`BatchedLLC` inlines the cache access and the bank-serialisation
  arithmetic of :meth:`~repro.sim.llc.SharedLLC.lookup` and schedules the
  system's fused hit/miss determinations directly (no ``_hit``/``_miss``
  trampoline events).
* :class:`BatchedMemoryController` keeps the checked controller's
  select/remove/refill dispatch for every scheduler and inlines the DRAM
  service after it: the bank state machine and channel-bus arithmetic run
  on the request's ``(flat_bank, row, channel)`` stamp, with no
  per-access ``contracts.is_enabled()`` probe.

Every inlined body is a transcription of the corresponding checked
component with the same statement order for every observable effect
(statistics, request-id allocation, event scheduling); the golden
fingerprint suite pins the equivalence.  The core and the LLC also keep
a gate flag and fall back to the parent implementation whenever their
preconditions (power-of-two geometry) do not hold,
so these classes are accelerators, never a restriction on configuration
space.

These classes are only instantiated on the fused path (``kernel:
"batched"`` with contracts disabled); with ``REPRO_CONTRACTS=1`` the
system assembles the fully instrumented originals so every invariant
check still runs.
"""

from __future__ import annotations

from heapq import heappush as _heappush
from typing import Callable, Optional

from ..dram.device import DramDevice
from ..workloads.trace import FLAG_WRITE
from .core_model import CoreModel
from .engine import _NO_ARG
from .llc import SharedLLC
from .memctrl import MemoryController, MemorySchedulerProtocol
from .request import MemoryRequest
from .stats import SystemStats


class BatchedCoreModel(CoreModel):
    """Trace-replaying core over prefix columns with an inlined L1 path.

    Behaviour is bit-identical to :class:`~repro.sim.core_model.CoreModel`:
    the same accesses at the same cycles, the same request-id allocation
    order, the same statistics.  ``_works``/``_addrs``/``_flags`` are the
    columns of the trace's shared prefix, which grow in place; the core
    extends the prefix only when its position reaches the end of the
    events it knows (``_pos == _n``), and wraps only once the prefix is
    the whole trace.  When the line size or the L1 geometry is not
    power-of-two the instance simply runs the parent implementation.

    ``_fused_llc``/``_llc_pack`` stay ``None`` unless the owning
    :class:`~repro.sim.system.SimSystem` binds the core->LLC inline (it
    knows whether the port sends straight into a fast
    :class:`BatchedLLC` sharing this core's allocator and statistics).
    """

    __slots__ = ("_works", "_addrs", "_flags", "_n", "_fast", "_next_rid",
                 "_fused_llc", "_llc_pack")

    _DERIVED = CoreModel._DERIVED | {"_works", "_addrs", "_flags", "_n",
                                     "_fast", "_next_rid"}

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._fused_llc = None
        self._llc_pack = None

    def _derive(self) -> None:
        """(Re)derive the prefix up to the saved position and bind its
        columns; the fast flag is clear unless the line size and the L1
        geometry are power-of-two."""
        # Request ids come from ``next()`` on the allocator's raw counter
        # (one C call) instead of the allocator's ``__call__`` frame.
        allocator = self._new_req_id
        counter = getattr(allocator, "_count", None)
        self._next_rid = counter.__next__ if counter is not None \
            else allocator
        CoreModel._derive(self)
        l1 = self.l1
        self._fast = (self._line_shift is not None
                      and l1._set_mask is not None
                      and l1._line_shift == self._line_shift)
        prefix = self._prefix
        self._works = prefix.works
        self._addrs = prefix.addrs
        self._flags = prefix.flags
        self._n = len(prefix.works)

    def _next_row(self, pos: int) -> int:
        """Called at ``pos == _n``: pick up events another replay added,
        or extend the prefix by a chunk, or -- once the prefix is the
        whole trace -- wrap.  Returns the position to read."""
        works = self._works
        if len(works) == pos and not self._prefix.extend():
            if not pos:
                raise ValueError("cannot replay an empty trace")
            self.wraps += 1
            return 0
        self._n = len(works)
        return pos

    # ------------------------------------------------------------------

    def _run(self) -> None:
        """Column-driven transcription of :meth:`CoreModel._run`.

        Shaped for the dominant activation: one access, one event fetch,
        one self-reschedule.  Attributes are read on demand instead of
        bulk-bound up front (an activation touches each at most once), and
        the self-reschedule pushes straight onto the engine's heap --
        identical ``(when, seq)`` key to ``engine.schedule`` minus the
        call.  The access body inlines :meth:`Cache.access` (same
        ``dict`` operations in the same order) and the unshaped
        :meth:`ShaperPort._drain` (``shaper_stall_cycles`` gains
        ``now - now == 0`` on that path, so the add is skipped).
        """
        if self._blocked or self._running:
            return
        if not self._fast:
            CoreModel._run(self)
            return
        self._running = True
        engine = self.engine
        now = engine.now
        pending = self._pending_work
        budget = 4
        try:
            while True:
                if pending is None:
                    pos = self._pos
                    if pos == self._n:
                        pos = self._next_row(pos)
                    work = self._works[pos]
                    address = self._addrs[pos]
                    is_write = self._flags[pos] & FLAG_WRITE != 0
                    self._pos = pos + 1
                    multiplier = self.throttle_multiplier
                    if multiplier != 1.0:
                        work = int(work * multiplier)
                    if work > 0:
                        when = now + work
                    elif budget <= 0:
                        when = now + 1
                    else:
                        when = -1
                    if when >= 0:
                        self._pending_work = [0, work, address, is_write]
                        # inline engine.schedule(when, self._run_cb)
                        _heappush(engine._queue,
                                  (when, next(engine._counter),
                                   self._run_cb, _NO_ARG))
                        return
                else:
                    remaining = pending[0]
                    work = pending[1]
                    address = pending[2]
                    is_write = pending[3]
                    if remaining > 0:
                        pending[0] = 0
                        engine.schedule(now + remaining, self._run_cb)
                        return
                    if budget <= 0:
                        engine.schedule(now + 1, self._run_cb)
                        return
                line = address >> self._line_shift
                outstanding = self.outstanding
                stats = self.stats
                if line in outstanding:
                    # Coalesced secondary miss: line already in flight.
                    pass
                else:
                    l1 = self.l1
                    ways = l1._sets[line & l1._set_mask]
                    dirty = ways.pop(line, None)
                    if dirty is not None:
                        ways[line] = dirty or is_write
                        l1.hits += 1
                        stats.l1_hits += 1
                    elif len(outstanding) >= self.mlp:
                        # MSHRs full: block until a response frees one
                        # (the miss left the set untouched).
                        self._blocked = True
                        self._block_start = now
                        if pending is None:
                            self._pending_work = [0, work, address, is_write]
                        return
                    else:
                        l1.misses += 1
                        stats.l1_misses += 1
                        victim = None
                        if len(ways) >= l1._ways:
                            vline = next(iter(ways))
                            if ways.pop(vline):
                                victim = vline << self._line_shift
                                l1.writebacks += 1
                        ways[line] = is_write
                        outstanding[line] = True
                        port = self.port
                        core_id = self.core_id
                        # positional MemoryRequest: (core_id, address,
                        # is_write, l1_miss, issue, mc_arrival, dram_start,
                        # complete, shaper_bin, req_id)
                        request = MemoryRequest(core_id, address, is_write,
                                                now, 0, 0, 0, 0, -1,
                                                self._next_rid())
                        if port._unshaped and not port.queue \
                                and not port._parked:
                            request.issue_cycle = now
                            last = stats.last_issue_cycle
                            if last >= 0:
                                hist = stats.interarrival._counts
                                gap_bin = (now - last) \
                                    // port.interarrival_bucket
                                if gap_bin < len(hist):
                                    hist[gap_bin] += 1
                                else:
                                    stats.interarrival.add(gap_bin)
                            stats.last_issue_cycle = now
                            llc = self._fused_llc
                            if llc is None:
                                port.send(request)
                            else:
                                # inline llc.lookup(request): same cache
                                # ops, counters and schedule in the same
                                # order (BatchedLLC.lookup transcription;
                                # ``request.shaper_bin`` is -1 here so the
                                # demand gates are pre-decided).
                                lshift, lbank_mask, lbusy, lhit_lat = \
                                    self._llc_pack
                                lline = address >> lshift
                                lbank_free = llc._bank_free
                                lbank = lline & lbank_mask
                                free_at = lbank_free[lbank]
                                lstart = now if now > free_at else free_at
                                lbank_free[lbank] = lstart + lbusy
                                lcache = llc.cache
                                lways = lcache._sets[
                                    lline & lcache._set_mask]
                                respond_at = lstart + lhit_lat
                                lvictim = None
                                ldirty = lways.pop(lline, None)
                                if ldirty is not None:
                                    lways[lline] = ldirty or is_write
                                    lcache.hits += 1
                                    llc.hits += 1
                                    stats.llc_hits += 1
                                    callback = llc._respond_hit
                                else:
                                    lcache.misses += 1
                                    if len(lways) >= lcache._ways:
                                        lvline = next(iter(lways))
                                        if lways.pop(lvline):
                                            lvictim = lvline << lshift
                                            lcache.writebacks += 1
                                    lways[lline] = is_write
                                    llc.misses += 1
                                    stats.llc_misses += 1
                                    callback = llc._respond_miss
                                # inline engine.schedule(respond_at,
                                #                        callback, request)
                                _heappush(engine._queue,
                                          (respond_at,
                                           next(engine._counter),
                                           callback, request))
                                if lvictim is not None:
                                    lwb = MemoryRequest(
                                        core_id, lvictim, True, now, now,
                                        0, 0, 0, -2, self._next_rid())
                                    engine.schedule(respond_at,
                                                    llc.forward_miss, lwb)
                        else:
                            port.submit(request)
                        if victim is not None:
                            writeback = MemoryRequest(core_id, victim, True,
                                                      now, now, 0, 0, 0, -2,
                                                      self._next_rid())
                            port.send(writeback)
                stats.accesses += 1
                stats.retired += 1
                stats.work_cycles += 1 + work
                if pending is not None:
                    self._pending_work = None
                    pending = None
                budget -= 1
        finally:
            self._running = False


class BatchedLLC(SharedLLC):
    """Shared LLC with the cache access and bank arithmetic inlined.

    ``respond_hit`` / ``respond_miss`` are the system's fused determination
    callbacks, scheduled directly where the parent schedules its
    ``_hit``/``_miss`` trampolines -- one fewer Python call per LLC event,
    identical event order and payloads.
    """

    __slots__ = ("_respond_hit", "_respond_miss", "_fast")

    def __init__(self, *args,
                 respond_hit: Optional[Callable] = None,
                 respond_miss: Optional[Callable] = None,
                 **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._respond_hit = respond_hit if respond_hit is not None \
            else self._hit
        self._respond_miss = respond_miss if respond_miss is not None \
            else self._miss
        cache = self.cache
        self._fast = (self._line_shift is not None
                      and self._bank_mask is not None
                      and cache._set_mask is not None
                      and cache._line_shift == self._line_shift)

    def lookup(self, request: MemoryRequest) -> None:
        if not self._fast:
            SharedLLC.lookup(self, request)
            return
        engine = self.engine
        now = engine.now
        line = request.address >> self._line_shift
        bank = line & self._bank_mask
        bank_free = self._bank_free
        free_at = bank_free[bank]
        start = now if now > free_at else free_at
        bank_free[bank] = start + self.bank_busy
        cache = self.cache
        ways = cache._sets[line & cache._set_mask]
        respond_at = start + self.hit_latency
        cores = self._stat_cores
        demand = request.shaper_bin != -2
        dirty = ways.pop(line, None)
        if dirty is not None:
            ways[line] = dirty or request.is_write
            cache.hits += 1
            self.hits += 1
            if cores is not None and demand:
                cores[request.core_id].llc_hits += 1
            callback = self._respond_hit
        else:
            cache.misses += 1
            victim = None
            if len(ways) >= cache._ways:
                vline = next(iter(ways))
                if ways.pop(vline):
                    victim = vline << self._line_shift
                    cache.writebacks += 1
            ways[line] = request.is_write
            self.misses += 1
            if cores is not None and demand:
                cores[request.core_id].llc_misses += 1
            callback = self._respond_miss
        # inline engine.schedule(respond_at, callback, request)
        _heappush(engine._queue,
                  (respond_at, next(engine._counter), callback, request))
        if callback is self._respond_miss and victim is not None:
            # Same creation order as the parent: the LLC-victim writeback's
            # req_id is allocated after the miss determination is scheduled.
            writeback = MemoryRequest(request.core_id, victim, True, now,
                                      now, 0, 0, 0, -2, self._new_req_id())
            engine.schedule(respond_at, self.forward_miss, writeback)


class BatchedMemoryController(MemoryController):
    """Memory controller with the DRAM service inlined into its dispatch.

    The dispatch is :meth:`MemoryController._dispatch` for every
    scheduler -- ``select``, ``queue.remove``, window refill -- followed by
    the bank state machine of :meth:`repro.dram.bank.Bank.access` (timing
    sums precomputed) and the channel-bus serialisation of
    :meth:`repro.dram.device.DramDevice.service`, both run on the
    request's DRAM stamp (``dram_coord``, set on entry) with no
    per-access ``contracts.is_enabled()`` probe.
    """

    __slots__ = ("_skip_on_complete", "_timing_pack")

    def __init__(self, engine, dram: DramDevice,
                 scheduler: MemorySchedulerProtocol,
                 complete: Callable[[MemoryRequest], None],
                 queue_depth: int = 32,
                 stats: Optional[SystemStats] = None) -> None:
        super().__init__(engine, dram, scheduler, complete,
                         queue_depth=queue_depth, stats=stats)
        timing = dram.timing
        self._skip_on_complete = (type(scheduler).on_complete
                                  is MemorySchedulerProtocol.on_complete)
        #: one tuple read + unpack per dispatch instead of nine attr reads
        self._timing_pack = (
            timing.t_bl, timing.t_rc, timing.t_rp, timing.t_wr,
            timing.t_rcd + timing.t_bl,
            timing.t_rp + timing.t_rcd + timing.t_bl,
            timing.row_hit_latency, timing.row_closed_latency,
            timing.row_conflict_latency)

    def _dispatch(self) -> None:
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
        dram = self.dram
        banks = dram.banks
        bus_free = dram.bus_free
        complete_cb = self._complete_cb
        (t_bl, t_rc, t_rp, t_wr, t_rcd_bl, t_rp_rcd_bl,
         hit_lat, closed_lat, conflict_lat) = self._timing_pack
        dispatched = 0
        while queue and inflight < max_inflight:
            request = select(queue, now, self)
            if request is None:
                break
            queue.remove(request)
            if overflow:
                while overflow and len(queue) < depth:
                    queue.append(overflow.popleft())
            request.dram_start_cycle = now
            next_refresh = dram._next_refresh
            if next_refresh is not None and now >= next_refresh:
                dram._maybe_refresh(now)
            flat, row, channel = request.dram_coord
            bank = banks[flat]
            start = bank.ready_cycle
            if now > start:
                start = now
            open_row = bank.open_row
            if open_row == row:
                done = start + hit_lat
                next_ready = start + t_bl
                bank.row_hits += 1
            else:
                gate = bank.last_activate + t_rc
                if gate > start:
                    start = gate
                if open_row is None:
                    done = start + closed_lat
                    next_ready = start + t_rcd_bl
                    bank.last_activate = start
                else:
                    done = start + conflict_lat
                    next_ready = start + t_rp_rcd_bl
                    bank.last_activate = start + t_rp
                bank.row_misses += 1
                bank.open_row = row
            if request.is_write:
                next_ready += t_wr
            bank.ready_cycle = next_ready
            bus_start = done - t_bl
            free_at = bus_free[channel]
            if free_at > bus_start:
                bus_start = free_at
            done = bus_start + t_bl
            bus_free[channel] = done
            inflight += 1
            dispatched += 1
            # inline engine.schedule(done, complete_cb, request)
            _heappush(engine._queue,
                      (done, next(engine._counter), complete_cb, request))
        self._inflight = inflight
        self.dispatched += dispatched

    def _complete(self, request: MemoryRequest) -> None:
        self._inflight -= 1
        if self.probe is not None:
            self.probe.on_mc_complete(request, self.engine.now)
        cores = self._cores
        if cores is not None:
            cstats = cores[request.core_id]
            if request.shaper_bin == -2:
                cstats.writebacks += 1
            else:
                cstats.dram_requests += 1
        if not self._skip_on_complete:
            self.scheduler.on_complete(request, self.engine.now)
        self.complete(request)
        if self.overflow:
            self._refill_window()
        if self.queue:
            self._dispatch()
