"""Instruction-window (ROB) core model.

The paper's SSim frontend "models out-of-order cores with out-of-order
memory systems" (4-wide issue, 128-entry instruction window, Table II).
The default :class:`~repro.sim.core_model.CoreModel` approximates latency
tolerance with a flat MSHR cap; this model adds the reorder-buffer
dynamics that actually produce it:

* trace events *dispatch* in order into a fixed-size window, up to
  ``width`` per cycle, each after its compute gap;
* memory accesses issue when dispatched (L1 hit, coalesce, or miss via
  the shaper port, still MSHR-bounded);
* events *retire* in order; a load at the window head that has not
  received data blocks retirement -- the window then fills and dispatch
  stalls, which is where the stall time of a miss really comes from.

Latency tolerance emerges: a pointer chaser with dependent misses fills
the window with one outstanding miss, while a streaming kernel keeps
``mshrs`` misses in flight -- no per-benchmark ``mlp`` knob needed.

The model is drop-in: pass ``core_model="window"`` to
:class:`~repro.sim.system.SimSystem`.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Iterable, Optional

from .cache import Cache
from .core_model import ShaperPort
from .engine import Engine
from .request import MemoryRequest, RequestIdAllocator, _default_request_ids
from .soa import TraceReplay
from .stats import CoreStats


class _WindowEntry:
    """One in-flight trace event in the reorder buffer."""

    __slots__ = ("work", "address", "is_write", "waiting_line", "done",
                 "dep")

    def __init__(self, work: int, address: int, is_write: bool,
                 dep: "Optional[_WindowEntry]" = None) -> None:
        self.work = work
        self.address = address
        self.is_write = is_write
        #: line the entry is waiting on (None once data arrived / hit)
        self.waiting_line: Optional[int] = None
        self.done = False
        #: entry this one is data-dependent on (pointer chase), or None
        self.dep = dep


class WindowCoreModel(TraceReplay):
    """Trace-driven core with an in-order-retire instruction window.

    Like :class:`~repro.sim.core_model.CoreModel` it replays its trace by
    position over the shared growing prefix.
    """

    __slots__ = ("core_id", "engine", "l1", "port", "stats",
                 "window", "width", "mshrs", "line_bytes",
                 "throttle_multiplier", "_rob",
                 "outstanding", "_deferred", "_staged", "_stage_ready",
                 "_last_entry", "_ticking", "_stall_started", "_tick_cb",
                 "_new_req_id")

    def __init__(self, core_id: int, engine: Engine, trace: Iterable,
                 l1: Cache, port: ShaperPort, stats: CoreStats,
                 window: int = 128, width: int = 4, mshrs: int = 8,
                 line_bytes: int = 64,
                 throttle_multiplier: float = 1.0,
                 req_ids: Optional[RequestIdAllocator] = None) -> None:
        if window < 1 or width < 1 or mshrs < 1:
            raise ValueError("window, width and mshrs must be >= 1")
        self.core_id = core_id
        self.engine = engine
        self.l1 = l1
        self.port = port
        self.stats = stats
        self.window = window
        self.width = width
        self.mshrs = mshrs
        self.line_bytes = line_bytes
        self.throttle_multiplier = throttle_multiplier
        self._rob: Deque[_WindowEntry] = deque()
        #: line -> entries waiting on it (coalescing + wakeup)
        self.outstanding: Dict[int, list] = {}
        #: misses that could not get an MSHR yet
        self._deferred: Deque[_WindowEntry] = deque()
        #: next event, staged until its gap elapses and its dependency
        #: (if any) resolves
        self._staged: Optional[_WindowEntry] = None
        self._stage_ready = 0
        self._last_entry: Optional[_WindowEntry] = None
        self._ticking = False
        self._stall_started: Optional[int] = None
        self._tick_cb = self._tick
        self._new_req_id = req_ids or _default_request_ids
        self._start_replay(trace)

    # ------------------------------------------------------------------

    def start(self) -> None:
        self.engine.schedule(self.engine.now, self._tick_cb)

    @property
    def mlp(self) -> int:
        """Compatibility shim: components asking for the MLP knob get the
        MSHR count (the hard upper bound this model enforces)."""
        return self.mshrs

    # ------------------------------------------------------------------
    # the per-cycle pipeline step (event-driven: only scheduled when
    # something can change)

    def _tick(self) -> None:
        if self._ticking:
            return
        self._ticking = True
        try:
            now = self.engine.now
            self._retire(now)
            dispatched = self._dispatch(now)
            self._account_stall(now)
            # Re-arm: keep ticking while the pipeline has same-cycle work;
            # sleep out a compute gap; otherwise only a memory response
            # can unblock us (on_response re-arms the tick).
            if dispatched or (self._rob and self._rob[0].done):
                self.engine.schedule(now + 1, self._tick_cb)
            elif len(self._rob) < self.window \
                    and self._stage_ready > now:
                self.engine.schedule(self._stage_ready, self._tick_cb)
        finally:
            self._ticking = False

    def _retire(self, now: int) -> None:
        retired = 0
        while self._rob and retired < self.width:
            head = self._rob[0]
            if not head.done:
                break
            self._rob.popleft()
            self.stats.retired += 1
            self.stats.work_cycles += 1 + head.work
            retired += 1

    def _dispatch(self, now: int) -> int:
        dispatched = 0
        while dispatched < self.width and len(self._rob) < self.window:
            if self._staged is None:
                event = self._next_event()
                work = int(event.work * self.throttle_multiplier)
                dep = self._last_entry if event.depends else None
                entry = _WindowEntry(work, event.address, event.is_write,
                                     dep=dep)
                self._last_entry = entry
                self._staged = entry
                self._stage_ready = now + work
            if now < self._stage_ready:
                break
            dep = self._staged.dep
            if dep is not None and not dep.done:
                break  # pointer chase: wait for the producer's data
            entry = self._staged
            self._staged = None
            entry.dep = None
            self._enter_window(entry, now)
            dispatched += 1
        return dispatched

    def _enter_window(self, entry: _WindowEntry, now: int) -> None:
        self._rob.append(entry)
        self.stats.accesses += 1
        line = entry.address // self.line_bytes
        if line in self.outstanding:
            # Coalesce: wait on the already in-flight line.
            entry.waiting_line = line
            self.outstanding[line].append(entry)
            return
        if self.l1.access_if_present(entry.address, entry.is_write):
            self.stats.l1_hits += 1
            entry.done = True
            return
        if len(self.outstanding) >= self.mshrs:
            # No MSHR free: the miss waits at dispatch (no L1 fill yet)
            # and is retried when a response frees one.
            entry.waiting_line = line
            self._deferred.append(entry)
            return
        self._issue_miss(entry, now)

    def _issue_miss(self, entry: _WindowEntry, now: int) -> None:
        _, dirty_victim = self.l1.access(entry.address, entry.is_write)
        line = entry.address // self.line_bytes
        self.stats.l1_misses += 1
        entry.waiting_line = line
        self.outstanding[line] = [entry]
        request = MemoryRequest(core_id=self.core_id,
                                address=entry.address,
                                is_write=entry.is_write,
                                l1_miss_cycle=now,
                                req_id=self._new_req_id())
        self.port.submit(request)
        if dirty_victim is not None:
            writeback = MemoryRequest(core_id=self.core_id,
                                      address=dirty_victim, is_write=True,
                                      l1_miss_cycle=now,
                                      req_id=self._new_req_id())
            writeback.shaper_bin = -2
            self.port.submit_bypass(writeback)

    def _account_stall(self, now: int) -> None:
        """Track cycles where a full window blocks dispatch.

        Accumulates incrementally at every tick: back-to-back stall
        intervals (head retires but the refilled window blocks again
        within the same tick) must not swallow the elapsed time.
        """
        if self._stall_started is not None:
            self.stats.memory_stall_cycles += now - self._stall_started
        blocked = bool(self._rob) and not self._rob[0].done \
            and len(self._rob) >= self.window
        self._stall_started = now if blocked else None

    # ------------------------------------------------------------------

    def on_response(self, request: MemoryRequest) -> None:
        now = self.engine.now
        line = request.address // self.line_bytes
        waiters = self.outstanding.pop(line, [])
        for entry in waiters:
            entry.done = True
            entry.waiting_line = None
        request.complete_cycle = now
        self.stats.total_latency += request.total_latency
        self.stats.post_shaper_latency += now - request.issue_cycle
        self._retry_deferred(now)
        self.engine.schedule(now, self._tick_cb)

    def _retry_deferred(self, now: int) -> None:
        pending = list(self._deferred)
        self._deferred.clear()
        for entry in pending:
            line = entry.address // self.line_bytes
            if entry.done:
                continue
            if line in self.outstanding:
                self.outstanding[line].append(entry)
                continue
            if self.l1.access_if_present(entry.address, entry.is_write):
                # A coalesced fill landed while deferred.
                entry.done = True
                entry.waiting_line = None
                continue
            if len(self.outstanding) >= self.mshrs:
                self._deferred.append(entry)
                continue
            self._issue_miss(entry, now)
