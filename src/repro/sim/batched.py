"""The fused core of the batched simulation kernel.

The component graph (``CoreModel -> ShaperPort -> SharedLLC ->
MemoryController -> DramDevice``) pays a Python call chain per simulated
access.  :class:`BatchedCoreModel` shortens only the part that is the
core's own: it replays its trace by indexing the columns of the trace's
prefix (:class:`~repro.workloads.trace.TracePrefix`) instead of building
event records, and inlines the L1 lookup (the plain-``dict`` LRU set
operations of :meth:`~repro.sim.cache.Cache.access`) into its run loop.

Everything below the L1 goes through the components, exactly as in
:meth:`~repro.sim.core_model.CoreModel._try_access`: a demand miss leaves
through :meth:`~repro.sim.core_model.ShaperPort.submit`, a dirty L1 victim
through :meth:`~repro.sim.core_model.ShaperPort.submit_bypass`, and the
core's own events go through :meth:`~repro.sim.engine.Engine.schedule`.
The inlined body keeps the checked core's statement order for every
observable effect (statistics, request-id allocation, event scheduling);
the golden fingerprint suite pins the equivalence.  The core keeps a gate
flag and falls back to :class:`~repro.sim.core_model.CoreModel`'s
implementation whenever its preconditions (power-of-two geometry) do not
hold, so it is an accelerator, never a restriction on configuration
space.

``kernel="batched"`` assembles this core in both contract modes, so
``REPRO_CONTRACTS=1`` checks the code default runs use.
"""

from __future__ import annotations

from ..workloads.trace import FLAG_WRITE
from .core_model import CoreModel
from .request import MemoryRequest


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
    """

    __slots__ = ("_works", "_addrs", "_flags", "_n", "_fast", "_next_rid")

    _DERIVED = CoreModel._DERIVED | {"_works", "_addrs", "_flags", "_n",
                                     "_fast", "_next_rid"}

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
        bulk-bound up front (an activation touches each at most once).
        The access body inlines :meth:`Cache.access` (same ``dict``
        operations in the same order); a miss is handed to the port as
        :meth:`CoreModel._try_access` hands it.
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
                        engine.schedule(when, self._run_cb)
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
                    self._pending_work = None
                    pending = None
                budget -= 1
        finally:
            self._running = False
