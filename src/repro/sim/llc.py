"""Shared (or private) last-level cache with banked access.

The LLC reports hit/miss back to each core's MITTS shaper per request --
the hybrid design of Section III-D -- and the miss determination forwards
the request to the memory controller.  Banks serialise accesses mapped to
them, so a core hogging the LLC delays others even when everything hits:
this is the "destructive effects at a shared LLC" that source-side shaping
can counter (Section IV-D advantage 1).

Determinations are scheduled as ``(bound method, request)`` pairs (no
per-event closures): ``respond_hit`` or ``respond_miss``, both supplied by
the owner.  The owner's miss handler forwards demand misses; the LLC
itself forwards only the writebacks of the dirty victims it evicts.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from .cache import Cache
from .engine import Engine
from .request import MemoryRequest, RequestIdAllocator, _default_request_ids
from .stats import SystemStats


class SharedLLC:
    """Banked LLC between the shaper ports and the memory controller.

    With a power-of-two line size, bank count and set count (every shipped
    configuration) ``lookup`` runs the cache's LRU set operations inline
    (the ``_fast`` flag, fixed at construction); any other geometry goes
    through :meth:`~repro.sim.cache.Cache.access`, with the same result.
    """

    __slots__ = ("engine", "cache", "forward_miss", "respond_hit",
                 "respond_miss", "hit_latency", "banks", "bank_busy",
                 "stats", "_bank_free", "hits", "misses", "_new_req_id",
                 "_line_shift", "_bank_mask", "_line_bytes", "_stat_cores",
                 "_fast")

    def __init__(self, engine: Engine, cache: Cache,
                 forward_miss: Callable[[MemoryRequest], None],
                 respond_hit: Callable[[MemoryRequest], None],
                 respond_miss: Callable[[MemoryRequest], None],
                 hit_latency: int = 30, banks: int = 8,
                 bank_busy: int = 4,
                 stats: Optional[SystemStats] = None,
                 req_ids: Optional[RequestIdAllocator] = None) -> None:
        self.engine = engine
        self.cache = cache
        self.forward_miss = forward_miss
        self.respond_hit = respond_hit
        self.respond_miss = respond_miss
        self.hit_latency = hit_latency
        self.banks = banks
        self.bank_busy = bank_busy
        self.stats = stats
        self._bank_free: List[int] = [0] * banks
        self.hits = 0
        self.misses = 0
        self._stat_cores = stats.cores if stats is not None else None
        self._new_req_id = req_ids or _default_request_ids
        line_bytes = cache.geometry.line_bytes
        self._line_bytes = line_bytes
        self._line_shift = line_bytes.bit_length() - 1 \
            if line_bytes & (line_bytes - 1) == 0 else None
        self._bank_mask = banks - 1 if banks & (banks - 1) == 0 else None
        self._fast = (self._line_shift is not None
                      and self._bank_mask is not None
                      and cache._set_mask is not None)

    def lookup(self, request: MemoryRequest) -> None:
        """Start an LLC access for ``request`` at the current cycle."""
        engine = self.engine
        now = engine.now
        address = request.address
        is_write = request.is_write
        cache = self.cache
        fast = self._fast
        if fast:
            line = address >> self._line_shift
            bank = line & self._bank_mask
        else:
            line = address // self._line_bytes
            bank = line % self.banks
        bank_free = self._bank_free
        free_at = bank_free[bank]
        start = now if now > free_at else free_at
        bank_free[bank] = start + self.bank_busy
        respond_at = start + self.hit_latency
        if fast:
            # inline cache.access(address, is_write): the same dict
            # operations in the same order
            ways = cache._sets[line & cache._set_mask]
            dirty = ways.pop(line, None)
            victim = None
            if dirty is not None:
                ways[line] = dirty or is_write
                cache.hits += 1
            else:
                cache.misses += 1
                if len(ways) >= cache._ways:
                    vline = next(iter(ways))
                    if ways.pop(vline):
                        victim = vline << self._line_shift
                        cache.writebacks += 1
                ways[line] = is_write
            hit = dirty is not None
        else:
            hit, victim = cache.access(address, is_write)
        cores = self._stat_cores
        demand = cores is not None and request.shaper_bin != -2
        if hit:
            self.hits += 1
            if demand:
                cores[request.core_id].llc_hits += 1
            callback = self.respond_hit
        else:
            self.misses += 1
            if demand:
                cores[request.core_id].llc_misses += 1
            callback = self.respond_miss
        engine.schedule(respond_at, callback, request)
        if victim is not None:
            # The victim writeback's req_id is allocated after the miss
            # determination is scheduled.
            writeback = MemoryRequest(request.core_id, victim, True, now,
                                      now, 0, 0, 0, -2, self._new_req_id())
            engine.schedule(respond_at, self.forward_miss, writeback)
