"""Set-associative cache model with LRU replacement and dirty tracking.

Used for both the per-core L1s and the (shared or private) LLC.  Tag state
is exact -- real sets, ways and LRU order -- because Figure 2's observation
(a larger LLC both shrinks and right-shifts the inter-arrival distribution)
only emerges from real locality filtering, not from a flat miss ratio.

The lookup path is hot (every simulated access goes through an L1, most
through the LLC too), so indexing is precomputed: power-of-two line sizes
and set counts -- every shipped configuration -- use shift/mask arithmetic
instead of div/mod.

Each set is a plain ``dict`` from line to dirty flag whose insertion order
is the LRU order: a hit pops its line and reinserts it (the most recently
used end), and an eviction pops ``next(iter(ways))`` (the least recently
used end).  A system holds hundreds of sets, mostly empty, and a
checkpoint pickles every one: plain dicts pickle in C, with no per-instance
Python-level ``__reduce__``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple


def _shift_for(value: int) -> Optional[int]:
    """log2 of ``value`` when it is a power of two, else ``None``."""
    if value > 0 and value & (value - 1) == 0:
        return value.bit_length() - 1
    return None


@dataclass(frozen=True, slots=True)
class CacheGeometry:
    """Size/associativity description of one cache level."""

    size_bytes: int
    ways: int
    line_bytes: int = 64

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.ways <= 0 or self.line_bytes <= 0:
            raise ValueError("cache geometry values must be positive")
        if self.size_bytes % (self.ways * self.line_bytes) != 0:
            raise ValueError("size must be a multiple of ways * line size")

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.ways * self.line_bytes)


class Cache:
    """LRU set-associative cache over line addresses.

    ``access`` performs lookup + fill in one step (fills are immediate;
    fill latency is accounted by the requesting component).  Returns the
    hit flag and, on a miss that evicts a dirty line, the victim's address
    so the caller can generate writeback traffic.
    """

    __slots__ = ("geometry", "_sets", "hits", "misses", "writebacks",
                 "_line_shift", "_set_mask", "_num_sets", "_ways",
                 "_line_bytes")

    def __init__(self, geometry: CacheGeometry) -> None:
        self.geometry = geometry
        self._sets: List[Dict[int, bool]] = [
            {} for _ in range(geometry.num_sets)]
        self.hits = 0
        self.misses = 0
        self.writebacks = 0
        # Precomputed indexing: all shipped geometries are powers of two;
        # a non-power-of-two geometry falls back to div/mod (same result).
        self._num_sets = geometry.num_sets
        self._ways = geometry.ways
        self._line_bytes = geometry.line_bytes
        self._line_shift = _shift_for(geometry.line_bytes)
        set_shift = _shift_for(self._num_sets)
        self._set_mask = self._num_sets - 1 if set_shift is not None else None

    def _locate(self, address: int) -> Tuple[int, int]:
        shift = self._line_shift
        line = address >> shift if shift is not None \
            else address // self._line_bytes
        mask = self._set_mask
        set_index = line & mask if mask is not None \
            else line % self._num_sets
        return set_index, line

    def probe(self, address: int) -> bool:
        """Check residency without updating LRU or filling."""
        shift = self._line_shift
        line = address >> shift if shift is not None \
            else address // self._line_bytes
        mask = self._set_mask
        set_index = line & mask if mask is not None \
            else line % self._num_sets
        return line in self._sets[set_index]

    def access(self, address: int,
               is_write: bool = False) -> Tuple[bool, Optional[int]]:
        """Lookup ``address``; fill on miss.

        Returns ``(hit, dirty_victim_address)``.  The victim address is the
        byte address of an evicted dirty line, or ``None``.
        """
        shift = self._line_shift
        line = address >> shift if shift is not None \
            else address // self._line_bytes
        mask = self._set_mask
        set_index = line & mask if mask is not None \
            else line % self._num_sets
        ways = self._sets[set_index]
        dirty = ways.pop(line, None)
        if dirty is not None:
            ways[line] = dirty or is_write
            self.hits += 1
            return True, None
        self.misses += 1
        victim = None
        if len(ways) >= self._ways:
            victim_line = next(iter(ways))
            if ways.pop(victim_line):
                victim = victim_line * self._line_bytes \
                    if shift is None else victim_line << shift
                self.writebacks += 1
        ways[line] = is_write
        return False, victim

    def access_if_present(self, address: int, is_write: bool = False) -> bool:
        """Hit-only access: update LRU/dirty state and return True on a
        hit; leave the cache untouched (no fill, no miss count) otherwise.

        Equivalent to ``probe(a) and access(a, w)`` in one lookup -- the
        instruction-window core model's dispatch path uses it to test for
        a hit without committing an MSHR.
        """
        shift = self._line_shift
        line = address >> shift if shift is not None \
            else address // self._line_bytes
        mask = self._set_mask
        set_index = line & mask if mask is not None \
            else line % self._num_sets
        ways = self._sets[set_index]
        dirty = ways.pop(line, None)
        if dirty is not None:
            ways[line] = dirty or is_write
            self.hits += 1
            return True
        return False

    def invalidate(self, address: int) -> bool:
        """Drop a line if present; returns whether it was resident."""
        set_index, line = self._locate(address)
        return self._sets[set_index].pop(line, None) is not None

    def flush(self) -> None:
        """Empty the cache (e.g. between experiment phases)."""
        for ways in self._sets:
            ways.clear()

    @property
    def miss_rate(self) -> float:
        total = self.hits + self.misses
        if total == 0:
            return 0.0
        return self.misses / total

    @property
    def resident_lines(self) -> int:
        return sum(len(ways) for ways in self._sets)
