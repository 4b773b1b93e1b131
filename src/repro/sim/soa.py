"""Derivable per-trace state: replay positions and DRAM coordinates.

Cores replay a trace by position over its growing prefix
(:class:`~repro.workloads.trace.TracePrefix`), so a run materialises only
the chunks of events it reaches.  The prefix is already columnar -- one
``array('q')`` of works, one of addresses and a ``bytearray`` of flags --
so the batched kernel's run loop indexes those columns directly and there
is no second, per-kernel copy of a trace.

The same seeded trace drives many systems (slowdown baselines, benchmark
repeats, GA evaluations), so a synthetic trace's prefix is memoised per
``(profile, seed)`` by the trace generator, in a bounded memo.  Components
only hold references to this state; since it is derivable from the trace,
checkpoints never carry it (:class:`DerivedSlots`), and a restore
regenerates a prefix up to the saved position.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional

from ..dram.address_map import AddressMapper, Coord
from ..dram.timing import DramTiming
from ..workloads.trace import TracePrefix, trace_prefix


class DerivedSlots:
    """Pickle every slot except the derived ones; re-derive on restore.

    The one checkpoint rule for state that can be rebuilt: trace prefixes
    and the bindings of their columns (megabytes that checkpoints should
    not carry), and bindings that cannot pickle (a bound ``__next__`` of
    the request-id counter).  Subclasses name those slots in ``_DERIVED`` and rebuild
    them in a ``_derive()`` method, which they also call at construction.
    """

    __slots__ = ()

    _DERIVED: FrozenSet[str] = frozenset()

    def __getstate__(self):
        state = {}
        for klass in type(self).__mro__:
            for name in getattr(klass, "__slots__", ()):
                if name not in self._DERIVED and hasattr(self, name):
                    state[name] = getattr(self, name)
        return state

    def __setstate__(self, state) -> None:
        for name, value in state.items():
            setattr(self, name, value)
        self._derive()


class TraceReplay(DerivedSlots):
    """A core's replay position: the ``(_pos, wraps)`` pair over a prefix.

    The prefix is derived: a restore regenerates it up to ``_pos``.  A
    replay wraps to the first event only once the prefix is the whole
    trace.
    """

    __slots__ = ("trace", "wraps", "_pos", "_prefix")

    _DERIVED = frozenset({"_prefix"})

    def _start_replay(self, trace) -> None:
        self.trace = trace
        self.wraps = 0
        self._pos = 0
        self._derive()

    def _derive(self) -> None:
        prefix = trace_prefix(self.trace)
        prefix.reach(self._pos)
        self._prefix = prefix

    def _next_event(self):
        pos = self._pos
        prefix = self._prefix
        if pos == len(prefix.works) and not prefix.extend():
            if not pos:
                raise ValueError("cannot replay an empty trace")
            self.wraps += 1
            pos = 0
        self._pos = pos + 1
        return prefix.event(pos)


def trace_columns(trace, line_bytes: int) -> Optional[TracePrefix]:
    """The prefix of ``trace`` grown to the whole trace (synthesising what
    is missing), or ``None`` where the batched core cannot replay it: a
    non-power-of-two ``line_bytes`` or a non-iterable ``trace``."""
    if line_bytes <= 0 or line_bytes & (line_bytes - 1):
        return None
    try:
        prefix = trace_prefix(trace)
    except TypeError:
        return None
    while prefix.extend():
        pass
    return prefix


def dram_coord_table(trace, timing: DramTiming,
                     scheme: str) -> Optional[Dict[int, Coord]]:
    """DRAM line -> ``(flat_bank, row, channel)`` for a trace's addresses.

    Keyed by ``address >> log2(timing.line_bytes)`` and covering exactly
    the lines the whole trace touches.  Fills the shared stamp memo of
    :meth:`AddressMapper.coord` on the way, so calling it ahead of a run
    keeps mapping out of the run.
    """
    prefix = trace_columns(trace, timing.line_bytes)
    if prefix is None:
        return None
    coord = AddressMapper(timing, scheme=scheme).coord
    line_bytes = timing.line_bytes
    shift = line_bytes.bit_length() - 1
    return {line: coord(line * line_bytes)
            for line in {address >> shift for address in prefix.addrs}}
