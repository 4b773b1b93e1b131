"""Derivable per-trace state: replay positions and row tables.

Cores replay a trace by position over its growing prefix
(:class:`~repro.workloads.trace.TracePrefix`), so a run materialises only
the chunks of events it reaches.  The batched kernel adds one accelerator
on top: the replay rows -- one ``(work, address, is_write, line)`` tuple
per event, grown in the same chunks as the prefix, so the core's run loop
fetches an access with one index plus an unpack.

Rows are plain ``int``/``bool`` tuples memoized per ``(profile, seed)`` --
the key the trace generator's own prefix memo uses -- because the same
seeded trace drives many systems (slowdown baselines, benchmark repeats,
GA evaluations).  Every memo is bounded.  Components only hold references
to this state; since it is derivable from the trace, checkpoints never
carry it (:class:`DerivedSlots`), and a restore regenerates a prefix up to
the saved position.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, FrozenSet, List, Optional, Tuple

from ..dram.address_map import AddressMapper, Coord
from ..dram.timing import DramTiming
from ..workloads.trace import TracePrefix, trace_prefix

#: one replayed access: ``(work, address, is_write, line)``
Row = Tuple[int, int, bool, int]

#: bounded memo (same policy as the trace generator's prefix memo)
_ROW_MEMO: "OrderedDict[Tuple, RowTable]" = OrderedDict()
_MEMO_MAX = 64


class DerivedSlots:
    """Pickle every slot except the derived ones; re-derive on restore.

    The one checkpoint rule for state that can be rebuilt: trace prefixes
    and replay rows (megabytes that checkpoints should not carry), and
    bindings that cannot pickle (a bound ``__next__`` of the request-id
    counter).  Subclasses name those slots in ``_DERIVED`` and rebuild
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
        events = prefix.events
        if pos == len(events) and not prefix.extend():
            if not events:
                raise ValueError("cannot replay an empty trace")
            self.wraps += 1
            pos = 0
        self._pos = pos + 1
        return events[pos]


def _shift_for(value: int) -> Optional[int]:
    if value > 0 and value & (value - 1) == 0:
        return value.bit_length() - 1
    return None


def trace_key(trace) -> Optional[Tuple]:
    """Hashable memo key of a trace, or ``None`` when not memoizable."""
    profile = getattr(trace, "profile", None)
    seed = getattr(trace, "seed", None)
    if profile is None or seed is None:
        return None
    try:
        hash((profile, seed))
    except TypeError:
        return None
    return (profile, seed)


def _memo_put(memo: OrderedDict, key: Tuple, value) -> None:
    memo[key] = value
    if len(memo) > _MEMO_MAX:
        memo.popitem(last=False)


class RowTable:
    """Replay rows of one trace, grown in step with its prefix."""

    __slots__ = ("rows", "prefix", "shift")

    def __init__(self, prefix: TracePrefix, shift: int) -> None:
        self.rows: List[Row] = []
        self.prefix = prefix
        self.shift = shift

    def grow(self) -> bool:
        """Append rows up to the end of the prefix, extending the prefix
        by a chunk first when the rows have caught up; ``False`` (nothing
        appended) once the rows cover the whole trace."""
        rows = self.rows
        prefix = self.prefix
        start = len(rows)
        if start == len(prefix.events) and not prefix.extend():
            return False
        shift = self.shift
        append = rows.append
        for event in prefix.events[start:]:
            address = int(event[1])
            append((int(event[0]), address, bool(event[2]),
                    address >> shift))
        return True


def row_table(trace, line_bytes: int) -> Optional[RowTable]:
    """Fetch (or start) the growing row table of ``trace``.

    A new table converts its first chunk at once.  Returns ``None`` when
    the trace cannot be replayed as rows (non-power-of-two line size, an
    empty trace, or first-chunk events that are not ``(work, address,
    is_write, ...)`` records); callers fall back to the event-driven core
    model in that case.
    """
    shift = _shift_for(line_bytes)
    if shift is None:
        return None
    key = trace_key(trace)
    memo_key = (key, shift) if key is not None else None
    if memo_key is not None:
        cached = _ROW_MEMO.get(memo_key)
        if cached is not None:
            return cached
    try:
        table = RowTable(trace_prefix(trace), shift)
        if not table.grow():
            return None
    except (TypeError, IndexError):
        return None
    if memo_key is not None:
        _memo_put(_ROW_MEMO, memo_key, table)
    return table


def trace_columns(trace, line_bytes: int) -> Optional[List[Row]]:
    """The replay rows of the whole of ``trace`` (synthesising what is
    missing), or ``None`` where :func:`row_table` gives none."""
    table = row_table(trace, line_bytes)
    if table is None:
        return None
    while table.grow():
        pass
    return table.rows


def dram_coord_table(trace, timing: DramTiming,
                     scheme: str) -> Optional[Dict[int, Coord]]:
    """DRAM line -> ``(flat_bank, row, channel)`` for a trace's addresses.

    Keyed by ``address >> log2(timing.line_bytes)`` and covering exactly
    the lines the whole trace touches.  Fills the shared stamp memo of
    :meth:`AddressMapper.coord` on the way, so calling it ahead of a run
    keeps mapping out of the run.
    """
    rows = trace_columns(trace, timing.line_bytes)
    if rows is None:
        return None
    coord = AddressMapper(timing, scheme=scheme).coord
    line_bytes = timing.line_bytes
    return {line: coord(line * line_bytes)
            for line in {row[3] for row in rows}}
