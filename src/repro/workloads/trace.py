"""Trace representation: the unit of work a simulated core replays.

A trace is a sequence of :class:`TraceEvent` -- ``work`` compute cycles
followed by one memory access to ``address``.  Traces must be *replayable*:
iterating twice yields the identical sequence, so a program's run alone and
its run in a shared system replay the same work (the basis of the
``T_shared / T_single`` slowdown metrics).

A simulation reads a trace through a :class:`TracePrefix`: the events
materialised so far, grown :data:`TRACE_CHUNK` events at a time from the
trace's own iterator, only when a replay reaches the end of what exists.
A short run therefore costs only the events it reads, and a replay
position is a plain ``(index, wraps)`` pair that never holds the trace.
The prefix keeps its events in three compact columns (17 bytes an event)
rather than as event objects; :meth:`TracePrefix.event` builds the
:class:`TraceEvent` for readers that want one.
"""

from __future__ import annotations

from array import array
from itertools import islice
from typing import (Any, Callable, Iterable, Iterator, List, NamedTuple,
                    Optional, Sequence)

#: events a :class:`TracePrefix` appends per extension
TRACE_CHUNK = 128

#: largest ``work`` or ``address`` the prefix columns (``array('q')``) hold
COLUMN_MAX = (1 << 63) - 1

#: bits of a :attr:`TracePrefix.flags` byte
FLAG_WRITE = 1
FLAG_DEPENDS = 2


class TraceEvent(NamedTuple):
    """``work`` compute cycles, then an access to byte ``address``.

    ``depends`` marks the access as data-dependent on the previous event
    (a pointer chase): the instruction-window core model cannot dispatch
    it until the previous access's data has returned.  The simple core
    model ignores the flag (its MLP cap plays the same role).
    """

    work: int
    address: int
    is_write: bool
    depends: bool = False


class TracePrefix:
    """The leading events of a trace, extended in chunks on demand.

    Event ``i`` is ``works[i]`` compute cycles, then an access to byte
    ``addrs[i]`` (both 8-byte ``array('q')`` columns), with ``flags[i]``
    (a ``bytearray``) holding :data:`FLAG_WRITE` and :data:`FLAG_DEPENDS`.
    The columns only ever grow, in place, so a reader may hold on to them
    and index them by position.

    The events come from ``fill(works, addrs, flags)``, an iterator that
    appends one event to the columns per step (the trace generator, so no
    per-event record is ever built), or from ``source``, an iterable of
    ``(work, address, is_write, depends)`` records (a :class:`TraceEvent`
    or a plain tuple) that :func:`_convert` appends.  Once the events run
    out the prefix is the whole trace and :meth:`extend` returns ``False``.
    """

    __slots__ = ("works", "addrs", "flags", "_source", "_error")

    def __init__(self, source: Iterable[Any] = (),
                 fill: Optional[Callable[..., Iterator[None]]] = None
                 ) -> None:
        self.works = array("q")
        self.addrs = array("q")
        self.flags = bytearray()
        columns = (self.works, self.addrs, self.flags)
        self._source: Optional[Iterator[None]] = fill(*columns) \
            if fill is not None else _convert(source, *columns)
        self._error: Optional[str] = None

    def __len__(self) -> int:
        return len(self.works)

    def extend(self) -> bool:
        """Append the next :data:`TRACE_CHUNK` events; ``False`` (nothing
        appended) once the prefix is the whole trace.

        A record that does not convert, or a value outside the columns
        (:data:`COLUMN_MAX`), raises ``ValueError`` naming the event; the
        prefix keeps the events before it, and every later call raises
        the same error.
        """
        source = self._source
        if source is None:
            if self._error is not None:
                raise ValueError(self._error)
            return False
        flags = self.flags
        before = len(flags)
        try:
            for _ in islice(source, TRACE_CHUNK):
                pass
        except (TypeError, ValueError, OverflowError) as error:
            index = len(flags)
            del self.works[index:], self.addrs[index:]
            self._source = None
            self._error = f"trace event {index}: {error}"
            raise ValueError(self._error) from None
        if len(flags) - before < TRACE_CHUNK:
            self._source = None
        return len(flags) > before

    def reach(self, count: int) -> None:
        """Extend until at least ``count`` events exist (or the trace ends)."""
        while len(self.works) < count and self.extend():
            pass

    def event(self, pos: int) -> TraceEvent:
        """Event ``pos`` as a :class:`TraceEvent`."""
        flag = self.flags[pos]
        return TraceEvent(self.works[pos], self.addrs[pos],
                          flag & FLAG_WRITE != 0, flag & FLAG_DEPENDS != 0)


def _convert(records: Iterable[Any], works: array, addrs: array,
             flags: bytearray) -> Iterator[None]:
    """Append each record to the columns, one per step: the one place a
    record's fields become ``int``, ``int``, ``bool``, ``bool``."""
    for work, address, is_write, depends in records:
        works.append(int(work))
        addrs.append(int(address))
        flags.append((FLAG_WRITE if is_write else 0)
                     | (FLAG_DEPENDS if depends else 0))
        yield


class PrefixReplay:
    """Iterator over a :class:`TracePrefix`, extending it as it goes.

    What a prefix-backed trace returns from ``__iter__``: iterating it
    yields the trace's events, and :func:`trace_prefix` recognises it and
    shares the prefix instead of copying the events.
    """

    __slots__ = ("prefix", "_pos")

    def __init__(self, prefix: TracePrefix) -> None:
        self.prefix = prefix
        self._pos = 0

    def __iter__(self) -> "PrefixReplay":
        return self

    def __next__(self) -> TraceEvent:
        pos = self._pos
        prefix = self.prefix
        if pos == len(prefix.works) and not prefix.extend():
            raise StopIteration
        self._pos = pos + 1
        return prefix.event(pos)


def trace_prefix(trace) -> TracePrefix:
    """The prefix a simulation replays ``trace`` from.

    A trace whose iterator is a :class:`PrefixReplay` (a
    :class:`~repro.workloads.generator.SyntheticTrace`) shares its
    memoised prefix; any other replayable iterable gets a private prefix
    over a fresh iterator.  Raises ``TypeError`` for a non-iterable.
    """
    source = iter(trace)
    if type(source) is PrefixReplay:
        return source.prefix
    return TracePrefix(source)


class ListTrace:
    """A fixed, in-memory trace (used heavily by the tests)."""

    def __init__(self, events: Sequence[TraceEvent]) -> None:
        self._events: List[TraceEvent] = list(events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)

    def __len__(self) -> int:
        return len(self._events)


def uniform_trace(count: int, gap: int, stride: int = 64,
                  base: int = 0, is_write: bool = False) -> ListTrace:
    """A perfectly regular trace: constant gap, sequential lines.

    This is the "constant memory traffic" pattern at the top of Figure 1 --
    its inter-arrival distribution is a single pulse.
    """
    if count < 0 or gap < 0:
        raise ValueError("count and gap must be non-negative")
    return ListTrace([TraceEvent(gap, base + i * stride, is_write)
                      for i in range(count)])


def bursty_trace(bursts: int, burst_len: int, burst_gap: int,
                 idle_gap: int, stride: int = 64,
                 base: int = 0) -> ListTrace:
    """Alternating burst/idle trace: the middle pattern of Figure 1.

    Its inter-arrival distribution has two pulses: one at ``burst_gap`` and
    one at ``idle_gap``.
    """
    events = []
    address = base
    for _ in range(bursts):
        for i in range(burst_len):
            gap = idle_gap if i == 0 else burst_gap
            events.append(TraceEvent(gap, address, False))
            address += stride
    return ListTrace(events)
