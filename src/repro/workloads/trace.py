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
"""

from __future__ import annotations

from itertools import islice
from typing import Iterator, List, NamedTuple, Optional, Sequence

#: events a :class:`TracePrefix` appends per extension
TRACE_CHUNK = 128


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

    ``events`` only ever grows, so a reader may hold on to the list and
    index it by position.  Once ``source`` is exhausted the prefix is the
    whole trace and :meth:`extend` returns ``False``.
    """

    __slots__ = ("events", "_source")

    def __init__(self, source: Iterator[TraceEvent]) -> None:
        self.events: List[TraceEvent] = []
        self._source: Optional[Iterator[TraceEvent]] = source

    def extend(self) -> bool:
        """Append the next :data:`TRACE_CHUNK` events; ``False`` (nothing
        appended) once the prefix is the whole trace."""
        source = self._source
        if source is None:
            return False
        events = self.events
        before = len(events)
        events.extend(islice(source, TRACE_CHUNK))
        if len(events) - before < TRACE_CHUNK:
            self._source = None
        return len(events) > before

    def reach(self, count: int) -> None:
        """Extend until at least ``count`` events exist (or the trace ends)."""
        while len(self.events) < count and self.extend():
            pass


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
        if pos == len(prefix.events) and not prefix.extend():
            raise StopIteration
        self._pos = pos + 1
        return prefix.events[pos]


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
