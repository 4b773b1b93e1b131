"""Discrete-event simulation engine.

The whole simulator is event-driven rather than cycle-ticked: components
schedule callbacks at absolute cycle times on a single binary heap.  This is
what makes pure-Python simulation of multi-million-cycle regions practical --
the cost of a run is proportional to the number of memory-system events, not
the number of cycles.

Time is measured in integer CPU cycles (the paper's core runs at 2.4 GHz and
all DRAM timing parameters are converted to CPU cycles up front, see
:mod:`repro.dram.timing`).

The event kernel is the hottest loop in the repository (every experiment,
sweep and GA fitness evaluation bottoms out here), so it is written for
CPython speed without giving up determinism:

* events are ``(when, seq, callback, arg)`` tuples -- hot callers pass a
  bound method plus its argument instead of allocating a per-event closure;
* :meth:`run` hoists the heap, ``heappop`` and the no-arg sentinel into
  locals and batches same-cycle event chains so the horizon comparison is
  paid once per simulated cycle, not once per event;
* the contract-checked variant lives on a separate slow path, picked
  when :meth:`run` is called, so the contracts-off loop stays lean.

Every fast-path shortcut preserves the FIFO pop order of the seeded heap,
so results are bit-identical to the straightforward loop (pinned by the
golden-fingerprint tests).
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Dict, List, Optional, Tuple

from ..analysis import contracts

_heappush = heapq.heappush
_heappop = heapq.heappop


def peek_count(counter: "itertools.count[int]") -> int:
    """The value ``next(counter)`` would return, read without advancing
    or replacing ``counter``.

    Checkpoints store sequence counters as plain ints: pickle and copy
    support for ``itertools`` objects is deprecated since Python 3.12
    and gone in 3.14.  ``repr`` (``count(41)``) is the only other way to
    read a counter's position.
    """
    text = repr(counter)
    if not text.startswith("count(") or not text.endswith(")") \
            or "," in text:
        raise ValueError(f"not a unit-step integer counter: {text}")
    return int(text[len("count("):-1])


class _NoArg:
    """Singleton sentinel marking "call the callback with no argument".

    The run loops compare event args against the sentinel *by identity*
    (``arg is _NO_ARG``), so the sentinel must survive serialisation as
    the same object: a checkpointed engine whose heap holds no-arg events
    must, after unpickling, still recognise them.  A plain ``object()``
    would deserialise to a fresh instance and the restored loop would
    call ``callback(<junk>)``.  ``__new__``/``__reduce__`` pin the
    module-level instance on both construction and unpickling.
    """

    __slots__ = ()
    _instance: "_NoArg" = None

    def __new__(cls) -> "_NoArg":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __reduce__(self):
        return (_NoArg, ())

    def __repr__(self) -> str:
        return "<no-arg>"


#: sentinel marking "call the callback with no argument"
_NO_ARG = _NoArg()

#: horizon of an unbounded ``run()``: a cycle no simulation reaches
_NEVER = 1 << 62


class Engine:
    """A minimal discrete-event scheduler keyed by integer cycle time.

    Events scheduled for the same cycle run in FIFO order of scheduling,
    which keeps component interactions deterministic.  Scheduling a
    ``(callback, arg)`` pair is equivalent to scheduling
    ``lambda: callback(arg)`` but allocates nothing per event; FIFO order
    depends only on the ``(when, seq)`` heap key, so both forms interleave
    deterministically.

    With runtime contracts enabled (``REPRO_CONTRACTS=1``, see
    :mod:`repro.analysis.contracts`) the engine verifies its two core
    invariants on every event -- time never runs backwards and same-cycle
    events pop in FIFO scheduling order -- and rejects non-integer cycle
    arguments at :meth:`schedule` time.  Both read the live
    ``contracts.enabled`` flag: :meth:`schedule` on every call, :meth:`run`
    once when it is called to pick the checked loop.

    Pickling stores the sequence counter as a plain int and restores a
    fresh ``itertools.count`` from it; saving never touches the live
    counter.
    """

    __slots__ = ("now", "_queue", "_counter", "_stopped", "events_executed")

    def __init__(self) -> None:
        self.now: int = 0
        self._queue: List[Tuple[int, int, Callable, object]] = []
        self._counter = itertools.count()
        self._stopped = False
        #: cumulative number of events executed (perf accounting only;
        #: never feeds back into simulated behaviour)
        self.events_executed: int = 0

    def __getstate__(self) -> Dict[str, object]:
        state = {name: getattr(self, name) for name in self.__slots__}
        state["_counter"] = peek_count(self._counter)
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        for name, value in state.items():
            setattr(self, name, value)
        self._counter = itertools.count(state["_counter"])

    def schedule(self, when: int, callback: Callable,
                 arg: object = _NO_ARG) -> None:
        """Schedule ``callback`` (optionally ``callback(arg)``) at absolute
        cycle ``when``.

        Scheduling in the past is clamped to the current cycle; this lets
        components compute "ready" times without worrying about underflow.
        """
        if contracts.enabled:
            contracts.check(
                isinstance(when, int),
                "Engine.schedule(when=%r): simulated time is integer CPU "
                "cycles, got %s", when, type(when).__name__)
            contracts.check(
                callable(callback),
                "Engine.schedule: callback %r is not callable", callback)
        if when < self.now:
            when = self.now
        _heappush(self._queue, (when, next(self._counter), callback, arg))

    def schedule_in(self, delay: int, callback: Callable,
                    arg: object = _NO_ARG) -> None:
        """Schedule ``callback`` to run ``delay`` cycles from now."""
        self.schedule(self.now + delay, callback, arg)

    def stop(self) -> None:
        """Request that :meth:`run` return after the current event."""
        self._stopped = True

    @property
    def pending_events(self) -> int:
        """Number of events still queued."""
        return len(self._queue)

    def run(self, until: Optional[int] = None) -> int:
        """Run events until the queue drains or ``until`` cycles pass.

        Returns the final simulation time.  Events scheduled at exactly
        ``until`` do *not* run (the horizon is exclusive), so repeated calls
        with increasing horizons never execute an event twice.
        """
        self._stopped = False
        if contracts.enabled:
            return self._run_checked(until)

        # Fast path: locals for everything touched per event, and an inner
        # loop that drains each cycle's whole event chain with one horizon
        # check.  Pop order is exactly the heap's (when, seq) order, so
        # this is observably identical to the one-event-at-a-time loop.
        # A ``None`` horizon (run to drain) becomes an unreachable cycle so
        # the per-cycle comparison needs no None test.
        queue = self._queue
        pop = _heappop
        no_arg = _NO_ARG
        horizon = until if until is not None else _NEVER
        executed = 0
        try:
            while queue and not self._stopped:
                when = queue[0][0]
                if when >= horizon:
                    break
                self.now = when
                while queue and queue[0][0] == when and not self._stopped:
                    _when, _seq, callback, arg = pop(queue)
                    # Counted before the call: a callback that raises
                    # (watchdog starvation, chaos injection) has still
                    # consumed its event.
                    executed += 1
                    if arg is no_arg:
                        callback()
                    else:
                        callback(arg)
            if until is not None and self.now < until:
                self.now = until
            return self.now
        finally:
            self.events_executed += executed

    def _run_checked(self, until: Optional[int]) -> int:
        """Reference event loop, one event at a time, checking time
        monotonicity and heap-FIFO order before each event."""
        executed = 0
        last_seq = -1
        try:
            while self._queue and not self._stopped:
                when = self._queue[0][0]
                if until is not None and when >= until:
                    self.now = until
                    return self.now
                when, seq, callback, arg = _heappop(self._queue)
                if contracts.enabled:
                    contracts.check(
                        when >= self.now,
                        "time monotonicity violated: popped event at cycle %d "
                        "behind current cycle %d", when, self.now)
                    contracts.check(
                        when > self.now or seq > last_seq,
                        "heap-FIFO order violated at cycle %d: event seq %d "
                        "popped after seq %d", when, seq, last_seq)
                last_seq = seq
                self.now = when
                executed += 1
                if arg is _NO_ARG:
                    callback()
                else:
                    callback(arg)
            if until is not None and self.now < until:
                self.now = until
            return self.now
        finally:
            self.events_executed += executed
