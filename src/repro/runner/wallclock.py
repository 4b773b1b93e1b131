"""The runner's single sanctioned wall-clock access point.

The determinism contract (README, simlint SIM002) bans wall-clock reads
from anything that computes simulation results: a simulated system's
behaviour depends only on cycle time.  The execution engine, however,
legitimately needs real time for three *non-result* purposes -- job
timeouts, retry backoff, and progress/ETA reporting.  All three go
through this module so the exemption is one grep-able, pragma'd place
instead of being scattered through the runner.

Nothing returned from these helpers may ever flow into a simulation or a
stored result value.
"""

from __future__ import annotations

import signal
import threading
import time
from contextlib import contextmanager
from typing import Iterator, Optional


class JobTimeoutError(Exception):
    """A job exceeded its wall-clock budget (raised inside the worker)."""


def now() -> float:
    """Monotonic wall-clock seconds, for ETA estimates and backoff only."""
    return time.monotonic()  # simlint: disable=SIM002


def epoch() -> float:
    """Epoch wall-clock seconds, for lease deadlines that must compare
    across *processes* (the fabric queue's claim files).  ``now()`` is
    monotonic per boot, not per process group; epoch time is the only
    clock two independently started workers can agree on.  Never flows
    into a result."""
    return time.time()  # simlint: disable=SIM002


def sleep(seconds: float) -> None:
    """Sleep the *driver* process (retry backoff); never simulation code."""
    if seconds > 0:
        time.sleep(seconds)


def _timeout_usable() -> bool:
    """SIGALRM timeouts need a main thread on a POSIX platform."""
    return (hasattr(signal, "SIGALRM")
            and threading.current_thread() is threading.main_thread())


@contextmanager
def deadline(seconds: Optional[float],
             what: str = "job") -> Iterator[None]:
    """Raise :class:`JobTimeoutError` if the block runs longer than
    ``seconds`` of wall time.

    Implemented with ``SIGALRM``/``setitimer`` so a hung simulation is
    interrupted *inside* the worker and the process pool stays healthy
    (future-side timeouts cannot cancel running work).  A ``None`` budget,
    a non-main thread, or a platform without ``SIGALRM`` degrade to a
    no-op rather than failing.
    """
    if seconds is None or seconds <= 0 or not _timeout_usable():
        yield
        return

    def _expired(signum, frame):
        raise JobTimeoutError(
            f"{what} exceeded its {seconds:g}s wall-clock budget")

    previous_handler = signal.signal(signal.SIGALRM, _expired)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous_handler)
