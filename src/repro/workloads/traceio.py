"""Trace file I/O: persist and replay traces (SSim-style trace-driven use).

The authors' simulator is "driven by the GEM5 Alpha ISA full system
simulator, and both trace-driven simulation and execution-driven
simulation can be performed".  This module provides the trace-driven leg
for external users: a one-line-per-event text format

    <work> <address-hex> <r|w>

with ``#`` comments, plus save/load helpers.  Loaded traces are plain
:class:`~repro.workloads.trace.ListTrace` objects, usable anywhere a
synthetic trace is.
"""

from __future__ import annotations

import io
from pathlib import Path
from typing import Iterable, Union

from .trace import COLUMN_MAX, ListTrace, TraceEvent

_FORMAT_HEADER = "# repro-trace v1"


def dump_trace(events: Iterable[TraceEvent],
               target: Union[str, Path, io.TextIOBase]) -> int:
    """Write events in the text format; returns the event count."""
    owned = False
    if isinstance(target, (str, Path)):
        handle = open(target, "w", encoding="utf-8")
        owned = True
    else:
        handle = target
    try:
        handle.write(_FORMAT_HEADER + "\n")
        count = 0
        for event in events:
            kind = "w" if event.is_write else "r"
            dep = " d" if getattr(event, "depends", False) else ""
            handle.write(f"{event.work} {event.address:x} {kind}{dep}\n")
            count += 1
        return count
    finally:
        if owned:
            handle.close()


def load_trace(source: Union[str, Path, io.TextIOBase]) -> ListTrace:
    """Read a trace written by :func:`dump_trace`.

    Unknown or malformed lines raise ``ValueError`` with the line number,
    so a truncated or corrupted trace fails loudly rather than silently
    shortening a workload.
    """
    owned = False
    if isinstance(source, (str, Path)):
        handle = open(source, "r", encoding="utf-8")
        owned = True
    else:
        handle = source
    try:
        events = []
        for line_number, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) not in (3, 4):
                raise ValueError(
                    f"line {line_number}: expected 'work addr r|w [d]', "
                    f"got {line!r}")
            try:
                work = int(parts[0])
                address = int(parts[1], 16)
            except ValueError as error:
                raise ValueError(f"line {line_number}: {error}") from None
            if work < 0 or address < 0:
                raise ValueError(
                    f"line {line_number}: negative work or address")
            if work > COLUMN_MAX or address > COLUMN_MAX:
                raise ValueError(
                    f"line {line_number}: work or address above "
                    f"{COLUMN_MAX:#x} does not fit a trace column")
            if parts[2] not in ("r", "w"):
                raise ValueError(
                    f"line {line_number}: access kind must be r or w")
            depends = False
            if len(parts) == 4:
                if parts[3] != "d":
                    raise ValueError(
                        f"line {line_number}: fourth field must be 'd'")
                depends = True
            events.append(TraceEvent(work, address, parts[2] == "w",
                                     depends))
        return ListTrace(events)
    finally:
        if owned:
            handle.close()


def record_benchmark(benchmark: str, path: Union[str, Path],
                     seed: int = 1) -> int:
    """Convenience: synthesise a benchmark's trace and persist it."""
    from .benchmarks import trace_for

    return dump_trace(trace_for(benchmark, seed=seed), path)
