"""Derivable per-trace tables for the batched simulation kernel.

The heap kernel replays traces through the iterator protocol and derives
everything per access: line number, cache set, DRAM coordinates.  The
batched kernel instead precomputes two tables *once per trace*:

* the replay rows -- one ``(work, address, is_write, line)`` tuple per
  event, so the core's run loop fetches an access with one index plus an
  unpack;
* the DRAM coordinate table -- every distinct line mapped to its
  ``(flat_bank, row, channel)`` triple.

Both are built by plain Python loops over plain ``int``/``bool`` values
and memoized per ``(profile, seed)`` -- the same key the trace generator's
own memo uses -- because the same seeded trace drives many systems
(slowdown baselines, benchmark repeats, GA evaluations).  Components only
hold references to these tables; since they are derivable from the trace,
checkpoints never carry them (see :class:`repro.sim.batched.DerivedSlots`).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from ..dram.address_map import AddressMapper
from ..dram.timing import DramTiming

#: one replayed access: ``(work, address, is_write, line)``
Row = Tuple[int, int, bool, int]

#: bounded memos (same policy as the trace generator's stream memo)
_ROW_MEMO: "OrderedDict[Tuple, List[Row]]" = OrderedDict()
_COORD_MEMO: "OrderedDict[Tuple, Dict[int, Tuple[int, int, int]]]" = \
    OrderedDict()
_MEMO_MAX = 64


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


def trace_columns(trace, line_bytes: int) -> Optional[List[Row]]:
    """Build (or fetch) the replay rows of ``trace``.

    Returns ``None`` when the trace cannot be materialised as rows
    (non-power-of-two line size, or events that are not
    ``(work, address, is_write, ...)`` records); callers fall back to the
    iterator-driven core model in that case.
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
    rows: List[Row] = []
    try:
        for event in trace:
            address = int(event[1])
            rows.append((int(event[0]), address, bool(event[2]),
                         address >> shift))
    except (TypeError, IndexError):
        return None
    if not rows:
        return None
    if memo_key is not None:
        _memo_put(_ROW_MEMO, memo_key, rows)
    return rows


def dram_coord_table(trace, timing: DramTiming,
                     scheme: str) -> Optional[Dict[int, Tuple[int, int, int]]]:
    """DRAM line -> ``(flat_bank, row, channel)`` for a trace's addresses.

    Keyed by ``address >> log2(timing.line_bytes)``.  Covers every address
    the trace touches -- and therefore every dirty-victim writeback too,
    since victims are previously-filled lines of the same stream.  The
    batched memory controller falls back to the scalar mapper for any
    address outside the table, so the table is a pure accelerator, never a
    correctness dependency.
    """
    key = trace_key(trace)
    memo_key = (key, timing, scheme) if key is not None else None
    if memo_key is not None:
        cached = _COORD_MEMO.get(memo_key)
        if cached is not None:
            return cached
    rows = trace_columns(trace, timing.line_bytes)
    if rows is None:
        return None
    mapper = AddressMapper(timing, scheme=scheme)
    line_bytes = timing.line_bytes
    table = {}
    for line in {row[3] for row in rows}:
        coords = mapper.map(line * line_bytes)
        table[line] = (mapper.flat_index(coords), coords.row,
                       coords.channel)
    if memo_key is not None:
        _memo_put(_COORD_MEMO, memo_key, table)
    return table
