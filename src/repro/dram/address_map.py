"""Physical address to DRAM coordinate mapping.

The default interleaving is row:bank:column (consecutive cache lines walk
the columns of one row, then move to the next bank), which is the scheme
DRAMSim2 defaults to and what gives streaming workloads their high
row-buffer hit rates.

A request is mapped once, on entry to the memory controller, by
:meth:`AddressMapper.coord` -- the simulation path's one caller of
:meth:`AddressMapper.map`.  It memoises per cache line in a bounded dict
shared by every mapper of one ``(timing, scheme)``; a pickled mapper
carries only its constructor arguments and fetches the memo again.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, NamedTuple, Optional, Tuple

from .timing import DramTiming

#: one request's DRAM stamp: ``(flat_bank, row, channel)``
Coord = Tuple[int, int, int]

#: shared ``line -> Coord`` memos, one per ``(timing, scheme)``
_COORD_MEMO: "OrderedDict[Tuple, Dict[int, Coord]]" = OrderedDict()
_MEMO_MAX = 64
#: lines one memo holds; filling a full memo clears it first
_COORD_LINES_MAX = 1 << 17


def coord_memo(timing: DramTiming, scheme: str) -> Dict[int, Coord]:
    """The shared ``line -> (flat_bank, row, channel)`` memo of one DRAM
    geometry (at most ``_MEMO_MAX`` geometries are kept)."""
    memo = _COORD_MEMO.setdefault((timing, scheme), {})
    if len(_COORD_MEMO) > _MEMO_MAX:
        _COORD_MEMO.popitem(last=False)
    return memo


class DramCoordinates(NamedTuple):
    """Location of one cache line in the DRAM geometry."""

    channel: int
    rank: int
    bank: int
    row: int
    column: int

    @property
    def flat_bank(self) -> int:
        """Globally unique bank index (channel-major)."""
        return self.bank + self.rank * 1024 + self.channel * 1024 * 1024


def _shift_mask(value: int) -> Optional[Tuple[int, int]]:
    """``(shift, mask)`` for a power-of-two ``value``, else ``None``."""
    if value > 0 and value & (value - 1) == 0:
        return value.bit_length() - 1, value - 1
    return None


class AddressMapper:
    """Maps byte addresses to (channel, rank, bank, row, column).

    Two interleaving schemes are supported:

    * ``"row"`` (default, DRAMSim2's default): consecutive cache lines walk
      the columns of one row before moving to the next bank -- streaming
      traffic gets long row-hit runs.
    * ``"bank"``: consecutive cache lines rotate across banks (and
      channels) first -- single streams spread over all banks, trading
      row-hit runs for bank-level parallelism.
    """

    SCHEMES = ("row", "bank")

    __slots__ = ("timing", "scheme", "columns_per_row", "_pow2", "_memo")

    def __init__(self, timing: DramTiming, scheme: str = "row") -> None:
        if scheme not in self.SCHEMES:
            raise ValueError(f"unknown mapping scheme {scheme!r}; "
                             f"known: {self.SCHEMES}")
        self.timing = timing
        self.scheme = scheme
        self.columns_per_row = timing.row_buffer_bytes // timing.line_bytes
        # Shift/mask fast path for power-of-two geometries (all shipped
        # timings); any non-power-of-two dimension falls back to div/mod.
        dims = (timing.line_bytes, self.columns_per_row,
                timing.banks_per_rank, timing.ranks_per_channel,
                timing.channels)
        pairs = [_shift_mask(dim) for dim in dims]
        self._pow2 = None
        if all(pair is not None for pair in pairs):
            self._pow2 = tuple(pairs)
        self._memo = coord_memo(timing, scheme)

    def __reduce__(self):
        # Everything else is derived from the constructor arguments; the
        # shared memo in particular is fetched again, never pickled.
        return AddressMapper, (self.timing, self.scheme)

    def coord(self, address: int) -> Coord:
        """``(flat_bank, row, channel)`` of ``address``: a request's stamp.

        Memoised per cache line; the returned tuple is shared by every
        request to that line.
        """
        line = address // self.timing.line_bytes
        entry = self._memo.get(line)
        if entry is None:
            entry = self.fresh_coord(address)
            memo = self._memo
            if len(memo) >= _COORD_LINES_MAX:
                memo.clear()
            memo[line] = entry
        return entry

    def fresh_coord(self, address: int) -> Coord:
        """:meth:`coord` computed afresh, bypassing the memo."""
        coords = self.map(address)
        return (self.flat_index(coords), coords.row, coords.channel)

    def map(self, address: int) -> DramCoordinates:
        timing = self.timing
        pow2 = self._pow2
        if pow2 is not None:
            (line_s, _), (col_s, col_m), (bank_s, bank_m), \
                (rank_s, rank_m), (chan_s, chan_m) = pow2
            line = address >> line_s
            if self.scheme == "row":
                column = line & col_m
                line >>= col_s
                bank = line & bank_m
                line >>= bank_s
                rank = line & rank_m
                line >>= rank_s
                channel = line & chan_m
                row = line >> chan_s
            else:
                channel = line & chan_m
                line >>= chan_s
                bank = line & bank_m
                line >>= bank_s
                rank = line & rank_m
                line >>= rank_s
                column = line & col_m
                row = line >> col_s
            return DramCoordinates(channel, rank, bank, row, column)
        line = address // timing.line_bytes
        if self.scheme == "row":
            return self._map_row_interleaved(line)
        return self._map_bank_interleaved(line)

    def _map_row_interleaved(self, line: int) -> DramCoordinates:
        """line -> column -> bank -> rank -> channel -> row."""
        column = line % self.columns_per_row
        line //= self.columns_per_row
        bank = line % self.timing.banks_per_rank
        line //= self.timing.banks_per_rank
        rank = line % self.timing.ranks_per_channel
        line //= self.timing.ranks_per_channel
        channel = line % self.timing.channels
        row = line // self.timing.channels
        return DramCoordinates(channel=channel, rank=rank, bank=bank,
                               row=row, column=column)

    def _map_bank_interleaved(self, line: int) -> DramCoordinates:
        """line -> channel -> bank -> rank -> column -> row."""
        channel = line % self.timing.channels
        line //= self.timing.channels
        bank = line % self.timing.banks_per_rank
        line //= self.timing.banks_per_rank
        rank = line % self.timing.ranks_per_channel
        line //= self.timing.ranks_per_channel
        column = line % self.columns_per_row
        row = line // self.columns_per_row
        return DramCoordinates(channel=channel, rank=rank, bank=bank,
                               row=row, column=column)

    def flat_index(self, coords: DramCoordinates) -> int:
        """Flat bank index of already-mapped coordinates (no re-mapping)."""
        timing = self.timing
        return (coords.channel * timing.ranks_per_channel
                + coords.rank) * timing.banks_per_rank + coords.bank
