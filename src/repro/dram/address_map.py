"""Physical address to DRAM coordinate mapping.

The default interleaving is row:bank:column (consecutive cache lines walk
the columns of one row, then move to the next bank), which is the scheme
DRAMSim2 defaults to and what gives streaming workloads their high
row-buffer hit rates.

Mapping runs once per DRAM service, so the mapper precomputes shift/mask
pairs for power-of-two geometries (every shipped
:class:`~repro.dram.timing.DramTiming`) and exposes
:meth:`AddressMapper.flat_index` so callers that already mapped an address
do not map it a second time just to find the flat bank index.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple

from .timing import DramTiming


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

    __slots__ = ("timing", "scheme", "columns_per_row", "_pow2")

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

    def bank_index(self, address: int) -> int:
        """Flat bank index in ``range(timing.total_banks)``."""
        return self.flat_index(self.map(address))
