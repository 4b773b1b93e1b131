"""Credit replenishment policies.

The paper's hardware uses *reset-based* replenishment (Algorithm 1): a
register holds the period ``T_r``, a counter ``T_c`` counts it down, and at
each boundary every ``n_i`` is reset to ``K_i``.  A rate-based drip variant
is provided as an ablation (DESIGN.md item 2): it divides the period into
slices and tops bins up incrementally, trading burst capacity for
smoothness the way a token bucket with a small bucket would.

Policies are applied *lazily*: the simulator calls ``apply_until(state,
now)`` before reading credit counters.  To answer "when may a stalled
request go?" without touching the live clock, the shaper asks two pure
questions instead: :meth:`~ReplenishPolicy.boundary_spacing` (cycles
between consecutive boundaries after ``next_boundary()``) and
:meth:`~ReplenishPolicy.refilled` (the counters just after the ``k``-th
boundary from now, given the counters just before it).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from .bins import BinConfig
from .credits import CreditState


class ReplenishPolicy:
    """Base class: owns the period bookkeeping.

    ``phase`` offsets the first boundary backwards (modulo the period) so
    that co-running shapers do not replenish in lockstep -- synchronized
    boundaries make every core spend its burst credits at the same instant,
    the short-term congestion Section III-C discusses.

    Boundaries fall at ``next_boundary() + k * boundary_spacing()`` for
    ``k = 0, 1, ...``.  A refill never lowers a counter (counters never
    exceed ``K_i``), and one full period of refills (one boundary for the
    reset, ``slices`` for the drip) restores every counter to ``K_i``;
    the shaper's closed-form release time relies on both.
    """

    __slots__ = ("period", "_next")

    def __init__(self, config: BinConfig, period: Optional[int] = None,
                 phase: int = 0) -> None:
        self.period = period if period is not None else config.replenish_period()
        if self.period < 1:
            raise ValueError("replenishment period must be >= 1 cycle")
        self._next = self.period - (phase % self.period)

    def next_boundary(self) -> int:
        """Cycle of the next replenishment event."""
        return self._next

    def boundary_spacing(self) -> int:
        """Cycles between consecutive replenishment events."""
        return self.period

    def reset_clock(self, now: int) -> None:
        """Restart the period from ``now`` (used on reconfiguration)."""
        self._next = now + self.period

    def reconfigured(self, config: BinConfig) -> "ReplenishPolicy":
        """A fresh policy of the same kind for ``config`` (the period is
        re-derived from the new allocation)."""
        return type(self)(config)

    def apply_until(self, state: CreditState, now: int) -> None:
        """Apply all replenishment boundaries at or before ``now``."""
        raise NotImplementedError

    def refilled(self, counts: Sequence[int], limits: Sequence[int],
                 k: int) -> Sequence[int]:
        """Counters just after the ``k``-th boundary from now (``k = 0`` is
        ``next_boundary()``), given ``counts`` just before it.

        Pure: reads the clock, never advances it, never mutates
        ``counts``.
        """
        raise NotImplementedError


class ResetReplenisher(ReplenishPolicy):
    """Algorithm 1: at each period boundary reset all ``n_i`` to ``K_i``.

    Because a reset is idempotent, crossing several boundaries at once
    collapses into a single reset; only the clock needs to catch up.
    """

    __slots__ = ()

    def apply_until(self, state: CreditState, now: int) -> None:
        if now < self._next:
            return
        state.replenish()
        periods_crossed = (now - self._next) // self.period + 1
        self._next += periods_crossed * self.period

    def refilled(self, counts: Sequence[int], limits: Sequence[int],
                 k: int) -> Sequence[int]:
        return limits


def _drip(counts: Sequence[int], limits: Sequence[int], s: int,
          slices: int) -> List[int]:
    """``counts`` after drip slice ``s`` of ``slices``: the slice's
    largest-remainder installment, saturating at ``K_i``."""
    return [min(limit, count + limit * (s + 1) // slices
                - limit * s // slices)
            for count, limit in zip(counts, limits)]


class RateReplenisher(ReplenishPolicy):
    """Drip credits in ``slices`` installments across the period.

    Budget-neutral with the reset policy: each period adds exactly ``K_i``
    credits to ``bin_i``, spread across the slices by a largest-remainder
    schedule (slice ``s`` adds ``K_i*(s+1)//slices - K_i*s//slices``).
    Counters still saturate at ``K_i``, so unspent installments are lost --
    that loss of banked burst capacity is precisely the tradeoff against
    Algorithm 1's reset.
    """

    __slots__ = ("slices", "_slice_period", "_slice_index")

    def __init__(self, config: BinConfig, period: Optional[int] = None,
                 slices: int = 8, phase: int = 0) -> None:
        super().__init__(config, period)
        if slices < 1:
            raise ValueError("slices must be >= 1")
        self.slices = slices
        self._slice_period = max(1, self.period // slices)
        self._next = self._slice_period - (phase % self._slice_period)
        self._slice_index = 0

    def boundary_spacing(self) -> int:
        return self._slice_period

    def reset_clock(self, now: int) -> None:
        self._next = now + self._slice_period
        self._slice_index = 0

    def reconfigured(self, config: BinConfig) -> "RateReplenisher":
        return RateReplenisher(config, slices=self.slices)

    def apply_until(self, state: CreditState, now: int) -> None:
        while self._next <= now:
            state.counts = _drip(state.counts, state.config.credits,
                                 self._slice_index, self.slices)
            self._slice_index = (self._slice_index + 1) % self.slices
            self._next += self._slice_period

    def refilled(self, counts: Sequence[int], limits: Sequence[int],
                 k: int) -> Sequence[int]:
        return _drip(counts, limits, (self._slice_index + k) % self.slices,
                     self.slices)
