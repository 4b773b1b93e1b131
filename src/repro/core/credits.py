"""Runtime credit state for one MITTS shaper instance.

Separated from :class:`~repro.core.bins.BinConfig` (the immutable purchased
allocation) so the shaper can mutate counters, roll back on LLC hits, and be
swapped to a new configuration mid-run by the online tuner without losing
the distinction between "what was bought" and "what is left".
"""

from __future__ import annotations

from typing import List, Optional

from ..analysis import contracts
from .bins import BinConfig


class CreditState:
    """Mutable per-bin credit counters mirroring the hardware registers.

    The hardware holds one register per bin for the current count ``n_i``
    and one per bin for the replenish value ``K_i``; this class is exactly
    those two register files plus deduct/refund/replenish operations.
    """

    __slots__ = ("_config", "counts")

    def __init__(self, config: BinConfig) -> None:
        self._config = config
        self.counts: List[int] = list(config.credits)

    @property
    def config(self) -> BinConfig:
        return self._config

    def reconfigure(self, config: BinConfig, reset: bool = True) -> None:
        """Install a new allocation (OS writing the config registers).

        With ``reset`` the current counters are reset to the new ``K``;
        otherwise they are clamped into the new bounds and keep their value,
        which is what a mid-period register write would observe.
        """
        if config.spec.num_bins != self._config.spec.num_bins:
            raise ValueError("cannot reconfigure to a different bin count")
        self._config = config
        if reset:
            self.counts = list(config.credits)
        else:
            self.counts = [min(count, limit)
                           for count, limit in zip(self.counts, config.credits)]
        if contracts.enabled:
            self._check_counters("reconfigure")

    def replenish(self) -> None:
        """Algorithm 1: reset every ``n_i`` to ``K_i``."""
        self.counts = list(self._config.credits)
        if contracts.enabled:
            self._check_counters("replenish")

    def available(self, bin_index: int) -> int:
        return self.counts[bin_index]

    def total_available(self) -> int:
        return sum(self.counts)

    def find_deductible(self, bin_index: int) -> Optional[int]:
        """Find the bin a request in ``bin_index`` may take a credit from.

        A request may use a credit from its own bin or any *faster* bin
        (smaller index): "there are credits available in bins whose ``t_i``
        is smaller" (Section IV-G1).  We scan from the request's own bin
        downward so the cheapest sufficient credit is consumed first and
        expensive burst credits are preserved for genuinely bursty requests.
        Returns the bin index, or ``None`` if no eligible bin has credits.
        """
        for index in range(min(bin_index, len(self.counts) - 1), -1, -1):
            if self.counts[index] > 0:
                return index
        return None

    def deduct(self, bin_index: int) -> None:
        """Consume one credit from ``bin_index``."""
        if self.counts[bin_index] <= 0:
            raise ValueError(f"bin {bin_index} has no credits to deduct")
        self.counts[bin_index] -= 1
        if contracts.enabled:
            self._check_counters("deduct")

    def refund(self, bin_index: int) -> None:
        """Return one credit (hybrid method 2: the L1 miss was an LLC hit).

        Refunds saturate at the configured ``K_i`` like the 10-bit hardware
        registers would.
        """
        limit = self._config.credits[bin_index]
        if self.counts[bin_index] < limit:
            self.counts[bin_index] += 1
        if contracts.enabled:
            self._check_counters("refund")

    def _check_counters(self, method: str) -> None:
        """Post-check of every counter write: one counter per configured
        bin, and each ``n_i`` within ``[0, K_i]`` (Algorithm 1's register
        semantics).  Called only under ``if contracts.enabled:``."""
        credits = self._config.credits
        contracts.check(
            len(self.counts) == self._config.spec.num_bins,
            "CreditState.%s postcondition violated: one credit counter "
            "per configured bin", method)
        contracts.check(
            all(0 <= count <= limit
                for count, limit in zip(self.counts, credits)),
            "CreditState.%s postcondition violated: every bin credit "
            "count stays within [0, K_i], got %r of %r", method,
            self.counts, credits)

    def snapshot(self) -> List[int]:
        """Copy of the live counters (starvation diagnostics; a copy so
        diagnostic consumers can never alias the hardware registers)."""
        return list(self.counts)
