"""The MITTS traffic shaper (the paper's primary contribution).

One :class:`MittsShaper` sits at each core between the L1 cache and the
(possibly distributed) shared LLC.  It measures the inter-arrival time of
outgoing memory requests, maps each request to a credit bin, and delays the
request whenever no bin at its inter-arrival time or faster holds a credit.
A delayed request *ages*: as it waits, its inter-arrival time grows, so it
may eventually match a farther-out (slower) bin that still has credits --
exactly the behaviour of Figure 6.

Both hybrid accounting methods of Section III-D are implemented:

* **Method 2** (used in the 25-core tape-out, the default): assume every L1
  miss is an LLC miss and deduct immediately; on an LLC *hit* notification,
  refund the credit to the bin it came from (a per-request pending table
  stores the bin number).
* **Method 1**: record a timestamp per L1 miss, and only deduct once the
  LLC confirms a miss, using the inter-arrival time between confirmed LLC
  misses.  Issue decisions still consult the (lagging) counters, so this
  variant is "slightly aggressive" exactly as the paper describes.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from .bins import BinConfig
from .credits import CreditState
from .limiter import SourceLimiter
from .replenish import ReplenishPolicy, ResetReplenisher


def _lowest_populated(counts: Sequence[int]) -> int:
    """Index of the first non-zero counter, or -1 if all are zero."""
    for index, count in enumerate(counts):
        if count:
            return index
    return -1


class MittsShaper(SourceLimiter):
    """Bin-based inter-arrival-time traffic shaper for one core."""

    __slots__ = ("state", "replenisher", "method", "_last_release",
                 "_pending_bin", "_pending_stamp", "_last_confirmed_miss",
                 "released", "refunds")

    METHOD_TIMESTAMP = 1
    METHOD_DEDUCT_REFUND = 2

    def __init__(self, config: BinConfig,
                 replenisher: ReplenishPolicy = None,
                 method: int = METHOD_DEDUCT_REFUND,
                 phase: int = 0) -> None:
        """``phase`` staggers this shaper's replenishment boundary so
        co-running shapers do not burst in lockstep (see
        :class:`~repro.core.replenish.ReplenishPolicy`)."""
        if method not in (self.METHOD_TIMESTAMP, self.METHOD_DEDUCT_REFUND):
            raise ValueError(f"unknown hybrid method {method}")
        self.state = CreditState(config)
        self.replenisher = replenisher or ResetReplenisher(config,
                                                           phase=phase)
        self.method = method
        #: cycle of the last released request (inter-arrival reference);
        #: boots "long ago" so the first request lands in the slowest bin.
        self._last_release: Optional[int] = None
        #: method 2: req_id -> bin the credit was deducted from
        self._pending_bin: Dict[int, int] = {}
        #: method 1: req_id -> release timestamp
        self._pending_stamp: Dict[int, int] = {}
        #: method 1: timestamp of the previous *confirmed* LLC miss
        self._last_confirmed_miss: Optional[int] = None
        # --- statistics ---
        self.released = 0
        self.refunds = 0

    # ------------------------------------------------------------------
    # configuration

    @property
    def config(self) -> BinConfig:
        return self.state.config

    @property
    def spec(self):
        return self.state.config.spec

    def reconfigure(self, config: BinConfig, now: int = 0,
                    reset_credits: bool = True) -> None:
        """Install a new bin allocation (OS/hypervisor register write)."""
        self.state.reconfigure(config, reset=reset_credits)
        self.replenisher = self.replenisher.reconfigured(config)
        self.replenisher.reset_clock(now)

    def stall_forever(self) -> bool:
        return self.config.total_credits == 0

    # ------------------------------------------------------------------
    # issue path

    def bin_at(self, cycle: int) -> int:
        """Bin a request released at ``cycle`` would fall into."""
        if self._last_release is None:
            # Counter has been running since boot: slowest bin.
            return self.spec.num_bins - 1
        return self.spec.bin_for_interarrival(cycle - self._last_release)

    def earliest_issue(self, now: int) -> Optional[int]:
        """First cycle >= ``now`` at which a release is permitted.

        Closed form over replenishment intervals.  Between two boundaries
        the credit counters are constant and :meth:`bin_at` never
        decreases, so a request becomes eligible once its inter-arrival
        time reaches the lowest populated bin ``b``: at ``max(t,
        last_release + b*L)``, if that is at or before the next boundary.
        Otherwise the answer lies past the boundary, with the counters
        the policy's :meth:`~repro.core.replenish.ReplenishPolicy.
        refilled` step gives (refills only ever raise counters).  One full
        period of refills restores every ``K_i``, after which the lowest
        configured bin decides: the reset policy takes at most one
        interval step, the drip ablation at most ``slices``.

        Only the live catch-up to ``now`` (always safe) touches state;
        the future is computed, never probed, so speculation cannot
        advance the live replenishment clock.
        """
        replenisher = self.replenisher
        state = self.state
        if now >= replenisher._next:
            replenisher.apply_until(state, now)
        counts: Sequence[int] = state.counts
        last = self._last_release
        # The current interval, spelled out: nearly every call ends here,
        # and skipping the loop's set-up halves the cost of a call.
        lowest = _lowest_populated(counts)
        if lowest >= 0:
            if last is None:
                return now
            release = last + lowest * state._config.spec.interval_length
            if release <= now:
                return now
            if release <= replenisher._next:
                return release
        limits = state._config.credits
        floor = _lowest_populated(limits)
        if floor < 0:
            return None  # zero-credit allocation: stalls forever
        length = state._config.spec.interval_length
        spacing = replenisher.boundary_spacing()
        t = now
        boundary = replenisher._next
        k = 0
        while True:
            if lowest >= 0:
                release = t if last is None else max(
                    t, last + lowest * length)
                if release <= boundary or lowest == floor:
                    return release
            counts = replenisher.refilled(counts, limits, k)
            lowest = _lowest_populated(counts)
            k += 1
            t = boundary
            boundary += spacing

    def issue(self, cycle: int, req_id: int = -1) -> None:
        """Commit a release at ``cycle``; deducts per the active method."""
        replenisher = self.replenisher
        state = self.state
        if cycle >= replenisher._next:
            replenisher.apply_until(state, cycle)
        if self.method == self.METHOD_DEDUCT_REFUND:
            spec = state._config.spec
            top = spec.num_bins - 1
            last = self._last_release
            bin_index = top if last is None else min(
                (cycle - last) // spec.interval_length, top)
            # Own bin first, then faster ones (CreditState.find_deductible).
            counts = state.counts
            source = bin_index
            while source >= 0 and not counts[source]:
                source -= 1
            if source < 0:
                raise ValueError(
                    f"no credit available at cycle {cycle} (bin {bin_index})")
            state.deduct(source)
            if req_id >= 0:
                self._pending_bin[req_id] = source
        elif req_id >= 0:
            self._pending_stamp[req_id] = cycle
        self._last_release = cycle
        self.released += 1

    # ------------------------------------------------------------------
    # LLC feedback (hybrid operation, Section III-D)

    def on_llc_response(self, req_id: int, was_hit: bool) -> None:
        if self.method == self.METHOD_DEDUCT_REFUND:
            bin_index = self._pending_bin.pop(req_id, None)
            if bin_index is None:
                return
            if was_hit:
                self.state.refund(bin_index)
                self.refunds += 1
        else:
            stamp = self._pending_stamp.pop(req_id, None)
            if stamp is None:
                return
            if was_hit:
                return
            # Confirmed LLC miss: deduct using the inter-arrival time
            # between confirmed misses (timestamp comparison of method 1).
            if self._last_confirmed_miss is None:
                interarrival = self.spec.lower_edge(self.spec.num_bins - 1)
            else:
                interarrival = max(0, stamp - self._last_confirmed_miss)
            self._last_confirmed_miss = stamp
            bin_index = self.spec.bin_for_interarrival(interarrival)
            source = self.state.find_deductible(bin_index)
            if source is not None:
                self.state.deduct(source)

    # ------------------------------------------------------------------
    # introspection

    @property
    def pending_entries(self) -> int:
        """Occupancy of the pending table (sizes the hardware structure)."""
        return len(self._pending_bin) + len(self._pending_stamp)

    def credit_counts(self):
        """Copy of the live per-bin counters."""
        return self.state.snapshot()

    def credit_occupancy(self):
        """Per-bin ``(n_i, K_i)`` pairs -- the bound checker's probe.

        The analytic oracle (:mod:`repro.validate.bounds`) asserts
        ``n_i <= K_i`` for every bin from *outside* the credit machinery,
        so the check stays meaningful even when the runtime contracts
        inside :class:`~repro.core.credits.CreditState` are switched off.
        Reads copies only; never perturbs the registers.
        """
        return list(zip(self.state.snapshot(), self.config.credits))

    def diagnostics(self) -> dict:
        """Plain-data state snapshot for starvation diagnostics.

        Consumed by the forward-progress watchdog when it raises
        :class:`~repro.resilience.watchdog.StarvationError`: enough to
        explain a stall (which bins are empty, what was bought, how many
        requests are parked) without re-running the simulation.
        """
        return {
            "method": self.method,
            "credits": self.state.snapshot(),
            "limits": list(self.config.credits),
            "total_credits": self.config.total_credits,
            "stall_forever": self.stall_forever(),
            "pending_entries": self.pending_entries,
            "released": self.released,
            "refunds": self.refunds,
        }
