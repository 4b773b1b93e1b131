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

from typing import Dict, Optional

from .bins import BinConfig
from .credits import CreditState
from .limiter import SourceLimiter
from .replenish import ReplenishPolicy, ResetReplenisher


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
        self.replenisher = type(self.replenisher)(config)
        self.replenisher.reset_clock(now)

    def stall_forever(self) -> bool:
        return self.config.total_credits == 0

    # ------------------------------------------------------------------
    # issue path

    def _interarrival(self, cycle: int) -> int:
        if self._last_release is None:
            # Counter has been running since boot: slowest bin.
            return self.spec.lower_edge(self.spec.num_bins - 1)
        return cycle - self._last_release

    def bin_at(self, cycle: int) -> int:
        """Bin a request released at ``cycle`` would fall into."""
        return self.spec.bin_for_interarrival(self._interarrival(cycle))

    def earliest_issue(self, now: int) -> Optional[int]:
        """First cycle >= ``now`` at which a release is permitted.

        Walks forward through aging steps (a stalled request's growing
        inter-arrival time reaching a farther populated bin) and
        replenishment boundaries.  The walk probes *copies* of the credit
        state and replenishment clock -- speculating about the future must
        never advance the live clock, or a request issuing earlier than
        the probed boundary would leave the clock a period ahead of
        simulated time.
        """
        if self.stall_forever():
            return None
        # Catch the live state up to real time first (always safe).
        self.replenisher.apply_until(self.state, now)
        if self.state.find_deductible(self.bin_at(now)) is not None:
            # Fast exit: a credit is available right now.  The probe loop's
            # first iteration (clone, no-op apply, same find_deductible)
            # would return ``now``; skip the two state copies per call.
            return now

        probe_state = CreditState(self.config)
        probe_state.counts = list(self.state.counts)
        probe_policy = self.replenisher.clone()
        # Enough steps for every aging edge plus a full period of drip
        # slices, with slack; the reset policy needs only a handful.
        slices = getattr(probe_policy, "slices", 1)
        max_steps = 4 * (self.spec.num_bins + slices) + 16

        t = now
        for _ in range(max_steps):
            probe_policy.apply_until(probe_state, t)
            bin_index = self.bin_at(t)
            if probe_state.find_deductible(bin_index) is not None:
                return t
            candidates = []
            next_bin = probe_state.next_available_bin_at_or_above(
                bin_index + 1)
            if next_bin is not None and self._last_release is not None:
                candidates.append(self._last_release
                                  + self.spec.lower_edge(next_bin))
            candidates.append(probe_policy.next_boundary())
            future = [c for c in candidates if c > t]
            if not future:
                return None
            t = min(future)
        return None

    def issue(self, cycle: int, req_id: int = -1) -> None:
        """Commit a release at ``cycle``; deducts per the active method."""
        self.replenisher.apply_until(self.state, cycle)
        bin_index = self.bin_at(cycle)
        if self.method == self.METHOD_DEDUCT_REFUND:
            source = self.state.find_deductible(bin_index)
            if source is None:
                raise ValueError(
                    f"no credit available at cycle {cycle} (bin {bin_index})")
            self.state.deduct(source)
            if req_id >= 0:
                self._pending_bin[req_id] = source
        else:
            if req_id >= 0:
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
        so the check stays meaningful even when the contracts invariants
        inside :class:`~repro.core.credits.CreditState` are compiled out.
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
