"""Analytic bound oracle: network-calculus envelopes for MITTS systems.

MITTS guarantees each core a bin-shaped inter-arrival envelope, which is
exactly an *arrival curve* in the network-calculus sense (Mohammadpour et
al. on credit-based/asynchronous traffic shaping, Jiang's LRQ shaper
properties -- see PAPERS.md): over any window of ``W`` cycles a shaped
core can inject at most ``rate * W + burst`` memory requests.  Combined
with a guaranteed-rate model of the DRAM service (worst-case bank timing
from :mod:`repro.dram.timing`), closed-form worst-case bounds on memory-
controller backlog and request sojourn follow.  This module derives those
bounds from a :class:`~repro.core.bins.BinConfig` and asserts -- during a
live simulation -- that the simulator never violates them: a contracts-
style cross-check between theory and implementation (ROADMAP item 4c).

Derivations (all conservative; constants err on the generous side so a
violation is always a real bug, never a slack misestimate):

**Arrival curve** (per shaped core).  Within one replenishment period
``T_r`` the credit registers hold at most ``K_tot = sum(K_i)`` tokens, and
each boundary resets them to at most ``K_tot``.  Every release deducts one
credit; an LLC *hit* refunds it (hybrid method 2), so releases that turn
out to be LLC misses -- the requests that reach the memory controller --
consume credits permanently within the window.  Over any window ``W``:

    misses(W) <= K_tot * (floor(W / T_r) + 2) + slack

where the ``+2`` covers the partially-elapsed periods at both window
edges, and ``slack`` covers in-flight refunds from releases before the
window (bounded by the core's MSHR count).  Hence ``rate = K_tot / T_r``
and ``burst = 2 * K_tot + slack``.  The envelope is provable only for
method 2 (deduct-at-release): method 1 gates releases on *lagging*
counters -- a release never decrements them, and a confirmation that
finds its bins empty never deducts at all -- so the paper's "slightly
aggressive" variant admits no such hard bound and the checker applies
only the structural (credit-occupancy, MSHR-cap) checks to it.

**Service model**.  The DRAM device guarantees, even when every request
maps to a single bank, one request per ``worst_gap = max(tRC, tRP + tRCD
+ tBL + tWR)`` cycles, derated by refresh availability ``1 - tRFC/tREFI``.

**Backlog**.  Each core holds at most ``cap`` (MSHRs) outstanding demand
requests, and under FCFS dispatch each outstanding demand chain accounts
for at most two unserved writebacks (L1 and LLC dirty victims enqueue
before the chain's next demand), so MC occupancy is bounded by
``sum_i 3 * cap_i + total_banks`` plus a small constant.

**Sojourn** (FCFS only).  A demand request arriving at the MC waits behind
at most the backlog bound of entries plus the in-flight window, each
served within ``worst_gap / availability``, plus one refresh window.

Schedulers that reorder (FR-FCFS and the Section IV-D comparators) keep
the arrival-curve, credit-occupancy, and per-core MSHR-cap checks -- those
are order-independent -- while the FCFS-shaped backlog/sojourn bounds are
disabled rather than weakened ad hoc.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..analysis import contracts
from ..core.bins import BinConfig
from ..core.shaper import MittsShaper
from ..dram.timing import DramTiming


class BoundViolation(contracts.ContractViolation):
    """The simulator exceeded an analytic bound.

    Structured and picklable: the offending check, core, cycle, and
    observed-vs-bound values travel as attributes (and through ``args``)
    so a worker process can ship the violation back to the fabric intact.
    Subclasses :class:`~repro.analysis.contracts.ContractViolation`, so
    contracts observers registered via ``contracts.add_observer`` see
    bound violations through the same hook as invariant failures.
    """

    __slots__ = ("kind", "core", "cycle", "observed", "bound", "detail")

    def __init__(self, kind: str, core: Optional[int], cycle: int,
                 observed: float, bound: float, detail: str = "") -> None:
        self.kind = kind
        self.core = core
        self.cycle = cycle
        self.observed = observed
        self.bound = bound
        self.detail = detail
        where = "system-wide" if core is None else f"core {core}"
        message = (f"analytic bound violated: {kind} ({where}, cycle "
                   f"{cycle}): observed {observed} > bound {bound}"
                   + (f" [{detail}]" if detail else ""))
        super().__init__(message)

    def __reduce__(self):
        return (BoundViolation, (self.kind, self.core, self.cycle,
                                 self.observed, self.bound, self.detail))


# ----------------------------------------------------------------------
# arrival curves


@dataclass(frozen=True, slots=True)
class ArrivalCurve:
    """Token-bucket envelope ``alpha(W) = rate * W + burst`` (requests)."""

    rate: float
    burst: float
    period: int

    def bound(self, window: int) -> float:
        """Maximum conforming arrivals over any ``window`` cycles."""
        if window <= 0:
            return self.burst
        return self.rate * window + self.burst


def arrival_curve(config: BinConfig, outstanding: int,
                  period: Optional[int] = None) -> ArrivalCurve:
    """Arrival curve of the LLC-miss stream a method-2 MITTS config permits.

    ``outstanding`` is the core's MSHR cap -- it bounds releases from
    before the window whose hit/miss determination (and hence permanent
    credit consumption) lands inside it.  ``period`` is the replenisher's
    *live* period: a shaper may be pinned to a period other than the
    config's natural ``T_r`` (e.g. staggered co-runners), and the envelope
    must use whichever period actually gates the credit supply.
    """
    total = config.total_credits
    if period is None:
        period = config.replenish_period()
    return ArrivalCurve(rate=total / period, burst=2 * total + outstanding,
                        period=period)


# ----------------------------------------------------------------------
# service model


@dataclass(frozen=True, slots=True)
class ServiceModel:
    """Guaranteed-rate abstraction of the modeled DRAM device."""

    #: worst-case cycles between consecutive services of one bank
    worst_gap: int
    #: fraction of time banks are not refreshing
    availability: float
    #: guaranteed long-run service rate, requests/cycle (single-bank
    #: worst case -- sound for any address stream)
    rate: float
    #: worst-case single-request service latency (no queueing)
    worst_service: int
    #: one refresh window (added once to latency bounds)
    refresh_window: int
    total_banks: int


def service_model(timing: DramTiming) -> ServiceModel:
    """Worst-case guaranteed service of :class:`DramTiming` hardware."""
    worst_gap = max(timing.t_rc,
                    timing.t_rp + timing.t_rcd + timing.t_bl + timing.t_wr)
    if timing.refresh_enabled:
        availability = 1.0 - timing.t_rfc / timing.t_refi
        refresh_window = timing.t_rfc
    else:
        availability = 1.0
        refresh_window = 0
    return ServiceModel(
        worst_gap=worst_gap,
        availability=availability,
        rate=availability / worst_gap,
        worst_service=timing.row_conflict_latency + timing.t_wr,
        refresh_window=refresh_window,
        total_banks=timing.total_banks)


# ----------------------------------------------------------------------
# system-level bounds


@dataclass(frozen=True, slots=True)
class SystemBounds:
    """Every analytic bound derivable for one simulated system.

    ``None`` marks a bound that does not exist for the configuration
    (an unshaped core has no arrival curve; a reordering scheduler
    invalidates the FCFS sojourn argument) -- the checker skips it.
    """

    #: per-core ``(n_i <= K_i)`` limits; None for unshaped cores
    credit_limits: Tuple[Optional[Tuple[int, ...]], ...]
    #: per-core LLC-miss arrival curves; None for unshaped cores
    curves: Tuple[Optional[ArrivalCurve], ...]
    #: per-core MSHR cap on demand requests queued at the MC
    demand_caps: Tuple[int, ...]
    #: system-wide MC occupancy bound (queue + overflow), or None
    backlog: Optional[int]
    #: worst-case demand sojourn, MC arrival -> completion, or None
    sojourn: Optional[int]
    #: measurement slack for windowed arrival checks (cycles): release
    #: -> LLC-determination delay that shifts the observation window
    observation_slack: int

    def stable(self) -> bool:
        """Do the aggregate arrival rates stay within guaranteed service?"""
        return self.backlog is not None


def derive_bounds(system) -> SystemBounds:
    """Compute :class:`SystemBounds` for a live :class:`SimSystem`.

    Pure derivation -- reads configuration only, never simulation state,
    so the same system always yields the same bounds.
    """
    service = service_model(system.config.timing)
    caps = system.outstanding_caps()
    credit_limits: List[Optional[Tuple[int, ...]]] = []
    curves: List[Optional[ArrivalCurve]] = []
    all_shaped = True
    for port, cap in zip(system.ports, caps):
        limiter = port.limiter
        if isinstance(limiter, MittsShaper):
            credit_limits.append(tuple(limiter.config.credits))
        else:
            credit_limits.append(None)
        if isinstance(limiter, MittsShaper) \
                and limiter.method == MittsShaper.METHOD_DEDUCT_REFUND:
            curves.append(arrival_curve(limiter.config, cap,
                                        period=limiter.replenisher.period))
        else:
            # Unshaped, or method 1 (no provable envelope -- see module
            # docstring): keep the structural checks, skip the curve.
            curves.append(None)
            all_shaped = False

    # Backlog/sojourn need (a) a head-select (FCFS-order) scheduler so the
    # writeback-interleaving argument holds, (b) every core shaped so the
    # aggregate arrival rate exists, and (c) stability: aggregate demand
    # rate (times the <=3x demand+writeback multiplier) within the
    # guaranteed service rate.
    fcfs = bool(getattr(system.scheduler, "selects_head", False))
    backlog: Optional[int] = None
    sojourn: Optional[int] = None
    if fcfs and all_shaped and curves:
        aggregate_rate = 3.0 * sum(curve.rate for curve in curves)
        if aggregate_rate < service.rate:
            backlog = 3 * sum(caps) + service.total_banks + 8
            drain = (backlog + service.total_banks + 1) * service.worst_gap
            sojourn = (math.ceil(drain / service.availability)
                       + service.refresh_window + service.worst_service)

    # Window slack: a release is observed (counted as an LLC miss) one
    # LLC determination later -- hit latency plus worst-case bank-busy
    # backup behind every other outstanding request in the system.
    slack = (system.config.llc_hit_latency
             + system.config.llc_bank_busy * (sum(caps) + 1) + 64)
    return SystemBounds(credit_limits=tuple(credit_limits),
                        curves=tuple(curves),
                        demand_caps=tuple(caps),
                        backlog=backlog,
                        sojourn=sojourn,
                        observation_slack=slack)


# ----------------------------------------------------------------------
# the live checker


class BoundChecker:
    """Engine observer asserting analytic bounds during a simulation.

    Attach with :meth:`attach` (or the :func:`attach_checker` one-liner);
    the checker then

    * samples per-core credit occupancy, per-core MC demand depth, MC
      occupancy, and windowed LLC-miss arrival counts every
      ``check_period`` cycles (via ``system.every``), and
    * measures every demand request's MC sojourn through the memory
      controller's completion probe,

    raising :class:`BoundViolation` (announced to contracts observers
    first) the moment an observation exceeds its bound.  The checker is
    an observer only -- it never mutates simulator state -- so attaching
    it is bit-neutral and it rides checkpoints like any other component
    (everything it holds is picklable).

    ``bound_scale`` is a **test-only** hook: scaling the derived bounds
    down (e.g. ``0.0``) proves the checker actually fires, with correct
    core/cycle diagnostics, on an otherwise healthy run.  Production use
    always leaves it at 1.0.
    """

    __slots__ = ("system", "check_period", "bound_scale", "bounds",
                 "_anchors", "checks", "attached")

    #: number of (cycle, misses) anchors kept per core for window checks
    WINDOW_ANCHORS = 64

    def __init__(self, system, check_period: int = 512,
                 bound_scale: float = 1.0) -> None:
        if check_period < 1:
            raise ValueError("check_period must be >= 1")
        self.system = system
        self.check_period = check_period
        self.bound_scale = bound_scale
        self.bounds = derive_bounds(system)
        #: per-core list of (cycle, cumulative llc_misses) anchors
        self._anchors: List[List[Tuple[int, int]]] = [
            [] for _ in system.cores]
        #: statistics: checks performed per kind (observability/tests)
        self.checks = {"credit": 0, "arrival": 0, "demand_cap": 0,
                       "backlog": 0, "sojourn": 0}
        self.attached = False

    # -- attachment ----------------------------------------------------

    def attach(self) -> "BoundChecker":
        """Register the periodic tick and the MC completion probe."""
        if self.attached:
            return self
        self.system.mc.probe = self
        self.system.every(self.check_period, self.on_tick)
        self.attached = True
        return self

    # -- violation plumbing --------------------------------------------

    def _fail(self, kind: str, core: Optional[int], observed: float,
              bound: float, detail: str = "") -> None:
        contracts.violate(BoundViolation(
            kind, core, self.system.engine.now, observed, bound, detail))

    # -- periodic checks -----------------------------------------------

    def on_tick(self) -> None:
        """Periodic sampling check (scheduled via ``system.every``)."""
        scale = self.bound_scale
        bounds = self.bounds
        system = self.system
        now = system.engine.now

        # 1. credit occupancy: n_i <= K_i, from outside the registers.
        for core_id, limits in enumerate(bounds.credit_limits):
            if limits is None:
                continue
            limiter = system.ports[core_id].limiter
            for bin_index, (count, limit) in \
                    enumerate(limiter.credit_occupancy()):
                self.checks["credit"] += 1
                if count > scale * limit:
                    self._fail("credit_occupancy", core_id, count,
                               scale * limit, f"bin {bin_index}")

        # 2. windowed arrival curves on the LLC-miss stream.
        slack = bounds.observation_slack
        for core_id, curve in enumerate(bounds.curves):
            if curve is None:
                continue
            misses = system.stats.cores[core_id].llc_misses
            anchors = self._anchors[core_id]
            for cycle, count in anchors:
                self.checks["arrival"] += 1
                allowed = scale * curve.bound(now - cycle + slack)
                if misses - count > allowed:
                    self._fail("arrival_curve", core_id, misses - count,
                               allowed, f"window [{cycle}, {now}]")
            anchors.append((now, misses))
            if len(anchors) > self.WINDOW_ANCHORS:
                del anchors[0]

        # 3. per-core MC demand depth vs the MSHR cap.
        depths = system.mc_demand_depths()
        for core_id, (depth, cap) in enumerate(zip(depths,
                                                   bounds.demand_caps)):
            self.checks["demand_cap"] += 1
            if depth > scale * cap:
                self._fail("mc_demand_cap", core_id, depth, scale * cap)

        # 4. MC occupancy vs the analytic backlog bound.  The peak
        # counter is updated on every enqueue, so sampling it cannot
        # miss a between-tick spike.
        if bounds.backlog is not None:
            self.checks["backlog"] += 1
            peak = system.stats.peak_queue_depth
            if peak > scale * bounds.backlog:
                self._fail("mc_backlog", None, peak,
                           scale * bounds.backlog, "peak_queue_depth")

    # -- completion probe ----------------------------------------------

    def on_mc_complete(self, request, now: int) -> None:
        """MC completion probe: demand sojourn never exceeds the bound."""
        if self.bounds.sojourn is None or request.shaper_bin == -2:
            return
        self.checks["sojourn"] += 1
        sojourn = now - request.mc_arrival_cycle
        bound = self.bound_scale * self.bounds.sojourn
        if sojourn > bound:
            self._fail("mc_sojourn", request.core_id, sojourn, bound,
                       f"req {request.req_id} arrived "
                       f"{request.mc_arrival_cycle}")


def attach_checker(system, check_period: int = 512,
                   bound_scale: float = 1.0) -> BoundChecker:
    """Build and attach a :class:`BoundChecker` to ``system``."""
    return BoundChecker(system, check_period=check_period,
                        bound_scale=bound_scale).attach()
