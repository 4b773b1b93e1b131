"""Full-system assembly: cores + shapers + shared LLC + MC + DRAM.

:class:`SimSystem` wires one :class:`~repro.sim.core_model.CoreModel` per
trace through a per-core :class:`~repro.sim.core_model.ShaperPort` (holding
any :class:`~repro.core.limiter.SourceLimiter` -- a MITTS shaper, a static
limiter, or a pass-through) into a shared banked LLC, a memory controller
with a pluggable scheduling policy, and the DDR3 timing model.  This is the
SDSim substitute described in DESIGN.md.

Typical use::

    traces = [trace_for("mcf"), trace_for("libquantum")]
    system = SimSystem(traces, limiters=[MittsShaper(cfg1), MittsShaper(cfg2)])
    stats = system.run(200_000)
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional, Sequence

from ..core.limiter import NoLimiter, SourceLimiter
from ..dram.device import DramDevice
from ..dram.timing import DDR3_1333, DramTiming
from .batched import BatchedCoreModel
from .cache import Cache, CacheGeometry
from .core_model import CoreModel, ShaperPort
from .engine import Engine
from .llc import SharedLLC
from .memctrl import MemoryController, MemorySchedulerProtocol
from .request import MemoryRequest, RequestIdAllocator
from .stats import CoreStats, SystemStats


@dataclass(frozen=True, slots=True)
class SystemConfig:
    """Table II base configuration (single-program LLC is 64KB; mixes 1MB)."""

    l1_size: int = 32 * 1024
    l1_ways: int = 4
    llc_size: int = 1024 * 1024
    llc_ways: int = 8
    llc_hit_latency: int = 30
    llc_banks: int = 8
    llc_bank_busy: int = 4
    line_bytes: int = 64
    mc_queue_depth: int = 32
    timing: DramTiming = field(default_factory=lambda: DDR3_1333)
    #: DRAM address interleaving: "row" (DRAMSim2 default) or "bank"
    dram_mapping: str = "row"
    #: histogram bucket width for inter-arrival stats (= bin length L)
    interarrival_bucket: int = 10
    #: MLP used when a trace has no profile-specified value
    default_mlp: int = 4
    #: core model: "simple" (MSHR-capped MLP) or "window" (Table II's
    #: 4-wide, 128-entry instruction window ROB model)
    core_model: str = "simple"
    #: instruction-window size for the "window" core model (Table II)
    window_size: int = 128
    #: dispatch/retire width for the "window" core model (Table II)
    issue_width: int = 4
    #: MSHRs per core for the "window" core model (Table II)
    mshrs: int = 8
    #: core class on the one heap :class:`~repro.sim.engine.Engine`:
    #: "batched" assembles the fused
    #: :class:`~repro.sim.batched.BatchedCoreModel` (replay over the trace
    #: prefix columns and an inlined L1; misses leave through the shaper
    #: port); "heap" assembles the checked
    #: :class:`~repro.sim.core_model.CoreModel` (the oracle).  The choice
    #: does not depend on the contract mode, and the shaper ports, LLC,
    #: memory controller and DRAM are the same components under either
    #: kernel.  Both produce bit-identical results (pinned by the
    #: golden-fingerprint suite).
    kernel: str = "batched"


#: Table II single-program configuration (64KB private L2).
SINGLE_PROGRAM_CONFIG = SystemConfig(llc_size=64 * 1024)
#: Table II multi-program configuration (1MB shared L2).
MULTI_PROGRAM_CONFIG = SystemConfig(llc_size=1024 * 1024)
#: Section IV-D1 "current day multicore" configuration.
LARGE_LLC_CONFIG = SystemConfig(llc_size=8 * 1024 * 1024)

# Scaled configurations for the reduced ROIs of pure-Python runs (DESIGN.md
# section 6): the paper's 1MB shared LLC holds ~16k lines and its 32KB L1s
# 512, which a 100-200k cycle ROI never pressures; scaling the hierarchy
# with the ROI preserves the capacity-contention ratios (working set : L1 :
# LLC) the evaluation depends on.  The paper-sized configs above remain
# available for paper-scale runs.
#: scaled stand-in for the Table II single-program system (32KB L1 / 64KB L2)
SCALED_SINGLE_CONFIG = SystemConfig(l1_size=8 * 1024, llc_size=64 * 1024)
#: scaled stand-in for the 1MB shared multi-program LLC
SCALED_MULTI_CONFIG = SystemConfig(l1_size=8 * 1024, llc_size=256 * 1024)
#: scaled stand-in for the 8MB "current day multicore" LLC (Figure 15)
SCALED_LARGE_LLC_CONFIG = SystemConfig(l1_size=8 * 1024,
                                       llc_size=1024 * 1024)


class _PeriodicCallback:
    """Self-rescheduling wrapper behind :meth:`SimSystem.every`.

    Holds ``(engine, period, callback)`` as plain attributes instead of
    closing over them so a checkpoint taken between ticks serialises the
    pending event (provided ``callback`` itself is picklable -- a bound
    method of a reachable object qualifies, a lambda does not).
    """

    __slots__ = ("engine", "period", "callback")

    def __init__(self, engine: Engine, period: int,
                 callback: Callable[[], None]) -> None:
        self.engine = engine
        self.period = period
        self.callback = callback

    def __call__(self) -> None:
        self.callback()
        self.engine.schedule_in(self.period, self)


class _FcfsFallback(MemorySchedulerProtocol):
    """Oldest-first policy used when no scheduler is supplied.

    The controller appends arrivals in order and refills from its overflow
    FIFO in order, so the scheduler-visible queue is always sorted by
    ``mc_arrival_cycle``: the oldest request *is* the head.  ``queue[0]``
    therefore selects exactly what ``min(queue, key=arrival)`` did (ties
    resolved to the earliest-queued request), without an O(n) scan.
    """

    __slots__ = ()

    selects_head = True

    def select(self, queue, now, controller):
        if not queue:
            return None
        return queue[0]


class SimSystem:
    """A simulated multicore with per-core source limiters."""

    __slots__ = ("config", "engine", "request_ids", "scheduler", "stats",
                 "dram", "mc", "llc", "ports", "cores", "watchdog",
                 "_started")

    def __init__(self, traces: Sequence,
                 config: Optional[SystemConfig] = None,
                 limiters: Optional[Sequence[SourceLimiter]] = None,
                 scheduler: Optional[MemorySchedulerProtocol] = None,
                 mlps: Optional[Sequence[int]] = None) -> None:
        if not traces:
            raise ValueError("at least one trace is required")
        self.config = config or MULTI_PROGRAM_CONFIG
        kernel = self.config.kernel
        if kernel not in ("heap", "batched"):
            raise ValueError(f"unknown kernel {kernel!r}; "
                             f"known: ('heap', 'batched')")
        self.engine = Engine()
        # The kernel picks only the core class: the batched core replays
        # the trace's prefix columns with an inlined L1 and hands every
        # miss to its port, so both contract modes assemble it.  The
        # engine, LLC, memory controller and DRAM device are the same
        # under both kernels.
        batched = kernel == "batched"
        #: per-system request-id source: ids always start at 0 for a new
        #: system, so back-to-back systems in one process are bit-identical
        self.request_ids = RequestIdAllocator()
        num_cores = len(traces)
        if limiters is None:
            limiters = [NoLimiter() for _ in range(num_cores)]
        if len(limiters) != num_cores:
            raise ValueError("one limiter per trace is required")
        self.scheduler = scheduler or _FcfsFallback()

        self.stats = SystemStats(
            cores=[CoreStats(core_id=i) for i in range(num_cores)])
        self.dram = DramDevice(self.config.timing,
                               mapping_scheme=self.config.dram_mapping)
        self.mc = MemoryController(
            self.engine, self.dram, self.scheduler,
            complete=self._on_dram_complete,
            queue_depth=self.config.mc_queue_depth, stats=self.stats)
        llc_cache = Cache(CacheGeometry(self.config.llc_size,
                                        self.config.llc_ways,
                                        self.config.line_bytes))
        self.llc = SharedLLC(self.engine, llc_cache,
                             forward_miss=self.mc.enqueue,
                             respond_hit=self._on_llc_hit,
                             respond_miss=self._on_llc_miss,
                             hit_latency=self.config.llc_hit_latency,
                             banks=self.config.llc_banks,
                             bank_busy=self.config.llc_bank_busy,
                             stats=self.stats,
                             req_ids=self.request_ids)

        self.ports: List[ShaperPort] = []
        self.cores: List[CoreModel] = []
        for core_id, trace in enumerate(traces):
            port = ShaperPort(
                self.engine, limiters[core_id], send=self.llc.lookup,
                stats=self.stats.cores[core_id],
                interarrival_bucket=self.config.interarrival_bucket)
            l1 = Cache(CacheGeometry(self.config.l1_size,
                                     self.config.l1_ways,
                                     self.config.line_bytes))
            if self.config.core_model == "window":
                from .ooo_core import WindowCoreModel
                core = WindowCoreModel(
                    core_id, self.engine, trace, l1, port,
                    self.stats.cores[core_id],
                    window=self.config.window_size,
                    width=self.config.issue_width,
                    mshrs=self.config.mshrs,
                    line_bytes=self.config.line_bytes,
                    req_ids=self.request_ids)
            elif self.config.core_model == "simple":
                mlp = self._mlp_for(trace, core_id, mlps)
                core_cls = BatchedCoreModel if batched else CoreModel
                core = core_cls(core_id, self.engine, trace, l1,
                                port, self.stats.cores[core_id], mlp=mlp,
                                line_bytes=self.config.line_bytes,
                                req_ids=self.request_ids)
            else:
                raise ValueError(
                    f"unknown core model {self.config.core_model!r}")
            self.ports.append(port)
            self.cores.append(core)
        #: optional forward-progress monitor (see repro.resilience.watchdog)
        self.watchdog = None
        self._started = False

    def _mlp_for(self, trace, core_id: int,
                 mlps: Optional[Sequence[int]]) -> int:
        if mlps is not None:
            return mlps[core_id]
        profile = getattr(trace, "profile", None)
        if profile is not None and hasattr(profile, "mlp"):
            return profile.mlp
        return self.config.default_mlp

    # ------------------------------------------------------------------
    # response plumbing

    def _on_llc_hit(self, request: MemoryRequest) -> None:
        """LLC hit determination: feed the shaper, answer the core."""
        if request.shaper_bin == -2:  # writeback, fire-and-forget
            return
        core_id = request.core_id
        port = self.ports[core_id]
        if not port._unshaped:
            port.limiter.on_llc_response(request.req_id, True)
        self.cores[core_id].on_response(request)

    def _on_llc_miss(self, request: MemoryRequest) -> None:
        """LLC miss determination: feed the shaper, record the memory
        inter-arrival gap, and forward the request to the controller
        (writebacks only take the forward)."""
        if request.shaper_bin != -2:
            now = self.engine.now
            port = self.ports[request.core_id]
            if not port._unshaped:
                port.limiter.on_llc_response(request.req_id, False)
            stats = self.stats.cores[request.core_id]
            last = stats.last_mem_request_cycle
            if last >= 0:
                hist = stats.mem_interarrival._counts
                gap_bin = (now - last) // self.config.interarrival_bucket
                if gap_bin < len(hist):
                    hist[gap_bin] += 1
                else:
                    stats.mem_interarrival.add(gap_bin)
            stats.last_mem_request_cycle = now
        self.llc.forward_miss(request)

    def _on_dram_complete(self, request: MemoryRequest) -> None:
        if request.shaper_bin == -2:
            return
        self.cores[request.core_id].on_response(request)

    # ------------------------------------------------------------------
    # control

    def set_limiter(self, core_id: int, limiter: SourceLimiter) -> None:
        """Swap a core's source limiter (online reconfiguration)."""
        self.ports[core_id].set_limiter(limiter)

    def limiter(self, core_id: int) -> SourceLimiter:
        return self.ports[core_id].limiter

    def every(self, period: int, callback: Callable[[], None]) -> None:
        """Invoke ``callback`` every ``period`` cycles (tuner epochs)."""
        if period < 1:
            raise ValueError("period must be >= 1")
        self.engine.schedule_in(period,
                                _PeriodicCallback(self.engine, period,
                                                  callback))

    # ------------------------------------------------------------------
    # resilience (checkpoint/restore + forward-progress watchdog)

    def save_checkpoint(self, path) -> None:
        """Serialise the complete system state to ``path``.

        Thin delegate to :func:`repro.resilience.checkpoint.save_checkpoint`
        (imported lazily so the base simulator has no hard dependency on
        the resilience package).
        """
        from ..resilience.checkpoint import save_checkpoint
        save_checkpoint(self, path)

    @staticmethod
    def load_checkpoint(path) -> "SimSystem":
        """Restore a system previously saved with :meth:`save_checkpoint`."""
        from ..resilience.checkpoint import load_checkpoint
        return load_checkpoint(path)

    def attach_watchdog(self, config=None):
        """Attach a forward-progress watchdog (see
        :class:`repro.resilience.watchdog.ForwardProgressWatchdog`).

        Returns the watchdog so callers can inspect it; attaching twice
        replaces the previous instance's future checks (the old one stops
        rescheduling once detached).
        """
        from ..resilience.watchdog import ForwardProgressWatchdog
        if self.watchdog is not None:
            self.watchdog.detach()
        self.watchdog = ForwardProgressWatchdog(self, config)
        self.watchdog.attach()
        return self.watchdog

    def run(self, cycles: int) -> SystemStats:
        """Run (or continue) the simulation for ``cycles`` more cycles."""
        if not self._started:
            for core in self.cores:
                core.start()
            self._started = True
        horizon = self.engine.now + cycles
        self.engine.run(until=horizon)
        self.stats.cycles = self.engine.now
        self.stats.row_hits = self.dram.row_hits
        self.stats.row_misses = self.dram.row_misses
        return self.stats

    # ------------------------------------------------------------------
    # observation probes (read-only; used by repro.validate's BoundChecker)

    def mc_demand_depths(self) -> List[int]:
        """Per-core count of *demand* requests queued at the MC.

        Counts scheduler-visible plus overflow entries (writebacks,
        tagged ``shaper_bin == -2``, are excluded); in-flight DRAM
        requests have left the queue and are not attributable per core
        without extra bookkeeping, so they are not counted here.
        """
        depths = [0] * len(self.cores)
        for request in self.mc.queue:
            if request.shaper_bin != -2:
                depths[request.core_id] += 1
        for request in self.mc.overflow:
            if request.shaper_bin != -2:
                depths[request.core_id] += 1
        return depths

    def outstanding_caps(self) -> List[int]:
        """Per-core cap on concurrently outstanding demand misses.

        The MSHR-style bound of each core model: ``mlp`` for the simple
        model, ``mshrs`` for the window model.  This is the structural
        term of the analytic backlog bounds -- a core can never have more
        demand requests below its L1 than it has miss slots.
        """
        caps = []
        for core in self.cores:
            cap = getattr(core, "mlp", None)
            if cap is None:
                cap = getattr(core, "mshrs", None)
            if cap is None:
                cap = self.config.mshrs
            caps.append(cap)
        return caps

    # ------------------------------------------------------------------
    # derived results

    def work_rates(self) -> List[float]:
        """Per-core work-cycles retired per wall cycle (progress rate)."""
        cycles = max(1, self.stats.cycles)
        return [core.work_cycles / cycles for core in self.stats.cores]


def single_config(llc_size: int = 64 * 1024, **overrides) -> SystemConfig:
    """A single-program SystemConfig with optional field overrides."""
    return replace(SINGLE_PROGRAM_CONFIG, llc_size=llc_size, **overrides)
