"""Per-core and system-wide statistics collection.

Statistics are plain counters updated inline by the simulator components.
``CoreStats.snapshot()`` supports the online genetic algorithm, which needs
per-epoch deltas of the same counters (request service rates, stall cycles)
to estimate application slowdown the way MISE does.

``SystemStats.snapshot()`` extends that to the whole system (all cores,
both inter-arrival histograms, DRAM row stats) and
``SystemStats.fingerprint()`` hashes it canonically -- the bit-identity
oracle every simulator optimisation is pinned against (the goldens in
``tests/test_golden_fingerprints.py`` and the pins recorded when two core
implementations still agreed, DESIGN.md section 12.1).
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Tuple


class BucketHistogram(Mapping):
    """Dense list-indexed histogram with a dict-like read interface.

    Inter-arrival buckets are small non-negative integers (``gap // L``),
    so a plain list indexed by bucket beats a hash table on the record
    path -- one bounds check and an integer increment per sample instead
    of hashing.  Reads present the familiar mapping view (only buckets
    that were ever hit appear as keys), so existing consumers --
    ``dict(hist)``, ``hist.values()``, equality against plain dicts --
    keep working unchanged.
    """

    __slots__ = ("_counts",)

    def __init__(self, counts: Mapping = None) -> None:
        self._counts: List[int] = []
        if counts:
            for bucket, count in sorted(counts.items()):
                self._counts.extend(
                    [0] * (bucket + 1 - len(self._counts)))
                self._counts[bucket] = count

    def add(self, bucket: int) -> None:
        """Record one sample in ``bucket`` (a non-negative integer)."""
        counts = self._counts
        if bucket >= len(counts):
            if bucket < 0:
                raise ValueError(f"histogram bucket must be >= 0, "
                                 f"got {bucket}")
            counts.extend([0] * (bucket + 1 - len(counts)))
        counts[bucket] += 1

    # -- mapping interface over the non-empty buckets ------------------

    def __getitem__(self, bucket: int) -> int:
        counts = self._counts
        if isinstance(bucket, int) and 0 <= bucket < len(counts):
            count = counts[bucket]
            if count:
                return count
        raise KeyError(bucket)

    def __iter__(self) -> Iterator[int]:
        return (bucket for bucket, count in enumerate(self._counts)
                if count)

    def __len__(self) -> int:
        return sum(1 for count in self._counts if count)

    def __bool__(self) -> bool:
        return any(self._counts)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, BucketHistogram):
            return dict(self) == dict(other)
        if isinstance(other, Mapping):
            return dict(self) == dict(other)
        return NotImplemented

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def __repr__(self) -> str:
        return f"BucketHistogram({dict(self)!r})"


@dataclass(slots=True)
class CoreStats:
    """Counters for one core / one program in the simulated system.

    ``slots=True``: these counters are incremented on every simulated
    access, so instances carry no per-object ``__dict__`` and attribute
    access takes the fixed-offset path.
    """

    core_id: int = 0
    #: memory accesses issued by the core (L1 lookups)
    accesses: int = 0
    l1_hits: int = 0
    l1_misses: int = 0
    llc_hits: int = 0
    llc_misses: int = 0
    #: demand requests fully serviced by DRAM
    dram_requests: int = 0
    #: writeback (dirty-victim) requests serviced by DRAM
    writebacks: int = 0
    #: cycles the core was stalled by the MITTS shaper / source throttle
    shaper_stall_cycles: int = 0
    #: cycles the core was stalled waiting for MSHRs / data
    memory_stall_cycles: int = 0
    #: total request latency accumulated (for average latency)
    total_latency: int = 0
    #: latency accumulated from shaper release to completion (excludes
    #: time spent stalled in the shaper -- the memory system's own delay)
    post_shaper_latency: int = 0
    #: trace work-cycles retired -- progress measure used for slowdowns
    work_cycles: int = 0
    #: number of trace events retired
    retired: int = 0
    #: inter-arrival histogram of issued (post-shaper) L1-miss requests
    interarrival: BucketHistogram = field(default_factory=BucketHistogram)
    #: cycle of the last issued (post-shaper) memory request
    last_issue_cycle: int = -1
    #: inter-arrival histogram of *memory* requests (LLC misses) -- the
    #: stream Figures 1 and 2 plot
    mem_interarrival: BucketHistogram = field(
        default_factory=BucketHistogram)
    #: cycle of the last LLC-miss (memory) request
    last_mem_request_cycle: int = -1

    @property
    def average_latency(self) -> float:
        """Mean end-to-end latency of DRAM-serviced requests."""
        if self.dram_requests == 0:
            return 0.0
        return self.total_latency / self.dram_requests

    @property
    def l1_miss_rate(self) -> float:
        if self.accesses == 0:
            return 0.0
        return self.l1_misses / self.accesses

    def snapshot(self) -> Dict[str, int]:
        """Copy of the scalar counters, for epoch-delta computation."""
        return {
            "accesses": self.accesses,
            "l1_misses": self.l1_misses,
            "llc_hits": self.llc_hits,
            "llc_misses": self.llc_misses,
            "dram_requests": self.dram_requests,
            "writebacks": self.writebacks,
            "shaper_stall_cycles": self.shaper_stall_cycles,
            "memory_stall_cycles": self.memory_stall_cycles,
            "total_latency": self.total_latency,
            "post_shaper_latency": self.post_shaper_latency,
            "work_cycles": self.work_cycles,
            "retired": self.retired,
        }

    @staticmethod
    def delta(after: Dict[str, int], before: Dict[str, int]) -> Dict[str, int]:
        """Element-wise difference of two snapshots."""
        return {key: after[key] - before[key] for key in after}


@dataclass(slots=True)
class SystemStats:
    """System-wide statistics for one simulation run."""

    cores: List[CoreStats] = field(default_factory=list)
    #: total cycles simulated
    cycles: int = 0
    #: DRAM row-buffer hits / misses (memory-controller wide)
    row_hits: int = 0
    row_misses: int = 0
    #: peak occupancy observed in the MC transaction queue
    peak_queue_depth: int = 0
    #: requests rejected (backpressured) because the MC queue was full
    queue_backpressure_events: int = 0

    def core(self, core_id: int) -> CoreStats:
        return self.cores[core_id]

    def progress_vector(self) -> Tuple[int, ...]:
        """Per-core retired-event counts -- the forward-progress
        watchdog's cheap probe (one tuple per check, no dict churn)."""
        return tuple(core.retired for core in self.cores)

    @property
    def total_dram_requests(self) -> int:
        """All DRAM transactions, demand plus writeback."""
        return sum(core.dram_requests + core.writebacks
                   for core in self.cores)

    @property
    def row_hit_rate(self) -> float:
        total = self.row_hits + self.row_misses
        if total == 0:
            return 0.0
        return self.row_hits / total

    def bandwidth_bytes_per_cycle(self, line_bytes: int = 64) -> float:
        """Average delivered DRAM bandwidth over the run."""
        if self.cycles == 0:
            return 0.0
        return self.total_dram_requests * line_bytes / self.cycles

    def snapshot(self) -> Dict:
        """Full deterministic state of the run as plain JSON-able data.

        Includes every per-core scalar counter, both inter-arrival
        histograms (keys stringified for JSON stability), and the
        system-wide DRAM/queue counters -- everything a simulation result
        can legitimately depend on.
        """
        cores = []
        for core in self.cores:
            entry = dict(core.snapshot())
            entry["core_id"] = core.core_id
            entry["last_issue_cycle"] = core.last_issue_cycle
            entry["last_mem_request_cycle"] = core.last_mem_request_cycle
            entry["interarrival"] = {str(bucket): count for bucket, count
                                     in core.interarrival.items()}
            entry["mem_interarrival"] = {
                str(bucket): count for bucket, count
                in core.mem_interarrival.items()}
            cores.append(entry)
        return {
            "cycles": self.cycles,
            "row_hits": self.row_hits,
            "row_misses": self.row_misses,
            "peak_queue_depth": self.peak_queue_depth,
            "queue_backpressure_events": self.queue_backpressure_events,
            "cores": cores,
        }

    def fingerprint(self) -> str:
        """SHA-256 over the canonical JSON form of :meth:`snapshot`."""
        payload = json.dumps(self.snapshot(), sort_keys=True,
                             separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()
