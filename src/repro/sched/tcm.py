"""Thread Cluster Memory scheduling [Kim et al., MICRO 2010].

Every quantum, threads are ranked by memory intensity and split into a
*latency-sensitive* cluster (the least intensive threads, up to a
``ClusterThresh`` fraction of total bandwidth -- 2/N per the paper and
Section IV-D's configuration) and a *bandwidth-sensitive* cluster.  The
latency cluster gets strict priority, ordered least-intensive first; the
bandwidth cluster is periodically shuffled so its threads take turns being
prioritised.

Section II-A's critique is observable in this implementation: clustering
is driven by measured request rates, so a high-intensity thread with a
quiet quantum can land in the latency cluster and be unfairly prioritised.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

from .base import MemoryScheduler


class TcmScheduler(MemoryScheduler):
    """TCM with periodic re-clustering and bandwidth-cluster shuffling."""

    name = "TCM"

    __slots__ = ("quantum", "shuffle_period", "cluster_thresh", "_rng",
                 "_quantum_end", "_shuffle_end", "_serviced_this_quantum",
                 "_rank", "_latency_cluster", "_bandwidth_cluster")

    def __init__(self, num_cores: int, quantum: int = 20_000,
                 shuffle_period: int = 800,
                 cluster_thresh: Optional[float] = None,
                 seed: int = 7) -> None:
        super().__init__(num_cores)
        if quantum < 1 or shuffle_period < 1:
            raise ValueError("quantum and shuffle_period must be >= 1")
        self.quantum = quantum
        self.shuffle_period = shuffle_period
        #: paper-suggested ClusterThresh = 2/N
        self.cluster_thresh = (cluster_thresh if cluster_thresh is not None
                               else 2.0 / num_cores)
        self._rng = random.Random(seed)
        self._quantum_end = quantum
        self._shuffle_end = shuffle_period
        self._serviced_this_quantum = [0] * num_cores
        #: rank position per core; lower = higher priority
        self._rank: Dict[int, int] = {c: c for c in range(num_cores)}
        self._latency_cluster = set(range(num_cores))
        self._bandwidth_cluster: List[int] = []

    def on_complete(self, request, now) -> None:
        if 0 <= request.core_id < self.num_cores:
            self._serviced_this_quantum[request.core_id] += 1

    def _recluster(self, now: int) -> None:
        total = sum(self._serviced_this_quantum)
        order = sorted(range(self.num_cores),
                       key=lambda c: self._serviced_this_quantum[c])
        self._latency_cluster = set()
        consumed = 0
        for core in order:
            usage = self._serviced_this_quantum[core]
            if total == 0 or (consumed + usage) <= self.cluster_thresh * total:
                self._latency_cluster.add(core)
                consumed += usage
            else:
                break
        self._bandwidth_cluster = [c for c in order
                                   if c not in self._latency_cluster]
        self._assign_ranks(order)
        self._serviced_this_quantum = [0] * self.num_cores
        self._quantum_end = now + self.quantum

    def _assign_ranks(self, intensity_order: List[int]) -> None:
        """Latency cluster ranked least-intensive-first, then BW cluster."""
        rank = 0
        for core in intensity_order:
            if core in self._latency_cluster:
                self._rank[core] = rank
                rank += 1
        for core in self._bandwidth_cluster:
            self._rank[core] = rank
            rank += 1

    def _shuffle(self, now: int) -> None:
        """Insertion-shuffle of the bandwidth cluster's relative order."""
        if len(self._bandwidth_cluster) > 1:
            self._rng.shuffle(self._bandwidth_cluster)
            base = len(self._latency_cluster)
            for offset, core in enumerate(self._bandwidth_cluster):
                self._rank[core] = base + offset
        self._shuffle_end = now + self.shuffle_period

    def select(self, queue, now, controller):
        if not queue:
            return None
        if now >= self._quantum_end:
            self._recluster(now)
        if now >= self._shuffle_end:
            self._shuffle(now)
        grouped = self.by_core(queue)
        core = min(grouped, key=lambda c: (self._rank.get(c, c), c))
        return self.row_hit_first(grouped[core], controller)

    @property
    def latency_cluster(self) -> set:
        """Cores currently classified latency-sensitive (for tests)."""
        return set(self._latency_cluster)
