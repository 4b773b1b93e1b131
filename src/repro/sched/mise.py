"""MISE [Subramanian et al., HPCA 2013]: slowdown-estimation scheduling.

MISE estimates each application's slowdown as the ratio of its
*uninterfered* request service rate to its *shared* service rate.  The
uninterfered rate is measured online: each interval begins with one
measurement epoch per core during which that core's requests get highest
priority at the controller.  For the rest of the interval the scheduler
prioritises the application with the highest estimated slowdown, which
simultaneously improves fairness and bounds worst-case slowdown.

The paper's suggested parameters (Section IV-D) are an epoch of 10000
cycles and an interval of 5 million cycles; the interval default here is
scaled down to match the scaled ROIs (DESIGN.md section 6) while keeping
the epoch:interval structure.
"""

from __future__ import annotations

from typing import List, Optional

from .base import MemoryScheduler


class MiseScheduler(MemoryScheduler):
    """Epoch-based slowdown estimation with highest-slowdown-first service."""

    name = "MISE"

    __slots__ = ("epoch", "interval", "_interval_start", "_epoch_counts",
                 "_epoch_start", "_epoch_index", "_alone_rate",
                 "_shared_counts", "_shared_cycles", "slowdowns",
                 "_priority_core")

    def __init__(self, num_cores: int, epoch: int = 10_000,
                 interval: Optional[int] = None) -> None:
        super().__init__(num_cores)
        if epoch < 1:
            raise ValueError("epoch must be >= 1")
        self.epoch = epoch
        # Default interval: measurement epochs plus an equal shared stretch,
        # structurally matching the paper's 10k/5M at reduced scale.
        self.interval = interval if interval is not None \
            else epoch * (2 * num_cores)
        if self.interval < epoch * (num_cores + 1):
            raise ValueError("interval too short for measurement epochs")
        self._interval_start = 0
        self._epoch_counts = [0] * num_cores
        self._epoch_start = 0
        self._epoch_index = 0
        self._alone_rate: List[float] = [0.0] * num_cores
        self._shared_counts = [0] * num_cores
        self._shared_cycles = 0
        self.slowdowns: List[float] = [1.0] * num_cores
        #: core currently given highest priority (measurement or policy)
        self._priority_core: Optional[int] = 0

    # ------------------------------------------------------------------

    def _advance_clock(self, now: int) -> None:
        while now >= self._epoch_start + self.epoch:
            self._finish_epoch()
        if now >= self._interval_start + self.interval:
            self._finish_interval(now)

    def _finish_epoch(self) -> None:
        end = self._epoch_start + self.epoch
        if self._epoch_index < self.num_cores:
            core = self._epoch_index
            self._alone_rate[core] = self._epoch_counts[core] / self.epoch
        else:
            for core in range(self.num_cores):
                self._shared_counts[core] += self._epoch_counts[core]
            self._shared_cycles += self.epoch
        self._epoch_counts = [0] * self.num_cores
        self._epoch_start = end
        self._epoch_index += 1
        if self._epoch_index < self.num_cores:
            self._priority_core = self._epoch_index
        else:
            self._priority_core = self._policy_priority()

    def _finish_interval(self, now: int) -> None:
        if self._shared_cycles > 0:
            for core in range(self.num_cores):
                shared_rate = self._shared_counts[core] / self._shared_cycles
                alone = self._alone_rate[core]
                if shared_rate > 0 and alone > 0:
                    self.slowdowns[core] = max(1.0, alone / shared_rate)
                else:
                    self.slowdowns[core] = 1.0
        self._interval_start = now
        self._epoch_start = now
        self._epoch_index = 0
        self._epoch_counts = [0] * self.num_cores
        self._shared_counts = [0] * self.num_cores
        self._shared_cycles = 0
        self._priority_core = 0

    def _policy_priority(self) -> Optional[int]:
        """Most-slowed-down application gets priority (fairness goal)."""
        worst = max(range(self.num_cores), key=lambda c: self.slowdowns[c])
        if self.slowdowns[worst] <= 1.0:
            return None
        return worst

    # ------------------------------------------------------------------

    def on_complete(self, request, now) -> None:
        if 0 <= request.core_id < self.num_cores:
            self._epoch_counts[request.core_id] += 1

    def select(self, queue, now, controller):
        if not queue:
            return None
        self._advance_clock(now)
        if self._priority_core is not None:
            mine = [r for r in queue if r.core_id == self._priority_core]
            if mine:
                return self.row_hit_first(mine, controller)
        return self.row_hit_first(queue, controller)

    @property
    def priority_core(self) -> Optional[int]:
        """Currently prioritised core (measurement rotation or policy)."""
        return self._priority_core
