"""Tests for the MITTS+MISE hybrid builder and cross-policy wiring."""

import pytest

from repro.core.bins import BinConfig
from repro.core.shaper import MittsShaper
from repro.sched.hybrid import build_hybrid
from repro.sched.mise import MiseScheduler
from repro.sim.system import SCALED_MULTI_CONFIG, SimSystem
from repro.workloads.mixes import workload_traces


class TestBuildHybrid:
    def test_returns_scheduler_and_shapers(self):
        configs = [BinConfig.unlimited()] * 4
        scheduler, limiters = build_hybrid(4, configs)
        assert isinstance(scheduler, MiseScheduler)
        assert len(limiters) == 4
        assert all(isinstance(l, MittsShaper) for l in limiters)

    def test_config_count_must_match(self):
        with pytest.raises(ValueError):
            build_hybrid(4, [BinConfig.unlimited()] * 3)

    def test_shaper_phases_staggered(self):
        config = BinConfig.from_credits([4] * 10)
        _, limiters = build_hybrid(4, [config] * 4)
        boundaries = {l.replenisher.next_boundary() for l in limiters}
        assert len(boundaries) > 1

    def test_hybrid_system_runs(self):
        traces = workload_traces(1)
        configs = [BinConfig.from_credits([8, 4, 2, 2, 1, 1, 1, 1, 1, 2])
                   for _ in traces]
        scheduler, limiters = build_hybrid(len(traces), configs)
        system = SimSystem(traces, config=SCALED_MULTI_CONFIG,
                           scheduler=scheduler, limiters=limiters)
        stats = system.run(30_000)
        assert all(core.work_cycles > 0 for core in stats.cores)
        # Both mechanisms were active: shapers released and the controller
        # dispatched under MISE.
        assert sum(l.released for l in limiters) > 0
        assert system.mc.dispatched > 0

    def test_custom_epoch_passed_through(self):
        scheduler, _ = build_hybrid(2, [BinConfig.unlimited()] * 2,
                                    epoch=500, interval=5_000)
        assert scheduler.epoch == 500
        assert scheduler.interval == 5_000
