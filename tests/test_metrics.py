"""Unit tests for metrics: slowdowns, distributions, reports."""

import pytest

from repro.metrics.interarrival import InterarrivalDistribution
from repro.metrics.report import (format_bar_chart, format_series,
                                  format_table)
from repro.metrics.slowdown import (average_slowdown, geometric_mean,
                                    max_slowdown, mise_online_slowdown,
                                    slowdown_from_work,
                                    slowdowns_from_rates, unfairness)
from repro.sim.stats import CoreStats


class TestSlowdowns:
    def test_slowdown_from_work(self):
        assert slowdown_from_work(100.0, 50.0) == pytest.approx(2.0)

    def test_slowdown_guards_zero_shared(self):
        assert slowdown_from_work(100.0, 0.0) > 1e9

    def test_negative_work_rejected(self):
        with pytest.raises(ValueError):
            slowdown_from_work(-1.0, 10.0)

    def test_average_and_max(self):
        slowdowns = [1.0, 2.0, 3.0]
        assert average_slowdown(slowdowns) == pytest.approx(2.0)
        assert max_slowdown(slowdowns) == 3.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            average_slowdown([])
        with pytest.raises(ValueError):
            max_slowdown([])

    def test_unfairness(self):
        assert unfairness([1.0, 4.0]) == pytest.approx(4.0)

    def test_slowdowns_from_rates(self):
        result = slowdowns_from_rates([10.0, 20.0], [5.0, 10.0])
        assert result == [pytest.approx(2.0), pytest.approx(2.0)]

    def test_rates_length_mismatch(self):
        with pytest.raises(ValueError):
            slowdowns_from_rates([1.0], [1.0, 2.0])

    def test_geometric_mean(self):
        assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0)

    def test_geometric_mean_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])

    def test_mise_online_slowdown_monotone_in_ratio(self):
        low = mise_online_slowdown(1.0, 1.0, 0.2)
        high = mise_online_slowdown(4.0, 1.0, 0.2)
        assert high > low

    def test_mise_online_slowdown_monotone_in_stall(self):
        low = mise_online_slowdown(2.0, 1.0, 0.1)
        high = mise_online_slowdown(2.0, 1.0, 0.9)
        assert high > low

    def test_mise_online_slowdown_validates(self):
        with pytest.raises(ValueError):
            mise_online_slowdown(1.0, 1.0, 1.5)
        with pytest.raises(ValueError):
            mise_online_slowdown(1.0, 1.0, 0.5, alpha=2.0)


class TestInterarrivalDistribution:
    def make(self, counts):
        return InterarrivalDistribution(counts=counts, bucket_width=10)

    def test_total_requests(self):
        assert self.make({0: 3, 2: 1}).total_requests == 4

    def test_frequency(self):
        dist = self.make({0: 3, 1: 1})
        assert dist.frequency(0) == pytest.approx(0.75)
        assert dist.frequency(5) == 0.0

    def test_mean_uses_bucket_centres(self):
        dist = self.make({0: 1, 1: 1})  # centres 5 and 15
        assert dist.mean() == pytest.approx(10.0)

    def test_empty_distribution(self):
        dist = self.make({})
        assert dist.mean() == 0.0
        assert dist.burstiness() == 0.0

    def test_periodic_traffic_zero_burstiness(self):
        dist = self.make({3: 100})
        assert dist.burstiness() == pytest.approx(0.0)

    def test_bimodal_traffic_is_bursty(self):
        uniform = self.make({5: 100})
        bimodal = self.make({0: 90, 50: 10})
        assert bimodal.burstiness() > uniform.burstiness()

    def test_to_series_fills_gaps(self):
        dist = self.make({0: 2, 3: 1})
        series = dist.to_series()
        assert series == [(0, 2), (10, 0), (20, 0), (30, 1)]

    def test_truncated_clamps_tail(self):
        dist = self.make({0: 1, 5: 2, 9: 3})
        clamped = dist.truncated(4)
        assert clamped.counts == {0: 1, 4: 5}
        assert clamped.total_requests == dist.total_requests

    def test_from_core_stats_streams(self):
        stats = CoreStats(core_id=0)
        stats.interarrival.add(12 // 10)
        stats.mem_interarrival.add(40 // 10)
        shaper = InterarrivalDistribution.from_core_stats(stats,
                                                          stream="shaper")
        memory = InterarrivalDistribution.from_core_stats(stats,
                                                          stream="memory")
        assert shaper.counts == {1: 1}
        assert memory.counts == {4: 1}
        with pytest.raises(ValueError):
            InterarrivalDistribution.from_core_stats(stats, stream="bogus")


class TestReport:
    def test_format_table_aligns(self):
        text = format_table(["name", "value"], [["a", 1.5], ["bb", 2.25]],
                            title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "1.500" in text
        assert "bb" in text

    def test_format_series(self):
        text = format_series("s", [(1, 2.0), (2, 3.0)], "x", "y")
        assert "1: 2.0000" in text

    def test_format_bar_chart(self):
        text = format_bar_chart("chart", ["a", "b"], [1.0, 2.0])
        assert text.count("|") == 2

    def test_bar_chart_length_mismatch(self):
        with pytest.raises(ValueError):
            format_bar_chart("chart", ["a"], [1.0, 2.0])


class TestSpeedupMetrics:
    def test_weighted_speedup_no_interference(self):
        from repro.metrics.slowdown import weighted_speedup
        assert weighted_speedup([1.0, 1.0, 1.0, 1.0]) == pytest.approx(4.0)

    def test_weighted_speedup_decreases_with_slowdown(self):
        from repro.metrics.slowdown import weighted_speedup
        assert weighted_speedup([2.0, 2.0]) < weighted_speedup([1.5, 1.5])

    def test_harmonic_mean_speedup(self):
        from repro.metrics.slowdown import harmonic_mean_speedup
        assert harmonic_mean_speedup([1.0, 1.0]) == pytest.approx(1.0)
        assert harmonic_mean_speedup([2.0, 2.0]) == pytest.approx(0.5)

    def test_harmonic_penalises_imbalance(self):
        from repro.metrics.slowdown import harmonic_mean_speedup
        balanced = harmonic_mean_speedup([2.0, 2.0])
        skewed = harmonic_mean_speedup([1.0, 3.0])
        assert balanced == pytest.approx(0.5)
        assert skewed == pytest.approx(0.5)
        # Harmonic mean of speedups differs once slowdowns multiply out.
        assert harmonic_mean_speedup([1.0, 4.0]) < \
            harmonic_mean_speedup([2.0, 2.0]) * 1.3

    def test_validation(self):
        from repro.metrics.slowdown import (harmonic_mean_speedup,
                                            weighted_speedup)
        with pytest.raises(ValueError):
            weighted_speedup([])
        with pytest.raises(ValueError):
            weighted_speedup([0.0])
        with pytest.raises(ValueError):
            harmonic_mean_speedup([-1.0])
