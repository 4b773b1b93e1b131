"""Unit tests for the MITTS traffic shaper."""

import pytest

from repro.core.bins import BinConfig, BinSpec
from repro.core.replenish import RateReplenisher, ResetReplenisher
from repro.core.shaper import MittsShaper


def shaper_with(credits, **kwargs):
    return MittsShaper(BinConfig.from_credits(credits), **kwargs)


class TestImmediateIssue:
    def test_first_request_uses_slowest_bin(self):
        shaper = shaper_with([0] * 9 + [1])
        assert shaper.earliest_issue(0) == 0

    def test_first_request_can_use_fast_credit(self):
        # Boot inter-arrival is "long ago": any bin <= slowest works.
        shaper = shaper_with([1] + [0] * 9)
        assert shaper.earliest_issue(100) == 100

    def test_first_issue_deducts_slowest_populated_bin(self):
        # The boot request reads as slowest-bin; deduction scans downward
        # from its bin, so the *cheapest sufficient* credit is consumed.
        shaper = shaper_with([2, 2] + [0] * 8)
        shaper.issue(0, req_id=1)
        assert shaper.credit_counts() == [2, 1] + [0] * 8

    def test_issue_deducts_from_matching_bin(self):
        shaper = shaper_with([2, 2] + [0] * 8)
        shaper.issue(0, req_id=1)   # boot: consumes a bin-1 credit
        shaper.issue(7, req_id=2)   # inter-arrival 7 -> bin 0
        assert shaper.credit_counts()[0] == 1
        assert shaper.credit_counts()[1] == 1

    def test_issue_prefers_own_bin_over_faster(self):
        shaper = shaper_with([2, 2] + [0] * 8)
        shaper.issue(0, req_id=1)   # consumes bin 1
        shaper.issue(15, req_id=2)  # inter-arrival 15 -> bin 1 again
        assert shaper.credit_counts()[1] == 0
        assert shaper.credit_counts()[0] == 2

    def test_issue_without_credit_raises(self):
        shaper = shaper_with([1] + [0] * 9)
        shaper.issue(0, req_id=1)
        with pytest.raises(ValueError):
            shaper.issue(1, req_id=2)


class TestStallAndAging:
    def test_request_waits_for_slower_bin(self):
        # After the boot request consumes the bin-9 credit, only a bin-5
        # credit remains (lower edge 50): a request arriving 7 cycles
        # after the last release must age until inter-arrival 50.
        shaper = shaper_with([0] * 5 + [1] + [0] * 3 + [1])
        shaper.issue(0, req_id=1)  # consumes the bin-9 credit
        release = shaper.earliest_issue(7)
        assert release == 50

    def test_request_waits_for_replenish_when_no_later_bins(self):
        shaper = shaper_with([1] + [0] * 9)
        boundary = shaper.replenisher.next_boundary()
        shaper.issue(0, req_id=1)
        # Bin 0 is empty now; no slower bins have credits, so the next
        # chance is the replenishment boundary.
        release = shaper.earliest_issue(2)
        assert release == boundary

    def test_zero_credit_config_stalls_forever(self):
        shaper = shaper_with([0] * 10)
        assert shaper.stall_forever()
        assert shaper.earliest_issue(0) is None

    def test_request_ages_to_lowest_populated_bin(self):
        # Populated bins 3, 5 and 9 (period 220): a stalled request ages
        # to the lowest populated bin, then the next one once it drains,
        # and waits for the boundary once only the spent bins remain.
        shaper = shaper_with([0, 0, 0, 2, 0, 1, 0, 0, 0, 1])
        shaper.issue(0, req_id=1)                 # boot: bin 9
        assert shaper.earliest_issue(7) == 30     # bin 3 (lower edge 30)
        shaper.issue(30, req_id=2)
        shaper.issue(60, req_id=3)                # bin 3 now empty
        assert shaper.earliest_issue(61) == 110   # bin 5: 60 + 50
        shaper.issue(110, req_id=4)
        assert shaper.earliest_issue(111) == \
            shaper.replenisher.next_boundary() == 220

    def test_release_far_past_many_short_periods(self):
        # A one-cycle period puts a boundary on every cycle; the release
        # still comes from aging alone (bin 7, lower edge 70), however
        # many boundaries lie in between.
        config = BinConfig.from_credits([0] * 7 + [1, 0, 0])
        shaper = MittsShaper(config,
                             replenisher=ResetReplenisher(config, period=1))
        shaper.issue(0, req_id=1)
        assert shaper.earliest_issue(1) == 70
        assert shaper.replenisher.next_boundary() == 2

    def test_drip_release_waits_for_first_nonzero_installment(self):
        # One credit dripped over 8 one-cycle slices arrives whole in the
        # last slice (largest remainder), at the boundary of cycle 8.
        config = BinConfig.from_credits([1] + [0] * 9)
        shaper = MittsShaper(config,
                             replenisher=RateReplenisher(config, slices=8))
        shaper.issue(0, req_id=1)
        assert shaper.earliest_issue(1) == 8
        assert shaper.credit_counts()[0] == 0  # answered, not applied


class TestReplenishment:
    def test_credits_return_after_period(self):
        config = BinConfig.from_credits([2] + [0] * 9)
        shaper = MittsShaper(config)
        period = config.replenish_period()
        shaper.issue(0, req_id=1)
        shaper.issue(5, req_id=2)
        assert shaper.earliest_issue(6) == period
        shaper.issue(period, req_id=3)
        assert shaper.credit_counts()[0] == 1


class TestMethod2Refund:
    def test_llc_hit_refunds_credit(self):
        shaper = shaper_with([2] + [0] * 9)
        shaper.issue(0, req_id=7)
        shaper.on_llc_response(7, was_hit=True)
        assert shaper.credit_counts()[0] == 2
        assert shaper.refunds == 1

    def test_llc_miss_keeps_deduction(self):
        shaper = shaper_with([2] + [0] * 9)
        shaper.issue(0, req_id=7)
        shaper.on_llc_response(7, was_hit=False)
        assert shaper.credit_counts()[0] == 1

    def test_unknown_request_id_ignored(self):
        shaper = shaper_with([2] + [0] * 9)
        shaper.on_llc_response(999, was_hit=True)
        assert shaper.credit_counts()[0] == 2

    def test_pending_table_tracks_inflight(self):
        shaper = shaper_with([4] + [0] * 9)
        shaper.issue(0, req_id=1)
        shaper.issue(5, req_id=2)
        assert shaper.pending_entries == 2
        shaper.on_llc_response(1, was_hit=False)
        assert shaper.pending_entries == 1


class TestMethod1Timestamp:
    def test_no_deduction_until_miss_confirmed(self):
        shaper = shaper_with([2] + [0] * 9,
                             method=MittsShaper.METHOD_TIMESTAMP)
        shaper.issue(0, req_id=1)
        assert shaper.credit_counts()[0] == 2  # not yet confirmed

    def test_confirmed_miss_deducts(self):
        shaper = shaper_with([2] + [0] * 9,
                             method=MittsShaper.METHOD_TIMESTAMP)
        shaper.issue(0, req_id=1)
        shaper.on_llc_response(1, was_hit=False)
        assert shaper.credit_counts()[0] == 1

    def test_hit_never_deducts(self):
        shaper = shaper_with([2] + [0] * 9,
                             method=MittsShaper.METHOD_TIMESTAMP)
        shaper.issue(0, req_id=1)
        shaper.on_llc_response(1, was_hit=True)
        assert shaper.credit_counts()[0] == 2

    def test_method1_uses_confirmed_miss_interarrival(self):
        shaper = shaper_with([1, 1] + [0] * 8,
                             method=MittsShaper.METHOD_TIMESTAMP)
        shaper.issue(0, req_id=1)
        shaper.issue(12, req_id=2)
        shaper.on_llc_response(1, was_hit=False)  # first miss: slowest bin
        shaper.on_llc_response(2, was_hit=False)  # 12 cycles later: bin 1
        assert shaper.credit_counts()[1] == 0

    def test_method1_is_aggressive_saturates_at_zero(self):
        # Issue decisions consult lagging counters, so more requests may
        # pass than credits exist; confirmation must not underflow.
        shaper = shaper_with([1] + [0] * 9,
                             method=MittsShaper.METHOD_TIMESTAMP)
        shaper.issue(0, req_id=1)
        shaper.issue(3, req_id=2)  # counters still full: allowed
        shaper.on_llc_response(1, was_hit=False)
        shaper.on_llc_response(2, was_hit=False)
        assert shaper.credit_counts()[0] == 0

    def test_invalid_method_rejected(self):
        with pytest.raises(ValueError):
            shaper_with([1] * 10, method=3)


class TestReconfigure:
    def test_reconfigure_installs_new_credits(self):
        shaper = shaper_with([1] + [0] * 9)
        shaper.reconfigure(BinConfig.from_credits([0] * 9 + [5]))
        assert shaper.credit_counts()[9] == 5

    def test_reconfigure_resets_replenish_clock(self):
        shaper = shaper_with([1] + [0] * 9)
        config = BinConfig.from_credits([3] + [0] * 9)
        shaper.reconfigure(config, now=1000)
        assert shaper.replenisher.next_boundary() == \
            1000 + config.replenish_period()

    def test_reconfigure_keeps_drip_slices(self):
        config = BinConfig.from_credits([4] + [0] * 9)
        shaper = MittsShaper(config,
                             replenisher=RateReplenisher(config, slices=16))
        new = BinConfig.from_credits([0, 64] + [0] * 8)
        shaper.reconfigure(new, now=1000)
        policy = shaper.replenisher
        assert isinstance(policy, RateReplenisher)
        assert policy.slices == 16
        assert policy.period == new.replenish_period()
        assert policy.next_boundary() == 1000 + new.replenish_period() // 16


class TestRateConservation:
    def test_average_rate_bounded_by_config(self):
        """Total releases over a long window never exceed the allocation:
        credits-per-period times the number of periods (+1 boundary)."""
        config = BinConfig.from_credits([2, 1] + [0] * 8)
        shaper = MittsShaper(config)
        period = config.replenish_period()
        horizon = 50 * period
        now, releases = 0, 0
        while True:
            release = shaper.earliest_issue(now)
            if release is None or release > horizon:
                break
            shaper.issue(release, req_id=releases)
            releases += 1
            now = release
        budget = config.total_credits * (horizon // period + 1)
        assert releases <= budget
