"""Unit tests for replenishment policies."""

import pytest

from repro.core.bins import BinConfig
from repro.core.credits import CreditState
from repro.core.replenish import RateReplenisher, ResetReplenisher


def drained_state(credits):
    config = BinConfig.from_credits(credits)
    state = CreditState(config)
    for index, count in enumerate(credits):
        for _ in range(count):
            state.deduct(index)
    return config, state


class TestResetReplenisher:
    def test_no_replenish_before_boundary(self):
        config, state = drained_state([4] + [0] * 9)
        policy = ResetReplenisher(config)
        policy.apply_until(state, policy.period - 1)
        assert state.total_available() == 0

    def test_replenish_at_boundary(self):
        config, state = drained_state([4] + [0] * 9)
        policy = ResetReplenisher(config)
        policy.apply_until(state, policy.period)
        assert state.counts[0] == 4

    def test_refilled_is_full_allocation(self):
        config, state = drained_state([4, 0, 2] + [0] * 7)
        policy = ResetReplenisher(config)
        assert policy.boundary_spacing() == policy.period
        for k in range(3):
            assert list(policy.refilled(state.counts, config.credits, k)) \
                == [4, 0, 2] + [0] * 7
        assert state.total_available() == 0
        assert policy.next_boundary() == policy.period

    def test_multiple_periods_collapse_to_one_reset(self):
        config, state = drained_state([4] + [0] * 9)
        policy = ResetReplenisher(config)
        policy.apply_until(state, 10 * policy.period + 3)
        assert state.counts[0] == 4
        # Clock caught up past the applied boundaries.
        assert policy.next_boundary() > 10 * policy.period

    def test_default_period_matches_config(self):
        config = BinConfig.from_credits([2, 1] + [0] * 8)
        policy = ResetReplenisher(config)
        assert policy.period == config.replenish_period()

    def test_explicit_period_override(self):
        config = BinConfig.from_credits([2] + [0] * 9)
        policy = ResetReplenisher(config, period=1000)
        assert policy.period == 1000

    def test_invalid_period_rejected(self):
        config = BinConfig.from_credits([1] * 10)
        with pytest.raises(ValueError):
            ResetReplenisher(config, period=0)

    def test_reset_clock(self):
        config = BinConfig.from_credits([2] + [0] * 9)
        policy = ResetReplenisher(config)
        policy.reset_clock(500)
        assert policy.next_boundary() == 500 + policy.period


class TestRateReplenisher:
    def test_budget_neutral_over_one_period(self):
        """A full period of drips adds exactly K_i per bin."""
        config, state = drained_state([8, 3, 1] + [0] * 7)
        policy = RateReplenisher(config, slices=8)
        policy.apply_until(state, policy.period + policy._slice_period)
        assert state.counts[0] == 8
        assert state.counts[1] == 3
        assert state.counts[2] == 1

    def test_partial_period_gives_partial_credits(self):
        config, state = drained_state([8] + [0] * 9)
        policy = RateReplenisher(config, slices=8)
        # Half the slices have fired: about half the credits are back.
        policy.apply_until(state, policy.period // 2)
        assert 3 <= state.counts[0] <= 5

    def test_small_bins_do_not_overfill(self):
        """A 1-credit bin must not be topped up on every slice: the drip
        is budget-neutral, not a continuous refill."""
        config = BinConfig.from_credits([0] * 9 + [1])
        state = CreditState(config)
        policy = RateReplenisher(config, slices=8)
        spent = 0
        now = 0
        for _ in range(40):
            now += policy._slice_period
            policy.apply_until(state, now)
            if state.counts[9] > 0:
                state.deduct(9)
                spent += 1
        periods = now // policy.period + 1
        assert spent <= periods * 1 + 1

    def test_counts_saturate_at_limit(self):
        config = BinConfig.from_credits([4] + [0] * 9)
        state = CreditState(config)  # starts full
        policy = RateReplenisher(config, slices=4)
        policy.apply_until(state, 3 * policy.period)
        assert state.counts[0] == 4

    def test_invalid_slices_rejected(self):
        config = BinConfig.from_credits([1] * 10)
        with pytest.raises(ValueError):
            RateReplenisher(config, slices=0)

    def test_refilled_matches_apply_until_without_advancing(self):
        config, state = drained_state([8, 3, 1] + [0] * 7)
        policy = RateReplenisher(config, slices=8, phase=5)
        spacing = policy.boundary_spacing()
        assert spacing == policy._slice_period
        counts = list(state.counts)
        boundary = policy.next_boundary()
        for k in range(12):
            counts = list(policy.refilled(counts, config.credits, k))
            assert policy.next_boundary() == boundary  # pure
            live = RateReplenisher(config, slices=8, phase=5)
            _, live_state = drained_state([8, 3, 1] + [0] * 7)
            live.apply_until(live_state, boundary + k * spacing)
            assert counts == live_state.counts

    def test_one_slice_equals_reset(self):
        config, state_rate = drained_state([5, 2] + [0] * 8)
        _, state_reset = drained_state([5, 2] + [0] * 8)
        rate = RateReplenisher(config, slices=1)
        reset = ResetReplenisher(config)
        rate.apply_until(state_rate, rate.period)
        reset.apply_until(state_reset, reset.period)
        assert state_rate.counts == state_reset.counts
