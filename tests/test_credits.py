"""Unit tests for the runtime credit state."""

import pytest

from repro.core.bins import BinConfig, BinSpec
from repro.core.credits import CreditState


def make_state(credits):
    return CreditState(BinConfig.from_credits(credits))


class TestDeduction:
    def test_initial_counts_match_config(self):
        state = make_state([3, 1, 4, 1, 5, 9, 2, 6, 5, 3])
        assert state.counts == [3, 1, 4, 1, 5, 9, 2, 6, 5, 3]

    def test_deduct_decrements(self):
        state = make_state([2] + [0] * 9)
        state.deduct(0)
        assert state.available(0) == 1

    def test_deduct_empty_bin_rejected(self):
        state = make_state([0] * 10)
        with pytest.raises(ValueError):
            state.deduct(0)

    def test_find_deductible_prefers_own_bin(self):
        state = make_state([5, 5, 5] + [0] * 7)
        assert state.find_deductible(2) == 2

    def test_find_deductible_falls_back_to_faster_bins(self):
        state = make_state([5, 0, 0] + [0] * 7)
        # Request in bin 2 may take a bin-0 credit (faster bin).
        assert state.find_deductible(2) == 0

    def test_find_deductible_never_uses_slower_bins(self):
        state = make_state([0, 0, 0, 7] + [0] * 6)
        # Request in bin 2 cannot take a bin-3 credit.
        assert state.find_deductible(2) is None

    def test_find_deductible_clamps_index(self):
        state = make_state([1] + [0] * 9)
        assert state.find_deductible(99) == 0

    def test_total_available(self):
        state = make_state([1, 2, 3] + [0] * 7)
        assert state.total_available() == 6


class TestRefund:
    def test_refund_restores_credit(self):
        state = make_state([2] + [0] * 9)
        state.deduct(0)
        state.refund(0)
        assert state.available(0) == 2

    def test_refund_saturates_at_configured_limit(self):
        state = make_state([2] + [0] * 9)
        state.refund(0)  # already full
        assert state.available(0) == 2


class TestReplenishAndReconfigure:
    def test_replenish_resets_all_bins(self):
        state = make_state([3, 3] + [0] * 8)
        state.deduct(0)
        state.deduct(1)
        state.replenish()
        assert state.counts[:2] == [3, 3]

    def test_reconfigure_with_reset(self):
        state = make_state([1] * 10)
        state.reconfigure(BinConfig.from_credits([5] * 10))
        assert state.counts == [5] * 10

    def test_reconfigure_without_reset_clamps(self):
        state = make_state([5] * 10)
        state.reconfigure(BinConfig.from_credits([2] * 10), reset=False)
        assert state.counts == [2] * 10

    def test_reconfigure_without_reset_keeps_lower_counts(self):
        state = make_state([5] * 10)
        for _ in range(4):
            state.deduct(0)
        state.reconfigure(BinConfig.from_credits([3] * 10), reset=False)
        assert state.counts[0] == 1

    def test_reconfigure_different_bin_count_rejected(self):
        state = make_state([1] * 10)
        other = BinConfig(spec=BinSpec(num_bins=4), credits=(1, 1, 1, 1))
        with pytest.raises(ValueError):
            state.reconfigure(other)

