"""Property-based tests (hypothesis) for core invariants."""

import copy
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bins import BinConfig, BinSpec
from repro.core.config_space import matches_static, repair_to_constraints
from repro.core.credits import CreditState
from repro.core.pricing import config_price_core_equivalents
from repro.core.replenish import RateReplenisher, ResetReplenisher
from repro.core.shaper import MittsShaper
from repro.sim.cache import Cache, CacheGeometry
from repro.sim.engine import Engine
from repro.validate.properties import (random_shaper, reference_issue,
                                       walk_earliest_issue)


credit_vectors = st.lists(st.integers(min_value=0, max_value=64),
                          min_size=10, max_size=10)
nonzero_vectors = credit_vectors.filter(lambda v: sum(v) > 0)


class TestBinConfigProperties:
    @given(nonzero_vectors)
    def test_average_interval_within_bin_range(self, credits):
        config = BinConfig.from_credits(credits)
        spec = config.spec
        assert spec.center(0) <= config.average_interval() \
            <= spec.center(spec.num_bins - 1)

    @given(nonzero_vectors)
    def test_bandwidth_interval_identity(self, credits):
        """B_avg * I_avg == line_bytes within rounding error."""
        config = BinConfig.from_credits(credits)
        product = config.average_bandwidth() * config.average_interval()
        assert abs(product - 64) < 2.0

    @given(nonzero_vectors, st.floats(min_value=0.1, max_value=3.0))
    def test_scaled_stays_valid(self, credits, factor):
        config = BinConfig.from_credits(credits).scaled(factor)
        assert all(0 <= c <= config.spec.max_credits
                   for c in config.credits)

    @given(nonzero_vectors)
    def test_price_non_negative_and_finite(self, credits):
        config = BinConfig.from_credits(credits)
        price = config_price_core_equivalents(config)
        assert 0.0 <= price < 1e9


class TestCreditStateProperties:
    @given(nonzero_vectors, st.integers(min_value=0, max_value=9))
    def test_deductible_bin_never_slower_than_request(self, credits,
                                                      bin_index):
        state = CreditState(BinConfig.from_credits(credits))
        found = state.find_deductible(bin_index)
        if found is not None:
            assert found <= bin_index
            assert state.counts[found] > 0

    @given(nonzero_vectors, st.lists(st.integers(0, 9), max_size=40))
    def test_counts_never_negative_or_above_limit(self, credits, ops):
        config = BinConfig.from_credits(credits)
        state = CreditState(config)
        for op in ops:
            source = state.find_deductible(op)
            if source is not None:
                state.deduct(source)
            state.refund(op)
        for count, limit in zip(state.counts, config.credits):
            assert 0 <= count <= limit


class TestShaperProperties:
    @given(nonzero_vectors, st.integers(min_value=1, max_value=60),
           st.integers(min_value=0, max_value=400))
    @settings(max_examples=40, deadline=None)
    def test_release_budget_never_exceeded(self, credits, demand_gap,
                                           phase):
        """Whatever the demand pattern, releases over k periods never
        exceed k+1 periods' worth of credits."""
        config = BinConfig.from_credits(credits)
        shaper = MittsShaper(config, phase=phase)
        period = config.replenish_period()
        horizon = 20 * period
        now, releases = 0, 0
        while now <= horizon:
            release = shaper.earliest_issue(now)
            if release is None or release > horizon:
                break
            shaper.issue(release, req_id=releases)
            releases += 1
            now = release + demand_gap
        budget = config.total_credits * (horizon // period + 2)
        assert releases <= budget

    @given(nonzero_vectors, st.integers(min_value=0, max_value=1000))
    @settings(max_examples=40, deadline=None)
    def test_earliest_issue_always_found_for_live_config(self, credits,
                                                         now):
        shaper = MittsShaper(BinConfig.from_credits(credits))
        release = shaper.earliest_issue(now)
        assert release is not None
        assert release >= now

    @given(nonzero_vectors)
    @settings(max_examples=30, deadline=None)
    def test_probing_does_not_mutate_state(self, credits):
        """Speculative probes (at times before the next boundary) must not
        advance the live replenishment clock or credit counters, even when
        the *answer* lies beyond several future boundaries."""
        shaper = MittsShaper(BinConfig.from_credits(credits))
        shaper.issue(0, req_id=0)
        counts_before = shaper.credit_counts()
        boundary_before = shaper.replenisher.next_boundary()
        for now in (0, 1, min(3, boundary_before - 1)):
            shaper.earliest_issue(now)
        assert shaper.credit_counts() == counts_before
        assert shaper.replenisher.next_boundary() == boundary_before


    @given(st.integers(min_value=1, max_value=16),
           st.integers(min_value=1, max_value=17),
           st.sampled_from([MittsShaper.METHOD_DEDUCT_REFUND,
                            MittsShaper.METHOD_TIMESTAMP]),
           st.data())
    @settings(max_examples=150, deadline=None)
    def test_release_matches_walk_oracle(self, num_bins, interval, method,
                                         data):
        """The closed-form release time equals the probe walk's across
        random states, clocks, phases and both replenishment policies,
        and the inline issue path commits what the reference does."""
        spec = BinSpec(num_bins=num_bins, interval_length=interval)
        credits = tuple(data.draw(st.lists(
            st.integers(min_value=0, max_value=6),
            min_size=num_bins, max_size=num_bins), label="credits"))
        rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
        shaper, now = random_shaper(rng, spec, credits, method)
        reference = copy.deepcopy(shaper)
        for round_ in range(4):
            release = shaper.earliest_issue(now)
            assert release == walk_earliest_issue(reference, now)
            assert shaper.credit_counts() == reference.credit_counts()
            if release is None:
                assert sum(credits) == 0
                break
            assert release >= now
            shaper.issue(release, req_id=round_)
            reference_issue(reference, release, round_)
            assert shaper.credit_counts() == reference.credit_counts()
            assert shaper._pending_bin == reference._pending_bin
            now = release + rng.randrange(2 * interval + 1)


class TestReplenishProperties:
    @given(nonzero_vectors, st.integers(min_value=1, max_value=16))
    @settings(max_examples=40, deadline=None)
    def test_drip_budget_matches_reset_per_period(self, credits, slices):
        """Over one full period both policies add exactly K_i credits."""
        config = BinConfig.from_credits(credits)
        drip_state = CreditState(config)
        drip_state.counts = [0] * 10
        drip = RateReplenisher(config, slices=slices)
        drip.apply_until(drip_state, drip.period + drip._slice_period)
        assert drip_state.counts == list(config.credits)

    @given(nonzero_vectors, st.integers(min_value=0, max_value=100_000))
    def test_reset_clock_always_ahead(self, credits, now):
        config = BinConfig.from_credits(credits)
        state = CreditState(config)
        policy = ResetReplenisher(config)
        policy.apply_until(state, now)
        assert policy.next_boundary() > now


class TestCacheProperties:
    @given(st.lists(st.integers(min_value=0, max_value=255), min_size=1,
                    max_size=200))
    def test_occupancy_bounded_by_capacity(self, lines):
        cache = Cache(CacheGeometry(size_bytes=1024, ways=2))
        for line in lines:
            cache.access(line * 64)
        assert cache.resident_lines <= 16  # 1024 / 64

    @given(st.lists(st.integers(min_value=0, max_value=63), min_size=1,
                    max_size=100))
    def test_immediate_retouch_always_hits(self, lines):
        cache = Cache(CacheGeometry(size_bytes=4096, ways=4))
        for line in lines:
            cache.access(line * 64)
            hit, _ = cache.access(line * 64)
            assert hit

    @given(st.lists(st.integers(min_value=0, max_value=1023), min_size=1,
                    max_size=300))
    def test_hits_plus_misses_equals_accesses(self, lines):
        cache = Cache(CacheGeometry(size_bytes=2048, ways=2))
        for line in lines:
            cache.access(line * 64)
        assert cache.hits + cache.misses == len(lines)


class TestRepairProperties:
    @given(credit_vectors,
           st.sampled_from([35.0, 45.0, 55.0, 65.0]),
           st.integers(min_value=8, max_value=64))
    @settings(max_examples=50, deadline=None)
    def test_repair_satisfies_constraints(self, credits, interval, total):
        spec = BinSpec()
        config = repair_to_constraints(credits, spec, interval, total)
        assert matches_static(config, interval, total,
                              interval_tolerance=0.35,
                              credit_tolerance=0.05)


class TestEngineProperties:
    @given(st.lists(st.integers(min_value=0, max_value=1000), min_size=1,
                    max_size=60))
    def test_events_observed_in_sorted_order(self, times):
        engine = Engine()
        observed = []
        for when in times:
            engine.schedule(when, lambda: observed.append(engine.now))
        engine.run()
        assert observed == sorted(times)
