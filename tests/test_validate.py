"""Tests for repro.validate: bound oracle, property harness, corpus.

Four layers:

* unit checks of the analytic derivations (arrival curves, service
  model, system bounds) against hand-computed values;
* the acceptance-criterion proof that a deliberately weakened bound
  (the test-only ``bound_scale`` hook) raises :class:`BoundViolation`
  with correct core/cycle diagnostics on an otherwise healthy run;
* the seed-corpus regression: every scenario in
  ``tests/validate_corpus.json`` replays with the checker attached to
  the fingerprint both former event kernels recorded for it;
* harness plumbing: scenario generation determinism, shrinking, the
  CLI's exit codes, and pickling of the structured failure types.
"""

import json
import pickle
from pathlib import Path

import pytest

from repro.analysis import contracts
from repro.core.bins import BinConfig, BinSpec
from repro.core.config_space import validate_bin_config, validate_credit_vector
from repro.core.shaper import MittsShaper
from repro.dram.timing import DDR3_1333
from repro.sim.system import SimSystem
from repro.validate import (ArrivalCurve, BoundChecker, BoundViolation,
                            PropertyFailure, Scenario, arrival_curve,
                            attach_checker, build_system, derive_bounds,
                            generate_scenario, run_scenario, service_model,
                            shrink_cycles)
from repro.validate.__main__ import main as validate_main
from repro.validate.properties import PROPERTIES

CORPUS = Path(__file__).parent / "validate_corpus.json"
#: stats fingerprint of each corpus scenario, recorded at commit 536483f
#: where the heap and batched kernels agreed on every one
CORPUS_PINS = {
    "all-burst-single-core":
        "a157764f50e5f3df76bddb16c27fb1670d99c1e329226c451472e17c039a1a24",
    "all-burst-contention":
        "2d0176009f7bb3ece2dd1f83708801b0c4af2809491c68596476b11d60d1188f",
    "single-token-slowest-bin":
        "94ede6feebb6d17efaccbbf70d88f7d57bd2b8073f82c5b468df48ace32437cd",
    "single-token-fastest-bin":
        "27056d0f7aad49f1950a4827e26dcba4c36f71e7bdd0bde8e949be696688e2ef",
    "replenish-boundary-collisions":
        "8419ab0bf00dec7fa3c96857ce773198e893301bb3d1a4ca6e7d059b439f4843",
    "boundary-method1-lagging":
        "222b536cf4054252886e8fa0241ee34d8a944987d14ba2bfb4d2cdf3a18cd2dd",
    "mixed-burst-and-slow":
        "74fd94ce44011063924e88faf0986b90b3e6035abe213e46117ce4679023f667",
}


def corpus_scenarios():
    entries = json.loads(CORPUS.read_text())["scenarios"]
    scenarios = []
    for i, entry in enumerate(entries):
        scenarios.append((entry["name"], Scenario(
            master_seed=-1, index=i, shape=entry["shape"],
            benchmarks=tuple(entry["benchmarks"]),
            trace_seed=entry["trace_seed"],
            num_bins=entry["num_bins"],
            interval_length=entry["interval_length"],
            credits=tuple(tuple(v) for v in entry["credits"]),
            method=entry["method"], cycles=entry["cycles"],
            check_period=entry["check_period"])))
    return scenarios


class TestArrivalCurve:
    def test_rate_and_burst(self):
        config = BinConfig.from_credits([4, 0, 0, 0, 0, 0, 0, 0, 0, 2])
        # T_r = 4*5 + 2*95 = 210
        curve = arrival_curve(config, outstanding=4)
        assert curve.period == 210
        assert curve.rate == pytest.approx(6 / 210)
        assert curve.burst == 2 * 6 + 4

    def test_pinned_period_overrides_natural(self):
        config = BinConfig.from_credits([4, 0, 0, 0, 0, 0, 0, 0, 0, 2])
        curve = arrival_curve(config, outstanding=4, period=100)
        assert curve.period == 100
        assert curve.rate == pytest.approx(6 / 100)

    def test_bound_is_affine(self):
        curve = ArrivalCurve(rate=0.5, burst=3.0, period=10)
        assert curve.bound(0) == 3.0
        assert curve.bound(20) == pytest.approx(13.0)


class TestServiceModel:
    def test_ddr3_values(self):
        model = service_model(DDR3_1333)
        assert model.worst_gap == max(
            DDR3_1333.t_rc,
            DDR3_1333.t_rp + DDR3_1333.t_rcd + DDR3_1333.t_bl
            + DDR3_1333.t_wr)
        assert 0.0 < model.availability < 1.0
        assert model.rate == pytest.approx(
            model.availability / model.worst_gap)
        assert model.total_banks == DDR3_1333.total_banks

    def test_refresh_disabled(self):
        from dataclasses import replace
        model = service_model(replace(DDR3_1333, refresh_enabled=False))
        assert model.availability == 1.0
        assert model.refresh_window == 0


class TestDeriveBounds:
    def test_shaped_system_has_curves_and_limits(self):
        scenario = generate_scenario(0, 0)
        system, _ = build_system(scenario, with_checker=False)
        bounds = derive_bounds(system)
        assert len(bounds.curves) == len(scenario.benchmarks)
        for limits, vector in zip(bounds.credit_limits, scenario.credits):
            assert limits == tuple(vector)
        assert all(cap >= 1 for cap in bounds.demand_caps)
        assert bounds.observation_slack > 0

    def test_method1_gets_no_curve(self):
        from dataclasses import replace
        scenario = replace(generate_scenario(0, 0),
                           method=MittsShaper.METHOD_TIMESTAMP)
        system, _ = build_system(scenario, with_checker=False)
        bounds = derive_bounds(system)
        assert all(curve is None for curve in bounds.curves)
        assert all(limits is not None for limits in bounds.credit_limits)
        # no full set of curves -> no aggregate backlog/sojourn bound
        assert bounds.backlog is None and bounds.sojourn is None

    def test_derivation_is_pure(self):
        scenario = generate_scenario(0, 1)
        system, _ = build_system(scenario, with_checker=False)
        assert derive_bounds(system) == derive_bounds(system)


class TestWeakenedBound:
    """Acceptance criterion: a weakened bound provably fires."""

    def test_zero_scale_raises_with_diagnostics(self):
        scenario = generate_scenario(0, 0)
        system, checker = build_system(scenario, bound_scale=0.0)
        with pytest.raises(BoundViolation) as excinfo:
            system.run(scenario.cycles)
        error = excinfo.value
        assert error.kind in ("credit_occupancy", "arrival_curve",
                              "mc_demand_cap", "mc_backlog", "mc_sojourn")
        assert error.core is None or 0 <= error.core < len(
            scenario.benchmarks)
        assert 0 < error.cycle <= scenario.cycles
        assert error.observed > error.bound
        # the cycle in the message matches the structured field
        assert str(error.cycle) in str(error)

    def test_violation_reaches_contracts_observers(self):
        scenario = generate_scenario(0, 0)
        system, checker = build_system(scenario, bound_scale=0.0)
        seen = []
        contracts.add_observer(seen.append)
        try:
            with pytest.raises(BoundViolation):
                system.run(scenario.cycles)
        finally:
            contracts.remove_observer(seen.append)
        assert len(seen) == 1 and isinstance(seen[0], BoundViolation)

    def test_violation_pickles_intact(self):
        error = BoundViolation("mc_sojourn", 2, 12345, 99.0, 42.0,
                               "req 7 arrived 11000")
        clone = pickle.loads(pickle.dumps(error))
        assert (clone.kind, clone.core, clone.cycle, clone.observed,
                clone.bound, clone.detail) == \
            ("mc_sojourn", 2, 12345, 99.0, 42.0, "req 7 arrived 11000")
        assert str(clone) == str(error)

    def test_healthy_run_is_clean_and_checker_is_live(self):
        scenario = generate_scenario(0, 0)
        system, checker = build_system(scenario)
        system.run(scenario.cycles)
        assert checker.checks["credit"] > 0
        assert checker.checks["arrival"] > 0
        assert checker.checks["demand_cap"] > 0


class TestCorpus:
    """Satellite (a): the hand-picked edge scenarios stay green."""

    @pytest.mark.parametrize("name,scenario", corpus_scenarios())
    def test_corpus_replays_identically_on_both_kernels(self, name,
                                                        scenario):
        # The checked heap-kernel core and the fused core agreed on these
        # fingerprints at commit 536483f; the one core must reproduce them.
        system, checker = build_system(scenario)
        system.run(scenario.cycles)
        assert system.stats.fingerprint() == CORPUS_PINS[name]
        assert checker.checks["credit"] > 0

    def test_corpus_is_wellformed(self):
        scenarios = corpus_scenarios()
        assert len(scenarios) >= 6
        shapes = {scenario.shape for _, scenario in scenarios}
        assert {"all_burst", "single_token", "boundary"} <= shapes
        for _, scenario in scenarios:
            scenario.bin_configs()  # raises if outside the accepted space


class TestScenarioGeneration:
    def test_deterministic(self):
        assert generate_scenario(7, 3) == generate_scenario(7, 3)
        assert generate_scenario(7, 3) != generate_scenario(7, 4)
        assert generate_scenario(7, 3) != generate_scenario(8, 3)

    def test_vectors_always_valid(self):
        for index in range(24):
            scenario = generate_scenario(123, index)
            scenario.bin_configs()  # raises on an invalid vector
            assert 1 <= len(scenario.benchmarks) <= 3

    def test_edge_shapes_rotate_in(self):
        shapes = {generate_scenario(0, i).shape for i in range(8)}
        assert {"all_burst", "single_token", "boundary", "sparse",
                "random"} <= shapes


class TestShrinking:
    def test_bisects_to_threshold(self):
        scenario = generate_scenario(0, 0)
        threshold = scenario.cycles // 3

        def fails_past_threshold(derived):
            if derived.cycles >= threshold:
                raise PropertyFailure("synthetic", derived, "too long")

        PROPERTIES["synthetic"] = fails_past_threshold
        try:
            shrunk = shrink_cycles("synthetic", scenario)
        finally:
            del PROPERTIES["synthetic"]
        assert threshold <= shrunk < scenario.cycles

    def test_property_failure_pickles(self):
        scenario = generate_scenario(0, 2)
        error = PropertyFailure("checkpoint", scenario, "snapshots differ")
        clone = pickle.loads(pickle.dumps(error))
        assert clone.prop == "checkpoint"
        assert clone.scenario == scenario
        assert str(clone) == str(error)


class TestCli:
    def test_passing_run_exits_zero(self, capsys):
        assert validate_main(["--scenarios", "2", "--seed", "0",
                              "--only", "bounds"]) == 0
        out = capsys.readouterr().out
        assert "2 scenario(s)" in out and "held" in out

    def test_all_properties_small_run(self, capsys):
        assert validate_main(["--scenarios", "1", "--seed", "3"]) == 0

    def test_rejects_bad_scenario_count(self):
        with pytest.raises(SystemExit):
            validate_main(["--scenarios", "0"])

    def test_run_scenario_respects_only(self):
        scenario = generate_scenario(0, 0)
        assert run_scenario(scenario, only="bounds") == []


class TestCheckerCheckpointing:
    def test_checker_rides_checkpoints(self, tmp_path):
        scenario = generate_scenario(0, 0)
        system, checker = build_system(scenario)
        system.run(scenario.cycles // 2)
        path = tmp_path / "mid.ckpt"
        system.save_checkpoint(path)
        resumed = SimSystem.load_checkpoint(path)
        restored = resumed.mc.probe
        assert isinstance(restored, BoundChecker)
        assert restored.bounds == checker.bounds
        resumed.run(scenario.cycles - scenario.cycles // 2)
        assert restored.checks["credit"] >= checker.checks["credit"]

    def test_parked_port_checkpoint_restores(self, tmp_path):
        """Regression: a parked shaped port's pending wake event used to
        make pickle build a core before its port's state was set
        (``'ShaperPort' object has no attribute 'send'``); found by the
        property harness (seed 0, scenario 11)."""
        scenario = generate_scenario(0, 11)
        reference, _ = build_system(scenario)
        reference.run(scenario.cycles)
        first, _ = build_system(scenario)
        first.run(scenario.cycles // 2)
        path = tmp_path / "parked.ckpt"
        first.save_checkpoint(path)
        resumed = SimSystem.load_checkpoint(path)
        resumed.run(scenario.cycles - scenario.cycles // 2)
        assert resumed.stats.snapshot() == reference.stats.snapshot()


class TestConfigSpaceErrors:
    """Satellite (d): errors name both the core and the bin."""

    def test_core_and_bin_in_message(self):
        spec = BinSpec()
        with pytest.raises(ValueError, match=r"core 3: bin\(s\) \[2\]"):
            validate_credit_vector([0, 0, -1] + [0] * 7, spec, core=3)

    def test_core_prefix_on_all_paths(self):
        spec = BinSpec(num_bins=4)
        cases = [
            [1, 1, 1, 1, 1],        # unreachable bins
            [1, 1],                  # unconfigured bins
            [0, 0, 2000, 0],         # over the register limit
            [0, 0, 0, 0],            # all-zero
        ]
        for vector in cases:
            with pytest.raises(ValueError, match="core 7: "):
                validate_credit_vector(vector, spec, core=7)

    def test_no_core_no_prefix(self):
        spec = BinSpec(num_bins=4)
        with pytest.raises(ValueError) as excinfo:
            validate_credit_vector([0, 0, 0, 0], spec)
        assert not str(excinfo.value).startswith("core ")

    def test_bin_config_passthrough_takes_core(self):
        config = BinConfig.from_credits([1] + [0] * 9)
        assert validate_bin_config(config, core=1) is config

    def test_genome_validation_uses_core_context(self):
        from repro.tuning.genome import validate_genome
        spec = BinSpec(num_bins=4)
        good = BinConfig(spec=spec, credits=(1, 0, 0, 0))
        bad = BinConfig(spec=spec, credits=(0, 0, 0, 0))
        with pytest.raises(ValueError, match=r"core 1: all bins 0\.\.3"):
            validate_genome([good, bad])
