"""Reproducibility tests: identical seeds give identical results.

Determinism is a hard requirement for a reproduction repository -- the
numbers in EXPERIMENTS.md must be regenerable bit-for-bit.  These tests
re-run the *fast* experiments twice and require exact summary equality,
and check that seeds actually matter where they should.
"""

import pytest

from repro.experiments import run_experiment


FAST_EXPERIMENTS = ["fig02", "sec4h", "hw_cost", "ablation_replenish",
                    "ablation_bin_length"]


@pytest.mark.parametrize("name", FAST_EXPERIMENTS)
def test_experiment_is_deterministic(name):
    first = run_experiment(name, scale="smoke", seed=1)
    second = run_experiment(name, scale="smoke", seed=1)
    assert first.summary == second.summary
    assert first.rows == second.rows


def test_seed_changes_workload_results():
    first = run_experiment("sec4h", scale="smoke", seed=1)
    other = run_experiment("sec4h", scale="smoke", seed=2)
    assert first.summary != other.summary


def test_ga_search_is_deterministic():
    from repro.experiments.common import (SCALED_MULTI_CONFIG, get_scale,
                                          optimize_mitts)
    from repro.workloads.mixes import workload_traces

    scale = get_scale("smoke")
    traces = workload_traces(1)

    def run():
        result, _ = optimize_mitts(traces, SCALED_MULTI_CONFIG, 20_000,
                                   "throughput", scale, seed=5)
        return (result.best_fitness,
                tuple(tuple(c.credits) for c in result.best_genome))

    assert run() == run()


def test_contracts_do_not_perturb_simulation():
    """Runtime contracts are observers only: a 4-core mix simulated with
    ``REPRO_CONTRACTS=1`` semantics must produce bit-identical statistics
    to the same mix with contracts off, and be repeatable under them."""
    from repro.analysis import contracts
    from repro.sim.system import SCALED_MULTI_CONFIG, SimSystem
    from repro.workloads.benchmarks import trace_for

    def digest():
        system = SimSystem([trace_for("gcc"), trace_for("mcf", seed=2),
                            trace_for("omnetpp", seed=3),
                            trace_for("libquantum", seed=4)],
                           config=SCALED_MULTI_CONFIG)
        stats = system.run(20_000)
        return [core.snapshot() for core in stats.cores]

    baseline = digest()
    with contracts.enabled_scope():
        assert contracts.enabled
        first = digest()
        second = digest()
    assert first == second, "contracts broke run-to-run determinism"
    assert first == baseline, "contracts perturbed simulation results"


def test_simulation_not_sensitive_to_wallclock():
    """Nothing in the stack may read real time: two systems built at
    different moments replay identically."""
    import time

    from repro.sim.system import SCALED_MULTI_CONFIG, SimSystem
    from repro.workloads.benchmarks import trace_for

    def run():
        system = SimSystem([trace_for("gcc"), trace_for("mcf", seed=2)],
                           config=SCALED_MULTI_CONFIG)
        stats = system.run(15_000)
        return [core.snapshot() for core in stats.cores]

    first = run()
    time.sleep(0.05)
    assert run() == first
