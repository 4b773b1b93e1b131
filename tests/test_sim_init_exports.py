"""Public-API surface tests: the documented names import and compose.

A library's public API is a contract; these tests pin the exports the
README and examples rely on, so a refactor that silently drops one fails
loudly here rather than in a user's code.
"""

import importlib

import pytest


PUBLIC_SURFACE = {
    "repro": [
        "BinConfig", "BinSpec", "MittsShaper", "SimSystem",
        "StaticLimiter", "NoLimiter", "TokenBucketLimiter", "Engine",
        "OnlineGaTuner", "GeneticAlgorithm", "FitnessEvaluator",
        "InterarrivalDistribution", "trace_for", "workload_traces",
        "available_benchmarks", "geometric_mean", "__version__",
    ],
    "repro.core": [
        "BinConfig", "BinSpec", "CreditState", "MittsShaper",
        "MittsAreaModel", "ResetReplenisher", "RateReplenisher",
        "CongestionController", "credit_price", "burst_penalty",
        "worst_case_single_delay", "worst_case_burst_completion",
        "repair_to_constraints", "static_configs",
    ],
    "repro.sim": [
        "SimSystem", "SystemConfig", "Cache", "CacheGeometry",
        "MemoryController", "SharedLLC", "CoreModel", "ShaperPort",
        "SCALED_MULTI_CONFIG", "SCALED_SINGLE_CONFIG",
        "SINGLE_PROGRAM_CONFIG", "MULTI_PROGRAM_CONFIG",
    ],
    "repro.dram": [
        "DramDevice", "DramTiming", "AddressMapper", "Bank", "DDR3_1333",
    ],
    "repro.sched": [
        "FcfsScheduler", "FrFcfsScheduler", "FairQueueScheduler",
        "TcmScheduler", "MiseScheduler", "MemGuardScheduler",
        "FstController", "build_hybrid",
    ],
    "repro.workloads": [
        "trace_for", "workload_traces", "SyntheticTrace", "ListTrace",
        "TraceEvent", "PhaseDetector", "SystemPhaseMonitor",
        "dump_trace", "load_trace", "thread_traces",
    ],
    "repro.tuning": [
        "GeneticAlgorithm", "GaParams", "OnlineGaTuner", "HillClimber",
        "RandomSearch", "FitnessEvaluator", "profile_benchmark",
        "config_from_profile", "seed_genomes",
    ],
    "repro.cloud": [
        "Customer", "CreditMarket", "Bid", "VirtualMachine",
        "build_vm_system", "AutoScaler", "ScheduleRule", "TriggerRule",
        "best_static_config", "perf_per_cost",
    ],
    "repro.metrics": [
        "InterarrivalDistribution", "average_slowdown", "max_slowdown",
        "weighted_speedup", "harmonic_mean_speedup", "format_table",
    ],
    "repro.experiments": [
        "REGISTRY", "run_experiment", "SCALES", "Result",
    ],
}


@pytest.mark.parametrize("module_name", sorted(PUBLIC_SURFACE))
def test_module_exports(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in PUBLIC_SURFACE[module_name]
               if not hasattr(module, name)]
    assert not missing, f"{module_name} lost exports: {missing}"


@pytest.mark.parametrize("module_name", sorted(PUBLIC_SURFACE))
def test_all_lists_are_importable(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", None)
    if exported is None:
        return
    for name in exported:
        assert hasattr(module, name), f"{module_name}.__all__ lists " \
                                      f"missing name {name}"


def test_every_public_module_has_docstring():
    for module_name in PUBLIC_SURFACE:
        module = importlib.import_module(module_name)
        assert module.__doc__, f"{module_name} lacks a module docstring"


def test_package_runs_without_numpy():
    # The package declares no runtime dependency: importing the simulator,
    # the experiment CLI, the campaign fabric and the bench must not pull
    # numpy in (checked in a fresh interpreter, whatever this one loaded).
    import os
    import subprocess
    import sys

    import repro
    src_dir = os.path.dirname(os.path.dirname(
        os.path.abspath(repro.__file__)))
    script = ("import sys, repro.sim.system, repro.experiments, "
              "repro.fabric, repro.bench; "
              "sys.exit('numpy' in sys.modules)")
    result = subprocess.run([sys.executable, "-c", script],
                            env=dict(os.environ, PYTHONPATH=src_dir))
    assert result.returncode == 0
