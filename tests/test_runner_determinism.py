"""Determinism under parallelism (tier-1).

The determinism contract must survive the new execution engine: a sweep
with ``--jobs 2`` and a GA generation fanned across a pool must be
bit-identical to the serial path.  Runtime invariant contracts
(``REPRO_CONTRACTS=1``) are active throughout -- they are observers, and
worker processes inherit the setting.
"""

import json
from pathlib import Path

import pytest

from repro.analysis import contracts
from repro.experiments.__main__ import main
from repro.experiments.common import (SCALED_MULTI_CONFIG,
                                      parallel_batch_evaluator)
from repro.runner import Runner, RunnerConfig, using_runner
from repro.sched.base import FrFcfsScheduler
from repro.tuning.ga import GaParams, GeneticAlgorithm
from repro.tuning.objectives import FitnessEvaluator, resolve_objective
from repro.workloads.benchmarks import trace_for

EXPERIMENTS = ["hw_cost", "fig02", "fig16"]


@pytest.fixture(autouse=True)
def contracts_on(monkeypatch):
    """Contracts on in this process and in every forked worker."""
    monkeypatch.setenv("REPRO_CONTRACTS", "1")
    with contracts.enabled_scope():
        yield


def saved_results(directory: Path) -> dict:
    """The saved ``result`` payloads (metadata stripped: it carries
    wall-clock timings, which legitimately differ between runs)."""
    payloads = {}
    for path in sorted(directory.glob("*.json")):
        payloads[path.name] = json.loads(
            path.read_text(encoding="utf-8"))["result"]
    return payloads


def saved_documents(directory: Path) -> dict:
    """The whole saved documents, minus the wall-clock
    ``metadata.elapsed_seconds``."""
    documents = {}
    for path in sorted(directory.glob("*.json")):
        document = json.loads(path.read_text(encoding="utf-8"))
        del document["metadata"]["elapsed_seconds"]
        documents[path.name] = document
    return documents


class TestCliParallelDeterminism:
    def test_jobs2_bit_identical_to_serial(self, tmp_path):
        serial_dir = tmp_path / "serial"
        parallel_dir = tmp_path / "parallel"
        assert main(EXPERIMENTS + ["--save-dir", str(serial_dir),
                                   "--no-progress"]) == 0
        assert main(EXPERIMENTS + ["--jobs", "2",
                                   "--save-dir", str(parallel_dir),
                                   "--no-progress"]) == 0
        serial = saved_results(serial_dir)
        parallel = saved_results(parallel_dir)
        assert set(serial) == set(parallel) == {
            f"{name}.json" for name in EXPERIMENTS}
        assert serial == parallel

    def test_single_experiment_inner_parallelism_identical(self, tmp_path):
        # One experiment + --jobs fans the *inner* simulations out; the
        # saved result must still match the serial run byte for byte.
        serial_dir = tmp_path / "serial"
        parallel_dir = tmp_path / "parallel"
        assert main(["fig02", "--save-dir", str(serial_dir),
                     "--no-progress"]) == 0
        assert main(["fig02", "--jobs", "2",
                     "--save-dir", str(parallel_dir), "--no-progress"]) == 0
        assert saved_results(serial_dir) == saved_results(parallel_dir)

    def test_resume_serves_identical_results(self, tmp_path, capsys):
        # A --campaign re-run executes nothing, and both campaign runs
        # save the documents the plain --jobs 2 sweep saves.
        queue_root = tmp_path / "campaign"
        plain_dir = tmp_path / "plain"
        first_dir = tmp_path / "first"
        resumed_dir = tmp_path / "resumed"
        assert main(EXPERIMENTS + ["--jobs", "2",
                                   "--save-dir", str(plain_dir),
                                   "--no-progress"]) == 0
        campaign = EXPERIMENTS + ["--jobs", "2",
                                  "--campaign", str(queue_root),
                                  "--no-progress"]
        assert main(campaign + ["--save-dir", str(first_dir)]) == 0
        assert "drained: 3 done, 0 failed" in capsys.readouterr().out
        assert main(campaign + ["--save-dir", str(resumed_dir)]) == 0
        assert "drained: 0 done, 0 failed" in capsys.readouterr().out
        plain = saved_documents(plain_dir)
        assert set(plain) == {f"{name}.json" for name in EXPERIMENTS}
        assert saved_documents(first_dir) == plain
        assert saved_documents(resumed_dir) == plain


class TestGaParallelDeterminism:
    def make_evaluator(self):
        traces = [trace_for("mcf", seed=1), trace_for("bzip", seed=2)]
        evaluator = FitnessEvaluator(
            traces=traces, system_config=SCALED_MULTI_CONFIG,
            run_cycles=4_000, objective=resolve_objective("throughput"),
            scheduler_factory=FrFcfsScheduler)
        evaluator.measure_alone()
        return evaluator

    def run_ga(self, evaluator, batch_evaluator=None):
        from repro.core.bins import BinSpec

        ga = GeneticAlgorithm(evaluator, BinSpec(), 2,
                              GaParams(generations=2, population=4,
                                       seed=7),
                              batch_evaluator=batch_evaluator)
        return ga.run()

    def test_parallel_evaluator_matches_serial(self):
        serial = self.run_ga(self.make_evaluator())
        evaluator = self.make_evaluator()
        with Runner(RunnerConfig(jobs=2)) as runner:
            with using_runner(runner):
                parallel = self.run_ga(
                    evaluator,
                    batch_evaluator=parallel_batch_evaluator(evaluator))
        assert parallel.best_fitness == serial.best_fitness
        assert parallel.best_genome == serial.best_genome
        assert parallel.history == serial.history
        assert parallel.evaluations == serial.evaluations
        assert parallel.memo_hits == serial.memo_hits
