"""Fault injection: every failure class the stack claims to survive.

``run_chaos_suite`` is the same harness ``python -m repro.resilience
--chaos`` runs in CI; here it executes under pytest so a regression in
any single recovery path fails with that fault's diagnostic detail.
The targeted tests below pin the runner-level policies individually:
deterministic failures are never retried, transient ones still are, and
a job killed after a periodic checkpoint *resumes* instead of restarting.
"""

import os

import pytest

from repro.resilience.chaos import ChaosOutcome, run_chaos_suite
from repro.runner import JobSpec, Runner, RunnerConfig

CHAOS_SEED = 7


class TestChaosSuite:
    def test_every_fault_class_recovers(self, tmp_path):
        outcomes = run_chaos_suite(CHAOS_SEED, str(tmp_path))
        assert len(outcomes) == 11
        failed = [outcome for outcome in outcomes if not outcome.passed]
        assert not failed, "\n".join(
            f"{outcome.fault}: {outcome.detail}" for outcome in failed)
        assert sorted(outcome.fault for outcome in outcomes) == [
            "clock-skew", "duplicate-event", "event-bomb",
            "fabric-disk-full", "fabric-poison", "fabric-stale-read",
            "fabric-steal", "fabric-supervisor", "fabric-torn-rename",
            "starvation", "worker-kill"]

    def test_outcomes_are_plain_data(self, tmp_path):
        outcome = ChaosOutcome("example", True, "detail")
        assert outcome.passed and outcome.fault == "example"


class TestRetryPolicy:
    def test_deterministic_failure_not_retried_inline(self, tmp_path):
        spec = JobSpec.create("det", "tests._runner_jobs:raise_value_error",
                              "bad config")
        with Runner(RunnerConfig(jobs=1, retries=3, backoff=0.0)) as runner:
            sweep = runner.run([spec])
        failure = sweep["det"].failure
        assert failure is not None
        assert failure.attempts == 1  # retries were available, none used
        assert failure.error_type == "ValueError"

    def test_deterministic_failure_not_retried_in_pool(self, tmp_path):
        log = tmp_path / "attempts.log"
        det = JobSpec.create("det", "tests._runner_jobs:raise_value_error",
                             "bad config")
        ok = JobSpec.create("ok", "tests._runner_jobs:record_attempt",
                            str(log), "fine")
        with Runner(RunnerConfig(jobs=2, retries=3,
                                 backoff=0.0)) as runner:
            sweep = runner.run([det, ok])
        assert sweep["det"].failure.attempts == 1
        assert sweep["ok"].ok and sweep["ok"].value == "fine"

    def test_transient_failure_still_retried(self, tmp_path):
        counter = tmp_path / "counter"
        spec = JobSpec.create("flaky",
                              "tests._runner_jobs:fail_until_attempt",
                              str(counter), 2, "recovered")
        with Runner(RunnerConfig(jobs=1, retries=2,
                                 backoff=0.0)) as runner:
            sweep = runner.run([spec])
        assert sweep["flaky"].ok and sweep["flaky"].value == "recovered"
        assert sweep["flaky"].attempts == 2


class TestRunnerCheckpointResume:
    def test_killed_job_resumes_from_periodic_checkpoint(self, tmp_path):
        from repro.sim.system import SCALED_MULTI_CONFIG, SimSystem
        from repro.workloads.mixes import workload_traces

        cycles = 30_000
        reference = SimSystem(workload_traces(1, seed=11),
                              config=SCALED_MULTI_CONFIG)
        reference.run(cycles)
        expected = reference.stats.fingerprint()

        checkpoint_dir = tmp_path / "checkpoints"
        marker = tmp_path / "killed.marker"
        spec = JobSpec.create("sim", "tests._runner_jobs:checkpointed_sim",
                              str(marker), cycles, retries=2)
        with Runner(RunnerConfig(jobs=2, retries=2, backoff=0.01,
                                 checkpoint_dir=str(checkpoint_dir))
                    ) as runner:
            sweep = runner.run([spec])

        outcome = sweep["sim"]
        assert outcome.ok, outcome.failure
        assert outcome.attempts == 2  # killed once, succeeded on resume
        # The retry picked up the last periodic checkpoint (cycle 20_000
        # of 30_000), not cycle 0 -- and still matched bit-for-bit.
        assert outcome.value["started_from"] == 20_000
        assert outcome.value["fingerprint"] == expected
        # Success cleans the checkpoint up.
        leftovers = [name for name in os.listdir(checkpoint_dir)] \
            if checkpoint_dir.exists() else []
        assert leftovers == []

    def test_no_checkpoint_dir_means_no_ambient_path(self, tmp_path):
        spec = JobSpec.create("plain", "tests._runner_jobs:echo", "value")
        with Runner(RunnerConfig(jobs=1)) as runner:
            sweep = runner.run([spec])
        assert sweep["plain"].value == "value"
        assert list(tmp_path.iterdir()) == []
