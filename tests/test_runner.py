"""Unit tests for ``repro.runner``: specs, result store, engine, fault
model."""

import json
import pickle

import pytest

from repro.fabric.doctor import diagnose
from repro.fabric.queue import CampaignQueue
from repro.fabric.service import work_campaign
from repro.runner import (JobSpec, Runner, RunnerConfig, RunnerError,
                          SpecError, callable_path, content_hash,
                          fingerprint, resolve_callable, using_runner)

from tests import _runner_jobs

ADD_ONE = "tests._runner_jobs:add_one"
ECHO = "tests._runner_jobs:echo"


def make_runner(**overrides):
    defaults = dict(jobs=2, retries=1, backoff=0.01)
    defaults.update(overrides)
    return Runner(RunnerConfig(**defaults))


# ----------------------------------------------------------------------
# job specs


class TestJobSpec:
    def test_callable_path_round_trips(self):
        path = callable_path(_runner_jobs.add_one)
        assert path == ADD_ONE
        assert resolve_callable(path) is _runner_jobs.add_one

    def test_non_top_level_callable_rejected(self):
        with pytest.raises(SpecError):
            callable_path(lambda x: x)

    def test_bad_path_rejected(self):
        with pytest.raises(SpecError):
            resolve_callable("tests._runner_jobs:does_not_exist")
        with pytest.raises(SpecError):
            resolve_callable("no-colon")

    def test_spec_is_picklable(self):
        spec = JobSpec.create("j", ADD_ONE, 1, seed=2, scale="smoke")
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec

    def test_hash_stable_across_constructions(self):
        a = JobSpec.create("a", ADD_ONE, 41, seed=1, scale="smoke")
        b = JobSpec.create("b", ADD_ONE, 41, seed=1, scale="smoke")
        # job_id is a display name, not part of the work's identity
        assert a.spec_hash() == b.spec_hash()

    def test_hash_distinguishes_work(self):
        base = JobSpec.create("j", ADD_ONE, 41, seed=1, scale="smoke")
        assert base.spec_hash() != JobSpec.create(
            "j", ADD_ONE, 42, seed=1, scale="smoke").spec_hash()
        assert base.spec_hash() != JobSpec.create(
            "j", ADD_ONE, 41, seed=2, scale="smoke").spec_hash()
        assert base.spec_hash() != JobSpec.create(
            "j", ADD_ONE, 41, seed=1, scale="paper").spec_hash()

    def test_kwarg_order_is_canonical(self):
        a = content_hash({"b": 1, "a": 2})
        b = content_hash({"a": 2, "b": 1})
        assert a == b

    def test_sets_rejected(self):
        with pytest.raises(SpecError):
            content_hash({1, 2, 3})

    def test_dataclasses_and_namedtuples_hashable(self):
        from repro.core.bins import BinConfig
        from repro.workloads.trace import TraceEvent

        h1 = content_hash([BinConfig.unlimited(), TraceEvent(1, 64, False)])
        h2 = content_hash([BinConfig.unlimited(), TraceEvent(1, 64, False)])
        assert h1 == h2
        assert h1 != content_hash([BinConfig.unlimited(),
                                   TraceEvent(2, 64, False)])


# ----------------------------------------------------------------------
# result store: the runner keeps none; the campaign queue is the store


def stored_values(queue):
    return [json.loads(queue.load_result(index)["value_json"])
            for index in queue.job_indices()]


class TestResultCache:
    """A campaign result is served only to the same spec under the same
    source tree, and a damaged one is never served."""

    def spec(self, **overrides):
        fields = dict(job_id="j", fn=ADD_ONE, args=(1,), seed=1,
                      scale="smoke")
        fields.update(overrides)
        return JobSpec.create(fields.pop("job_id"), fields.pop("fn"),
                              *fields.pop("args"), **fields)

    def submit(self, root, **overrides):
        return CampaignQueue.submit_specs(root, "store",
                                          [self.spec(**overrides)])

    def test_miss_on_changed_seed_scale_and_fingerprint(self, tmp_path,
                                                        monkeypatch):
        queue = self.submit(tmp_path)
        work_campaign(queue, pool=False)
        assert self.submit(tmp_path).is_drained()
        assert not self.submit(tmp_path, seed=2).is_drained()
        assert not self.submit(tmp_path, scale="paper").is_drained()
        monkeypatch.setattr(fingerprint, "fingerprint_tree",
                            lambda root: "a-different-source-tree")
        fingerprint.code_fingerprint.cache_clear()
        try:
            other_code = self.submit(tmp_path)
        finally:
            monkeypatch.undo()
            fingerprint.code_fingerprint.cache_clear()
        assert other_code.campaign_id != queue.campaign_id
        assert not other_code.is_drained()
        # and the original still hits
        again = self.submit(tmp_path)
        assert again.campaign_id == queue.campaign_id
        assert stored_values(again) == [2]

    def test_corrupted_entry_discarded_not_fatal(self, tmp_path):
        queue = self.submit(tmp_path)
        work_campaign(queue, pool=False)
        path = queue.result_path(0)
        path.write_bytes(path.read_bytes()[:20])  # truncate mid-document
        again = self.submit(tmp_path)
        assert again.load_result(0) is None
        assert again.corruption.by_category == {"result": 1}
        report = diagnose(again, repair=True)
        assert report["by_category"] == {"damaged-result": 1}
        assert not path.exists()  # evidence-free garbage is removed
        assert work_campaign(again, pool=False)["done"] == 1
        assert stored_values(again) == [2]


class TestRunnerCache:
    """Re-running a campaign executes only the jobs without a result."""

    def test_second_sweep_is_all_cache_hits(self, tmp_path):
        log = tmp_path / "executions.log"
        specs = [JobSpec.create(f"j{i}", "tests._runner_jobs:record_attempt",
                                str(log), i, seed=1, scale="smoke")
                 for i in range(3)]
        first = CampaignQueue.submit_specs(tmp_path / "camp", "sweep", specs)
        assert work_campaign(first, pool=False)["executed"] == 3
        second = CampaignQueue.submit_specs(tmp_path / "camp", "sweep",
                                            specs)
        assert second.campaign_id == first.campaign_id
        assert work_campaign(second, pool=False)["executed"] == 0
        assert stored_values(second) == stored_values(first) == [0, 1, 2]
        assert len(log.read_text().splitlines()) == 3  # nothing re-ran


# ----------------------------------------------------------------------
# engine: happy path + determinism of assembly


class TestRunnerExecution:
    def test_serial_map_in_order(self):
        with make_runner(jobs=1) as runner:
            assert runner.map(ADD_ONE, [(i,) for i in range(5)]) \
                == [1, 2, 3, 4, 5]

    def test_parallel_map_matches_serial(self):
        arguments = [(i,) for i in range(8)]
        with make_runner(jobs=1) as serial:
            expected = serial.map(ADD_ONE, arguments)
        with make_runner(jobs=2) as parallel:
            assert parallel.map(ADD_ONE, arguments) == expected

    def test_results_keyed_by_job_id_not_completion(self):
        # Later-submitted jobs finish first (the first job sleeps), but
        # the assembly must stay in submission order.
        specs = [JobSpec.create("slow", "tests._runner_jobs:"
                                "sleep_then_return", 0.4, "slow-value")] \
            + [JobSpec.create(f"fast{i}", ECHO, i) for i in range(3)]
        with make_runner(jobs=2) as runner:
            sweep = runner.run(specs)
        assert [o.job_id for o in sweep] \
            == ["slow", "fast0", "fast1", "fast2"]
        assert [o.value for o in sweep] == ["slow-value", 0, 1, 2]

    def test_duplicate_job_ids_rejected(self):
        specs = [JobSpec.create("same", ECHO, 1),
                 JobSpec.create("same", ECHO, 2)]
        with make_runner() as runner, pytest.raises(SpecError):
            runner.run(specs)

    def test_workers_see_no_ambient_runner(self):
        # A forked worker inherits the parent's module state; if it saw
        # the parent's runner, a nested ``runner.map`` would block on the
        # parent's pool copy for ever.
        spec = JobSpec.create("probe", "tests._runner_jobs:"
                              "sees_no_ambient_runner")
        with make_runner(jobs=2) as runner, using_runner(runner):
            sweep = runner.run([spec])
        assert sweep["probe"].value is True

    def test_inline_runs_in_this_process(self):
        import os

        with make_runner(jobs=4) as runner:
            sweep = runner.run(
                [JobSpec.create("pid", "os:getpid")], inline=True)
        assert sweep["pid"].value == os.getpid()


# ----------------------------------------------------------------------
# engine: fault model


class TestRunnerFaults:
    def test_failure_is_structured_and_non_fatal(self):
        specs = [JobSpec.create("ok", ADD_ONE, 1),
                 JobSpec.create("bad", "tests._runner_jobs:always_fails",
                                "kaput"),
                 JobSpec.create("ok2", ADD_ONE, 2)]
        with make_runner(retries=1) as runner:
            sweep = runner.run(specs)
        assert sweep["ok"].value == 2 and sweep["ok2"].value == 3
        failure = sweep["bad"].failure
        assert failure is not None
        assert failure.kind == "error"
        assert failure.error_type == "RuntimeError"
        assert "kaput" in failure.message
        assert failure.attempts == 2  # first try + one retry
        assert "always_fails" in failure.traceback

    def test_values_raises_on_failure(self):
        with make_runner(retries=0) as runner:
            sweep = runner.run([JobSpec.create(
                "bad", "tests._runner_jobs:always_fails", "nope")])
        with pytest.raises(RunnerError):
            sweep.values()

    def test_retry_recovers_flaky_job(self, tmp_path):
        counter = tmp_path / "attempts"
        spec = JobSpec.create("flaky",
                              "tests._runner_jobs:fail_until_attempt",
                              str(counter), 2, "recovered")
        with make_runner(retries=2) as runner:
            sweep = runner.run([spec])
        outcome = sweep["flaky"]
        assert outcome.ok and outcome.value == "recovered"
        assert outcome.attempts == 2

    def test_timeout_reported_and_retried(self):
        spec = JobSpec.create("hang",
                              "tests._runner_jobs:sleep_then_return",
                              30.0, "never", timeout=0.2, retries=1)
        ok = JobSpec.create("ok", ADD_ONE, 1)
        with make_runner(jobs=2) as runner:
            sweep = runner.run([spec, ok])
        failure = sweep["hang"].failure
        assert failure is not None and failure.kind == "timeout"
        assert failure.attempts == 2
        assert sweep["ok"].value == 2  # the sweep was not aborted

    def test_worker_crash_reported_without_aborting(self):
        specs = [JobSpec.create("boom", "tests._runner_jobs:crash_hard",
                                retries=1),
                 JobSpec.create("ok", ADD_ONE, 10)]
        with make_runner(jobs=2) as runner:
            sweep = runner.run(specs)
        failure = sweep["boom"].failure
        assert failure is not None and failure.kind == "crash"
        assert sweep["ok"].ok and sweep["ok"].value == 11

    def test_crash_once_recovers_via_pool_rebuild(self, tmp_path):
        marker = tmp_path / "crashed.marker"
        spec = JobSpec.create("once",
                              "tests._runner_jobs:crash_once_then_return",
                              str(marker), "survived", retries=2)
        with make_runner(jobs=2) as runner:
            sweep = runner.run([spec])
        assert sweep["once"].ok and sweep["once"].value == "survived"
        assert sweep["once"].attempts >= 2
