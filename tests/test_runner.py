"""Unit tests for ``repro.runner``: specs, cache, engine, fault model."""

import pickle

import pytest

from repro.runner import (JobSpec, ResultCache, Runner, RunnerConfig,
                          RunnerError, SpecError, callable_path,
                          code_fingerprint, content_hash, resolve_callable,
                          using_runner)

from tests import _runner_jobs

ADD_ONE = "tests._runner_jobs:add_one"
ECHO = "tests._runner_jobs:echo"


def make_runner(tmp_path=None, **overrides):
    defaults = dict(jobs=2, retries=1, backoff=0.01)
    defaults.update(overrides)
    cache = ResultCache(tmp_path, fingerprint="test") \
        if tmp_path is not None else None
    return Runner(RunnerConfig(**defaults), cache=cache)


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
# cache


class TestResultCache:
    def spec(self, **overrides):
        fields = dict(job_id="j", fn=ADD_ONE, args=(1,), seed=1,
                      scale="smoke")
        fields.update(overrides)
        return JobSpec.create(fields.pop("job_id"), fields.pop("fn"),
                              *fields.pop("args"), **fields)

    def test_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path, fingerprint="f")
        spec = self.spec()
        assert cache.load(spec) is None
        cache.store(spec, {"answer": 42})
        hit = cache.load(spec)
        assert hit is not None and hit.value == {"answer": 42}
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_none_value_is_a_hit(self, tmp_path):
        cache = ResultCache(tmp_path, fingerprint="f")
        spec = self.spec()
        cache.store(spec, None)
        hit = cache.load(spec)
        assert hit is not None and hit.value is None

    def test_miss_on_changed_seed_scale_and_fingerprint(self, tmp_path):
        cache = ResultCache(tmp_path, fingerprint="f")
        spec = self.spec()
        cache.store(spec, 1)
        assert cache.load(self.spec(seed=2)) is None
        assert cache.load(self.spec(scale="paper")) is None
        other_code = ResultCache(tmp_path, fingerprint="g")
        assert other_code.load(spec) is None
        # and the original still hits
        assert cache.load(spec).value == 1

    def test_corrupted_entry_discarded_not_fatal(self, tmp_path):
        cache = ResultCache(tmp_path, fingerprint="f")
        spec = self.spec()
        path = cache.store(spec, "precious")
        path.write_bytes(path.read_bytes()[:20])  # truncate mid-payload
        assert cache.load(spec) is None
        assert cache.stats.corrupt == 1
        assert not path.exists()  # evidence-free garbage is removed
        cache.store(spec, "precious")
        assert cache.load(spec).value == "precious"

    def test_garbage_entry_discarded(self, tmp_path):
        cache = ResultCache(tmp_path, fingerprint="f")
        spec = self.spec()
        path = cache.store(spec, "x")
        path.write_bytes(b"not a cache entry at all")
        assert cache.load(spec) is None
        assert cache.stats.corrupt == 1

    def test_unpicklable_value_skipped_gracefully(self, tmp_path):
        cache = ResultCache(tmp_path, fingerprint="f")
        assert cache.store(self.spec(), lambda: None) is None
        assert cache.load(self.spec()) is None

    def test_live_fingerprint_changes_with_source(self, tmp_path):
        from repro.runner import fingerprint_tree

        (tmp_path / "a.py").write_text("x = 1\n")
        before = fingerprint_tree(tmp_path)
        (tmp_path / "a.py").write_text("x = 2\n")
        assert fingerprint_tree(tmp_path) != before
        assert len(code_fingerprint()) == 64


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


# ----------------------------------------------------------------------
# engine + cache: resume semantics


class TestRunnerCache:
    def specs(self, count=3):
        return [JobSpec.create(f"j{i}", ADD_ONE, i, seed=1, scale="smoke")
                for i in range(count)]

    def test_second_sweep_is_all_cache_hits(self, tmp_path):
        with make_runner(tmp_path) as runner:
            first = runner.run(self.specs())
        assert first.cache_hits == 0
        with make_runner(tmp_path) as runner:
            second = runner.run(self.specs())
        assert second.cache_hits == 3
        assert [o.value for o in second] == [o.value for o in first]
        assert all(o.attempts == 0 for o in second)  # nothing re-ran

    def test_killed_then_resumed_sweep_completes_from_cache(
            self, tmp_path, monkeypatch):
        log = tmp_path / "executions.log"
        cache_dir = tmp_path / "cache"
        specs = [JobSpec.create(f"j{i}", "tests._runner_jobs:record_attempt",
                                str(log), i, seed=1, scale="smoke")
                 for i in range(4)]
        # "Kill" the sweep after two jobs: run only a prefix, as if the
        # driver died mid-sweep with two results already persisted.
        with Runner(RunnerConfig(jobs=1),
                    cache=ResultCache(cache_dir,
                                      fingerprint="test")) as runner:
            runner.run(specs[:2])
        assert len(log.read_text().splitlines()) == 2
        # Resume the full sweep: the two finished jobs must come from the
        # cache (no re-execution), the rest must run.
        with Runner(RunnerConfig(jobs=2),
                    cache=ResultCache(cache_dir,
                                      fingerprint="test")) as runner:
            sweep = runner.run(specs)
        assert [o.value for o in sweep] == [0, 1, 2, 3]
        assert sweep.cache_hits == 2
        assert len(log.read_text().splitlines()) == 4  # only j2, j3 ran

    def test_failures_are_not_cached(self, tmp_path):
        spec = JobSpec.create("bad", "tests._runner_jobs:always_fails",
                              "nope", retries=0)
        with make_runner(tmp_path) as runner:
            assert not runner.run([spec])["bad"].ok
        with make_runner(tmp_path) as runner:
            second = runner.run([spec])
        assert second.cache_hits == 0  # failure was retried, not served

    def test_map_bypasses_cache_by_default(self, tmp_path):
        with make_runner(tmp_path) as runner:
            runner.map(ADD_ONE, [(1,)])
            assert runner.cache.stats.stores == 0
