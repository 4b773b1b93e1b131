"""Tests for the ``python -m repro.experiments`` command-line interface."""

import json
import re

import pytest

from repro.experiments.__main__ import main


class TestCli:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fig12" in out
        assert "hw_cost" in out

    def test_run_single_experiment(self, capsys):
        assert main(["hw_cost"]) == 0
        out = capsys.readouterr().out
        assert "=== hw_cost" in out
        assert "core fraction" in out

    def test_unknown_experiment_errors(self):
        with pytest.raises(SystemExit):
            main(["fig99"])

    def test_no_experiments_errors(self):
        with pytest.raises(SystemExit):
            main([])

    def test_bad_scale_rejected(self):
        with pytest.raises(SystemExit):
            main(["hw_cost", "--scale", "huge"])

    def test_seed_flag(self, capsys):
        assert main(["hw_cost", "--seed", "7"]) == 0
        assert "seed 7" in capsys.readouterr().out


class TestReconfigureApi:
    def test_request_reconfigure_rejected_while_configuring(self):
        from repro.sim.system import SCALED_MULTI_CONFIG, SimSystem
        from repro.tuning.online import OnlineGaTuner
        from repro.workloads.benchmarks import trace_for

        system = SimSystem([trace_for("gcc"), trace_for("mcf", seed=2)],
                           config=SCALED_MULTI_CONFIG)
        tuner = OnlineGaTuner(system, generations=1, population=3,
                              epoch=1_000, overhead_cycles=0)
        system.run(500)  # inside the CONFIG_PHASE
        assert tuner.configuring
        assert not tuner.request_reconfigure()

    def test_request_reconfigure_accepted_in_run_phase(self):
        from repro.sim.system import SCALED_MULTI_CONFIG, SimSystem
        from repro.tuning.online import OnlineGaTuner
        from repro.workloads.benchmarks import trace_for

        system = SimSystem([trace_for("gcc"), trace_for("mcf", seed=2)],
                           config=SCALED_MULTI_CONFIG)
        tuner = OnlineGaTuner(system, generations=1, population=3,
                              epoch=800, overhead_cycles=0)
        system.run(40_000)
        assert not tuner.configuring
        first_run_phase = tuner.run_phase_started_at
        assert tuner.request_reconfigure()
        system.run(40_000)
        assert tuner.run_phase_started_at > first_run_phase

    def test_stale_epoch_callbacks_ignored(self):
        """Restarting mid-CONFIG_PHASE must not corrupt the state machine
        (the bug the phase tokens exist to prevent)."""
        from repro.sim.system import SCALED_MULTI_CONFIG, SimSystem
        from repro.tuning.online import OnlineGaTuner
        from repro.workloads.benchmarks import trace_for

        system = SimSystem([trace_for("gcc"), trace_for("mcf", seed=2)],
                           config=SCALED_MULTI_CONFIG)
        tuner = OnlineGaTuner(system, generations=2, population=4,
                              epoch=1_000, overhead_cycles=0)
        system.run(3_500)  # mid-phase
        tuner._begin_config_phase()  # forced restart (stale events live)
        system.run(60_000)  # must complete without IndexError
        assert tuner.best_genome is not None


class TestSweepFlags:
    """--jobs: a plain sweep, which stores nothing."""

    def test_jobs_flag_smoke(self, capsys):
        assert main(["hw_cost", "--jobs", "2", "--no-progress"]) == 0
        assert "=== hw_cost" in capsys.readouterr().out

    def test_bad_jobs_rejected(self):
        with pytest.raises(SystemExit):
            main(["hw_cost", "--jobs", "0"])

    def test_failure_reported_on_stdout_and_exit_code(self, tmp_path,
                                                      monkeypatch, capsys):
        import repro.experiments as experiments

        def exploding_experiment(scale="smoke", seed=1):
            raise ValueError("deliberately broken experiment")

        monkeypatch.setitem(experiments.REGISTRY, "chaos_boom",
                            exploding_experiment)
        save_dir = tmp_path / "results"
        assert main(["chaos_boom", "hw_cost", "--save-dir", str(save_dir),
                     "--no-progress"]) == 1
        out = capsys.readouterr().out
        # ValueError is deterministic: one attempt, no retry.
        assert ("=== chaos_boom (smoke, seed 1) FAILED: error after 1 "
                "attempt(s): ValueError: deliberately broken experiment"
                ) in out
        assert "1 experiment(s) failed: ['chaos_boom']" in out
        # The rest of the sweep still ran and saved; nothing else is
        # written next to the results.
        assert sorted(path.name for path in save_dir.iterdir()) == [
            "hw_cost.json"]


class TestDiffCommand:
    """python -m repro.experiments --diff BEFORE_DIR AFTER_DIR."""

    def save(self, directory, summary):
        from repro.experiments.common import Result
        from repro.experiments.store import save_result

        result = Result(experiment="fake", title="t", headers=["h"],
                        rows=[[1]], summary=dict(summary))
        save_result(result, directory / "fake.json")

    def test_identical_dirs_exit_zero(self, tmp_path, capsys):
        before, after = tmp_path / "a", tmp_path / "b"
        self.save(before, {"metric": 1.0})
        self.save(after, {"metric": 1.0})
        assert main(["--diff", str(before), str(after)]) == 0
        out = capsys.readouterr().out
        assert "metric" in out
        assert "0 significant change(s)" in out

    def test_significant_change_exits_nonzero(self, tmp_path, capsys):
        before, after = tmp_path / "a", tmp_path / "b"
        self.save(before, {"metric": 1.0})
        self.save(after, {"metric": 2.0})
        assert main(["--diff", str(before), str(after)]) == 1
        out = capsys.readouterr().out
        assert "+100.00%" in out

    def test_within_tolerance_exits_zero(self, tmp_path):
        before, after = tmp_path / "a", tmp_path / "b"
        self.save(before, {"metric": 1.0})
        self.save(after, {"metric": 1.01})
        assert main(["--diff", str(before), str(after)]) == 0
        assert main(["--diff", str(before), str(after),
                     "--diff-tolerance", "0.001"]) == 1

    def test_no_common_files_exits_nonzero(self, tmp_path, capsys):
        before, after = tmp_path / "a", tmp_path / "b"
        before.mkdir(), after.mkdir()
        assert main(["--diff", str(before), str(after)]) == 1
        assert "no common experiment files" in capsys.readouterr().out


class TestDiffSymmetry:
    """Experiments present on only one side fail the diff both ways."""

    def save(self, directory, name, summary):
        from repro.experiments.common import Result
        from repro.experiments.store import save_result

        result = Result(experiment=name, title="t", headers=["h"],
                        rows=[[1]], summary=dict(summary))
        save_result(result, directory / f"{name}.json")

    def test_missing_from_after_exits_nonzero(self, tmp_path, capsys):
        before, after = tmp_path / "a", tmp_path / "b"
        self.save(before, "common", {"metric": 1.0})
        self.save(before, "gone", {"metric": 1.0})
        self.save(after, "common", {"metric": 1.0})
        assert main(["--diff", str(before), str(after)]) == 1
        out = capsys.readouterr().out
        assert f"missing: gone present only in {before}" in out
        assert "1 experiment(s) missing from one side" in out

    def test_missing_from_before_exits_nonzero(self, tmp_path, capsys):
        before, after = tmp_path / "a", tmp_path / "b"
        self.save(before, "common", {"metric": 1.0})
        self.save(after, "common", {"metric": 1.0})
        self.save(after, "novel", {"metric": 1.0})
        assert main(["--diff", str(before), str(after)]) == 1
        out = capsys.readouterr().out
        assert f"missing: novel present only in {after}" in out

    def test_symmetric_reporting_both_directions(self, tmp_path, capsys):
        """Swapping the argument order reports the same missing set."""
        left, right = tmp_path / "a", tmp_path / "b"
        self.save(left, "common", {"metric": 1.0})
        self.save(left, "leftonly", {"metric": 1.0})
        self.save(right, "common", {"metric": 1.0})
        self.save(right, "rightonly", {"metric": 1.0})
        assert main(["--diff", str(left), str(right)]) == 1
        forward = capsys.readouterr().out
        assert main(["--diff", str(right), str(left)]) == 1
        backward = capsys.readouterr().out
        for out in (forward, backward):
            assert "leftonly" in out
            assert "rightonly" in out
            assert "2 experiment(s) missing from one side" in out

    def test_metric_missing_either_side_is_significant(self, tmp_path,
                                                       capsys):
        before, after = tmp_path / "a", tmp_path / "b"
        self.save(before, "common", {"kept": 1.0, "dropped": 2.0})
        self.save(after, "common", {"kept": 1.0, "added": 3.0})
        assert main(["--diff", str(before), str(after)]) == 1
        out = capsys.readouterr().out
        assert "dropped" in out and "added" in out
        assert "missing" in out  # rendered as a missing-side value


def campaign_id(out):
    return re.search(r"^campaign (\w+):", out, re.MULTILINE).group(1)


def run_campaign(root, capsys, *extra):
    status = main(["hw_cost", "--campaign", str(root), "--no-progress",
                   *extra])
    return status, capsys.readouterr().out


class TestCampaign:
    """--campaign: the one result store, resumed by re-running."""

    def test_live_fingerprint_changes_with_source(self, tmp_path):
        from repro.runner import code_fingerprint, fingerprint_tree

        (tmp_path / "a.py").write_text("x = 1\n")
        before = fingerprint_tree(tmp_path)
        (tmp_path / "a.py").write_text("x = 2\n")
        assert fingerprint_tree(tmp_path) != before
        assert len(code_fingerprint()) == 64

    def test_save_dir_refused_with_several_seeds(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["hw_cost", "--campaign", str(tmp_path / "camp"),
                  "--campaign-seeds", "1", "2",
                  "--save-dir", str(tmp_path / "results")])
        assert not (tmp_path / "camp").exists()


class TestCacheFingerprintInterplay:
    """Resuming a campaign never serves a result of other code, nor a
    damaged one."""

    def test_code_fingerprint_change_defeats_resume(self, tmp_path, capsys,
                                                    monkeypatch):
        from repro.runner import fingerprint

        root = tmp_path / "camp"
        status, first = run_campaign(root, capsys)
        assert status == 0 and "drained: 1 done, 0 failed" in first
        status, resumed = run_campaign(root, capsys)
        assert status == 0 and "drained: 0 done, 0 failed" in resumed
        assert campaign_id(resumed) == campaign_id(first)
        # Same command, but the source tree "changed": the re-run must
        # execute the job again, never serve the old code's result.
        monkeypatch.setattr(fingerprint, "fingerprint_tree",
                            lambda root: "a-different-source-tree")
        fingerprint.code_fingerprint.cache_clear()
        try:
            status, changed = run_campaign(root, capsys)
        finally:
            monkeypatch.undo()
            fingerprint.code_fingerprint.cache_clear()
        assert status == 0 and "drained: 1 done, 0 failed" in changed
        assert campaign_id(changed) != campaign_id(first)
        stamps = sorted(json.loads(path.read_text())["code_fingerprint"]
                        for path in root.glob("*/results/*.json"))
        assert stamps == sorted([fingerprint.code_fingerprint(),
                                 "a-different-source-tree"])

    def test_corrupt_entry_recomputed_then_cached_again(self, tmp_path,
                                                        capsys):
        from repro.fabric.__main__ import main as fabric_main

        root = tmp_path / "camp"
        assert run_campaign(root, capsys)[0] == 0
        (result_path,) = root.glob("*/results/*.json")
        result_path.write_text("{torn", encoding="utf-8")
        status, damaged = run_campaign(root, capsys)
        assert status == 3
        assert "drained: 0 done" in damaged
        assert "=== hw_cost (smoke, seed 1) MISSING" in damaged
        assert "core fraction" not in damaged
        # The line names the repair; running it makes the job runnable.
        repair = re.search(r"python -m repro\.fabric (doctor .*--repair)",
                           damaged).group(1).split()
        assert fabric_main(repair) == 1  # one finding, repaired
        capsys.readouterr()
        status, repaired = run_campaign(root, capsys)
        assert status == 0
        assert "drained: 1 done, 0 failed" in repaired
        assert "MISSING" not in repaired
        assert "core fraction" in repaired
        status, cached = run_campaign(root, capsys)
        assert status == 0 and "drained: 0 done, 0 failed" in cached
