"""The fabric hardening layer: fault injection, verified writes,
quarantine, doctor, dispositions, and the lease renewer's clock seam.

``FaultyFS`` tests pin the *injection* semantics (deterministic from
the plan, honest failure footprints, bit-neutral when quiescent); the
queue tests pin the *recovery* semantics those injections exercise.
The chaos suite (``tests/test_resilience_chaos.py``) then drives both
ends together through whole campaigns.
"""

import errno
import json
import os
import pickle

import pytest

from repro.fabric.doctor import diagnose
from repro.fabric.harden import (FAULT_CLASSES, FaultPlan, FaultPlanError,
                                 FaultyFS, total_injections)
from repro.fabric.manifest import parse_manifest
from repro.fabric.queue import (DISPOSITION_COMPLETE, DISPOSITION_DEGRADED,
                                DISPOSITION_WEDGED, REASON_DETERMINISTIC,
                                REASON_EXHAUSTED, CampaignQueue, Diagnosis,
                                QueueError)
from repro.fabric.service import _LeaseRenewer, work_campaign
from repro.fabric.supervise import run_supervisor
from repro.runner import wallclock


def make_queue(tmp_path, fn="tests._fabric_jobs:add_one",
               values=(1, 2), name="h") -> CampaignQueue:
    manifest = parse_manifest({
        "name": name, "fn": fn, "grid": {"x": list(values)},
        "policy": {"retries": 0}})
    return CampaignQueue.submit(tmp_path / "root", manifest)


def done_record(queue, index):
    spec = queue.load_spec(index)
    return {"status": "done", "job_index": index, "job_id": spec.job_id,
            "metrics": {"value": 1.0}}


class TestFaultPlan:
    def test_parse_spec_round_trip(self):
        plan = FaultPlan.parse("seed=7,rate=0.05,faults=enospc+eio,limit=3")
        assert plan == FaultPlan(seed=7, rate=0.05,
                                 faults=("enospc", "eio"), limit=3)
        assert FaultPlan.parse(plan.spec()) == plan

    def test_defaults_are_quiescent_all_faults(self):
        plan = FaultPlan.parse("")
        assert plan.rate == 0.0
        assert plan.faults == FAULT_CLASSES
        assert plan.limit is None

    def test_malformed_specs_raise(self):
        with pytest.raises(FaultPlanError, match="key=value"):
            FaultPlan.parse("seed")
        with pytest.raises(FaultPlanError, match="unknown key"):
            FaultPlan.parse("sneed=7")
        with pytest.raises(FaultPlanError, match="bad value"):
            FaultPlan.parse("rate=often")
        with pytest.raises(FaultPlanError, match="rate must be"):
            FaultPlan.parse("rate=2.0")
        with pytest.raises(FaultPlanError, match="unknown fault"):
            FaultPlan.parse("faults=gremlins")


class TestFaultyFS:
    def _exercise(self, shim, base):
        """A fixed op sequence; returns the observable outcome trace."""
        shim.mkdir(base)
        trace = []
        for i in range(30):
            path = base / f"f{i}.json"
            try:
                shim.write_atomic(path, f"payload-{i}" * 4)
                trace.append(f"w{i}:ok")
            except OSError as exc:
                trace.append(f"w{i}:{exc.errno}")
            try:
                shim.read_text(path)
                trace.append(f"r{i}:ok")
            except OSError as exc:
                trace.append(f"r{i}:{exc.errno}")
        return trace

    def test_same_plan_same_injections(self, tmp_path):
        plan = FaultPlan(seed=3, rate=0.3)
        first = FaultyFS(plan)
        second = FaultyFS(plan)
        trace_a = self._exercise(first, tmp_path / "a")
        trace_b = self._exercise(second, tmp_path / "b")
        assert trace_a == trace_b
        assert first.injected == second.injected
        assert first.total_injected >= 1  # the plan actually fired

    def test_quiescent_shim_is_bit_neutral(self, tmp_path):
        shim = FaultyFS(FaultPlan(seed=9, rate=0.0))
        path = tmp_path / "doc.json"
        shim.write_atomic(path, "exact bytes")
        assert shim.read_text(path) == "exact bytes"
        assert path.read_text(encoding="utf-8") == "exact bytes"
        assert shim.injected == {}
        assert shim.total_injected == 0
        assert shim.operations >= 2  # routed, counted, untouched

    def test_limit_caps_total_injections(self, tmp_path):
        shim = FaultyFS(FaultPlan(seed=1, rate=1.0, faults=("eio",),
                                  limit=2))
        path = tmp_path / "f.json"
        path.write_text("v", encoding="utf-8")
        failures = 0
        for _ in range(10):
            try:
                shim.read_text(path)
            except OSError:
                failures += 1
        assert failures == 2  # exactly the first N are sick, then heals
        assert shim.injected == {"eio": 2}

    def test_short_write_commits_truncated_prefix_silently(self, tmp_path):
        shim = FaultyFS(FaultPlan(seed=1, rate=1.0,
                                  faults=("short-write",), limit=1))
        path = tmp_path / "f.json"
        shim.write_atomic(path, "x" * 10)  # returns success -- the lie
        assert path.read_text(encoding="utf-8") == "x" * 5
        shim.write_atomic(path, "x" * 10)  # healed
        assert path.read_text(encoding="utf-8") == "x" * 10

    def test_torn_rename_leaves_debris_and_fails(self, tmp_path):
        shim = FaultyFS(FaultPlan(seed=1, rate=1.0,
                                  faults=("torn-rename",), limit=1))
        path = tmp_path / "f.json"
        with pytest.raises(OSError) as excinfo:
            shim.write_atomic(path, "content")
        assert excinfo.value.errno == errno.EIO
        assert not path.exists()  # destination never replaced
        assert (tmp_path / ".f.json.torn.tmp").exists()  # the footprint
        shim.write_atomic(path, "content")
        assert path.read_text(encoding="utf-8") == "content"

    def test_enospc_raises_before_any_mutation(self, tmp_path):
        for operation in ("write_atomic", "create_exclusive"):
            shim = FaultyFS(FaultPlan(seed=1, rate=1.0,
                                      faults=("enospc",), limit=1))
            path = tmp_path / f"{operation}.json"
            with pytest.raises(OSError) as excinfo:
                getattr(shim, operation)(path, "content")
            assert excinfo.value.errno == errno.ENOSPC
            assert not path.exists()

    def test_stale_read_serves_previous_committed_version(self, tmp_path):
        shim = FaultyFS(FaultPlan(seed=1, rate=1.0,
                                  faults=("stale-read",), limit=1))
        path = tmp_path / "f.json"
        shim.write_atomic(path, "version 1")  # writes never inject here
        shim.write_atomic(path, "version 2")
        assert shim.read_text(path) == "version 1"  # the cache lie
        assert shim.read_text(path) == "version 2"  # cache expired
        assert shim.injected == {"stale-read": 1}

    def test_stale_read_of_fresh_file_is_honest(self, tmp_path):
        # A path written exactly once has no previous version to lie
        # with; the shim must fall through to real content.
        shim = FaultyFS(FaultPlan(seed=1, rate=1.0,
                                  faults=("stale-read",)))
        path = tmp_path / "f.json"
        shim.write_atomic(path, "only version")
        assert shim.read_text(path) == "only version"


class TestVerifiedWrites:
    def test_short_write_caught_and_retried(self, tmp_path):
        queue = make_queue(tmp_path)
        queue.storage = FaultyFS(FaultPlan(seed=1, rate=1.0,
                                           faults=("short-write",),
                                           limit=1),
                                 inner=queue.storage)
        path = queue.result_path(0)
        queue._write_verified(path, {"value": 42}, "result")
        assert json.loads(path.read_text(encoding="utf-8")) \
            == {"value": 42}
        assert queue.storage.injected == {"short-write": 1}
        assert queue.corruption.total == 0  # recovered, not corrupted

    def test_persistent_corruption_raises_and_is_counted(self, tmp_path):
        queue = make_queue(tmp_path)
        queue.storage = FaultyFS(FaultPlan(seed=1, rate=1.0,
                                           faults=("short-write",)),
                                 inner=queue.storage)
        with pytest.raises(QueueError, match="could not durably write"):
            queue._write_verified(queue.result_path(0), {"value": 42},
                                  "result")
        assert queue.corruption.total == 1
        assert queue.corruption.by_category == {"result": 1}

    def test_missing_and_damaged_are_distinguished(self, tmp_path):
        queue = make_queue(tmp_path)
        document, state = queue._load_classified(
            queue.result_path(0), "result")
        assert (document, state) == (None, "missing")
        assert queue.corruption.total == 0  # missing is normal, not sick
        queue.result_path(0).parent.mkdir(parents=True, exist_ok=True)
        queue.result_path(0).write_text("{torn", encoding="utf-8")
        document, state = queue._load_classified(
            queue.result_path(0), "result")
        assert (document, state) == (None, "damaged")
        assert queue.corruption.by_category == {"result": 1}
        assert queue.corruption.as_dict()["examples"]


class TestQuarantine:
    def test_deterministic_failure_quarantined_on_first_attempt(
            self, tmp_path):
        queue = make_queue(tmp_path, fn="tests._fabric_jobs:fail_on_odd",
                           values=(1, 2))
        counters = work_campaign(queue, jobs=1, pool=False, retries=0)
        assert counters["done"] == 1
        assert counters["quarantined"] == 1
        assert counters["released"] == 0  # never released for retry
        assert counters["disposition"] == DISPOSITION_DEGRADED
        assert queue.dead_letter_indices() == [0]
        diagnosis = queue.load_diagnosis(0)
        assert diagnosis.reason == REASON_DETERMINISTIC
        assert diagnosis.error_type == "ValueError"
        assert diagnosis.attempts == 1
        record = queue.load_result(0)
        assert record["error"] == ("quarantined[deterministic-error]: "
                                   "error: ValueError: odd input 1")
        assert record["attempts"] == 1

    def test_nondeterministic_failure_burns_ledger_to_quarantine(
            self, tmp_path):
        queue = make_queue(tmp_path, fn="tests._fabric_jobs:always_crash",
                           values=(1,))
        counters = work_campaign(queue, jobs=1, pool=False, retries=0,
                                 max_attempts=2, poll_seconds=0.01)
        assert counters["released"] == 1   # attempt 1: retryable
        assert counters["quarantined"] == 1  # attempt 2: budget spent
        assert counters["disposition"] == DISPOSITION_DEGRADED
        diagnosis = queue.load_diagnosis(0)
        assert diagnosis.reason == REASON_EXHAUSTED
        assert diagnosis.attempts == 2
        assert len(diagnosis.history) == 2  # the ledger survived release
        assert all(event["error_type"] == "RuntimeError"
                   for event in diagnosis.history)
        # The error column is canonical: no machine-state luck (which
        # message the job last died with) leaks into the fingerprint.
        assert queue.load_result(0)["error"] == (
            "quarantined[attempts-exhausted]: retry budget exhausted "
            "(non-deterministic failures)")

    def test_claim_time_backstop_quarantines_spent_ledger(self, tmp_path):
        # The worker-died-every-time case: the ledger count rises on
        # every claim even when no worker survives to record a failure,
        # so claim_next itself must eventually refuse and quarantine.
        queue = make_queue(tmp_path, values=(1,))
        for _ in range(2):
            job = queue.claim_next("doomed", lease_seconds=0.0)
            assert job is not None
            queue.release(job.index)
        assert queue.claim_next("w", max_attempts=2) is None
        assert queue.dead_letter_indices() == [0]
        diagnosis = queue.load_diagnosis(0)
        assert diagnosis.reason == REASON_EXHAUSTED
        assert diagnosis.error_type == "WorkerLost"  # no recorded event
        assert queue.is_drained()  # terminal: the campaign can finish

    def test_diagnosis_is_plain_picklable_data(self):
        diagnosis = Diagnosis(
            job_index=3, job_id="j[3]", spec_hash="ab" * 32,
            reason=REASON_DETERMINISTIC, kind="error",
            error_type="ValueError", message="odd input 1",
            traceback="Traceback ...", attempts=1,
            history=({"kind": "error", "attempt": 1},))
        clone = pickle.loads(pickle.dumps(diagnosis))
        assert clone == diagnosis
        round_trip = Diagnosis.from_dict(diagnosis.as_dict())
        assert round_trip == diagnosis

    def test_from_dict_ignores_unknown_keys(self):
        document = Diagnosis(
            job_index=0, job_id="j", spec_hash="", reason=REASON_EXHAUSTED,
            kind="crash", error_type="WorkerLost", message="",
            traceback="", attempts=4).as_dict()
        document["added_in_a_future_version"] = True
        assert Diagnosis.from_dict(document).attempts == 4


class TestRequeue:
    def test_requeue_restores_runnability(self, tmp_path):
        queue = make_queue(tmp_path, fn="tests._fabric_jobs:fail_on_odd",
                           values=(1, 2))
        work_campaign(queue, jobs=1, pool=False, retries=0)
        assert queue.dead_letter_indices() == [0]
        diagnosis = queue.requeue(0)
        assert diagnosis.reason == REASON_DETERMINISTIC
        assert queue.dead_letter_indices() == []
        assert not queue.has_result(0)
        job = queue.claim_next("again")
        assert job is not None and job.index == 0
        assert job.attempt == 1  # the ledger was cleared too

    def test_requeue_without_dead_letter_raises(self, tmp_path):
        queue = make_queue(tmp_path, values=(1,))
        with pytest.raises(QueueError, match="no dead-letter entry"):
            queue.requeue(0)

    def test_requeue_refuses_to_clobber_success(self, tmp_path):
        queue = make_queue(tmp_path, fn="tests._fabric_jobs:fail_on_odd",
                           values=(1,))
        work_campaign(queue, jobs=1, pool=False, retries=0)
        # The job later succeeded (say, after a code fix and manual
        # re-run); its dead letter is historical, not actionable.
        queue._write_verified(queue.result_path(0), done_record(queue, 0),
                              "result")
        with pytest.raises(QueueError, match="refusing to requeue"):
            queue.requeue(0)


class TestDispositions:
    def test_complete(self, tmp_path):
        queue = make_queue(tmp_path, values=(1,))
        work_campaign(queue, jobs=1, pool=False)
        assert queue.snapshot()["disposition"] == DISPOSITION_COMPLETE

    def test_damaged_result_degrades_a_drained_campaign(self, tmp_path):
        queue = make_queue(tmp_path, values=(1, 2))
        work_campaign(queue, jobs=1, pool=False)
        queue.result_path(1).write_text("{torn", encoding="utf-8")
        snapshot = queue.snapshot()
        assert snapshot["damaged"] == 1
        assert snapshot["disposition"] == DISPOSITION_DEGRADED
        assert snapshot["corruption"]["by_category"] == {"result": 1}

    def test_damaged_spec_with_nothing_running_is_wedged(self, tmp_path):
        queue = make_queue(tmp_path, values=(1, 2))
        job = queue.claim_next("w")
        queue.complete(job, done_record(queue, job.index))
        (queue.jobs_dir / "000001.json").write_text("{torn",
                                                    encoding="utf-8")
        snapshot = queue.snapshot()
        assert snapshot["pending"] == 1
        assert snapshot["unrunnable"] == 1
        assert snapshot["disposition"] == DISPOSITION_WEDGED
        # No worker can claim it -- the wedge is real, not transient.
        assert queue.claim_next("w") is None

    def test_damaged_claim_counts_stale_and_is_stolen(self, tmp_path):
        queue = make_queue(tmp_path, values=(1,))
        queue.claim_next("victim", lease_seconds=3600)
        queue._claim_path(0).write_text("{torn", encoding="utf-8")
        snapshot = queue.snapshot()
        assert snapshot["stale"] == 1  # cannot prove liveness: stealable
        assert snapshot["corruption"]["total"] >= 1
        thief = queue.claim_next("thief")
        assert thief is not None and thief.index == 0


class TestDoctor:
    def test_clean_campaign_is_clean(self, tmp_path):
        queue = make_queue(tmp_path)
        work_campaign(queue, jobs=1, pool=False)
        report = diagnose(queue)
        assert report["clean"] and report["findings"] == []

    def test_orphaned_claim_released(self, tmp_path):
        queue = make_queue(tmp_path, values=(1,))
        job = queue.claim_next("w", lease_seconds=3600)
        # Result lands but the release is lost (crash between the two).
        queue._write_verified(queue.result_path(0),
                              done_record(queue, 0), "result")
        report = diagnose(queue, repair=True)
        assert report["by_category"] == {"orphaned-claim": 1}
        assert report["repaired"] == 1
        assert diagnose(queue)["clean"]
        assert job is not None  # silence the unused-name linters

    def test_damaged_result_deleted_and_job_reruns(self, tmp_path):
        queue = make_queue(tmp_path, values=(1,))
        work_campaign(queue, jobs=1, pool=False)
        queue.result_path(0).write_text("{torn", encoding="utf-8")
        report = diagnose(queue, repair=True)
        assert report["by_category"] == {"damaged-result": 1}
        assert not queue.has_result(0)
        assert queue.claim_next("again") is not None  # deterministic rerun

    def test_stale_dead_letter_deleted(self, tmp_path):
        queue = make_queue(tmp_path, fn="tests._fabric_jobs:fail_on_odd",
                           values=(1,))
        work_campaign(queue, jobs=1, pool=False, retries=0)
        queue._write_verified(queue.result_path(0),
                              done_record(queue, 0), "result")
        report = diagnose(queue, repair=True)
        assert report["by_category"] == {"dead-letter-stale": 1}
        assert queue.dead_letter_indices() == []

    def test_interrupted_quarantine_requarantined(self, tmp_path):
        queue = make_queue(tmp_path, fn="tests._fabric_jobs:fail_on_odd",
                           values=(1,))
        work_campaign(queue, jobs=1, pool=False, retries=0)
        expected = queue.load_result(0)
        queue.storage.unlink(queue.result_path(0))  # the crash window
        report = diagnose(queue, repair=True)
        assert report["by_category"] == {"dead-letter-no-result": 1}
        # The terminal result is rebuilt from the stored diagnosis,
        # byte-identical to the one the interrupted quarantine wrote.
        assert queue.load_result(0) == expected

    def test_debris_swept(self, tmp_path):
        queue = make_queue(tmp_path, values=(1,))
        debris = queue.results_dir / ".000000.json.torn.tmp"
        debris.write_text("half", encoding="utf-8")
        report = diagnose(queue, repair=True)
        assert report["by_category"] == {"debris": 1}
        assert not debris.exists()

    def test_damaged_job_is_reported_not_repaired(self, tmp_path):
        queue = make_queue(tmp_path, values=(1,))
        (queue.jobs_dir / "000000.json").write_text("{torn",
                                                    encoding="utf-8")
        report = diagnose(queue, repair=True)
        assert report["by_category"] == {"damaged-job": 1}
        assert report["repaired"] == 0
        assert report["unrepairable"] == 1  # doctor cannot invent a spec


class TestLeaseRenewerClock:
    def test_backward_clock_skew_renews_immediately(self, tmp_path,
                                                    monkeypatch):
        queue = make_queue(tmp_path, values=(1,))
        job = queue.claim_next("w", lease_seconds=30.0)
        held = {job.spec.job_id: job}
        renewer = _LeaseRenewer(queue, held, 30.0)

        monkeypatch.setattr(wallclock, "now", lambda: 1000.0)
        renewer([job.spec.job_id])
        assert renewer._renewed_at[job.spec.job_id] == 1000.0

        # Within a third of the lease: nothing due, stamp untouched.
        monkeypatch.setattr(wallclock, "now", lambda: 1005.0)
        renewer([job.spec.job_id])
        assert renewer._renewed_at[job.spec.job_id] == 1000.0

        # The clock steps backwards (VM suspend / NTP).  The future-
        # dated stamp must not defer renewal while the epoch-based
        # lease ages toward a steal: skew means "renew now".
        monkeypatch.setattr(wallclock, "now", lambda: 500.0)
        renewer([job.spec.job_id])
        assert renewer._renewed_at[job.spec.job_id] == 500.0

    def test_released_job_not_renewed(self, tmp_path, monkeypatch):
        queue = make_queue(tmp_path, values=(1,))
        job = queue.claim_next("w", lease_seconds=30.0)
        renewer = _LeaseRenewer(queue, {job.spec.job_id: job}, 30.0)
        queue.release(job.index)
        monkeypatch.setattr(wallclock, "now", lambda: 1000.0)
        renewer([job.spec.job_id])
        assert job.spec.job_id not in renewer._renewed_at
        assert queue.claim_next("b") is not None  # not resurrected


class TestFaultedCampaigns:
    def test_campaign_survives_seeded_fault_storm(self, tmp_path):
        reference = make_queue(tmp_path / "ref",
                               fn="tests._fabric_jobs:scaled_metric",
                               values=(1, 2, 3))
        work_campaign(reference, jobs=1, pool=False)

        queue = make_queue(tmp_path / "sick",
                           fn="tests._fabric_jobs:scaled_metric",
                           values=(1, 2, 3))
        shim = FaultyFS(FaultPlan(seed=5, rate=0.15), inner=queue.storage)
        queue.storage = shim
        counters = work_campaign(queue, jobs=1, pool=False,
                                 poll_seconds=0.01)
        assert counters["disposition"] == DISPOSITION_COMPLETE
        assert queue.is_drained()

        from repro.fabric.db import ResultsDb
        with ResultsDb(tmp_path / "a.sqlite") as db:
            db.merge_queue(reference)
            left = db.fingerprint(reference.campaign_id)
        healthy = CampaignQueue(tmp_path / "sick" / "root",
                                queue.campaign_id)
        with ResultsDb(tmp_path / "b.sqlite") as db:
            db.merge_queue(healthy)
            assert db.fingerprint(healthy.campaign_id) == left

    def test_injection_sidecars_are_summed(self, tmp_path):
        queue = make_queue(tmp_path, values=(1,))
        directory = queue.directory
        (directory / "fault-injections-11.json").write_text(
            json.dumps({"total_injected": 2}), encoding="utf-8")
        (directory / "fault-injections-12.json").write_text(
            json.dumps({"total_injected": 3}), encoding="utf-8")
        (directory / "fault-injections-13.json").write_text(
            "{torn", encoding="utf-8")  # a sick sidecar is skipped
        assert total_injections(directory) == 5
        assert total_injections(tmp_path / "nowhere") == 0


def _processes_naming(fragment: str):
    """PIDs whose command line contains ``fragment`` (zombies have none)."""
    needle = fragment.encode()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/cmdline", "rb") as handle:
                cmdline = handle.read()
        except OSError:
            continue
        if needle in cmdline:
            found.append(int(entry))
    return found


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
class TestSupervisorShutdown:
    def test_stop_mid_job_leaves_no_pool_process(self, tmp_path):
        # Both pools are mid-job (inside their process-pool children) when
        # the deadline stops the fleet; shutdown must take the children
        # down with the workers, not orphan them.
        manifest = parse_manifest({
            "name": "orphans", "fn": "repro.resilience.chaos:chaos_slow_echo",
            "grid": {"value": [1, 2, 3, 4]}, "fixed": {"delay": 60.0}})
        queue = CampaignQueue.submit(tmp_path / "root", manifest)
        report = run_supervisor(queue, pools=2, jobs=1, lease_seconds=120.0,
                                timeout=5.0, echo=lambda *_args: None)
        assert report["timed_out"]
        root = str(queue.root)
        deadline = wallclock.now() + 5.0
        while _processes_naming(root) and wallclock.now() < deadline:
            wallclock.sleep(0.1)
        assert _processes_naming(root) == []
