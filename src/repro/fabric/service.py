"""Worker pools and drain loops over a campaign queue.

``work_campaign`` is the long-lived loop behind ``python -m repro.fabric
work``: claim a batch of jobs, execute them through the existing
:class:`~repro.runner.engine.Runner` (per-job SIGALRM timeouts, bounded
retry, worker-crash recovery, per-job checkpoints under the campaign's
``checkpoints/`` directory), renew the leases while jobs run, and write
terminal results back to the queue.  Several pools drain one campaign
concurrently; a pool that dies stops renewing and its claims are stolen
after lease expiry -- the stolen job's retry then *resumes* from the
victim's checkpoint instead of restarting, exactly the runner's existing
recovery path.

``run_campaign_serial`` is the bit-identical reference: one worker, one
job at a time, in index order.  Because terminal results are a pure
function of each spec and the database merge is keyed by job index, the
serial and any-concurrency drains produce fingerprint-identical
databases (proven by ``python -m repro.fabric selfcheck`` and the CI
``fabric-smoke`` job).

``FabricBatchEvaluator`` routes GA generations through the same
machinery: each generation's fresh genome evaluations are submitted as
one campaign batch, which ambient worker pools may help drain.
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Optional, Sequence

from ..runner import Runner, RunnerConfig, wallclock
from ..runner.engine import JobFailure, JobOutcome
from ..runner.fingerprint import code_fingerprint
from ..runner.jobspec import JobSpec
from .db import encode_value, extract_metrics
from .queue import (DEFAULT_LEASE_SECONDS, DEFAULT_MAX_ATTEMPTS,
                    REASON_DETERMINISTIC, REASON_EXHAUSTED, RESULT_DONE,
                    RESULT_FAILED, CampaignQueue, ClaimedJob, Diagnosis)

#: default seconds between idle polls while other pools hold live leases
DEFAULT_POLL_SECONDS = 0.5


def default_worker_id() -> str:
    """Host-qualified worker identity (claims must be attributable)."""
    try:
        host = os.uname().nodename
    except (AttributeError, OSError):
        host = "host"
    return f"{host}:{os.getpid()}"


# ----------------------------------------------------------------------
# result records


def result_record(index: int, spec: JobSpec,
                  outcome: JobOutcome, worker: str,
                  lease_generation: int) -> Dict[str, Any]:
    """The terminal JSON document for one job.

    Deterministic fields first (identity, status, metrics, value,
    error, code fingerprint) -- these are what the database fingerprint
    covers.  Provenance (worker, attempts, lease generation, duration)
    rides along for ``status``/``query`` but never enters the
    fingerprint: a crash-recovered run legitimately differs there.
    """
    if outcome.ok:
        return {
            "job_index": index, "job_id": spec.job_id,
            "spec_hash": spec.spec_hash(),
            "seed": spec.seed, "scale": spec.scale,
            "status": RESULT_DONE,
            "metrics": extract_metrics(outcome.value),
            "value_json": encode_value(outcome.value),
            "error": None,
            "code_fingerprint": code_fingerprint(),
            "attempts": outcome.attempts,
            "lease_generation": lease_generation,
            "worker": worker,
            "duration": outcome.duration,
        }
    failure = outcome.failure
    return {
        "job_index": index, "job_id": spec.job_id,
        "spec_hash": spec.spec_hash(),
        "seed": spec.seed, "scale": spec.scale,
        "status": RESULT_FAILED,
        "metrics": {},
        "value_json": None,
        "error": f"{failure.kind}: {failure.error_type}: {failure.message}",
        "code_fingerprint": code_fingerprint(),
        "attempts": outcome.attempts,
        "lease_generation": lease_generation,
        "worker": worker,
        "duration": outcome.duration,
    }


# ----------------------------------------------------------------------
# the drain loop


class _LeaseRenewer:
    """Runner heartbeat that renews held leases at ~1/3 lease period."""

    def __init__(self, queue: CampaignQueue, held: Dict[str, ClaimedJob],
                 lease_seconds: float) -> None:
        self.queue = queue
        self.held = held
        self.lease_seconds = lease_seconds
        self._renewed_at: Dict[str, float] = {}

    def __call__(self, job_ids: Sequence[str]) -> None:
        now = wallclock.now()
        due = now - self.lease_seconds / 3.0
        for job_id in job_ids:
            job = self.held.get(job_id)
            if job is None:
                continue
            last = self._renewed_at.get(job_id, -1e18)
            if last > now:
                # The clock went backwards (VM suspend, NTP step, a
                # monkeypatched seam): a future-dated stamp would defer
                # renewal until the clock catches up, while the
                # epoch-based lease keeps aging toward a steal.  Treat
                # skew as "renew now".
                last = -1e18
            if last <= due:
                if self.queue.renew(job, self.lease_seconds):
                    self._renewed_at[job_id] = now


def work_campaign(queue: CampaignQueue,
                  worker: Optional[str] = None,
                  jobs: int = 1,
                  lease_seconds: float = DEFAULT_LEASE_SECONDS,
                  poll_seconds: float = DEFAULT_POLL_SECONDS,
                  wait_for_drain: bool = True,
                  max_jobs: Optional[int] = None,
                  retries: int = 2,
                  max_attempts: Optional[int] = DEFAULT_MAX_ATTEMPTS,
                  progress: bool = False,
                  pool: bool = True,
                  die_after_claims: Optional[int] = None) -> Dict[str, Any]:
    """Drain ``queue`` until it is finished (or nothing is claimable).

    ``jobs`` is this pool's width: up to that many claims are held and
    executed concurrently through one :class:`Runner`.  ``pool=False``
    executes claims inline in this process (the serial reference and
    the GA batch path); ``pool=True`` uses a process pool even for
    ``jobs=1`` so per-job SIGALRM timeouts apply and a dying job cannot
    take the claim bookkeeping down with it.

    ``wait_for_drain=True`` keeps polling while other pools hold live
    leases -- necessary to *steal* from a pool that dies.  ``max_jobs``
    bounds how many jobs this call will execute (load shedding and
    tests).  ``die_after_claims`` is a chaos hook: the process exits
    hard (``os._exit``) once that many claims are held, modelling a
    ``kill -9`` mid-campaign with leases dangling.

    Failure policy (the poison-job contract): a **deterministic**
    failure (runner taxonomy -- StarvationError/ValueError/
    AssertionError ancestry) is quarantined on its *first* failure;
    anything else (timeout, crash) releases the claim for another
    attempt until the durable ledger count reaches ``max_attempts``,
    then quarantines.  Either way the campaign terminates: poison lands
    in the dead-letter directory and everything else drains.

    Returns counters ``{"executed", "done", "failed", "stolen",
    "quarantined", "released"}`` plus the final campaign
    ``"disposition"``.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    worker = worker or default_worker_id()
    executed = done = failed = stolen = quarantined = released = 0
    idle_wedged = 0

    config = RunnerConfig(jobs=jobs, retries=retries, progress=progress,
                          checkpoint_dir=str(queue.checkpoints_dir))
    with Runner(config) as runner:
        while True:
            if max_jobs is not None and executed >= max_jobs:
                break
            claimed: List[ClaimedJob] = []
            while len(claimed) < jobs:
                if max_jobs is not None \
                        and executed + len(claimed) >= max_jobs:
                    break
                job = queue.claim_next(worker, lease_seconds,
                                       max_attempts=max_attempts)
                if job is None:
                    break
                claimed.append(job)
                if job.attempt > 1:
                    stolen += 1
                if die_after_claims is not None \
                        and len(claimed) >= die_after_claims:
                    # Chaos hook: die with leases held, like kill -9.
                    os._exit(137)

            if not claimed:
                if queue.is_drained() or not wait_for_drain:
                    break
                snap = queue.snapshot()
                if snap["running"] == 0 and snap["stale"] == 0:
                    # Nothing claimable, nothing running, nothing to
                    # steal, not drained: no worker anywhere can make
                    # progress.  Require consecutive observations so a
                    # claim mid-transition cannot fake a wedge.
                    idle_wedged += 1
                    if idle_wedged >= 3:
                        break
                else:
                    idle_wedged = 0
                wallclock.sleep(poll_seconds)
                continue
            idle_wedged = 0

            held = {job.spec.job_id: job for job in claimed}
            runner.config.heartbeat = _LeaseRenewer(queue, held,
                                                    lease_seconds)
            sweep = runner.run([job.spec for job in claimed],
                               inline=not pool,
                               label=f"fabric:{queue.campaign_id[:8]}")
            for job in claimed:
                outcome = sweep[job.spec.job_id]
                if outcome.ok:
                    queue.complete(job, result_record(
                        job.index, job.spec, outcome, worker, job.attempt))
                    executed += 1
                    done += 1
                    continue
                disposition = _dispose_failure(queue, job, outcome,
                                               max_attempts)
                executed += 1
                if disposition == "released":
                    released += 1
                else:
                    failed += 1
                    if disposition == "quarantined":
                        quarantined += 1
    return {"executed": executed, "done": done, "failed": failed,
            "stolen": stolen, "quarantined": quarantined,
            "released": released,
            "disposition": queue.disposition()}


def _dispose_failure(queue: CampaignQueue, job: ClaimedJob,
                     outcome: JobOutcome,
                     max_attempts: Optional[int]) -> str:
    """Route one failed execution: quarantine or release-for-retry.

    Returns ``"quarantined"`` or ``"released"``.  With no attempt
    ceiling (``max_attempts=None``) non-deterministic failures are
    recorded terminally, preserving the pre-quarantine behaviour for
    callers that manage retries themselves.
    """
    failure = outcome.failure
    assert failure is not None
    if failure.deterministic:
        queue.quarantine(job, _diagnosis(queue, job, failure,
                                         REASON_DETERMINISTIC))
        return "quarantined"
    if max_attempts is None:
        queue.complete(job, result_record(job.index, job.spec, outcome,
                                          job.worker, job.attempt))
        return "failed"
    queue.record_failure_event(job, {
        "kind": failure.kind, "error_type": failure.error_type,
        "message": failure.message, "traceback": failure.traceback})
    if job.attempt >= max_attempts:
        queue.quarantine(job, _diagnosis(queue, job, failure,
                                         REASON_EXHAUSTED))
        return "quarantined"
    queue.release(job.index)
    return "released"


def _diagnosis(queue: CampaignQueue, job: ClaimedJob,
               failure: JobFailure, reason: str) -> Diagnosis:
    """Dead-letter diagnosis from a live failure plus the job's ledger
    history (deterministic fields only; see Diagnosis.error_text)."""
    ledger = queue.load_ledger(job.index)
    return Diagnosis(
        job_index=job.index, job_id=job.spec.job_id,
        spec_hash=job.spec.spec_hash(), reason=reason,
        kind=failure.kind, error_type=failure.error_type,
        message=failure.message, traceback=failure.traceback,
        attempts=job.attempt,
        history=tuple(ledger.get("history") or ()))


def run_campaign_serial(queue: CampaignQueue,
                        worker: str = "serial") -> Dict[str, int]:
    """The reference drain: one claim at a time, inline, index order."""
    return work_campaign(queue, worker=worker, jobs=1,
                         wait_for_drain=False, pool=False,
                         lease_seconds=3600.0)


# ----------------------------------------------------------------------
# GA generations as campaign batches


class FabricBatchEvaluator:
    """A GA ``batch_evaluator`` that runs generations through the fabric.

    Each generation's fresh (non-memoised) genomes become one campaign
    batch under ``queue_root``; this driver participates in the drain,
    and any other worker pools pointed at the same root steal work from
    the batch exactly like a manifest campaign.  Scores come back from
    the results in submission order, so the GA trajectory is
    bit-identical to the serial evaluator (pinned by tests).

    The GA announces each generation via :meth:`set_generation`; batch
    campaigns are named ``<label>-gen<N>``, which makes the per-batch
    results (and their convergence) queryable after the fact.
    """

    def __init__(self, evaluator, queue_root, label: str = "ga",
                 pool: bool = False, jobs: int = 1) -> None:
        self.evaluator = evaluator
        self.queue_root = queue_root
        self.label = label
        self.pool = pool
        self.jobs = jobs
        self.generation = 0
        #: campaign ids of the batches run, in order (for queries/tests)
        self.campaign_ids: List[str] = []

    def set_generation(self, generation: int) -> None:
        self.generation = generation

    def __call__(self, genomes: Sequence) -> List[float]:
        specs = [
            JobSpec.create(
                f"{self.label}-gen{self.generation}[{index:03d}]",
                "repro.experiments.common:_score_genome",
                self.evaluator, genome)
            for index, genome in enumerate(genomes)]
        queue = CampaignQueue.submit_specs(
            self.queue_root, f"{self.label}-gen{self.generation}", specs)
        self.campaign_ids.append(queue.campaign_id)
        work_campaign(queue, worker=f"ga:{default_worker_id()}",
                      jobs=self.jobs, pool=self.pool, wait_for_drain=True)
        scores: List[float] = []
        for index in queue.job_indices():
            record = queue.load_result(index)
            if record is None or record["status"] != RESULT_DONE:
                error = (record or {}).get("error", "no result recorded")
                raise RuntimeError(
                    f"GA batch job {index} of generation "
                    f"{self.generation} failed: {error}")
            scores.append(float(record["metrics"]["value"]))
        return scores
