"""The durable, filesystem-backed campaign work queue.

One campaign is one directory tree under the queue root::

    <root>/<campaign_id>/
        manifest.json          # campaign header (written last = commit)
        jobs/<index>.json      # one serialised JobSpec per job
        claims/<index>.json    # existence = claimed; holds worker + lease
        results/<index>.json   # existence = terminal (done or failed)
        ledger/<index>.json    # durable attempt count + failure history
        dead/<index>.json      # quarantine diagnosis (poison jobs)
        checkpoints/           # per-job simulation checkpoints (runner)

Everything is plain files with **atomic** transitions, so any number of
worker pools -- separate processes today, separate hosts on a shared
filesystem tomorrow -- can drain one campaign concurrently with no
daemon and no locks held across a job:

* **claim** -- ``O_CREAT | O_EXCL`` on the claim file; exactly one
  worker wins, everyone else moves on.
* **lease** -- the claim records an epoch-seconds expiry and the worker
  renews it (atomic rewrite) while the job runs; a worker that dies --
  ``kill -9``, OOM, power loss -- simply stops renewing.
* **steal** -- a worker that finds an *expired* claim renames it away
  (``os.rename`` succeeds for exactly one stealer) and claims the job
  itself, bumping the lease generation.  The runner's checkpoint
  plumbing then resumes the victim's partial simulation instead of
  restarting it.
* **complete** -- the result file is written atomically *before* the
  claim is released, so a job is never observably unclaimed-and-undone
  once finished.

Hardening (PR 10) adds three guarantees on top:

* **Every filesystem byte goes through a storage seam**
  (:mod:`repro.fabric.storage`), so the fault injector
  (:class:`repro.fabric.harden.FaultyFS`) can deterministically model a
  sick filesystem; commit-critical writes (results, dead letters) are
  *verified* -- written, read back, compared, retried.
* **Missing is not damaged.**  A vanished claim is a normal
  mid-transition observation; an unparsable one is corruption, counted
  in a structured :class:`CorruptionLog` surfaced by :meth:`snapshot`
  and treated as stealable (the lease holder cannot prove liveness
  through a damaged file).
* **Poison jobs terminate.**  Attempt counts live in a durable per-job
  ledger (claim files are deleted on release, so they cannot carry the
  count); once ``max_attempts`` is exhausted -- or the failure is
  provably deterministic -- the job is **quarantined**: a failed result
  (so the campaign still drains) plus a picklable :class:`Diagnosis` in
  the dead-letter directory, with ``fabric requeue`` as the escape
  hatch after a fix.

Determinism: results are one file per job, keyed by job index.  The
results database is rebuilt from those files in sorted index order, so
the merged database is a pure function of the *set* of results -- any
worker topology (1 pool or 10, with or without steals) produces a
bit-identical database to a serial drain.  The rare double-execution a
steal race can produce is harmless for the same reason: jobs are
deterministic, so the second result file is byte-identical to the first.
Quarantine records are built exclusively from deterministic failure
fields (never worker names or timestamps), preserving that property for
degraded campaigns.

Wall-clock access (lease deadlines) goes through
:mod:`repro.runner.wallclock` only, and never flows into a result.
"""

from __future__ import annotations

import base64
import dataclasses
import json
import os
import pickle
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from ..runner import wallclock
from ..runner.fingerprint import code_fingerprint
from ..runner.jobspec import JobSpec, content_hash
from .manifest import CAMPAIGN_ID_LENGTH, Manifest
from .storage import REAL_STORAGE, Storage

#: seconds a claim stays valid without renewal (workers renew at ~1/3)
DEFAULT_LEASE_SECONDS = 30.0

#: result statuses
RESULT_DONE = "done"
RESULT_FAILED = "failed"

#: default ceiling on claim attempts before a job is quarantined
DEFAULT_MAX_ATTEMPTS = 4

#: campaign dispositions (machine-readable terminal states)
DISPOSITION_COMPLETE = "complete"
DISPOSITION_DEGRADED = "complete-degraded"
DISPOSITION_WEDGED = "wedged"
DISPOSITION_IN_PROGRESS = "in-progress"

#: quarantine reasons
REASON_DETERMINISTIC = "deterministic-error"
REASON_EXHAUSTED = "attempts-exhausted"


class QueueError(RuntimeError):
    """A campaign directory is missing, damaged, or inconsistent."""


# ----------------------------------------------------------------------
# JobSpec <-> JSON (args/kwargs fall back to pickle for non-JSON values)


def encode_spec(spec: JobSpec, index: int) -> Dict[str, Any]:
    """The JSON document stored for one job."""
    return {
        "job_index": index,
        "job_id": spec.job_id,
        "fn": spec.fn,
        "args": _encode_value(list(spec.args)),
        "kwargs": _encode_value([[key, value] for key, value in spec.kwargs]),
        "seed": spec.seed,
        "scale": spec.scale,
        "timeout": spec.timeout,
        "retries": spec.retries,
        "spec_hash": spec.spec_hash(),
    }


def decode_spec(document: Dict[str, Any]) -> Tuple[int, JobSpec]:
    args = _decode_value(document["args"])
    kwargs = _decode_value(document["kwargs"])
    spec = JobSpec(
        job_id=document["job_id"], fn=document["fn"],
        args=tuple(args),
        kwargs=tuple((key, value) for key, value in kwargs),
        seed=document["seed"], scale=document["scale"],
        timeout=document["timeout"], retries=document["retries"])
    stored = document.get("spec_hash")
    if stored is not None and spec.spec_hash() != stored:
        raise QueueError(
            f"job {spec.job_id!r} decoded to spec hash "
            f"{spec.spec_hash()[:12]} but was submitted as {stored[:12]}; "
            f"the queue entry is damaged")
    return document["job_index"], spec


def _encode_value(value: Any) -> Dict[str, Any]:
    """JSON when possible (readable, greppable), pickle+base64 otherwise
    (GA batches carry evaluator objects that JSON cannot express)."""
    try:
        encoded = json.dumps(value)
        if json.loads(encoded) == value:
            return {"format": "json", "data": encoded}
    except (TypeError, ValueError):
        pass
    body = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    return {"format": "pickle",
            "data": base64.b64encode(body).decode("ascii")}


def _decode_value(envelope: Dict[str, Any]) -> Any:
    if envelope["format"] == "json":
        return json.loads(envelope["data"])
    if envelope["format"] == "pickle":
        return pickle.loads(base64.b64decode(envelope["data"]))
    raise QueueError(f"unknown payload format {envelope['format']!r}")


# ----------------------------------------------------------------------
# corruption accounting


class CorruptionLog:
    """Structured counter of damaged queue files observed by this
    process.

    "Damaged" means a file that *exists* but cannot be read or parsed --
    as opposed to "missing", which is a normal mid-transition
    observation (claims are renamed and deleted concurrently).  The log
    is in-memory per :class:`CampaignQueue` instance: ``snapshot()``
    scans every file, so a fresh ``fabric status`` reports exactly the
    damage visible at that moment.
    """

    MAX_EXAMPLES = 8

    def __init__(self) -> None:
        self.by_category: Dict[str, int] = {}
        self.examples: List[str] = []

    def note(self, category: str, path: Union[str, Path],
             detail: str) -> None:
        self.by_category[category] = self.by_category.get(category, 0) + 1
        if len(self.examples) < self.MAX_EXAMPLES:
            self.examples.append(f"{category}:{Path(path).name}: {detail}")

    @property
    def total(self) -> int:
        return sum(self.by_category.values())

    def as_dict(self) -> Dict[str, Any]:
        return {"total": self.total,
                "by_category": dict(sorted(self.by_category.items())),
                "examples": list(self.examples)}


# ----------------------------------------------------------------------
# quarantine diagnosis


@dataclasses.dataclass(frozen=True)
class Diagnosis:
    """Why a job was quarantined -- the dead-letter record.

    Plain picklable data (strings, ints, tuples of dicts): post-mortem
    tooling can load it without importing fabric internals.  The
    ``history`` is the ledger's failure events, oldest first.
    """

    job_index: int
    job_id: str
    spec_hash: str
    reason: str          # REASON_DETERMINISTIC | REASON_EXHAUSTED
    kind: str            # runner taxonomy: "error" | "timeout" | "crash"
    error_type: str
    message: str
    traceback: str
    attempts: int
    history: Tuple[Dict[str, Any], ...] = ()

    def as_dict(self) -> Dict[str, Any]:
        document = dataclasses.asdict(self)
        document["history"] = list(self.history)
        return document

    @classmethod
    def from_dict(cls, document: Dict[str, Any]) -> "Diagnosis":
        fields = dict(document)
        fields["history"] = tuple(fields.get("history") or ())
        known = {field.name for field in dataclasses.fields(cls)}
        return cls(**{key: value for key, value in fields.items()
                      if key in known})

    def error_text(self) -> str:
        """The deterministic ``error`` column for the quarantine result.

        Built only from spec-determined facts -- never worker names,
        attempt counts, or timestamps -- so any drain topology writes
        the identical column for the same poison job.  Deterministic
        errors carry their (spec-determined) type and message;
        exhausted retries deliberately do *not* embed the last failure,
        because which crash/timeout message a flaky job died with last
        is machine-state luck -- the full story lives in the
        (unfingerprinted) dead-letter diagnosis.
        """
        if self.reason == REASON_EXHAUSTED:
            return (f"quarantined[{self.reason}]: retry budget exhausted "
                    f"(non-deterministic failures)")
        return (f"quarantined[{self.reason}]: "
                f"{self.kind}: {self.error_type}: {self.message}")


def quarantine_record(index: int, spec: JobSpec,
                      diagnosis: Diagnosis) -> Dict[str, Any]:
    """The terminal (failed) result written for a quarantined job.

    Mirrors :func:`repro.fabric.service.result_record`'s failed shape;
    deterministic fields depend only on the spec and the failure
    taxonomy, so any drain topology writes a byte-identical record.
    """
    return {
        "job_index": index, "job_id": spec.job_id,
        "spec_hash": spec.spec_hash(),
        "seed": spec.seed, "scale": spec.scale,
        "status": RESULT_FAILED,
        "metrics": {},
        "value_json": None,
        "error": diagnosis.error_text(),
        "code_fingerprint": code_fingerprint(),
        "attempts": diagnosis.attempts,
        "lease_generation": diagnosis.attempts,
        "worker": "quarantine",
        "duration": 0.0,
    }


# ----------------------------------------------------------------------
# claims


class ClaimedJob:
    """A job this worker currently holds the lease on."""

    __slots__ = ("index", "spec", "attempt", "claim_path", "worker")

    def __init__(self, index: int, spec: JobSpec, attempt: int,
                 claim_path: Path, worker: str = "?") -> None:
        self.index = index
        self.spec = spec
        self.attempt = attempt
        self.claim_path = claim_path
        self.worker = worker


class CampaignQueue:
    """One campaign's directory tree; see the module docstring."""

    def __init__(self, root: Union[str, Path], campaign_id: str,
                 storage: Optional[Storage] = None) -> None:
        self.root = Path(root)
        self.campaign_id = campaign_id
        self.storage = storage or REAL_STORAGE
        self.directory = self.root / campaign_id
        self.jobs_dir = self.directory / "jobs"
        self.claims_dir = self.directory / "claims"
        self.results_dir = self.directory / "results"
        self.ledger_dir = self.directory / "ledger"
        self.dead_dir = self.directory / "dead"
        self.checkpoints_dir = self.directory / "checkpoints"
        self.corruption = CorruptionLog()

    # ------------------------------------------------------------------
    # classified IO

    def _load_classified(self, path: Path,
                         category: str) -> Tuple[Optional[Dict[str, Any]],
                                                 str]:
        """Read one queue JSON file, distinguishing missing from
        damaged.  Returns ``(document, state)`` with state one of
        ``"ok"``, ``"missing"``, ``"damaged"``; damage is recorded in
        :attr:`corruption`."""
        try:
            text = self.storage.read_text(path)
        except FileNotFoundError:
            return None, "missing"
        except OSError as exc:
            self.corruption.note(category, path, f"unreadable: {exc}")
            return None, "damaged"
        try:
            document = json.loads(text)
        except ValueError as exc:
            self.corruption.note(category, path, f"unparsable: {exc}")
            return None, "damaged"
        if not isinstance(document, dict):
            self.corruption.note(category, path,
                                 f"not an object: {type(document).__name__}")
            return None, "damaged"
        return document, "ok"

    def _write_verified(self, path: Path, document: Dict[str, Any],
                        category: str, attempts: int = 5) -> None:
        """Write a commit-critical file and prove it landed.

        Atomic replace alone cannot catch a short write or a lying
        filesystem; commit markers (results, dead letters, headers) are
        therefore read back and compared, with bounded retries.  All
        retries exhausted is corruption the caller must not paper over.
        """
        text = json.dumps(document, sort_keys=True, indent=1)
        detail = "unknown"
        for _ in range(attempts):
            try:
                self.storage.write_atomic(path, text)
                if self.storage.read_text(path) == text:
                    return
                detail = "read-back mismatch (short or stale write)"
            except OSError as exc:
                detail = str(exc)
        self.corruption.note(category, path,
                             f"verified write failed: {detail}")
        raise QueueError(f"could not durably write {path} after "
                         f"{attempts} attempt(s): {detail}")

    # ------------------------------------------------------------------
    # submission

    @classmethod
    def submit(cls, root: Union[str, Path], manifest: Manifest,
               storage: Optional[Storage] = None) -> "CampaignQueue":
        """Expand ``manifest`` into a campaign directory.

        Idempotent: the campaign id is derived from the manifest and the
        code fingerprint, so re-submitting the same manifest under the
        same source tree finds the existing campaign (and its results)
        instead of duplicating work.  ``manifest.json`` is written last,
        as the commit marker -- a half-submitted campaign (killed
        mid-write) has no header and is re-submitted from scratch.
        """
        queue = cls(root, manifest.campaign_id(), storage=storage)
        if queue.is_submitted():
            return queue
        specs = manifest.expand()
        header = {
            "campaign_id": queue.campaign_id,
            "name": manifest.name,
            "num_jobs": len(specs),
            "manifest": manifest.as_dict(),
        }
        queue._populate(specs, header)
        return queue

    @classmethod
    def submit_specs(cls, root: Union[str, Path], name: str,
                     specs: List[JobSpec],
                     storage: Optional[Storage] = None) -> "CampaignQueue":
        """Submit pre-built specs (the GA batch path) as a campaign.

        The campaign id derives from the spec hashes and the code
        fingerprint, so identical batches under identical code dedupe
        exactly like manifest campaigns.
        """
        if not specs:
            raise QueueError("cannot submit an empty campaign")
        campaign_id = content_hash(
            {"name": name,
             "specs": [spec.spec_hash() for spec in specs],
             "code": code_fingerprint()})[:CAMPAIGN_ID_LENGTH]
        queue = cls(root, campaign_id, storage=storage)
        if queue.is_submitted():
            return queue
        header = {"campaign_id": campaign_id, "name": name,
                  "num_jobs": len(specs), "manifest": None}
        queue._populate(specs, header)
        return queue

    def _populate(self, specs: List[JobSpec],
                  header: Dict[str, Any]) -> None:
        for directory in (self.jobs_dir, self.claims_dir, self.results_dir,
                          self.ledger_dir, self.dead_dir,
                          self.checkpoints_dir):
            self.storage.mkdir(directory)
        for index, spec in enumerate(specs):
            self._write_verified(self.jobs_dir / f"{index:06d}.json",
                                 encode_spec(spec, index), "job")
        self._write_verified(self.directory / "manifest.json", header,
                             "header")

    def is_submitted(self) -> bool:
        return self.storage.exists(self.directory / "manifest.json")

    def header(self) -> Dict[str, Any]:
        document, _state = self._load_classified(
            self.directory / "manifest.json", "header")
        if document is None:
            raise QueueError(f"{self.directory} holds no submitted "
                             f"campaign (missing/unreadable manifest.json)")
        return document

    # ------------------------------------------------------------------
    # enumeration

    def job_indices(self) -> List[int]:
        try:
            names = self.storage.listdir(self.jobs_dir)
        except OSError as exc:
            raise QueueError(f"cannot list jobs in {self.jobs_dir}: {exc}"
                             ) from exc
        return sorted(int(name[:-5]) for name in names
                      if name.endswith(".json") and name[:-5].isdigit())

    def load_spec(self, index: int) -> JobSpec:
        document, state = self._load_classified(
            self.jobs_dir / f"{index:06d}.json", "job")
        if document is None:
            raise QueueError(f"job {index} {state} in {self.jobs_dir}")
        _index, spec = decode_spec(document)
        return spec

    def result_path(self, index: int) -> Path:
        return self.results_dir / f"{index:06d}.json"

    def has_result(self, index: int) -> bool:
        return self.storage.exists(self.result_path(index))

    def load_result(self, index: int) -> Optional[Dict[str, Any]]:
        document, _state = self._load_classified(self.result_path(index),
                                                 "result")
        return document

    # ------------------------------------------------------------------
    # attempt ledger

    def _ledger_path(self, index: int) -> Path:
        return self.ledger_dir / f"{index:06d}.json"

    def load_ledger(self, index: int) -> Dict[str, Any]:
        """The durable attempt record: ``{"attempts": N, "history":
        [events]}`` (zeros when the job has never been claimed)."""
        document, _state = self._load_classified(self._ledger_path(index),
                                                 "ledger")
        if document is None:
            return {"attempts": 0, "history": []}
        document.setdefault("attempts", 0)
        document.setdefault("history", [])
        return document

    def _store_ledger(self, index: int, ledger: Dict[str, Any]) -> None:
        """Best-effort ledger write: the ledger is advisory bookkeeping
        (it bounds retries); losing one write must not fail the claim
        that triggered it."""
        self.storage.mkdir(self.ledger_dir)
        try:
            self._write_verified(self._ledger_path(index), ledger,
                                 "ledger", attempts=3)
        except QueueError:
            # Already counted by _write_verified's corruption note.
            return  # simlint: disable=SIM008

    def record_failure_event(self, job: ClaimedJob,
                             event: Dict[str, Any]) -> None:
        """Append one failure event to the job's ledger history (called
        by the service before releasing a claim for retry)."""
        ledger = self.load_ledger(job.index)
        ledger["attempts"] = max(int(ledger.get("attempts", 0)),
                                 job.attempt)
        ledger["history"] = list(ledger.get("history", []))
        ledger["history"].append(dict(event, attempt=job.attempt))
        self._store_ledger(job.index, ledger)

    # ------------------------------------------------------------------
    # the claim/lease/steal protocol

    def _claim_path(self, index: int) -> Path:
        return self.claims_dir / f"{index:06d}.json"

    def claim_next(self, worker: str,
                   lease_seconds: float = DEFAULT_LEASE_SECONDS,
                   max_attempts: Optional[int] = None
                   ) -> Optional[ClaimedJob]:
        """Claim the lowest-index job that is neither done nor validly
        claimed; returns None when no job is currently claimable (which
        does *not* mean the campaign is finished -- other workers may
        hold live leases).

        ``max_attempts`` is the poison-job ceiling: a job whose durable
        attempt count already reached it is quarantined instead of
        claimed, so a deterministic crasher cannot be stolen and re-run
        forever.
        """
        for index in self.job_indices():
            if self.has_result(index):
                continue
            claimed = self._try_claim(index, worker, lease_seconds,
                                      max_attempts)
            if claimed is not None:
                return claimed
        return None

    def _try_claim(self, index: int, worker: str, lease_seconds: float,
                   max_attempts: Optional[int] = None
                   ) -> Optional[ClaimedJob]:
        claim_path = self._claim_path(index)
        claim, state = self._load_classified(claim_path, "claim")
        chain_attempt = 0
        if state == "ok":
            expires_at = claim.get("expires_at")
            if isinstance(expires_at, (int, float)) \
                    and expires_at > wallclock.epoch():
                return None
            chain_attempt = int(claim.get("attempt", 0))
        if state in ("ok", "damaged"):
            # Expired -- or damaged, which cannot prove liveness either
            # way: steal.  rename succeeds for exactly one stealer; the
            # loser's error means someone beat us to it (or the original
            # worker completed at the wire).
            stale = claim_path.with_name(
                f".{claim_path.name}.stale.{worker}.{os.getpid()}")
            try:
                self.storage.rename(claim_path, stale)
            except OSError:
                return None
            try:
                self.storage.unlink(stale)
            except OSError:
                # A leftover tombstone is cosmetic, never load-bearing.
                pass  # simlint: disable=SIM008
        # The claim chain dies with the claim file; the ledger survives
        # releases, so a poison job's count only ever goes up.
        ledger = self.load_ledger(index)
        attempt = max(chain_attempt, int(ledger.get("attempts", 0))) + 1
        body = json.dumps(
            {"worker": worker, "attempt": attempt,
             "expires_at": wallclock.epoch() + lease_seconds,
             "lease_seconds": lease_seconds},
            sort_keys=True)
        try:
            self.storage.create_exclusive(claim_path, body)
        except FileExistsError:
            return None  # lost the race to another claimer
        except OSError:
            return None  # transient storage fault; retry on a later pass
        if self.has_result(index):
            # The previous holder completed between our expiry check and
            # our claim; undo and move on.
            self.release(index)
            return None
        try:
            spec = self.load_spec(index)
        except QueueError:
            # Damaged job file: unrunnable until `fabric doctor --repair`
            # (or resubmission) restores it.  Noted by load_spec.
            self.release(index)
            return None
        if max_attempts is not None and attempt > max_attempts:
            self._quarantine_exhausted(index, spec, ledger, max_attempts)
            return None
        ledger["attempts"] = attempt
        self._store_ledger(index, ledger)
        return ClaimedJob(index=index, spec=spec, attempt=attempt,
                          claim_path=claim_path, worker=worker)

    def renew(self, job: ClaimedJob,
              lease_seconds: float = DEFAULT_LEASE_SECONDS) -> bool:
        """Extend the lease on a held claim (atomic rewrite).

        Returns False -- without writing -- when the claim is no longer
        ours: released (renewing would resurrect a dead claim and wedge
        the job until it expires again) or stolen by another worker
        (their lease, their renewal).  A damaged claim file is rewritten:
        we verifiably hold the lease, and our identity heals it.
        """
        current, state = self._load_classified(job.claim_path, "claim")
        if state == "missing":
            return False
        if state == "ok" \
                and str(current.get("worker", "?")) != job.worker:
            return False
        body = json.dumps(
            {"worker": job.worker, "attempt": job.attempt,
             "expires_at": wallclock.epoch() + lease_seconds,
             "lease_seconds": lease_seconds},
            sort_keys=True)
        try:
            self.storage.write_atomic(job.claim_path, body)
        except OSError:
            # A failed renewal is survivable (the next heartbeat
            # retries); the lease may expire early and be stolen, which
            # the steal protocol already handles.
            return False
        return True

    def release(self, index: int) -> None:
        """Drop a claim without recording a result (graceful shutdown)."""
        try:
            self.storage.unlink(self._claim_path(index))
        except FileNotFoundError:
            # Already stolen or never created; nothing held either way.
            return
        except OSError as exc:
            # The claim exists but cannot be removed: it will look held
            # until its lease expires, then be stolen.  Count it.
            self.corruption.note("claim", self._claim_path(index),
                                 f"release failed: {exc}")
            return

    # ------------------------------------------------------------------
    # results

    def complete(self, job: ClaimedJob, record: Dict[str, Any]) -> None:
        """Persist a terminal result, then release the claim.

        Idempotent: if a steal race double-ran the job, the second
        writer atomically replaces the first with a byte-identical file
        (deterministic jobs), so observers never see a conflict.  The
        result is the campaign's commit marker, so it is written
        *verified* -- a short write here would silently lose the job.
        """
        self._write_verified(self.result_path(job.index), record, "result")
        self.release(job.index)

    def is_drained(self) -> bool:
        """Every job has a terminal result."""
        return all(self.has_result(index) for index in self.job_indices())

    # ------------------------------------------------------------------
    # quarantine / dead letters

    def dead_path(self, index: int) -> Path:
        return self.dead_dir / f"{index:06d}.json"

    def dead_letter_indices(self) -> List[int]:
        try:
            names = self.storage.listdir(self.dead_dir)
        except OSError:
            return []
        return sorted(int(name[:-5]) for name in names
                      if name.endswith(".json") and name[:-5].isdigit())

    def load_diagnosis(self, index: int) -> Optional[Diagnosis]:
        document, _state = self._load_classified(self.dead_path(index),
                                                 "dead-letter")
        if document is None:
            return None
        try:
            return Diagnosis.from_dict(document)
        except TypeError as exc:
            self.corruption.note("dead-letter", self.dead_path(index),
                                 f"bad diagnosis: {exc}")
            return None

    def quarantine(self, job: ClaimedJob, diagnosis: Diagnosis) -> None:
        """Move a poison job to the dead-letter directory.

        Writes the diagnosis first, then the failed result (the commit
        marker: the campaign counts the job terminal from that moment),
        then releases the claim.  A crash between the two leaves a
        claimed-but-undone job that is simply quarantined again on the
        next claim attempt -- never lost, never retried forever.
        """
        self.storage.mkdir(self.dead_dir)
        self._write_verified(self.dead_path(job.index), diagnosis.as_dict(),
                             "dead-letter")
        self._write_verified(self.result_path(job.index),
                             quarantine_record(job.index, job.spec,
                                               diagnosis), "result")
        self.release(job.index)

    def _quarantine_exhausted(self, index: int, spec: JobSpec,
                              ledger: Dict[str, Any],
                              max_attempts: int) -> None:
        """Claim-time quarantine: the durable attempt count is spent.

        Covers the worker-died-every-time case where no live failure
        object exists; the diagnosis reconstructs from the last ledger
        event (or an explicit placeholder when the worker never survived
        long enough to record one).
        """
        history = tuple(ledger.get("history") or ())
        last: Dict[str, Any] = dict(history[-1]) if history else {}
        diagnosis = Diagnosis(
            job_index=index, job_id=spec.job_id,
            spec_hash=spec.spec_hash(),
            reason=REASON_EXHAUSTED,
            kind=str(last.get("kind", "crash")),
            error_type=str(last.get("error_type", "WorkerLost")),
            message=str(last.get("message",
                                 "no failure recorded before the worker "
                                 "died")),
            traceback=str(last.get("traceback", "")),
            attempts=max_attempts,
            history=history)
        job = ClaimedJob(index=index, spec=spec, attempt=max_attempts,
                         claim_path=self._claim_path(index),
                         worker="quarantine")
        self.quarantine(job, diagnosis)

    def requeue(self, index: int) -> Diagnosis:
        """The dead-letter escape hatch: make a quarantined job runnable
        again (after a code fix), clearing its result, ledger, and dead
        letter.  Refuses to clear a successful result.  Returns the
        diagnosis that was cleared."""
        diagnosis = self.load_diagnosis(index)
        if diagnosis is None:
            raise QueueError(f"job {index} has no dead-letter entry in "
                             f"{self.dead_dir}")
        record = self.load_result(index)
        if record is not None and record.get("status") == RESULT_DONE:
            raise QueueError(f"job {index} has a successful result; "
                             f"refusing to requeue over it")
        for path in (self.dead_path(index), self.result_path(index),
                     self._ledger_path(index), self._claim_path(index)):
            try:
                self.storage.unlink(path)
            except OSError:
                # Missing is fine (requeue is idempotent); anything else
                # surfaces on the next claim attempt.
                pass  # simlint: disable=SIM008
        return diagnosis

    # ------------------------------------------------------------------
    # status

    def snapshot(self) -> Dict[str, Any]:
        """Point-in-time campaign progress for ``fabric status``.

        Beyond the live counts, reports the degraded-mode bookkeeping:
        ``damaged`` (result files that exist but cannot be parsed --
        holes until repaired), ``quarantined``/``dead_letter`` (poison
        jobs), ``unrunnable`` (pending jobs whose spec is damaged), the
        structured ``corruption`` log, and the campaign
        ``disposition``.
        """
        now = wallclock.epoch()
        done = failed = running = stale = pending = 0
        damaged = quarantined = unrunnable = 0
        durations: List[float] = []
        workers: Dict[str, int] = {}
        for index in self.job_indices():
            record, result_state = self._load_classified(
                self.result_path(index), "result")
            if result_state == "damaged":
                damaged += 1
                continue
            if record is not None:
                if record.get("status") == RESULT_DONE:
                    done += 1
                    duration = record.get("duration")
                    if isinstance(duration, (int, float)) and duration > 0:
                        durations.append(float(duration))
                else:
                    failed += 1
                    if str(record.get("error", "")
                           ).startswith("quarantined["):
                        quarantined += 1
                continue
            claim, claim_state = self._load_classified(
                self._claim_path(index), "claim")
            expires_at = (claim or {}).get("expires_at")
            if claim_state == "missing":
                pending += 1
                if not self._spec_loads(index):
                    unrunnable += 1
            elif claim_state == "ok" \
                    and isinstance(expires_at, (int, float)) \
                    and expires_at > now:
                running += 1
                name = str(claim.get("worker", "?"))
                workers[name] = workers.get(name, 0) + 1
            else:
                # Expired, damaged, or expiry-less: stealable.
                stale += 1
        snapshot = {
            "campaign_id": self.campaign_id,
            "total": (done + failed + running + stale + pending + damaged),
            "done": done, "failed": failed, "running": running,
            "stale": stale, "pending": pending,
            "damaged": damaged, "quarantined": quarantined,
            "unrunnable": unrunnable,
            "dead_letter": len(self.dead_letter_indices()),
            "workers": {name: workers[name] for name in sorted(workers)},
            "mean_duration": (sum(durations) / len(durations)
                              if durations else None),
            "corruption": self.corruption.as_dict(),
        }
        snapshot["disposition"] = self.disposition(snapshot)
        return snapshot

    def _spec_loads(self, index: int) -> bool:
        try:
            self.load_spec(index)
        except QueueError:
            return False
        return True

    def disposition(self,
                    snapshot: Optional[Dict[str, Any]] = None) -> str:
        """The campaign's machine-readable state.

        * ``complete`` -- every job succeeded.
        * ``complete-degraded`` -- every job is terminal, but some
          failed, were quarantined, or left damaged results: figures
          render with explicit holes, and callers exit 3.
        * ``wedged`` -- outstanding jobs exist that no worker can ever
          claim (damaged specs) and nothing is running: the campaign
          will not terminate without repair; callers exit 4.
        * ``in-progress`` -- anything else.
        """
        if snapshot is None:
            snapshot = self.snapshot()
        outstanding = (snapshot["pending"] + snapshot["running"]
                       + snapshot["stale"])
        if outstanding == 0:
            if snapshot["failed"] == 0 and snapshot.get("damaged", 0) == 0:
                return DISPOSITION_COMPLETE
            return DISPOSITION_DEGRADED
        if snapshot["running"] == 0 and snapshot["stale"] == 0 \
                and snapshot.get("unrunnable", 0) >= snapshot["pending"]:
            return DISPOSITION_WEDGED
        return DISPOSITION_IN_PROGRESS

    @staticmethod
    def eta_seconds(snapshot: Dict[str, Any]) -> Optional[float]:
        """Cross-pool ETA from a :meth:`snapshot`: mean seconds per
        completed job, scaled by outstanding jobs over live workers.
        Mirrors the runner's single-pool estimate, with the same guards
        (no completions or a zero rate -> unknown, not zero)."""
        outstanding = (snapshot["pending"] + snapshot["running"]
                       + snapshot["stale"])
        if outstanding <= 0:
            return 0.0
        mean = snapshot.get("mean_duration")
        if not mean or mean <= 0:
            return None
        active = max(1, sum(snapshot["workers"].values()))
        return mean * outstanding / active


def list_campaigns(root: Union[str, Path]) -> List[CampaignQueue]:
    """Every submitted campaign under a queue root, sorted by id."""
    root = Path(root)
    queues = []
    if not root.is_dir():
        return queues
    for name in sorted(os.listdir(root)):
        queue = CampaignQueue(root, name)
        if queue.is_submitted():
            queues.append(queue)
    return queues


def find_campaign(root: Union[str, Path],
                  reference: Optional[str]) -> CampaignQueue:
    """Resolve a campaign by id, id prefix, or name; ``None`` resolves
    only when the root holds exactly one campaign."""
    queues = list_campaigns(root)
    if not queues:
        raise QueueError(f"no submitted campaigns under {root}")
    if reference is None:
        if len(queues) == 1:
            return queues[0]
        ids = [queue.campaign_id for queue in queues]
        raise QueueError(f"{root} holds {len(queues)} campaigns {ids}; "
                         f"pass --campaign to pick one")
    matches = [queue for queue in queues
               if queue.campaign_id == reference
               or queue.campaign_id.startswith(reference)
               or queue.header().get("name") == reference]
    if not matches:
        raise QueueError(f"no campaign matching {reference!r} under {root}")
    if len(matches) > 1:
        ids = [queue.campaign_id for queue in matches]
        raise QueueError(f"{reference!r} is ambiguous: {ids}")
    return matches[0]
