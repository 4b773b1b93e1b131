"""The parallel, fault-tolerant execution engine.

``Runner.run`` takes a list of :class:`~repro.runner.jobspec.JobSpec` and
returns a :class:`SweepResult` whose outcomes are keyed by ``job_id`` in
*submission order* -- never completion order -- so ``jobs=N`` produces
bit-identical assemblies to the serial path (the jobs themselves are
deterministic functions of their spec; the engine only has to avoid
introducing order dependence on top).

Fault model:

* **slow job** -- a per-job wall-clock budget is enforced *inside* the
  worker (``SIGALRM``); the job comes back as a structured timeout and is
  retried with exponential backoff up to the retry limit.
* **failing job** -- exceptions are captured in the worker and returned
  as data; retried the same way, then reported as a :class:`JobFailure`
  without aborting the rest of the sweep.
* **dying worker** -- ``os._exit``/OOM/segfault breaks the whole
  ``ProcessPoolExecutor``; the engine charges one attempt to every job
  that was in flight (submission is windowed, so that set is at most
  ``jobs`` wide -- queued jobs are never charged), rebuilds the pool, and
  carries on.

The engine keeps no results beyond the returned sweep; durable,
resumable sweeps are :mod:`repro.fabric` campaigns, which execute their
claimed jobs through this engine.
"""

from __future__ import annotations

import hashlib
import os
from collections import OrderedDict, deque
from concurrent import futures
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

from ..resilience.checkpoint import checkpoint_scope, discard_checkpoint
from ..resilience.watchdog import StarvationError
from . import wallclock
from .jobspec import JobSpec, SpecError, callable_path
from .progress import ProgressReporter
from .worker import (STATUS_OK, STATUS_TIMEOUT, describe_exception,
                     execute_job, job_payload)

#: how long one futures.wait() tick blocks before re-checking retry timers
_WAIT_TICK_SECONDS = 0.1

#: exception ancestries that make a failure *deterministic*: the same
#: spec will fail the same way every time (a starved configuration, a
#: validation error, a broken invariant), so retrying burns wall-clock
#: for nothing.  Timeouts and worker crashes stay retryable -- those
#: depend on machine state, not on the spec.  Matched against
#: ``describe_exception``'s ``lineage`` (MRO class names), so
#: subclasses like ``SpecError`` (ValueError) and ``ContractViolation``
#: (AssertionError) are covered by ancestry.
DETERMINISTIC_LINEAGE = frozenset(
    {"StarvationError", "ValueError", "AssertionError"})

#: the same policy for in-process (inline) execution, as types
_DETERMINISTIC_TYPES = (StarvationError, ValueError, AssertionError)


def is_deterministic_failure(kind: str,
                             info: Optional[dict] = None) -> bool:
    """Will this exact failure recur on every retry of the spec?

    The single source of truth for the deterministic-error taxonomy;
    the fabric's poison-job quarantine reuses it so "never retry" means
    the same thing inside one runner and across worker pools.  ``info``
    is a :func:`~repro.runner.worker.describe_exception` document; its
    ``lineage`` (MRO class names) is matched so subclasses like
    ``SpecError`` (ValueError) and ``ContractViolation``
    (AssertionError) are covered by ancestry.
    """
    if kind != "error":
        return False  # timeouts and crashes are machine-state luck
    info = info or {}
    lineage = info.get("lineage")
    if lineage is None:
        # Pre-lineage producer (stale worker): fall back on the leaf
        # class name alone.
        lineage = [info.get("error_type", "")]
    return not DETERMINISTIC_LINEAGE.isdisjoint(lineage)


def _clear_ambient_runner() -> None:
    """Pool-worker initializer: start every worker with no ambient runner.

    Under the fork start method a worker inherits the parent's
    :mod:`repro.runner.context` state, so a job run while the parent
    sits inside ``using_runner`` would see the parent's runner and call
    ``map`` on its forked copy of the parent's pool, which has no
    management thread and never answers.
    """
    from .context import set_runner
    set_runner(None)


class RunnerError(RuntimeError):
    """A sweep-level failure the caller chose not to tolerate."""


@dataclass(frozen=True)
class JobFailure:
    """Structured description of a job that exhausted its retries."""

    job_id: str
    kind: str  # "timeout" | "error" | "crash"
    error_type: str
    message: str
    traceback: str
    attempts: int
    #: True when the taxonomy says every retry of the spec would fail
    #: identically (the fabric quarantines such jobs on first failure)
    deterministic: bool = False

    def summary(self) -> str:
        return (f"{self.job_id}: {self.kind} after {self.attempts} "
                f"attempt(s): {self.error_type}: {self.message}")


@dataclass
class JobOutcome:
    """Terminal state of one job within a sweep."""

    job_id: str
    value: Any = None
    failure: Optional[JobFailure] = None
    attempts: int = 0
    #: wall-clock seconds of the successful attempt; presentation only --
    #: never part of a result
    duration: float = 0.0

    @property
    def ok(self) -> bool:
        return self.failure is None


@dataclass
class SweepResult:
    """Outcomes keyed by job id, in submission order."""

    outcomes: "OrderedDict[str, JobOutcome]"

    def __getitem__(self, job_id: str) -> JobOutcome:
        return self.outcomes[job_id]

    def __iter__(self):
        return iter(self.outcomes.values())

    def __len__(self) -> int:
        return len(self.outcomes)

    @property
    def failures(self) -> List[JobFailure]:
        return [outcome.failure for outcome in self.outcomes.values()
                if outcome.failure is not None]

    def values(self) -> List[Any]:
        """Successful values in submission order; raises on any failure."""
        failures = self.failures
        if failures:
            details = "; ".join(f.summary() for f in failures[:3])
            raise RunnerError(
                f"{len(failures)} job(s) failed: {details}")
        return [outcome.value for outcome in self.outcomes.values()]


@dataclass
class RunnerConfig:
    """Execution policy shared by every job in a sweep."""

    jobs: int = 1
    #: per-job wall-clock budget in seconds (None = unlimited)
    timeout: Optional[float] = None
    #: extra attempts after the first failure
    retries: int = 2
    #: base of the exponential retry backoff, in seconds
    backoff: float = 0.25
    progress: bool = False
    #: directory for per-job checkpoints (None = checkpointing off);
    #: jobs that run via repro.resilience.checkpoint.run_with_checkpoints
    #: save partial work here and *resume* it when retried after a
    #: worker death or timeout (the fabric points it at a campaign's
    #: ``checkpoints/`` directory)
    checkpoint_dir: Optional[str] = None
    #: called with the sorted in-flight job ids on every pool wait tick
    #: (and once per inline attempt); the fabric queue uses this to renew
    #: job leases while long simulations run, so a *live* worker never
    #: has its work stolen.  Must be cheap and must never raise.
    heartbeat: Optional[Callable[[List[str]], None]] = None

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        if self.backoff < 0:
            raise ValueError("backoff must be >= 0")


@dataclass
class _Pending:
    """Book-keeping for one not-yet-terminal job."""

    spec: JobSpec
    attempts: int = 0
    ready_at: float = 0.0


class Runner:
    """Executes job specs serially or over a process pool.  Reusable
    across sweeps; ``close()`` (or ``with``-block exit) tears the pool
    down."""

    def __init__(self, config: Optional[RunnerConfig] = None) -> None:
        self.config = config or RunnerConfig()
        self._executor: Optional[futures.ProcessPoolExecutor] = None

    # ------------------------------------------------------------------

    @property
    def parallel(self) -> bool:
        return self.config.jobs > 1

    def __enter__(self) -> "Runner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None

    # ------------------------------------------------------------------
    # public entry points

    def run(self, specs: Sequence[JobSpec], inline: Optional[bool] = None,
            label: str = "sweep") -> SweepResult:
        """Execute ``specs``; see the module docstring for semantics.

        ``inline`` is a tri-state: ``None`` (default) picks the pool when
        ``jobs > 1`` and runs in-process otherwise; ``True`` forces
        in-process execution (still retried, failures still
        structured) -- used when the caller wants the pool available
        for the jobs' own inner fan-outs; ``False`` forces the pool even with
        ``jobs == 1`` -- used by the fabric worker so a single-slot pool
        still gets SIGALRM timeouts and survives ``kill -9`` of a job.
        Inline jobs do not enforce timeouts: interrupting the driver's
        main thread could tear simulator state mid-update.
        """
        specs = list(specs)
        seen = set()
        for spec in specs:
            if spec.job_id in seen:
                raise SpecError(f"duplicate job_id {spec.job_id!r}")
            seen.add(spec.job_id)

        outcomes: "OrderedDict[str, JobOutcome]" = OrderedDict(
            (spec.job_id, JobOutcome(job_id=spec.job_id)) for spec in specs)
        reporter = ProgressReporter(total=len(specs), label=label,
                                    enabled=self.config.progress,
                                    jobs=self.config.jobs)

        pending = [_Pending(spec=spec) for spec in specs]
        if pending:
            use_inline = inline if inline is not None else not self.parallel
            if use_inline:
                self._run_inline(pending, outcomes, reporter)
            else:
                self._run_pool(pending, outcomes, reporter)
        return SweepResult(outcomes=outcomes)

    def map(self, fn, argument_tuples: Iterable[tuple],
            label: str = "map") -> List[Any]:
        """Apply one callable to many argument tuples; values in input
        order.  Any job failing after retries raises :class:`RunnerError`
        (a partial map is useless to numeric callers)."""
        path = fn if isinstance(fn, str) else callable_path(fn)
        specs = [JobSpec.create(f"{label}[{index}]", path, *arguments)
                 for index, arguments in enumerate(argument_tuples)]
        return self.run(specs, label=label).values()

    # ------------------------------------------------------------------
    # serial/inline execution

    def _run_inline(self, pending: List[_Pending],
                    outcomes: Dict[str, JobOutcome],
                    reporter: ProgressReporter) -> None:
        for item in pending:
            spec = item.spec
            retries = self._retries_for(spec)
            checkpoint = self._checkpoint_path_for(spec)
            while True:
                item.attempts += 1
                self._beat([spec.job_id])
                started = wallclock.now()
                try:
                    fn = spec.resolve()
                    with checkpoint_scope(checkpoint):
                        value = fn(*spec.args, **spec.call_kwargs())
                except Exception as exc:
                    if (item.attempts <= retries
                            and not isinstance(exc, _DETERMINISTIC_TYPES)):
                        wallclock.sleep(self._backoff_delay(item.attempts))
                        continue
                    self._record_failure(
                        outcomes[spec.job_id], "error",
                        describe_exception(exc), item.attempts, reporter)
                    break
                discard_checkpoint(checkpoint)
                self._record_success(outcomes[spec.job_id], value,
                                     item.attempts,
                                     wallclock.now() - started, reporter)
                break

    # ------------------------------------------------------------------
    # pool execution

    def _ensure_executor(self) -> futures.ProcessPoolExecutor:
        if self._executor is None:
            self._executor = futures.ProcessPoolExecutor(
                max_workers=self.config.jobs,
                initializer=_clear_ambient_runner)
        return self._executor

    def _rebuild_executor(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None

    def _run_pool(self, pending: List[_Pending],
                  outcomes: Dict[str, JobOutcome],
                  reporter: ProgressReporter) -> None:
        # Windowed submission: at most `jobs` futures in flight.  Keeps
        # the in-flight set equal to the (approximately) *running* set so
        # a pool crash charges attempts only where the evidence is.
        queue: "deque[_Pending]" = deque(pending)
        waiting: List[_Pending] = []  # backoff timers pending
        in_flight: Dict[futures.Future, _Pending] = {}
        started_at: Dict[futures.Future, float] = {}

        while queue or waiting or in_flight:
            now = wallclock.now()
            if waiting:
                due = [item for item in waiting if item.ready_at <= now]
                if due:
                    waiting = [item for item in waiting
                               if item.ready_at > now]
                    queue.extend(due)

            executor = self._ensure_executor()
            while queue and len(in_flight) < self.config.jobs:
                item = queue.popleft()
                item.attempts += 1
                payload = job_payload(item.spec,
                                      self._timeout_for(item.spec),
                                      self._checkpoint_path_for(item.spec))
                future = executor.submit(execute_job, payload)
                in_flight[future] = item
                started_at[future] = wallclock.now()

            if not in_flight:
                # Everything left is sitting out a backoff window.
                next_ready = min(item.ready_at for item in waiting)
                wallclock.sleep(max(0.0, next_ready - wallclock.now()))
                continue

            self._beat(sorted(item.spec.job_id
                              for item in in_flight.values()))
            done, _ = futures.wait(set(in_flight),
                                   timeout=_WAIT_TICK_SECONDS,
                                   return_when=futures.FIRST_COMPLETED)
            pool_broken = False
            for future in done:
                item = in_flight.pop(future)
                duration = wallclock.now() - started_at.pop(future)
                pool_broken |= self._consume_future(
                    future, item, duration, outcomes, waiting, reporter)
            if pool_broken:
                # Every other in-flight future is dead too; drain them
                # all (the ones that finished before the break still
                # carry real results) and rebuild the pool.
                for future, item in list(in_flight.items()):
                    del in_flight[future]
                    duration = wallclock.now() - started_at.pop(future)
                    self._consume_future(future, item, duration, outcomes,
                                         waiting, reporter)
                self._rebuild_executor()

    def _consume_future(self, future: futures.Future, item: _Pending,
                        duration: float, outcomes: Dict[str, JobOutcome],
                        waiting: List[_Pending],
                        reporter: ProgressReporter) -> bool:
        """Fold one finished future into the sweep state.

        Returns True when the future revealed a broken pool (the caller
        must drain the rest of the in-flight set and rebuild).
        """
        try:
            job_id, status, data = future.result(timeout=0)
        except (BrokenProcessPool, futures.CancelledError):
            self._handle_retryable(
                item, "crash",
                {"error_type": "WorkerCrash",
                 "message": "worker process died while the job was "
                            "in flight",
                 "traceback": ""},
                outcomes, waiting, reporter)
            return True
        except futures.TimeoutError:
            # Not actually done (drain path): the pool is broken but this
            # future never resolved; treat it like a crash casualty.
            self._handle_retryable(
                item, "crash",
                {"error_type": "WorkerCrash",
                 "message": "pool broke before the job completed",
                 "traceback": ""},
                outcomes, waiting, reporter)
            return True
        except Exception as exc:
            # e.g. the job's return value failed to unpickle
            self._handle_retryable(item, "error", describe_exception(exc),
                                   outcomes, waiting, reporter)
            return False
        if status == STATUS_OK:
            self._record_success(outcomes[job_id], data, item.attempts,
                                 duration, reporter)
        else:
            kind = "timeout" if status == STATUS_TIMEOUT else "error"
            self._handle_retryable(item, kind, data, outcomes, waiting,
                                   reporter)
        return False

    # ------------------------------------------------------------------
    # shared bookkeeping

    def _beat(self, job_ids: List[str]) -> None:
        """Forward in-flight job ids to the configured heartbeat.

        A raising heartbeat would abort the whole sweep from a
        coordination side-channel, so failures are contained here; the
        lease simply is not renewed and the queue's normal expiry path
        takes over.
        """
        if self.config.heartbeat is None:
            return
        try:
            self.config.heartbeat(job_ids)
        except Exception:
            # Lease renewal is best-effort by design (see docstring).
            return

    def _timeout_for(self, spec: JobSpec) -> Optional[float]:
        return spec.timeout if spec.timeout is not None \
            else self.config.timeout

    def _retries_for(self, spec: JobSpec) -> int:
        return spec.retries if spec.retries is not None \
            else self.config.retries

    def _backoff_delay(self, attempts: int) -> float:
        return self.config.backoff * (2 ** (attempts - 1))

    def _checkpoint_path_for(self, spec: JobSpec) -> Optional[str]:
        """Stable per-job checkpoint path under ``config.checkpoint_dir``.

        Keyed on (job id, spec hash) so retries of the same job resume
        the same file while two jobs with identical specs never race on
        one path.
        """
        if self.config.checkpoint_dir is None:
            return None
        key = hashlib.sha256(
            f"{spec.job_id}\n{spec.spec_hash()}".encode("utf-8")).hexdigest()
        return os.path.join(self.config.checkpoint_dir, f"{key}.ckpt")

    @staticmethod
    def _deterministic_failure(kind: str, info: dict) -> bool:
        """Will this exact failure recur on every retry of the spec?"""
        return is_deterministic_failure(kind, info)

    def _handle_retryable(self, item: _Pending, kind: str, info: dict,
                          outcomes: Dict[str, JobOutcome],
                          waiting: List[_Pending],
                          reporter: ProgressReporter) -> None:
        if (item.attempts <= self._retries_for(item.spec)
                and not self._deterministic_failure(kind, info)):
            item.ready_at = wallclock.now() \
                + self._backoff_delay(item.attempts)
            waiting.append(item)
            return
        self._record_failure(outcomes[item.spec.job_id], kind, info,
                             item.attempts, reporter)

    @staticmethod
    def _record_success(outcome: JobOutcome, value: Any, attempts: int,
                        duration: float,
                        reporter: ProgressReporter) -> None:
        outcome.value = value
        outcome.attempts = attempts
        outcome.duration = duration
        reporter.job_done(duration=duration)

    @staticmethod
    def _record_failure(outcome: JobOutcome, kind: str, info: dict,
                        attempts: int, reporter: ProgressReporter) -> None:
        outcome.failure = JobFailure(
            job_id=outcome.job_id, kind=kind,
            error_type=info.get("error_type", "Error"),
            message=info.get("message", ""),
            traceback=info.get("traceback", ""),
            attempts=attempts,
            deterministic=is_deterministic_failure(kind, info))
        outcome.attempts = attempts
        reporter.job_done(failed=True)
