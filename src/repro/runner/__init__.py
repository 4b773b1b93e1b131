"""``repro.runner`` -- parallel, fault-tolerant execution engine.

The reproduction's credibility problem is evaluation count: the paper's
GA budget is ~600 simulations per optimisation and the experiment suite
multiplies that across figures, seeds, and scales.  This package makes
many independent simulations cheap without touching the determinism
contract:

* :class:`JobSpec` -- picklable, content-hashed description of one unit
  of work ("call this importable function with these arguments").
* :class:`Runner` -- executes specs over a ``ProcessPoolExecutor`` with
  per-job timeouts, bounded retry with exponential backoff, and
  worker-crash recovery; results are keyed by job id in submission
  order, never completion order, so ``jobs=N`` assembles bit-identically
  to serial.
* :func:`get_runner` / :func:`using_runner` -- the ambient-runner
  context that lets ``experiments/common.py`` and the GA's batch
  evaluator share the CLI's pool.

The runner stores nothing: a sweep that must survive its process is a
:mod:`repro.fabric` campaign, whose queue is the one result store and
whose identity covers :func:`code_fingerprint`.

Wall-clock time (timeouts, backoff, ETA) is confined to
:mod:`repro.runner.wallclock`; nothing wall-clock-derived may flow into
a result.
"""

from .context import get_runner, set_runner, using_runner
from .engine import (DETERMINISTIC_LINEAGE, JobFailure, JobOutcome, Runner,
                     RunnerConfig, RunnerError, SweepResult,
                     is_deterministic_failure)
from .fingerprint import code_fingerprint, fingerprint_tree
from .jobspec import (JobSpec, SpecError, callable_path, content_hash,
                      resolve_callable)
from .wallclock import JobTimeoutError

__all__ = [
    "DETERMINISTIC_LINEAGE",
    "JobFailure",
    "JobOutcome",
    "JobSpec",
    "JobTimeoutError",
    "Runner",
    "RunnerConfig",
    "RunnerError",
    "SpecError",
    "SweepResult",
    "callable_path",
    "code_fingerprint",
    "content_hash",
    "fingerprint_tree",
    "get_runner",
    "is_deterministic_failure",
    "resolve_callable",
    "set_runner",
    "using_runner",
]
