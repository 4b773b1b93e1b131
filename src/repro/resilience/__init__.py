"""``repro.resilience`` -- checkpoint/resume, starvation detection, chaos.

Long sweeps toward the ROADMAP's production-scale north star must survive
two failure families without recomputing from cycle 0:

* **infrastructure faults** (killed workers, timeouts, damaged queue
  files) -- transient, handled by checkpoint/resume
  (:mod:`repro.resilience.checkpoint`) plus the runner's retry machinery;
* **degenerate configurations** (zero-credit or otherwise starving MITTS
  genomes) -- deterministic, detected in simulated time by the
  forward-progress watchdog (:mod:`repro.resilience.watchdog`) and
  reported as a structured :class:`StarvationError` that is scored, not
  retried.

:mod:`repro.resilience.chaos` is the proof: a seeded fault-injection
harness that kills workers mid-job, damages campaign queue writes,
throws at a chosen event, and attempts clock skew / duplicate events,
asserting the recovery path fires for every fault class.  Run it via
the tests or ``python -m repro.resilience --chaos`` (the chaos module
imports the runner and simulator, so it is loaded lazily -- importing
this package stays cheap for the simulator core).
"""

from .checkpoint import (CHECKPOINT_VERSION, CheckpointError,
                         DEFAULT_CHECKPOINT_INTERVAL, checkpoint_scope,
                         discard_checkpoint, job_checkpoint_path,
                         load_checkpoint, read_checkpoint_meta,
                         run_with_checkpoints, save_checkpoint)
from .watchdog import (ForwardProgressWatchdog, StarvationError,
                       WatchdogConfig)

__all__ = [
    "CHECKPOINT_VERSION",
    "CheckpointError",
    "DEFAULT_CHECKPOINT_INTERVAL",
    "ForwardProgressWatchdog",
    "StarvationError",
    "WatchdogConfig",
    "checkpoint_scope",
    "discard_checkpoint",
    "job_checkpoint_path",
    "load_checkpoint",
    "read_checkpoint_meta",
    "run_with_checkpoints",
    "save_checkpoint",
]
