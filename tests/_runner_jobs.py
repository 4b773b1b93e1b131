"""Module-level job functions for the runner tests.

Job specs name callables by ``module:qualname`` path, so anything a
worker executes must live at module scope in an importable module --
hence this helper module rather than closures inside the tests.

Cross-process state (attempt counters, crash-once markers) goes through
the filesystem: the test hands each function a path inside ``tmp_path``.
"""

import os
import time


def add_one(x):
    return x + 1


def echo(value):
    return value


def always_fails(message):
    raise RuntimeError(message)


def sleep_then_return(seconds, value):
    time.sleep(seconds)
    return value


def crash_hard():
    """Kill the worker process outright (bypasses all exception handling)."""
    os._exit(17)


def crash_once_then_return(marker_path, value):
    """Die the first time, succeed on retry (worker-crash recovery)."""
    if not os.path.exists(marker_path):
        with open(marker_path, "w", encoding="utf-8") as handle:
            handle.write("crashed")
        os._exit(19)
    return value


def fail_until_attempt(counter_path, needed_attempts, value):
    """Raise until the cross-process attempt counter reaches the target."""
    with open(counter_path, "a", encoding="utf-8") as handle:
        handle.write("x")
    if os.path.getsize(counter_path) < needed_attempts:
        raise RuntimeError(
            f"attempt {os.path.getsize(counter_path)} of {needed_attempts}")
    return value


def raise_value_error(message):
    """Deterministic failure: the runner must not retry this."""
    raise ValueError(message)


def checkpointed_sim(marker_path, cycles):
    """Simulate with periodic checkpoints; die once after they exist.

    First attempt runs to completion (writing checkpoints along the way)
    and then kills the worker, leaving the last periodic checkpoint on
    disk.  The retry must *resume* from it -- the returned
    ``started_from`` records the cycle the attempt began at, and the
    fingerprint proves the resumed run matches an uninterrupted one.
    """
    from repro.resilience.checkpoint import (job_checkpoint_path,
                                             read_checkpoint_meta,
                                             run_with_checkpoints)
    from repro.sim.system import SCALED_MULTI_CONFIG, SimSystem
    from repro.workloads.mixes import workload_traces

    path = job_checkpoint_path()
    started_from = 0
    if path and os.path.exists(path):
        started_from = read_checkpoint_meta(path)["cycle"]

    def make():
        return SimSystem(workload_traces(1, seed=11),
                         config=SCALED_MULTI_CONFIG)

    system = run_with_checkpoints(make, cycles,
                                  interval=max(1, cycles // 3))
    if not os.path.exists(marker_path):
        with open(marker_path, "w", encoding="utf-8") as handle:
            handle.write("died")
        os._exit(29)
    return {"started_from": started_from,
            "fingerprint": system.stats.fingerprint()}


def record_attempt(log_path, value):
    """Append one line per call: lets tests count real executions."""
    with open(log_path, "a", encoding="utf-8") as handle:
        handle.write(f"{value}\n")
    return value


def sees_no_ambient_runner():
    """True when the worker runs with no ambient runner installed."""
    from repro.runner.context import get_runner
    return get_runner() is None
