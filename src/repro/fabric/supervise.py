"""Supervised worker fleets: restart-with-backoff over campaign pools.

``python -m repro.fabric supervise`` runs N worker pools as child
processes (each one a ``python -m repro.fabric work`` invocation -- the
same process boundary the queue's lease protocol already assumes) and
babysits them until the campaign reaches a terminal disposition:

* **liveness probes** -- each tick polls every child; a child that
  exited while the campaign still has outstanding work is a casualty,
  not a conclusion (its leases lapse and survivors steal them -- the
  supervisor's job is only to keep enough survivors alive).
* **exponential backoff with jitter** -- restarts are delayed by
  ``backoff * 2^consecutive`` plus a seeded-random jitter so a fleet of
  supervisors never thundering-herds a shared filesystem.  The jitter
  RNG is seeded (``random.Random``): two supervisors with the same seed
  replay the same schedule, which keeps chaos runs reproducible.
* **crash-loop circuit breaker** -- a pool that dies ``max_restarts``
  times within ``window_seconds`` is *tripped* and never restarted; if
  every pool trips while work remains, the campaign is declared wedged
  rather than burning restarts forever (the dead-letter directory and
  ``fabric doctor`` hold the post-mortem).

The supervisor itself never touches claims or results -- all campaign
state flows through the queue directory, so a supervisor crash is
harmless: re-running ``supervise`` resumes exactly where the fleet left
off.  Wall-clock access goes through :mod:`repro.runner.wallclock`.
"""

from __future__ import annotations

import os
import random
import signal
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

from ..runner import wallclock
from .queue import (DEFAULT_LEASE_SECONDS, DEFAULT_MAX_ATTEMPTS,
                    DISPOSITION_COMPLETE, DISPOSITION_DEGRADED,
                    DISPOSITION_WEDGED, CampaignQueue)

#: default fleet shape
DEFAULT_POOLS = 2

#: restart policy defaults
DEFAULT_BACKOFF_SECONDS = 0.5
DEFAULT_MAX_RESTARTS = 5
DEFAULT_RESTART_WINDOW_SECONDS = 120.0


class _Slot:
    """One supervised pool position (a process comes and goes; the slot
    and its restart budget persist)."""

    def __init__(self, slot_id: int) -> None:
        self.slot_id = slot_id
        self.process: Optional[subprocess.Popen] = None
        self.spawned_once = False
        self.tripped = False
        self.restarts = 0
        self.restart_times: List[float] = []
        self.exit_codes: List[int] = []
        self.next_start_at = 0.0


def _worker_command(queue_root: Union[str, Path], campaign_id: str,
                    jobs: int, lease_seconds: float,
                    max_attempts: Optional[int],
                    inject_faults: Optional[str],
                    extra: Sequence[str]) -> List[str]:
    command = [sys.executable, "-m", "repro.fabric", "work",
               str(queue_root), "--campaign", campaign_id,
               "--jobs", str(jobs), "--lease", str(lease_seconds),
               "--poll", "0.2"]
    if max_attempts is not None:
        command += ["--max-attempts", str(max_attempts)]
    if inject_faults:
        command += ["--inject-faults", inject_faults]
    command += list(extra)
    return command


def _signal_pool(process: subprocess.Popen, signum: int) -> None:
    """Signal a pool's whole process group.

    Each pool runs in its own session, so its group holds the worker and
    the process-pool children it forked.  Signalling the worker alone
    would orphan those children, blocked in a pipe read forever.
    """
    try:
        os.killpg(process.pid, signum)
    except ProcessLookupError:
        pass


def run_supervisor(queue: CampaignQueue,
                   pools: int = DEFAULT_POOLS,
                   jobs: int = 1,
                   lease_seconds: float = DEFAULT_LEASE_SECONDS,
                   max_attempts: Optional[int] = DEFAULT_MAX_ATTEMPTS,
                   seed: int = 0,
                   backoff_seconds: float = DEFAULT_BACKOFF_SECONDS,
                   max_restarts: int = DEFAULT_MAX_RESTARTS,
                   window_seconds: float = DEFAULT_RESTART_WINDOW_SECONDS,
                   inject_faults: Optional[str] = None,
                   first_spawn_extra: Sequence[str] = (),
                   poll_seconds: float = 0.25,
                   timeout: float = 600.0,
                   echo=print) -> Dict[str, Any]:
    """Supervise ``pools`` worker pools until the campaign terminates.

    ``inject_faults`` forwards a :class:`~repro.fabric.harden.FaultPlan`
    spec to every child (each child builds its *own* seeded shim --
    faults never cross the process boundary).  ``first_spawn_extra`` is
    the chaos hook: extra argv appended to pool 0's **first** spawn only
    (e.g. ``["--die-after-claims", "1"]`` to force one kill -9 and prove
    the restart path); restarts never inherit it, so the fleet recovers.

    Returns a report dict: ``disposition``, total ``restarts``,
    ``tripped`` slot ids, per-slot ``exit_codes``, and ``ok``.
    """
    if pools < 1:
        raise ValueError("pools must be >= 1")
    rng = random.Random(("supervisor", seed).__repr__())
    slots = [_Slot(slot_id) for slot_id in range(pools)]
    deadline = wallclock.now() + timeout
    timed_out = False

    def _spawn(slot: _Slot) -> None:
        extra = tuple(first_spawn_extra) \
            if (slot.slot_id == 0 and not slot.spawned_once) else ()
        command = _worker_command(queue.root, queue.campaign_id, jobs,
                                  lease_seconds, max_attempts,
                                  inject_faults, extra)
        slot.process = subprocess.Popen(command,
                                        stdout=subprocess.DEVNULL,
                                        start_new_session=True)
        if slot.spawned_once:
            slot.restarts += 1
        slot.spawned_once = True
        echo(f"[supervise] pool {slot.slot_id}: started pid "
             f"{slot.process.pid}"
             + (f" (chaos argv: {' '.join(extra)})" if extra else ""))

    try:
        while True:
            snapshot = queue.snapshot()
            disposition = snapshot["disposition"]
            if disposition in (DISPOSITION_COMPLETE, DISPOSITION_DEGRADED):
                break
            if wallclock.now() > deadline:
                timed_out = True
                break
            alive = 0
            for slot in slots:
                if slot.process is not None:
                    code = slot.process.poll()
                    if code is None:
                        alive += 1
                        continue
                    # Liveness probe failed: the child exited with work
                    # outstanding.  Reap whatever it forked.
                    _signal_pool(slot.process, signal.SIGKILL)
                    slot.exit_codes.append(code)
                    slot.process = None
                    now = wallclock.now()
                    slot.restart_times = [
                        stamp for stamp in slot.restart_times
                        if now - stamp <= window_seconds]
                    if len(slot.restart_times) >= max_restarts:
                        slot.tripped = True
                        echo(f"[supervise] pool {slot.slot_id}: circuit "
                             f"breaker tripped after "
                             f"{len(slot.restart_times)} exit(s) in "
                             f"{window_seconds:.0f}s (last code {code})")
                        continue
                    slot.restart_times.append(now)
                    consecutive = len(slot.restart_times)
                    delay = (backoff_seconds * (2 ** (consecutive - 1))
                             + rng.uniform(0.0, backoff_seconds))
                    slot.next_start_at = now + delay
                    echo(f"[supervise] pool {slot.slot_id}: exited "
                         f"{code}; restart in {delay:.2f}s")
                    continue
                if slot.tripped:
                    continue
                if wallclock.now() >= slot.next_start_at:
                    _spawn(slot)
                    alive += 1
            if alive == 0 and all(slot.tripped for slot in slots):
                # Every pool is crash-looping: stop burning restarts.
                break
            wallclock.sleep(poll_seconds)
    finally:
        for slot in slots:
            if slot.process is not None:
                _signal_pool(slot.process, signal.SIGTERM)
        for slot in slots:
            if slot.process is not None:
                try:
                    slot.exit_codes.append(
                        slot.process.wait(timeout=10.0))
                except subprocess.TimeoutExpired:
                    _signal_pool(slot.process, signal.SIGKILL)
                    slot.exit_codes.append(slot.process.wait())
                slot.process = None

    snapshot = queue.snapshot()
    disposition = snapshot["disposition"]
    if timed_out or (disposition not in (DISPOSITION_COMPLETE,
                                         DISPOSITION_DEGRADED)):
        disposition = DISPOSITION_WEDGED
    report = {
        "ok": not timed_out and disposition in (DISPOSITION_COMPLETE,
                                                DISPOSITION_DEGRADED),
        "disposition": disposition,
        "campaign_id": queue.campaign_id,
        "pools": pools,
        "restarts": sum(slot.restarts for slot in slots),
        "tripped": [slot.slot_id for slot in slots if slot.tripped],
        "exit_codes": {str(slot.slot_id): list(slot.exit_codes)
                       for slot in slots},
        "timed_out": timed_out,
        "snapshot": snapshot,
    }
    echo(f"[supervise] campaign {queue.campaign_id}: {disposition} "
         f"({report['restarts']} restart(s), "
         f"{len(report['tripped'])} tripped)")
    return report


__all__ = ["run_supervisor", "DEFAULT_POOLS", "DEFAULT_BACKOFF_SECONDS",
           "DEFAULT_MAX_RESTARTS", "DEFAULT_RESTART_WINDOW_SECONDS"]
