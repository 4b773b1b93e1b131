"""End-to-end fabric validation: kill a worker, steal, compare to serial.

``run_selfcheck`` is the executable form of the fabric's determinism
claim (DESIGN.md section 11).  It submits one small simulation campaign
twice -- once drained serially in-process (the reference), once drained
by **two worker subprocesses**: the first is seeded to die
``kill -9``-style while holding its first claim, and the second drains
the rest and steals that claim once its lease expires -- then merges
both queues into results databases and asserts the campaign
fingerprints are identical.
It also re-renders the campaign's data through ``query``/``plot`` paths
(CSV + SVG) so the read side is exercised from the database alone.

This is what ``python -m repro.fabric selfcheck`` runs and what the CI
``fabric-smoke`` job gates on; tests call it with a smaller job count.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, Union

from .db import ResultsDb, write_csv
from .harden import FaultPlan, FaultyFS
from .manifest import parse_manifest
from .plot import render, series_from_table
from .queue import RESULT_DONE, CampaignQueue
from .service import run_campaign_serial

#: short lease so the surviving worker steals quickly
SELFCHECK_LEASE_SECONDS = 2.0

#: quiescent storage shim spec: every IO routed through FaultyFS with
#: the injection rate at zero, proving the shim itself is bit-neutral
QUIESCENT_PLAN = "seed=0,rate=0"


def sim_probe(seed: int, cycles: int = 3_000) -> Dict[str, Any]:
    """One tiny deterministic simulation: the selfcheck's unit of work.

    Runs a one-workload MITTS system for ``cycles`` with periodic
    checkpoints (so a stolen job resumes rather than restarts) and
    returns numeric stats plus the run fingerprint -- enough signal for
    the database fingerprint to catch any nondeterminism.
    """
    from ..resilience.checkpoint import run_with_checkpoints
    from ..sim.system import SCALED_MULTI_CONFIG, SimSystem
    from ..workloads.mixes import workload_traces

    def make() -> SimSystem:
        return SimSystem(workload_traces(1, seed=seed),
                         config=SCALED_MULTI_CONFIG)

    system = run_with_checkpoints(make, cycles,
                                  interval=max(1, cycles // 4))
    stats = system.stats
    return {
        "seed": seed,
        "cycles": stats.cycles,
        "dram_requests": stats.total_dram_requests,
        "row_hit_rate": stats.row_hit_rate,
        "fingerprint": stats.fingerprint(),
    }


def selfcheck_manifest(num_jobs: int, cycles: int) -> Dict[str, Any]:
    """The selfcheck campaign as a plain manifest document."""
    return {
        "name": "fabric-selfcheck",
        "fn": "repro.fabric.selfcheck:sim_probe",
        "fixed": {"cycles": cycles},
        "grid": {"seed": list(range(1, num_jobs + 1))},
        "policy": {"timeout": 120.0, "retries": 3},
    }


def _spawn_worker(root: Path, campaign_id: str,
                  die_after_claims: int = 0) -> subprocess.Popen:
    command = [sys.executable, "-m", "repro.fabric", "work", str(root),
               "--campaign", campaign_id, "--jobs", "1",
               "--lease", str(SELFCHECK_LEASE_SECONDS), "--poll", "0.1",
               "--inject-faults", QUIESCENT_PLAN]
    if die_after_claims:
        command += ["--die-after-claims", str(die_after_claims)]
    return subprocess.Popen(command)


def run_selfcheck(workdir: Union[str, Path], num_jobs: int = 24,
                  cycles: int = 3_000, timeout: float = 600.0,
                  echo=print) -> Dict[str, Any]:
    """Run the whole scenario; returns a report dict with ``"ok"``.

    ``workdir`` receives two queue roots (``serial/``, ``fabric/``),
    two databases, and the exported CSV/SVG artifacts.
    """
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    manifest = parse_manifest(selfcheck_manifest(num_jobs, cycles))

    # --- reference: serial drain --------------------------------------
    echo(f"[selfcheck] serial reference: {num_jobs} jobs x "
         f"{cycles} cycles")
    serial_queue = CampaignQueue.submit(workdir / "serial", manifest)
    serial_queue.storage = FaultyFS(FaultPlan.parse(QUIESCENT_PLAN),
                                    inner=serial_queue.storage)
    run_campaign_serial(serial_queue)
    with ResultsDb(workdir / "serial.sqlite") as serial_db:
        serial_db.merge_queue(serial_queue)
        serial_print = serial_db.fingerprint(serial_queue.campaign_id)

    # --- two pools, one killed mid-campaign ---------------------------
    echo("[selfcheck] fabric drain: 2 workers, killing one "
         "after its first claim")
    fabric_queue = CampaignQueue.submit(workdir / "fabric", manifest)
    victim = _spawn_worker(workdir / "fabric", fabric_queue.campaign_id,
                           die_after_claims=1)
    # The victim dies at its first claim.  Start the survivor only then:
    # started together, the survivor can drain the whole campaign before
    # the victim claims anything, and nothing is killed or stolen.
    victim_code = victim.wait(timeout=timeout)
    survivor = _spawn_worker(workdir / "fabric", fabric_queue.campaign_id)
    survivor_code = survivor.wait(timeout=timeout)

    stolen = 0
    for index in fabric_queue.job_indices():
        record = fabric_queue.load_result(index) or {}
        if record.get("lease_generation", 1) > 1:
            stolen += 1
    with ResultsDb(workdir / "fabric.sqlite") as fabric_db:
        fabric_db.merge_queue(fabric_queue)
        fabric_print = fabric_db.fingerprint(fabric_queue.campaign_id)

        # --- read side: query + plot from the database alone ----------
        headers, rows = fabric_db.table(fabric_queue.campaign_id)
        csv_text = write_csv(headers, rows, workdir / "selfcheck.csv")
        figure = render(
            series_from_table(headers, rows, x="seed",
                              y="dram_requests"),
            title="fabric selfcheck: DRAM requests by seed",
            x_label="seed", y_label="dram_requests",
            out_path=workdir / "selfcheck.svg")

    status_at = headers.index("status")
    done = sum(1 for row in rows if row[status_at] == RESULT_DONE)
    report = {
        "ok": (serial_print == fabric_print
               and done == num_jobs
               and survivor_code == 0
               and victim_code != 0
               and stolen >= 1),
        "num_jobs": num_jobs,
        "done": done,
        "stolen": stolen,
        "victim_exit": victim_code,
        "survivor_exit": survivor_code,
        "serial_fingerprint": serial_print,
        "fabric_fingerprint": fabric_print,
        "fingerprints_match": serial_print == fabric_print,
        "csv_rows": csv_text.count("\n") - 1,
        "figure": str(figure),
    }
    echo(f"[selfcheck] victim exit {victim_code}, survivor exit "
         f"{survivor_code}, {done}/{num_jobs} done, {stolen} stolen")
    echo(f"[selfcheck] serial  {serial_print[:16]}…")
    echo(f"[selfcheck] fabric  {fabric_print[:16]}…")
    echo(f"[selfcheck] {'OK' if report['ok'] else 'MISMATCH'}")
    return report


__all__ = ["run_selfcheck", "selfcheck_manifest", "sim_probe",
           "SELFCHECK_LEASE_SECONDS", "QUIESCENT_PLAN"]
