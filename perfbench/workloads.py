"""The four benchmark workloads, driven through the repo's public entry points.

Each workload has three parts:

* ``setup(seed, size, workdir)`` -- build the inputs from the seed: synthesise
  the traces and warm their SoA columns / DRAM coordinate tables (the
  ``campaign-drain`` jobs synthesise their own traces, so its setup is the
  queue submit).  Timed as part of ``setup_s``.
* ``run(state)`` -- the timed section.  Every simulated system is built fresh
  inside it, so the modelled caches start cold.  Workloads whose ``run`` only
  reads what ``setup`` built are ``repeatable``: a trial times several runs
  in one process.
* ``digests(outcome)`` / ``oracle(seed, size, workdir)`` -- the output
  digests of the timed run, and the same digests recomputed with the heap
  kernel (the reference engine) in a separate process.  A mismatch is a
  failed operation.

Functions the traced run wraps (see ``perfbench/tracing.py``) are called
through their defining module (``soa.trace_columns``, not a name imported
into this module), so a wrapper installed on the module is seen here too.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Dict, List

from repro import fabric
from repro.core.bins import BinConfig
from repro.core.macrotick import MacroTickPump
from repro.core.shaper import MittsShaper
from repro.experiments import common
from repro.fabric.selfcheck import selfcheck_manifest
from repro.resilience import checkpoint
from repro.sim import soa
from repro.sim.system import SCALED_MULTI_CONFIG, SimSystem
from repro.workloads.mixes import workload_traces

#: the batched (default) kernel every timed run uses
CONFIG = SCALED_MULTI_CONFIG
#: the heap kernel: the reference engine the digests are checked against
ORACLE_CONFIG = replace(SCALED_MULTI_CONFIG, kernel="heap")

#: method-2 credits for the shaped replay: one fast credit and three slow
#: ones per window, tight enough that every Table III mix 1 program stalls
#: in its shaper (``CoreStats.shaper_stall_cycles > 0``)
SHAPED_CREDITS = (1, 0, 0, 0, 0, 0, 0, 0, 0, 3)


@dataclass(frozen=True)
class Size:
    """Work per trial.  ``full`` is what the benchmark measures; ``tiny``
    keeps the benchmark's own tests fast."""

    #: simulated cycles of the shaped replay (checkpointed at half)
    shaped_cycles: int
    #: simulated cycles of each scheduler run
    sched_cycles: int
    #: simulated cycles of each GA fitness evaluation
    ga_cycles: int
    ga_generations: int
    ga_population: int
    #: jobs in the drained campaign, and simulated cycles per job
    drain_jobs: int
    drain_cycles: int


SIZES = {
    "full": Size(shaped_cycles=2_000_000, sched_cycles=250_000,
                 ga_cycles=30_000,
                 ga_generations=common.SCALES["smoke"].ga_generations,
                 ga_population=common.SCALES["smoke"].ga_population,
                 drain_jobs=24, drain_cycles=3_000),
    "tiny": Size(shaped_cycles=20_000, sched_cycles=4_000, ga_cycles=3_000,
                 ga_generations=1, ga_population=3,
                 drain_jobs=2, drain_cycles=1_000),
}


@dataclass
class Outcome:
    """What one timed section produced."""

    #: workload operations completed (the ``ops_per_s`` numerator)
    ops: int
    #: simulated system cycles summed over every simulation run
    sim_cycles: int
    #: raw outputs, digested after the timer stops
    outputs: Any
    #: workload-specific host measurements, reported per layer
    extras: Dict[str, float]


def warm_columns(traces) -> None:
    """Synthesise ``traces`` and build their SoA columns and DRAM tables,
    so the timed simulations read them from the memos."""
    for trace in traces:
        soa.trace_columns(trace, CONFIG.line_bytes)
        soa.dram_coord_table(trace, CONFIG.timing, CONFIG.dram_mapping)


# ----------------------------------------------------------------------
# shaped-replay: the batched kernel with the macro-tick pump attached


def shaped_limiters() -> List[MittsShaper]:
    # phase 0 everywhere: aligned boundaries, so the pump is eligible
    return [MittsShaper(BinConfig.from_credits(SHAPED_CREDITS))
            for _ in range(4)]


class ShapedReplay:
    name = "shaped-replay"
    repeatable = True

    def setup(self, seed: int, size: Size, workdir: Path):
        traces = workload_traces(1, seed=seed)
        warm_columns(traces)
        return traces, size, workdir

    def run(self, state) -> Outcome:
        traces, size, workdir = state
        system = SimSystem(traces, config=CONFIG, limiters=shaped_limiters())
        if MacroTickPump.eligible(system) is None:
            raise RuntimeError("shaped-replay must be macro-tick eligible")
        half = size.shaped_cycles // 2
        system.run(half)
        path = workdir / "halfway.ckpt"
        started = time.perf_counter()
        checkpoint.save_checkpoint(system, path)
        system = checkpoint.load_checkpoint(path)
        checkpoint_ms = (time.perf_counter() - started) * 1e3
        stats = system.run(size.shaped_cycles - half)
        if not all(core.shaper_stall_cycles > 0 for core in stats.cores):
            raise RuntimeError("shaped-replay credits must stall every core")
        return Outcome(ops=1, sim_cycles=stats.cycles, outputs=stats,
                       extras={"checkpoint_ms": checkpoint_ms})

    def digests(self, outcome: Outcome) -> List[str]:
        return [outcome.outputs.fingerprint()]

    def oracle(self, seed: int, size: Size, workdir: Path) -> List[str]:
        # uninterrupted, so the digest also checks the checkpoint resume
        system = SimSystem(workload_traces(1, seed=seed),
                           config=ORACLE_CONFIG, limiters=shaped_limiters())
        return [system.run(size.shaped_cycles).fingerprint()]


# ----------------------------------------------------------------------
# sched-mix8: the six conventional schedulers, unshaped


class SchedMix8:
    name = "sched-mix8"
    repeatable = True

    def setup(self, seed: int, size: Size, workdir: Path):
        traces = workload_traces(4, seed=seed)
        warm_columns(traces)
        return traces, size

    def _run(self, traces, config, cycles) -> Dict[str, Any]:
        return {policy: common.run_scheduler(policy, traces, config, cycles)
                for policy in common.conventional_schedulers()}

    def run(self, state) -> Outcome:
        traces, size = state
        stats = self._run(traces, CONFIG, size.sched_cycles)
        return Outcome(ops=len(stats),
                       sim_cycles=sum(s.cycles for s in stats.values()),
                       outputs=stats, extras={})

    def digests(self, outcome: Outcome) -> List[str]:
        return [stats.fingerprint() for stats in outcome.outputs.values()]

    def oracle(self, seed: int, size: Size, workdir: Path) -> List[str]:
        stats = self._run(workload_traces(4, seed=seed), ORACLE_CONFIG,
                          size.sched_cycles)
        return [s.fingerprint() for s in stats.values()]


# ----------------------------------------------------------------------
# ga-tune: the offline GA of Section IV-B, serial, FR-FCFS


GA_OBJECTIVES = ("throughput", "fairness")


class GaTune:
    name = "ga-tune"
    repeatable = True

    def setup(self, seed: int, size: Size, workdir: Path):
        traces = workload_traces(2, seed=seed)
        warm_columns(traces)
        return traces, seed, size

    def _run(self, traces, seed: int, size: Size, config):
        scale = replace(common.SCALES["smoke"], run_cycles=size.ga_cycles,
                        ga_generations=size.ga_generations,
                        ga_population=size.ga_population)
        return {objective: common.optimize_mitts(
                    traces, config, size.ga_cycles, objective, scale,
                    seed=seed)[0]
                for objective in GA_OBJECTIVES}

    def run(self, state) -> Outcome:
        traces, seed, size = state
        results = self._run(traces, seed, size, CONFIG)
        evaluations = sum(r.evaluations for r in results.values())
        # per objective: one alone run per program, the unshaped baseline
        # of targeted_seeds, then one run per deduplicated evaluation
        runs = sum(len(traces) + 1 + r.evaluations for r in results.values())
        return Outcome(ops=evaluations, sim_cycles=runs * size.ga_cycles,
                       outputs=results, extras={})

    @staticmethod
    def _digest(objective: str, result) -> str:
        document = json.dumps({
            "objective": objective,
            "best_genome": [config.as_list()
                            for config in result.best_genome],
            "best_fitness": result.best_fitness,
            "history": result.history,
        }, sort_keys=True)
        return hashlib.sha256(document.encode("utf-8")).hexdigest()

    def digests(self, outcome: Outcome) -> List[str]:
        return [self._digest(objective, result)
                for objective, result in outcome.outputs.items()]

    def oracle(self, seed: int, size: Size, workdir: Path) -> List[str]:
        results = self._run(workload_traces(2, seed=seed), seed, size,
                            ORACLE_CONFIG)
        return [self._digest(objective, result)
                for objective, result in results.items()]


# ----------------------------------------------------------------------
# campaign-drain: a serial fabric campaign of short checkpointed jobs


def drain_seeds(seed: int, jobs: int) -> List[int]:
    """One seed per job, four apart: ``sim_probe`` derives its four trace
    seeds as ``seed .. seed + 3``, so no two jobs share a trace memo."""
    return [seed * 1000 + 4 * job for job in range(jobs)]


class CampaignDrain:
    name = "campaign-drain"
    #: a drained queue cannot be drained again, and a second campaign in
    #: the same process could hit the trace memos
    repeatable = False

    def setup(self, seed: int, size: Size, workdir: Path):
        document = selfcheck_manifest(size.drain_jobs, size.drain_cycles)
        document["name"] = "perfbench-drain"
        document["grid"] = {"seed": drain_seeds(seed, size.drain_jobs)}
        queue = fabric.CampaignQueue.submit(
            workdir / "queue", fabric.parse_manifest(document))
        return queue, workdir

    def run(self, state) -> Outcome:
        queue, workdir = state
        started = time.perf_counter()
        fabric.work_campaign(queue, worker="perfbench", jobs=1, pool=False,
                             wait_for_drain=False, lease_seconds=3600.0)
        drain_s = time.perf_counter() - started
        with fabric.ResultsDb(workdir / "results.sqlite") as db:
            db.merge_queue(queue)
            db.fingerprint(queue.campaign_id)
        records = [queue.load_result(index) or {}
                   for index in queue.job_indices()]
        durations = [float(r.get("duration") or 0.0) for r in records]
        values = [json.loads(r["value_json"]) for r in records
                  if r.get("status") == fabric.RESULT_DONE]
        return Outcome(
            ops=len(records),
            sim_cycles=sum(value["cycles"] for value in values),
            outputs=records,
            extras={"job_overhead_ms":
                    (drain_s - sum(durations)) / len(records) * 1e3,
                    "job_ms_p50": statistics.median(durations) * 1e3,
                    "job_exec_s": sum(durations)})

    def digests(self, outcome: Outcome) -> List[str]:
        digests = []
        for record in outcome.outputs:
            if record.get("status") == fabric.RESULT_DONE:
                digests.append(json.loads(record["value_json"])
                               ["fingerprint"])
            else:
                digests.append(f"not-done: {record.get('error')}")
        return digests

    def oracle(self, seed: int, size: Size, workdir: Path) -> List[str]:
        return [SimSystem(workload_traces(1, seed=job_seed),
                          config=ORACLE_CONFIG)
                .run(size.drain_cycles).fingerprint()
                for job_seed in drain_seeds(seed, size.drain_jobs)]


WORKLOADS = {workload.name: workload for workload in
             (ShapedReplay(), SchedMix8(), GaTune(), CampaignDrain())}
