"""Spans around calls into each layer's public entry points.

Only the traced run installs these wrappers; the timed runs get none.  A
:class:`Tracer` replaces each wrapped function or method with a wrapper that
records one span ``(name, start, end, parent)``, keeps the spans in memory,
and writes them once, as plain JSON, when the run ends.  A span's self time
is its duration minus its direct children's durations.

A few wrappers also read counters at the same boundary, after a call that
returned: the simulated counters are the change in ``SystemStats`` (and the
shapers' own counters) across each completed ``SimSystem.run`` call, so a
checkpointed run is not counted twice.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
import time
from collections import Counter
from typing import Callable, Dict, List

#: policy names of ``repro.experiments.common.conventional_schedulers()``;
#: fixed here because they are metric names in ``BENCHMARK.json``
SCHEDULERS = ("FR-FCFS", "FairQueue", "TCM", "FST", "MemGuard", "MISE")

#: additive simulated counters, as ``(metric, CoreStats field)``
_CORE_COUNTERS = (
    ("core.accesses", "accesses"),
    ("core.retired", "retired"),
    ("core.memory_stall_cycles", "memory_stall_cycles"),
    ("llc.hits", "llc_hits"),
    ("llc.misses", "llc_misses"),
    ("dram.requests", "dram_requests"),
    ("dram.writebacks", "writebacks"),
    ("shaper.stall_cycles", "shaper_stall_cycles"),
)


class Tracer:
    """Records spans and boundary counters for one traced run."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent index or None]``, in opening order
        self.spans: List[list] = []
        self.counters: Counter = Counter()
        #: ``(benchmark, seed)`` of every trace iterated
        self.trace_keys = set()
        self._stack: List[int] = []
        self._patches: List[tuple] = []
        self._origin = time.perf_counter()

    # ------------------------------------------------------------------
    # spans

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter() - self._origin, None,
                           parent])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter() - self._origin
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {index} closed out of order")

    def _wrapper(self, fn: Callable, name, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(args) if callable(name) else name
            token = before(args) if before is not None else None
            index = tracer.open(label)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if after is not None:
                after(token, args, result)
            return result
        return traced

    # ------------------------------------------------------------------
    # installing wrappers

    def wrap_method(self, owner: type, attr: str, name, before=None,
                    after=None) -> None:
        """Wrap a method or classmethod on a class."""
        raw = vars(owner)[attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(self._wrapper(raw.__func__, name, before,
                                                after))
        else:
            wrapped = self._wrapper(raw, name, before, after)
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, raw))

    def wrap_function(self, module, attr: str, name, before=None,
                      after=None) -> None:
        """Wrap a module-level function in its module and in every loaded
        ``repro`` module that imported it by name."""
        original = getattr(module, attr)
        wrapped = self._wrapper(original, name, before, after)
        for loaded_name, loaded in list(sys.modules.items()):
            if loaded is None or not (loaded_name == "repro"
                                      or loaded_name.startswith("repro.")):
                continue
            if vars(loaded).get(attr) is original:
                setattr(loaded, attr, wrapped)
                self._patches.append((loaded, attr, original))

    def install(self) -> None:
        """Wrap every layer entry point the benchmark reports on."""
        from repro.experiments import common
        from repro.fabric.db import ResultsDb
        from repro.fabric.queue import CampaignQueue
        from repro.resilience import checkpoint
        from repro.runner.engine import Runner
        from repro.sim import soa
        from repro.sim.stats import SystemStats
        from repro.sim.system import SimSystem
        from repro.tuning.ga import GeneticAlgorithm
        from repro.tuning.objectives import FitnessEvaluator
        from repro.workloads.generator import SyntheticTrace

        self.wrap_method(SyntheticTrace, "__iter__", "workloads.synth",
                         after=self._after_synth)
        self.wrap_function(soa, "trace_columns", "soa.trace_columns")
        self.wrap_function(soa, "dram_coord_table", "soa.dram_coord_table")
        self.wrap_method(SimSystem, "__init__", "sim.build",
                         after=self._after_build)
        self.wrap_method(SimSystem, "run", "sim.run",
                         before=self._before_run, after=self._after_run)
        self.wrap_function(common, "run_scheduler",
                           lambda args: f"sched.{args[0]}")
        self.wrap_function(common, "measure_alone",
                           "experiments.measure_alone")
        self.wrap_method(GeneticAlgorithm, "run", "ga.run",
                         after=self._after_ga)
        self.wrap_method(FitnessEvaluator, "__call__", "tuning.evaluate")
        self.wrap_function(checkpoint, "save_checkpoint", "checkpoint.save",
                           after=self._after_save)
        self.wrap_function(checkpoint, "load_checkpoint", "checkpoint.load")
        self.wrap_method(Runner, "run", "runner.run")
        self.wrap_method(CampaignQueue, "submit", "fabric.submit")
        self.wrap_method(CampaignQueue, "claim_next", "fabric.claim")
        self.wrap_method(CampaignQueue, "complete", "fabric.complete")
        self.wrap_method(ResultsDb, "merge_queue", "fabric.merge")
        self.wrap_method(ResultsDb, "fingerprint", "fabric.fingerprint")
        self.wrap_method(SystemStats, "fingerprint", "stats.fingerprint")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------------
    # boundary counters

    def _after_synth(self, token, args, result) -> None:
        trace = args[0]
        self.trace_keys.add((trace.profile.name, trace.seed))

    def _after_build(self, token, args, result) -> None:
        from repro.core.macrotick import MacroTickPump
        if MacroTickPump.eligible(args[0]) is not None:
            self.counters["macrotick.eligible_systems"] += 1

    @staticmethod
    def _sim_counters(system) -> Dict[str, int]:
        from repro.core.shaper import MittsShaper
        stats = system.stats
        counts = {"sim.cycles": system.engine.now,
                  "sim.events": system.engine.events_executed,
                  "dram.row_hits": stats.row_hits,
                  "dram.row_misses": stats.row_misses,
                  "mc.backpressure_events": stats.queue_backpressure_events}
        for metric, attr in _CORE_COUNTERS:
            counts[metric] = sum(getattr(core, attr) for core in stats.cores)
        shapers = [system.limiter(core) for core in range(len(stats.cores))]
        shapers = [s for s in shapers if isinstance(s, MittsShaper)]
        counts["shaper.released"] = sum(s.released for s in shapers)
        counts["shaper.refunds"] = sum(s.refunds for s in shapers)
        return counts

    def _before_run(self, args) -> Dict[str, int]:
        return self._sim_counters(args[0])

    def _after_run(self, token, args, result) -> None:
        system = args[0]
        for metric, value in self._sim_counters(system).items():
            self.counters[metric] += value - token[metric]
        peak = system.stats.peak_queue_depth
        if peak > self.counters["mc.peak_queue_depth"]:
            self.counters["mc.peak_queue_depth"] = peak

    def _after_ga(self, token, args, result) -> None:
        self.counters["ga.evaluations"] += result.evaluations
        self.counters["ga.memo_hits"] += result.memo_hits
        self.counters["ga.penalized"] += result.penalized

    def _after_save(self, token, args, result) -> None:
        self.counters["checkpoint.bytes"] += os.path.getsize(args[1])

    # ------------------------------------------------------------------
    # results

    def self_times(self) -> List[float]:
        """Each span's duration minus its direct children's durations."""
        children = [0.0] * len(self.spans)
        for _name, start, end, parent in self.spans:
            if parent is not None:
                children[parent] += end - start
        return [end - start - children[index]
                for index, (_name, start, end, _parent)
                in enumerate(self.spans)]

    def write(self, path: str) -> None:
        """Write every span as plain JSON (times in seconds from the
        tracer's creation)."""
        document = [{"id": index, "name": name, "start": start, "end": end,
                     "parent": parent}
                    for index, (name, start, end, parent)
                    in enumerate(self.spans)]
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1)
            handle.write("\n")

    def layer_metrics(self, extras: Dict[str, float]) -> Dict[str, float]:
        """The per-layer metrics of this traced run (see README.md);
        ``extras`` are the workload's own host measurements."""
        selfs = self.self_times()
        inclusive: Counter = Counter()
        own: Counter = Counter()
        calls: Counter = Counter()
        has_children = {parent for _name, _start, _end, parent in self.spans
                        if parent is not None}
        memo_calls = memo_hits = 0
        evals = []
        for index, (name, start, end, _parent) in enumerate(self.spans):
            inclusive[name] += end - start
            own[name] += selfs[index]
            calls[name] += 1
            if name in ("soa.trace_columns", "soa.dram_coord_table"):
                # a memo miss synthesises (trace_columns) or builds columns
                # (dram_coord_table) inside the call; a hit calls nothing
                memo_calls += 1
                memo_hits += index not in has_children
            elif name == "tuning.evaluate":
                evals.append(end - start)
        counters = self.counters
        events = counters["sim.events"]
        row_total = counters["dram.row_hits"] + counters["dram.row_misses"]
        metrics = {
            "workloads.synth_s": own["workloads.synth"],
            "workloads.traces": len(self.trace_keys),
            "soa.columns_s": own["soa.trace_columns"],
            "soa.coord_table_s": own["soa.dram_coord_table"],
            "soa.memo_hit_ratio": memo_hits / memo_calls if memo_calls
            else 0.0,
            "sim.build_s": own["sim.build"],
            "sim.builds": calls["sim.build"],
            "sim.run_s": own["sim.run"],
            "sim.runs": calls["sim.run"],
            "sim.events": events,
            "sim.us_per_event": own["sim.run"] / events * 1e6 if events
            else 0.0,
        }
        for policy in SCHEDULERS:
            metrics[f"sched.{policy}.run_s"] = inclusive[f"sched.{policy}"]
        for metric in ("shaper.stall_cycles", "shaper.released",
                       "shaper.refunds", "macrotick.eligible_systems",
                       "sim.cycles", "core.accesses", "core.retired",
                       "core.memory_stall_cycles", "llc.hits", "llc.misses",
                       "dram.requests", "dram.writebacks"):
            metrics[metric] = counters[metric]
        metrics.update({
            "dram.row_hit_rate": counters["dram.row_hits"] / row_total
            if row_total else 0.0,
            "mc.peak_queue_depth": counters["mc.peak_queue_depth"],
            "mc.backpressure_events": counters["mc.backpressure_events"],
            "ga.run_s": inclusive["ga.run"],
            "ga.self_s": own["ga.run"],
            "ga.evaluations": counters["ga.evaluations"],
            "ga.memo_hits": counters["ga.memo_hits"],
            "ga.penalized": counters["ga.penalized"],
            "tuning.eval_ms_p50": statistics.median(evals) * 1e3 if evals
            else 0.0,
            "experiments.alone_s": inclusive["experiments.measure_alone"],
            "checkpoint.save_s": own["checkpoint.save"],
            "checkpoint.load_s": own["checkpoint.load"],
            "checkpoint.saves": calls["checkpoint.save"],
            "checkpoint.bytes": counters["checkpoint.bytes"],
            "runner.run_s": inclusive["runner.run"],
            "runner.job_exec_s": extras.get("job_exec_s", 0.0),
            "fabric.submit_s": inclusive["fabric.submit"],
            "fabric.claim_s": inclusive["fabric.claim"],
            "fabric.claims": calls["fabric.claim"],
            "fabric.complete_s": inclusive["fabric.complete"],
            "fabric.merge_s": inclusive["fabric.merge"],
            "fabric.fingerprint_s": inclusive["fabric.fingerprint"],
            "fabric.job_ms_p50": extras.get("job_ms_p50", 0.0),
            "stats.fingerprint_s": inclusive["stats.fingerprint"],
        })
        return metrics
