"""Simulator throughput benchmarks (``python -m repro.bench``).

This package measures the *simulator's* speed -- events per wall-clock
second and wall time per run -- not the simulated system's performance.
It exists so that event-kernel changes can be judged against a committed
baseline: the CI perf-smoke job runs ``python -m repro.bench --quick``
and fails when events/sec regresses more than a tolerance against
``benchmarks/perf/baseline.json``.

Two seeded workloads cover the two main simulation shapes:

* ``single`` -- one ``mcf``-profile core on the scaled single-program
  configuration (small LLC, one shaper port).
* ``mix4``   -- the four-core workload mix 1 on the scaled multi-program
  configuration (shared LLC, four ports, FCFS fallback scheduler).

Both are fully deterministic (fixed profiles, fixed seeds), so event
counts are reproducible run to run; only wall time varies.  Wall-clock
reads go through :mod:`repro.runner.wallclock`, the repo's single
sanctioned real-time access point, and never flow into simulation state.
"""

from __future__ import annotations

import cProfile
import json
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..runner import wallclock
from ..sim import soa
from ..sim.system import (SCALED_MULTI_CONFIG, SCALED_SINGLE_CONFIG,
                          SimSystem)
from ..workloads.benchmarks import trace_for
from ..workloads.mixes import workload_traces

#: cycles simulated per repeat in full / quick mode
FULL_CYCLES = 600_000
QUICK_CYCLES = 150_000
#: repeats per workload (best-of is reported)
FULL_REPEATS = 4
QUICK_REPEATS = 2

SCHEMA = "repro.bench/v1"


@dataclass(frozen=True)
class BenchWorkload:
    """One named, seeded simulator configuration to time."""

    name: str
    #: builds a fresh system
    build: Callable[[], SimSystem]


def _build_single() -> SimSystem:
    return SimSystem([trace_for("mcf", seed=7)], config=SCALED_SINGLE_CONFIG)


def _build_mix4() -> SimSystem:
    return SimSystem(workload_traces(1, seed=7), config=SCALED_MULTI_CONFIG)


WORKLOADS = (
    BenchWorkload("single", _build_single),
    BenchWorkload("mix4", _build_mix4),
)


def _build_warm(workload: BenchWorkload) -> SimSystem:
    """A fresh system of ``workload`` with its traces already synthesised.

    Synthesis is lazy (a replay synthesises events when it first reaches
    them); doing it here keeps it out of the timed and profiled runs,
    which measure the simulator kernel.
    """
    system = workload.build()
    for core in system.cores:
        soa.trace_columns(core.trace, system.config.line_bytes)
    return system


def time_workload(workload: BenchWorkload, cycles: int,
                  repeats: int) -> Dict:
    """Time ``repeats`` fresh runs of ``workload``; report the best.

    Each repeat constructs a fresh system (so caches, heaps and stats
    start cold) and times only :meth:`SimSystem.run`.  The event count is
    identical across repeats -- the simulation is deterministic -- so the
    best wall time gives the peak events/sec the kernel can sustain.
    """
    times: List[float] = []
    events = 0
    for _ in range(repeats):
        system = _build_warm(workload)
        start = wallclock.now()
        system.run(cycles)
        elapsed = wallclock.now() - start
        times.append(elapsed)
        events = system.engine.events_executed
    best = min(times)
    return {
        "cycles": cycles,
        "repeats": repeats,
        "events_executed": events,
        "wall_seconds": round(best, 6),
        "wall_seconds_all": [round(t, 6) for t in times],
        "events_per_second": round(events / best, 1) if best > 0 else None,
    }


def _select(workload_names: Optional[List[str]]) -> List[BenchWorkload]:
    selected = [w for w in WORKLOADS
                if workload_names is None or w.name in workload_names]
    if not selected:
        known = [w.name for w in WORKLOADS]
        raise ValueError(f"no matching workloads; known: {known}")
    return selected


def run_benchmarks(quick: bool = False,
                   workload_names: Optional[List[str]] = None,
                   repeats: Optional[int] = None) -> Dict:
    """Run the selected workloads and return the result document.

    ``repeats`` overrides the mode's default repeat count (``--repeat N``
    on the CLI): more repeats tighten the best-of estimate on noisy
    machines without touching the committed cycle counts.
    """
    cycles = QUICK_CYCLES if quick else FULL_CYCLES
    if repeats is None:
        repeats = QUICK_REPEATS if quick else FULL_REPEATS
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    selected = _select(workload_names)
    results = {w.name: time_workload(w, cycles, repeats) for w in selected}
    return {
        "schema": SCHEMA,
        "mode": "quick" if quick else "full",
        "workloads": results,
    }


#: ``(path fragment, function prefix, subsystem)`` attribution rules for
#: ``--breakdown``; first match wins.
_BREAKDOWN_RULES: Tuple[Tuple[str, Optional[str], str], ...] = (
    # cProfile reports the heap builtins as "~" with the method repr
    ("~", "<built-in method _heapq.", "engine"),
    ("sim/engine", None, "engine"),
    ("sim/core_model", None, "core"),
    ("sim/ooo_core", None, "core"),
    ("sim/cache", None, "core"),
    ("sim/llc", None, "llc"),
    ("sim/memctrl", None, "memctrl+dram"),
    ("dram/", None, "memctrl+dram"),
    ("sched/", None, "memctrl+dram"),
    ("core/", None, "shaper"),
    ("sim/stats", None, "stats"),
    ("sim/system", None, "system"),
    ("sim/request", None, "core"),
)


def _classify(filename: str, funcname: str) -> str:
    path = filename.replace("\\", "/")
    for fragment, prefix, subsystem in _BREAKDOWN_RULES:
        if fragment in path and (prefix is None
                                 or funcname.startswith(prefix)):
            return subsystem
    return "other"


def breakdown_workload(workload: BenchWorkload, cycles: int) -> Dict:
    """Attribute one profiled run's self-time to simulator subsystems.

    Runs the workload once under :mod:`cProfile` and buckets every
    function's *inline* time (excluding callees, so buckets sum to the
    profiled total) into core / llc / memctrl+dram / engine / shaper /
    stats / system / other.  Profiled time overstates call-heavy code, so
    the value is the *ranking* between subsystems, not absolute seconds;
    the timing numbers stay profiler-free.
    """
    system = _build_warm(workload)
    profiler = cProfile.Profile()
    profiler.enable()
    system.run(cycles)
    profiler.disable()
    totals: Dict[str, float] = {}
    total = 0.0
    for entry in profiler.getstats():
        code = entry.code
        if isinstance(code, str):
            filename, funcname = "~", code
        else:
            filename, funcname = code.co_filename, code.co_name
        subsystem = _classify(filename, funcname)
        totals[subsystem] = totals.get(subsystem, 0.0) + entry.inlinetime
        total += entry.inlinetime
    subsystems = {
        name: {
            "seconds": round(seconds, 6),
            "fraction": round(seconds / total, 4) if total > 0 else None,
        }
        for name, seconds in sorted(totals.items(),
                                    key=lambda item: -item[1])
    }
    return {
        "cycles": cycles,
        "profiled_seconds": round(total, 6),
        "subsystems": subsystems,
    }


def compare_to_baseline(results: Dict, baseline: Dict,
                        max_regression: float) -> Dict:
    """Compare events/sec against a baseline document.

    Returns a comparison record per shared workload with the fractional
    change and a pass/fail flag; a workload fails when its events/sec
    dropped more than ``max_regression`` (e.g. ``0.30``) below baseline.
    Missing workloads on either side are skipped, not failed -- a renamed
    workload should not brick CI until the baseline is regenerated.
    """
    comparisons = {}
    base_workloads = baseline.get("workloads", {})
    for name, result in results["workloads"].items():
        base = base_workloads.get(name)
        if base is None or not base.get("events_per_second"):
            continue
        base_eps = base["events_per_second"]
        cur_eps = result["events_per_second"] or 0.0
        change = (cur_eps - base_eps) / base_eps
        comparisons[name] = {
            "baseline_events_per_second": base_eps,
            "events_per_second": cur_eps,
            "change": round(change, 4),
            "ok": change >= -max_regression,
        }
    return {
        "max_regression": max_regression,
        "workloads": comparisons,
        "ok": all(c["ok"] for c in comparisons.values()),
    }


def with_history(document: Dict, previous: Optional[Dict],
                 label: str) -> Dict:
    """Append this run to the committed trajectory and carry it forward.

    ``BENCH_sim.json`` doubles as a performance log: each labelled run
    (``--label``) appends a compact entry -- label, mode, and per-workload
    events/sec -- to a ``history`` list preserved from the previous
    document, so the repo's committed copy records how simulator
    throughput moved across changes, not just the latest number.  The
    ``pre_change_baseline`` block (the hand-measured pre-fast-path
    reference) is carried forward verbatim.
    """
    history = list(previous.get("history", [])) if previous else []
    history.append({
        "label": label,
        "mode": document["mode"],
        "workloads": {
            name: {
                "events_executed": result["events_executed"],
                "events_per_second": result["events_per_second"],
                "wall_seconds": result["wall_seconds"],
            }
            for name, result in document["workloads"].items()
        },
    })
    merged = dict(document, history=history)
    if previous and "pre_change_baseline" in previous:
        merged.setdefault("pre_change_baseline",
                          previous["pre_change_baseline"])
    return merged


def load_json(path: str) -> Dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def dump_json(document: Dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
