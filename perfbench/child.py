"""One benchmark process: a trial of a workload, or its heap-kernel oracle.

Started by ``perfbench/run.py`` (``python3 -m perfbench.child ...`` from the
checkout root, with ``src`` on ``PYTHONPATH``); prints one JSON line.

* ``--role trial`` sets the workload up, times its run (repeated for
  ``--budget`` seconds), and reports the timings, the output digests and
  ``ru_maxrss``.  ``--trace-out FILE`` also wraps the layer entry points
  (``perfbench/tracing.py``) and reports the per-layer metrics;
  ``--profile`` instead runs the timed section under cProfile and reports
  each simulator subsystem's share of self time.
* ``--role oracle`` recomputes the digests with the heap kernel.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

OUT_DIR = Path(__file__).resolve().parent / "out"

#: ``profile.<name>_share`` metric names of the ``repro.bench`` subsystems
PROFILE_BUCKETS = {"engine": "engine", "core": "core", "llc": "llc",
                   "memctrl+dram": "memctrl_dram", "shaper": "shaper",
                   "stats": "stats", "system": "system", "other": "other"}


def profile_shares(profiler: cProfile.Profile):
    """Share of profiled self time per subsystem, using the attribution
    rules of ``python -m repro.bench --breakdown`` (a ranking, since
    cProfile inflates call-heavy code)."""
    from repro.bench import _classify

    totals = dict.fromkeys(PROFILE_BUCKETS.values(), 0.0)
    for entry in profiler.getstats():
        code = entry.code
        if isinstance(code, str):
            bucket = _classify("~", code)
        else:
            bucket = _classify(code.co_filename, code.co_name)
        totals[PROFILE_BUCKETS[bucket]] += entry.inlinetime
    total = sum(totals.values()) or 1.0
    return {f"profile.{name}_share": seconds / total
            for name, seconds in totals.items()}


def run_trial(workload, size, seed: int, workdir: Path, budget_s: float,
              trace_out: str = None, profile: bool = False) -> dict:
    """Set up once, then repeat the timed section until ``budget_s`` of
    timed work is done (once when traced or profiled, or when the
    workload cannot run twice in one process)."""
    tracer = None
    if trace_out:
        from perfbench.tracing import Tracer
        tracer = Tracer()
        tracer.install()
        span = tracer.open("bench.setup")
    state = workload.setup(seed, size, workdir)
    setup_end = time.monotonic()
    if tracer is not None:
        tracer.close(span)
        span = tracer.open("bench.timed")
    profiler = cProfile.Profile() if profile else None
    once = tracer is not None or profiler is not None \
        or not workload.repeatable
    reps, digests, extras = [], [], None
    while True:
        if profiler is not None:
            profiler.enable()
        started = time.perf_counter()
        outcome = workload.run(state)
        wall = time.perf_counter() - started
        if profiler is not None:
            profiler.disable()
        if tracer is not None:
            # the digests below are the benchmark's, not the program's work
            tracer.close(span)
            tracer.uninstall()
        if not reps:
            extras = outcome.extras
        reps.append({"wall_s": wall, "ops": outcome.ops,
                     "sim_cycles": outcome.sim_cycles})
        digests.append(workload.digests(outcome))
        if once or sum(rep["wall_s"] for rep in reps) >= budget_s:
            break
    result = {
        "setup_end": setup_end,
        "reps": reps,
        "extras": extras,
        "digests": digests,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        tracer.write(trace_out)
        result["layers"] = tracer.layer_metrics(extras)
    if profiler is not None:
        result["profile"] = profile_shares(profiler)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m perfbench.child")
    parser.add_argument("--role", choices=("trial", "oracle"),
                        required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--budget", type=float, default=0.0,
                        help="seconds of timed work to repeat for")
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("--profile", action="store_true")
    args = parser.parse_args(argv)

    from perfbench.workloads import SIZES, WORKLOADS

    workload = WORKLOADS[args.workload]
    size = SIZES[args.size]
    workdir = OUT_DIR / "work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.role == "oracle":
            result = {"digests": workload.oracle(args.seed, size, workdir)}
        else:
            result = run_trial(workload, size, args.seed, workdir,
                               args.budget, args.trace_out, args.profile)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
