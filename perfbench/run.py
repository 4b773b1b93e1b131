"""Benchmark entry point: one workload, one seed, printed metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload shaped-replay --seed 1 \\
        --seconds 20 --trace 0

Each trial of the workload runs in a fresh child process (this process
plus one child at a time; everything serial).  Before the trials, one
more child recomputes the workload's output digests with the heap kernel,
and every trial's digests are checked against them.

* ``--trace 0`` starts trials until ``--seconds`` have passed (at least
  ``MIN_TRIALS``); each trial repeats the timed section for
  ``1/TRIAL_PROCESSES`` of the seconds when the workload allows it.
  Reports the median of each end-to-end metric over all its samples.
* ``--trace 1`` runs one plain trial, one traced trial (spans around each
  layer's entry points, written to ``perfbench/out/``) and one cProfile
  trial, and reports the per-layer metrics.

Prints one line per metric (name, value, unit, trial count), then, as the
last line, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Exits non-zero without a result when the program under test
cannot run.  See ``perfbench/README.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from itertools import zip_longest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.child import OUT_DIR, PROFILE_BUCKETS  # noqa: E402
from perfbench.tracing import SCHEDULERS  # noqa: E402

WORKLOADS = ("shaped-replay", "sched-mix8", "ga-tune", "campaign-drain")

#: ``--trace 0`` trial processes each repeat the timed run for
#: ``--seconds / TRIAL_PROCESSES`` (one set-up sample per process) ...
TRIAL_PROCESSES = 5
#: ... and start until ``--seconds`` have passed: at least this many,
#: however long they take
MIN_TRIALS = 2
#: a child that runs longer than this has hung
CHILD_TIMEOUT_S = 150

#: (name, unit, better) of every metric ``--trace 0`` reports
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("sim_mcycles_per_s", "Mcycles/s", "higher"),
    ("ops_per_s", "1/s", "higher"),
)

#: (name, unit, better) of every metric ``--trace 1`` reports
PER_LAYER = (
    ("workloads.synth_s", "s", "lower"),
    ("workloads.traces", "count", "lower"),
    ("soa.columns_s", "s", "lower"),
    ("soa.coord_table_s", "s", "lower"),
    ("soa.memo_hit_ratio", "ratio", "higher"),
    ("sim.build_s", "s", "lower"),
    ("sim.builds", "count", "lower"),
    ("sim.run_s", "s", "lower"),
    ("sim.runs", "count", "lower"),
    ("sim.events", "count", "lower"),
    ("sim.us_per_event", "us", "lower"),
    *((f"sched.{policy}.run_s", "s", "lower") for policy in SCHEDULERS),
    ("shaper.stall_cycles", "cycles", "lower"),
    ("shaper.released", "count", "higher"),
    ("shaper.refunds", "count", "higher"),
    ("macrotick.eligible_systems", "count", "higher"),
    ("sim.cycles", "cycles", "higher"),
    ("core.accesses", "count", "higher"),
    ("core.retired", "count", "higher"),
    ("core.memory_stall_cycles", "cycles", "lower"),
    ("llc.hits", "count", "higher"),
    ("llc.misses", "count", "lower"),
    ("dram.requests", "count", "lower"),
    ("dram.writebacks", "count", "lower"),
    ("dram.row_hit_rate", "ratio", "higher"),
    ("mc.peak_queue_depth", "count", "lower"),
    ("mc.backpressure_events", "count", "lower"),
    ("ga.run_s", "s", "lower"),
    ("ga.self_s", "s", "lower"),
    ("ga.evaluations", "count", "lower"),
    ("ga.memo_hits", "count", "higher"),
    ("ga.penalized", "count", "lower"),
    ("tuning.eval_ms_p50", "ms", "lower"),
    ("experiments.alone_s", "s", "lower"),
    ("checkpoint.save_s", "s", "lower"),
    ("checkpoint.load_s", "s", "lower"),
    ("checkpoint.saves", "count", "lower"),
    ("checkpoint.bytes", "B", "lower"),
    ("checkpoint_ms", "ms", "lower"),
    ("runner.run_s", "s", "lower"),
    ("runner.job_exec_s", "s", "lower"),
    ("fabric.submit_s", "s", "lower"),
    ("fabric.claim_s", "s", "lower"),
    ("fabric.claims", "count", "lower"),
    ("fabric.complete_s", "s", "lower"),
    ("fabric.merge_s", "s", "lower"),
    ("fabric.fingerprint_s", "s", "lower"),
    ("fabric.job_ms_p50", "ms", "lower"),
    ("job_overhead_ms", "ms", "lower"),
    ("stats.fingerprint_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    *((f"profile.{bucket}_share", "ratio", "lower")
      for bucket in PROFILE_BUCKETS.values()),
)


class ChildFailed(RuntimeError):
    """A child process exited non-zero, hung, or printed no result."""


def spawn(role: str, workload: str, seed: int, size: str,
          *extra: str) -> dict:
    """Run one child to completion; returns its JSON result plus the
    monotonic time it was started (``spawned``)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    command = [sys.executable, "-m", "perfbench.child", "--role", role,
               "--workload", workload, "--seed", str(seed),
               "--size", size, *extra]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(command, cwd=ROOT, env=env, text=True,
                              capture_output=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{role} child timed out after "
                          f"{exc.timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{role} child exited {proc.returncode}:\n"
                          f"{proc.stderr.strip()}")
    try:
        result = json.loads(lines[-1])
    except ValueError as exc:
        raise ChildFailed(f"{role} child printed no result: "
                          f"{lines[-1][:200]!r}") from exc
    result["spawned"] = spawned
    return result


def check(oracle: list, trial: dict) -> tuple:
    """``(attempted, failed)`` of one trial's digests -- one list per timed
    run -- against the oracle's; every digest that differs, or is missing,
    is a failed operation."""
    attempted = failed = 0
    for digests in trial["digests"]:
        pairs = list(zip_longest(oracle, digests))
        attempted += len(pairs)
        failed += sum(1 for want, have in pairs if want != have)
    return attempted, failed


def samples(trials: list) -> dict:
    """Every sample of each end-to-end metric: the times of each timed run,
    and the set-up time and peak RSS of each trial process."""
    reps = [rep for trial in trials for rep in trial["reps"]]
    return {
        "wall_s": [rep["wall_s"] for rep in reps],
        "setup_s": [trial["setup_end"] - trial["spawned"]
                    for trial in trials],
        "peak_rss_mb": [trial["peak_rss_mb"] for trial in trials],
        "sim_mcycles_per_s": [rep["sim_cycles"] / rep["wall_s"] / 1e6
                              for rep in reps],
        "ops_per_s": [rep["ops"] / rep["wall_s"] for rep in reps],
    }


def per_layer(plain: dict, traced: dict, profiled: dict) -> dict:
    metrics = dict(traced["layers"])
    metrics["trace.overhead_s"] = (traced["reps"][0]["wall_s"]
                                   - plain["reps"][0]["wall_s"])
    metrics.update(profiled["profile"])
    for name in ("checkpoint_ms", "job_overhead_ms"):
        metrics[name] = plain["extras"].get(name, 0.0)
    return metrics


def run_trials(workload: str, seed: int, seconds: float, size: str,
               trace: bool):
    """Every trial of one run, in order: ``(trials, metrics, counts)``,
    where ``counts[name]`` is how many samples the metric summarises."""
    if trace:
        spans = OUT_DIR / f"spans-{workload}-seed{seed}.json"
        plain = spawn("trial", workload, seed, size)
        traced = spawn("trial", workload, seed, size,
                       "--trace-out", str(spans))
        profiled = spawn("trial", workload, seed, size, "--profile")
        metrics = per_layer(plain, traced, profiled)
        return [plain, traced, profiled], metrics, dict.fromkeys(metrics, 1)
    trials = []
    budget = str(seconds / TRIAL_PROCESSES)
    started = time.monotonic()
    while len(trials) < MIN_TRIALS or time.monotonic() - started < seconds:
        trials.append(spawn("trial", workload, seed, size,
                            "--budget", budget))
    values = samples(trials)
    medians = {name: statistics.median(found)
               for name, found in values.items()}
    return trials, medians, {name: len(found)
                             for name, found in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python3 perfbench/run.py",
        description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="work per trial; 'tiny' is for the "
                             "benchmark's own tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under test at {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    try:
        oracle = spawn("oracle", args.workload, args.seed,
                       args.size)["digests"]
        trials, metrics, counts = run_trials(
            args.workload, args.seed, args.seconds, args.size,
            bool(args.trace))
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    attempted = failed = 0
    for trial in trials:
        trial_attempted, trial_failed = check(oracle, trial)
        attempted += trial_attempted
        failed += trial_failed
    table = PER_LAYER if args.trace else END_TO_END
    units = {name: unit for name, unit, _better in table}
    metrics = {name: metrics[name] for name in units}
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(trials)} trials, {failed}/{attempted} outputs differ "
          f"from the heap-kernel oracle")
    for name, value in metrics.items():
        print(f"{name:<28} {value:>16.6f} {units[name]:<10} "
              f"(n={counts[name]})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
