"""CLI for the simulator throughput benchmarks.

Examples::

    python -m repro.bench                  # full run, writes BENCH_sim.json
    python -m repro.bench --quick          # CI smoke variant
    python -m repro.bench --repeat 8       # best-of-8 on a noisy machine
    python -m repro.bench --profile        # cProfile top functions
    python -m repro.bench --breakdown      # per-subsystem time attribution
    python -m repro.bench --baseline benchmarks/perf/baseline.json \
        --max-regression 0.15              # exit 1 on a >15% eps drop
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
from typing import List, Optional

from . import (FULL_CYCLES, QUICK_CYCLES, WORKLOADS, breakdown_workload,
               compare_to_baseline, dump_json, load_json, run_benchmarks,
               with_history)


def _profile(workload_names: Optional[List[str]], quick: bool,
             top: int) -> None:
    cycles = QUICK_CYCLES if quick else FULL_CYCLES
    for workload in WORKLOADS:
        if workload_names is not None and workload.name not in workload_names:
            continue
        system = workload.build()
        profiler = cProfile.Profile()
        profiler.enable()
        system.run(cycles)
        profiler.disable()
        print(f"== {workload.name} ({cycles} cycles) ==")
        stats = pstats.Stats(profiler, stream=sys.stdout)
        stats.sort_stats("tottime").print_stats(top)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Measure simulator throughput (events/sec).")
    parser.add_argument("--quick", action="store_true",
                        help="shorter runs, fewer repeats (CI smoke)")
    parser.add_argument("--workload", action="append", dest="workloads",
                        choices=[w.name for w in WORKLOADS],
                        help="run only this workload (repeatable)")
    parser.add_argument("--output", default="BENCH_sim.json",
                        help="result JSON path (default: %(default)s)")
    parser.add_argument("--no-output", action="store_true",
                        help="do not write the result JSON")
    parser.add_argument("--label", default=None,
                        help="append this run to the output file's "
                             "committed history under LABEL")
    parser.add_argument("--baseline", default=None,
                        help="baseline JSON to compare events/sec against")
    parser.add_argument("--max-regression", type=float, default=0.15,
                        help="max fractional events/sec drop vs the "
                             "baseline before failing (default 0.15)")
    parser.add_argument("--repeat", type=int, default=None, metavar="N",
                        help="override the repeats per workload "
                             "(best-of-N; default 4 full / 2 quick)")
    parser.add_argument("--profile", action="store_true",
                        help="cProfile each workload instead of timing")
    parser.add_argument("--profile-top", type=int, default=20,
                        help="functions shown with --profile")
    parser.add_argument("--breakdown", action="store_true",
                        help="attribute profiled self-time to subsystems "
                             "instead of timing")
    args = parser.parse_args(argv)

    if args.profile:
        _profile(args.workloads, args.quick, args.profile_top)
        return 0

    if args.breakdown:
        cycles = QUICK_CYCLES if args.quick else FULL_CYCLES
        for workload in WORKLOADS:
            if args.workloads is not None \
                    and workload.name not in args.workloads:
                continue
            report = breakdown_workload(workload, cycles)
            print(f"== {workload.name} ({cycles} cycles, "
                  f"{report['profiled_seconds']:.3f} s profiled) ==")
            for name, entry in report["subsystems"].items():
                print(f"{name:>14}: {entry['seconds']:8.4f} s "
                      f"({entry['fraction']:6.1%})")
        return 0

    results = run_benchmarks(quick=args.quick, workload_names=args.workloads,
                             repeats=args.repeat)
    for name, result in results["workloads"].items():
        eps = result["events_per_second"]
        print(f"{name:>8}: {result['wall_seconds']:.4f} s "
              f"({result['cycles']} cycles, best of {result['repeats']}), "
              f"{result['events_executed']} events, "
              f"{eps:,.0f} events/sec")

    exit_code = 0
    if args.baseline:
        comparison = compare_to_baseline(results, load_json(args.baseline),
                                         args.max_regression)
        results["baseline_comparison"] = comparison
        for name, entry in comparison["workloads"].items():
            verdict = "ok" if entry["ok"] else "REGRESSION"
            print(f"{name:>8}: {entry['change']:+.1%} vs baseline "
                  f"({entry['baseline_events_per_second']:,.0f} -> "
                  f"{entry['events_per_second']:,.0f} events/sec) "
                  f"[{verdict}]")
        if not comparison["ok"]:
            print(f"FAIL: events/sec regressed more than "
                  f"{args.max_regression:.0%} on at least one workload")
            exit_code = 1

    if not args.no_output:
        if args.label is not None:
            try:
                previous = load_json(args.output)
            except (OSError, ValueError):
                previous = None
            results = with_history(results, previous, args.label)
        dump_json(results, args.output)
        print(f"wrote {args.output}")
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
