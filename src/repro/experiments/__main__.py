"""Command-line entry point for the experiment harness.

Usage::

    python -m repro.experiments --list
    python -m repro.experiments fig12
    python -m repro.experiments fig12 fig13 --scale small --seed 3
    python -m repro.experiments --all --jobs 4 --save-dir results
    python -m repro.experiments --all --jobs 4 --campaign runs --save-dir out
    python -m repro.experiments --diff results/before results/after
    python -m repro.experiments --all --campaign runs --campaign-seeds 1 2 3

Parallelism (``--jobs N``) runs through :mod:`repro.runner`: with several
experiments selected, the experiments themselves fan out across the
pool; with a single experiment, it runs in-process and its *inner*
independent simulations (alone-run measurements, each GA generation's
population) fan out instead.  Results are assembled by job id, never by
completion order, so any ``--jobs`` value produces the same output as
serial.  A plain sweep stores nothing: a failed experiment is reported
on stdout and makes the exit code 1.

A sweep that must survive its process is ``--campaign DIR``: the
experiments become a :mod:`repro.fabric` campaign, the one durable
result store.  Running the same command again resumes it (finished jobs
are not re-run) unless the source tree changed, which makes a new
campaign.  Its tables and ``--save-dir`` documents are rebuilt from the
stored results and equal the plain path's; a job without a readable
result is printed as ``MISSING``, with the ``fabric doctor`` command
that repairs it.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import REGISTRY
from ..metrics.report import format_table
from ..runner import JobSpec, Runner, RunnerConfig, using_runner


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate MITTS (ISCA 2016) tables and figures.")
    parser.add_argument("experiments", nargs="*",
                        help="experiment ids (see --list)")
    parser.add_argument("--scale", default="smoke",
                        choices=["smoke", "small", "paper"],
                        help="effort preset (default: smoke)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--list", action="store_true",
                        help="list experiment ids and exit")
    parser.add_argument("--all", action="store_true",
                        help="run every registered experiment")
    parser.add_argument("--save-dir", default=None,
                        help="also save each result as JSON into this "
                             "directory")
    sweep = parser.add_argument_group("parallel execution")
    sweep.add_argument("--jobs", type=int, default=1,
                       help="worker processes for the sweep (default: 1, "
                            "fully serial)")
    sweep.add_argument("--timeout", type=float, default=None,
                       help="per-experiment wall-clock budget in seconds")
    sweep.add_argument("--retries", type=int, default=2,
                       help="retry attempts for failed/timed-out/crashed "
                            "jobs (default: 2; deterministic failures "
                            "are never retried)")
    sweep.add_argument("--no-progress", action="store_true",
                       help="suppress progress/ETA lines on stderr")
    campaign = parser.add_argument_group("campaign service (repro.fabric)")
    campaign.add_argument("--campaign", default=None, metavar="QUEUE_ROOT",
                          help="run the selected experiments as a fabric "
                               "campaign under this queue root: submit, "
                               "help drain (other worker pools may join), "
                               "then render results from the merged "
                               "database; re-running the same command "
                               "resumes the campaign")
    campaign.add_argument("--campaign-seeds", type=int, nargs="+",
                          default=None, metavar="SEED",
                          help="seed axis of the campaign grid "
                               "(default: just --seed; with several seeds "
                               "the results database is the only store, "
                               "so --save-dir is refused)")
    campaign.add_argument("--campaign-submit-only", action="store_true",
                          help="submit the campaign and exit; drain it "
                               "with python -m repro.fabric work")
    diff = parser.add_argument_group("regression diffing")
    diff.add_argument("--diff", nargs=2, metavar=("BEFORE", "AFTER"),
                      help="compare two --save-dir result directories "
                           "(exit 1 on significant metric changes)")
    diff.add_argument("--diff-tolerance", type=float, default=0.02,
                      help="relative change below which a metric delta "
                           "is insignificant (default: 0.02)")
    return parser


# ---------------------------------------------------------------------------
# --diff


def run_diff(before: str, after: str, tolerance: float) -> int:
    """Render summary-metric diffs between two saved result dirs."""
    from .store import diff_result_dirs

    report = diff_result_dirs(before, after, tolerance=tolerance)
    rows = []
    significant = 0
    for name, records in sorted(report["experiments"].items()):
        for record in records:
            flag = "*" if record["significant"] else ""
            significant += bool(record["significant"])
            change = record["relative_change"]
            rows.append([name, record["metric"],
                         _number(record["before"]), _number(record["after"]),
                         "n/a" if change is None else f"{change:+.2%}",
                         flag])
    print(format_table(
        ["experiment", "metric", "before", "after", "change", "sig"],
        rows, title=f"Result diff: {before} -> {after} "
                    f"(tolerance {tolerance:.0%})"))
    # Experiments present on only one side are regressions in their own
    # right (a figure vanished, or the baseline never had it), reported
    # the same way in both directions and always significant.
    missing = len(report["only_before"]) + len(report["only_after"])
    for name in report["only_before"]:
        print(f"missing: {name} present only in {before}")
    for name in report["only_after"]:
        print(f"missing: {name} present only in {after}")
    if not report["experiments"]:
        print("note: no common experiment files to compare")
        return 1
    summary = (f"{significant} significant change(s) across "
               f"{len(report['experiments'])} experiment(s)")
    if missing:
        summary += f", {missing} experiment(s) missing from one side"
    print(summary)
    return 1 if significant or missing else 0


def _number(value) -> str:
    return "missing" if value is None else f"{value:.4f}"


# ---------------------------------------------------------------------------
# --campaign: route the sweep through the fabric


def run_campaign(args, names) -> int:
    """Submit the selected experiments as a fabric campaign and drain it.

    The campaign is durable: killing this process loses nothing (its
    leases lapse and any other ``python -m repro.fabric work`` pool --
    or simply re-running this command -- picks the jobs back up).  The
    final tables and ``--save-dir`` documents are rebuilt from the
    results database alone, so a resumed run prints what a fresh one
    does.
    """
    from ..fabric import (RESULT_DONE, CampaignQueue, ResultsDb,
                          figure_manifest, work_campaign)
    from ..fabric.__main__ import disposition_exit
    from .store import result_from_dict, save_result

    seeds = args.campaign_seeds or [args.seed]
    manifest = figure_manifest(names, scale=args.scale, seeds=seeds,
                               timeout=args.timeout, retries=args.retries)
    queue = CampaignQueue.submit(args.campaign, manifest)
    print(f"campaign {queue.campaign_id}: {queue.header()['num_jobs']} "
          f"job(s) under {queue.directory}")
    if args.campaign_submit_only:
        print(f"drain with: python -m repro.fabric work {args.campaign} "
              f"--campaign {queue.campaign_id}")
        return 0

    counters = work_campaign(queue, jobs=args.jobs,
                             retries=args.retries,
                             progress=not args.no_progress)
    print(f"drained: {counters['done']} done, {counters['failed']} "
          f"failed, {counters['quarantined']} quarantined, "
          f"{counters['stolen']} stolen; disposition "
          f"{counters['disposition']}")

    holes = 0
    with ResultsDb(f"{args.campaign}/results.sqlite") as db:
        db.merge_queue(queue)
        _headers, rows = db.query(
            "SELECT params_json, status, error, value_json, attempts, "
            "duration FROM jobs LEFT JOIN results "
            "USING (campaign_id, job_index) "
            "WHERE campaign_id = ? ORDER BY job_index",
            (queue.campaign_id,))
        # The manifest sorts the experiments; print them in the order
        # given, as the plain path does (stable, so seeds stay ordered).
        jobs = sorted(((json.loads(params_json), *rest)
                       for params_json, *rest in rows),
                      key=lambda job: names.index(job[0]["name"]))
        for params, status, error, value_json, attempts, duration in jobs:
            heading = (f"=== {params['name']} ({params['scale']}, "
                       f"seed {params['seed']})")
            if status is None:
                holes += 1
                print(f"{heading} MISSING: no readable result; repair "
                      f"with python -m repro.fabric doctor "
                      f"{args.campaign} --campaign {queue.campaign_id} "
                      f"--repair, then re-run")
            elif status != RESULT_DONE:
                holes += 1
                print(f"{heading} FAILED: {error}")
            else:
                result = result_from_dict(json.loads(value_json))
                print(heading)
                print(result.render())
                if args.save_dir:
                    save_result(result,
                                f"{args.save_dir}/{params['name']}.json",
                                metadata={"scale": params["scale"],
                                          "seed": params["seed"],
                                          "elapsed_seconds": duration,
                                          "attempts": attempts})
            print()
        print(f"results database: {args.campaign}/results.sqlite "
              f"(fingerprint {db.fingerprint(queue.campaign_id)[:16]})")
    # Exit by disposition: 0 complete, 3 complete-degraded (explicit
    # holes in the figures), 4 wedged -- same contract as the fabric CLI.
    if holes or counters["failed"]:
        return disposition_exit(counters["disposition"]) or 3
    return disposition_exit(counters["disposition"])


# ---------------------------------------------------------------------------
# sweep driver


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.diff:
        return run_diff(args.diff[0], args.diff[1], args.diff_tolerance)

    if args.list:
        for name in sorted(REGISTRY):
            print(name)
        return 0

    names = sorted(REGISTRY) if args.all else args.experiments
    if not names:
        parser.error("no experiments given (use --all or --list)")
    unknown = [name for name in names if name not in REGISTRY]
    if unknown:
        parser.error(f"unknown experiments: {unknown}; "
                     f"known: {sorted(REGISTRY)}")
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")

    if args.campaign:
        if args.save_dir and len(args.campaign_seeds or ()) > 1:
            parser.error("--save-dir keeps one document per experiment; "
                         "with several --campaign-seeds the results "
                         "database is the store")
        return run_campaign(args, names)

    runner = Runner(RunnerConfig(jobs=args.jobs, timeout=args.timeout,
                                 retries=args.retries,
                                 progress=not args.no_progress))
    call_kwargs = tuple(sorted({"scale": args.scale,
                                "seed": args.seed}.items()))
    specs = [JobSpec(job_id=name, fn="repro.experiments:run_experiment",
                     args=(name,), kwargs=call_kwargs,
                     seed=args.seed, scale=args.scale)
             for name in names]

    # One experiment cannot be split across workers, so run it inline and
    # let its inner simulations use the pool; several experiments fan out
    # as whole jobs.
    inline = args.jobs <= 1 or len(specs) == 1
    try:
        with using_runner(runner):
            sweep = runner.run(specs, inline=inline, label="experiments")
    finally:
        runner.close()

    for name in names:
        outcome = sweep[name]
        if not outcome.ok:
            failure = outcome.failure
            print(f"=== {name} ({args.scale}, seed {args.seed}) FAILED: "
                  f"{failure.kind} after {failure.attempts} attempt(s): "
                  f"{failure.error_type}: {failure.message}")
            print()
            continue
        print(f"=== {name} ({args.scale}, seed {args.seed}, "
              f"{outcome.duration:.1f}s)")
        print(outcome.value.render())
        print()
        if args.save_dir:
            from .store import save_result

            save_result(outcome.value, f"{args.save_dir}/{name}.json",
                        metadata={"scale": args.scale, "seed": args.seed,
                                  "elapsed_seconds": outcome.duration,
                                  "attempts": outcome.attempts})

    failures = sweep.failures
    if failures:
        print(f"{len(failures)} experiment(s) failed: "
              f"{[failure.job_id for failure in failures]}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
