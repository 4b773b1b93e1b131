"""Seeded property-fuzzer CLI: ``python -m repro.validate``.

Runs ``--scenarios`` randomly generated scenarios (derived entirely from
``--seed``; identical invocations are bit-identical) through every
property in :mod:`repro.validate.properties`, shrinking each failure to
a minimal cycle horizon before reporting it.  Exit status 0 means every
property held on every scenario.

The same entry point serves three roles: the pytest suite calls
:func:`main` directly with a small scenario count, CI runs it as the
``bounds-smoke`` job (with ``REPRO_CONTRACTS`` both unset and set), and
a developer chasing a bug runs it with a large ``--scenarios`` as a
reproducible fuzzer -- any failure prints the ``generate_scenario``
call that replays it.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from .properties import (PROPERTIES, Failure, generate_scenario,
                         run_scenario)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.validate",
        description="Property-based differential fuzzer for the MITTS "
                    "simulator: analytic bounds, kernel equivalence, "
                    "checkpoint-resume, id-relabeling, monotonicity, "
                    "closed-form shaper release time.")
    parser.add_argument("--scenarios", type=int, default=25,
                        help="number of random scenarios (default 25)")
    parser.add_argument("--seed", type=int, default=0,
                        help="master seed; the whole run derives from it "
                             "(default 0)")
    parser.add_argument("--only", choices=sorted(PROPERTIES),
                        help="run a single property instead of all")
    parser.add_argument("--no-shrink", action="store_true",
                        help="report failures at the original horizon "
                             "instead of bisecting to a minimal one")
    parser.add_argument("--fail-fast", action="store_true",
                        help="stop at the first failing scenario")
    args = parser.parse_args(argv)
    if args.scenarios < 1:
        parser.error("--scenarios must be >= 1")

    failures: List[Failure] = []
    for index in range(args.scenarios):
        scenario = generate_scenario(args.seed, index)
        found = run_scenario(scenario, only=args.only,
                             shrink=not args.no_shrink)
        status = "ok" if not found else \
            "FAIL " + ",".join(f.prop for f in found)
        print(f"[{index + 1:>3}/{args.scenarios}] "
              f"{scenario.describe()}: {status}")
        failures.extend(found)
        if failures and args.fail_fast:
            break

    print()
    if failures:
        for failure in failures:
            print(failure.describe())
        print(f"\n{len(failures)} property failure(s) over "
              f"{args.scenarios} scenario(s) [seed {args.seed}]")
        return 1
    which = args.only or f"all {len(PROPERTIES)} properties"
    print(f"{args.scenarios} scenario(s) x {which} held "
          f"[seed {args.seed}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
