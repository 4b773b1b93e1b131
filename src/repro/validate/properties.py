"""Property-based differential testing over random MITTS scenarios.

A :class:`Scenario` is a small, fully seeded simulation setup -- random
bin vectors drawn from the :func:`~repro.core.config_space.
validate_bin_config`-accepted space, random workload mixes, random bin
geometry (and therefore random ``T_r``) -- small enough that hundreds run
in a CI job.  Against each scenario the harness checks properties that
must hold for *every* point of the configuration space, not just the
golden-pinned ones:

``kernels``
    The heap and batched event kernels produce identical full stats
    snapshots (the per-scenario generalisation of the golden-fingerprint
    suite's fixed configurations).
``checkpoint``
    Checkpointing at the halfway cycle and resuming reproduces the
    uninterrupted run exactly -- with the analytic bound checker attached,
    so the checker itself is proven to ride checkpoints.
``relabel``
    Pre-advancing the system's request-id allocator (a pure relabeling;
    ids only break scheduler ties, and a uniform shift preserves every
    ordering) leaves the snapshot bit-identical.
``monotonicity``
    On a controlled single-core derivative of the scenario (FCFS,
    refresh disabled, both configs pinned to one replenishment period),
    adding credits never reduces retired work, and no shaped run ever
    outperforms the unshaped one.
``bounds``
    Both hybrid accounting methods run under the
    :class:`~repro.validate.bounds.BoundChecker` without a violation,
    and the checker demonstrably performed checks (a silently inert
    checker is itself a failure).
``shaper_release``
    :meth:`~repro.core.shaper.MittsShaper.earliest_issue` (a closed form
    over replenishment intervals) answers exactly what the step-by-step
    probe walk :func:`walk_earliest_issue` answers, on random credit
    states, clocks, phases and both replenishment policies, under both
    hybrid methods.

Everything is derived from ``(master_seed, index)`` -- no wall clock, no
unseeded randomness -- so any failure replays from its seed alone, and
:func:`shrink_cycles` bisects the horizon down to a minimal failing
prefix before the failure is reported.
"""

from __future__ import annotations

import copy
import random
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from ..core.bins import BinConfig, BinSpec
from ..core.config_space import validate_bin_config
from ..core.credits import CreditState
from ..core.replenish import (RateReplenisher, ReplenishPolicy,
                              ResetReplenisher)
from ..core.shaper import MittsShaper
from ..sim.system import (SCALED_MULTI_CONFIG, SCALED_SINGLE_CONFIG,
                          SimSystem, SystemConfig)
from ..workloads.benchmarks import available_benchmarks, trace_for
from .bounds import BoundChecker, BoundViolation, attach_checker


class PropertyFailure(AssertionError):
    """A property did not hold for a scenario.

    Picklable and self-describing: carries the property name, the
    scenario (replayable from its seed), and a human-readable detail.
    """

    def __init__(self, prop: str, scenario: "Scenario",
                 detail: str) -> None:
        self.prop = prop
        self.scenario = scenario
        self.detail = detail
        super().__init__(
            f"property {prop!r} failed on scenario "
            f"(seed={scenario.master_seed}, index={scenario.index}, "
            f"shape={scenario.shape}): {detail}")

    def __reduce__(self):
        return (PropertyFailure, (self.prop, self.scenario, self.detail))


# ----------------------------------------------------------------------
# scenario generation


@dataclass(frozen=True)
class Scenario:
    """One fully seeded random simulation setup (replayable from seed)."""

    master_seed: int
    index: int
    #: generator family the credit vectors came from (reporting only)
    shape: str
    benchmarks: Tuple[str, ...]
    trace_seed: int
    num_bins: int
    interval_length: int
    credits: Tuple[Tuple[int, ...], ...]
    method: int
    cycles: int
    check_period: int

    @property
    def spec(self) -> BinSpec:
        return BinSpec(num_bins=self.num_bins,
                       interval_length=self.interval_length)

    def bin_configs(self) -> List[BinConfig]:
        spec = self.spec
        return [validate_bin_config(BinConfig(spec=spec, credits=vector))
                for vector in self.credits]

    def describe(self) -> str:
        return (f"#{self.index} shape={self.shape} "
                f"cores={len(self.benchmarks)} "
                f"bins={self.num_bins}x{self.interval_length} "
                f"method={self.method} cycles={self.cycles}")


#: deterministic rotation of generator families so every small run still
#: covers the edge shapes (all-burst bursts, single-token starvation
#: pressure, interval_length=1 replenishment-boundary collisions, sparse
#: vectors) alongside fully random draws
SHAPES = ("random", "all_burst", "random", "single_token", "random",
          "boundary", "sparse", "random")


def _credit_vector(rng: random.Random, shape: str,
                   num_bins: int, max_credits: int) -> Tuple[int, ...]:
    """One credit vector from the validate_bin_config-accepted space."""
    if shape == "all_burst":
        vector = [0] * num_bins
        vector[0] = rng.randint(2, 24)
    elif shape == "single_token":
        vector = [0] * num_bins
        vector[rng.randrange(num_bins)] = 1
    elif shape == "sparse":
        vector = [0] * num_bins
        for _ in range(rng.randint(1, 2)):
            vector[rng.randrange(num_bins)] = rng.randint(1, 3)
    else:  # "random" and "boundary" draw dense-ish vectors
        vector = [rng.choice((0, 0, 1, 1, 2, 3, 5, 8, 13))
                  for _ in range(num_bins)]
    if not any(vector):
        vector[rng.randrange(num_bins)] = 1
    vector = [min(v, max_credits) for v in vector]
    return tuple(vector)


def generate_scenario(master_seed: int, index: int) -> Scenario:
    """Deterministically derive scenario ``index`` of a seeded stream."""
    rng = random.Random(master_seed * 1_000_003 + index)
    shape = SHAPES[index % len(SHAPES)]
    if shape == "boundary":
        # Tiny bins: T_r collapses to a handful of cycles, so every
        # replenishment boundary collides with in-flight aging walks.
        num_bins = rng.randint(2, 5)
        interval_length = 1
    else:
        num_bins = rng.randint(4, 10)
        interval_length = rng.choice((5, 10, 10, 20))
    num_cores = rng.randint(1, 3)
    names = rng.choices(available_benchmarks(), k=num_cores)
    spec = BinSpec(num_bins=num_bins, interval_length=interval_length)
    credits = tuple(_credit_vector(rng, shape, num_bins, spec.max_credits)
                    for _ in range(num_cores))
    return Scenario(
        master_seed=master_seed,
        index=index,
        shape=shape,
        benchmarks=tuple(names),
        trace_seed=rng.randint(1, 10_000),
        num_bins=num_bins,
        interval_length=interval_length,
        credits=credits,
        method=rng.choice((MittsShaper.METHOD_DEDUCT_REFUND,) * 3
                          + (MittsShaper.METHOD_TIMESTAMP,)),
        cycles=rng.randint(4_000, 12_000),
        check_period=rng.choice((128, 257, 512)),
    )


# ----------------------------------------------------------------------
# system assembly


def build_system(scenario: Scenario, kernel: str = "batched", *,
                 system_config: Optional[SystemConfig] = None,
                 period: Optional[int] = None,
                 with_checker: bool = True,
                 bound_scale: float = 1.0,
                 advance_ids: int = 0
                 ) -> Tuple[SimSystem, Optional[BoundChecker]]:
    """Assemble the scenario's system (plus its bound checker).

    ``period`` pins every shaper to one explicit replenishment period
    (the monotonicity property needs both runs on identical boundaries);
    ``advance_ids`` burns that many request ids before the run starts
    (the relabeling property); ``bound_scale`` passes through to the
    checker (test-only weakening hook).
    """
    traces = [trace_for(name, seed=scenario.trace_seed + i)
              for i, name in enumerate(scenario.benchmarks)]
    limiters = []
    for config in scenario.bin_configs():
        replenisher = (ResetReplenisher(config, period=period)
                       if period is not None else None)
        limiters.append(MittsShaper(config, replenisher=replenisher,
                                    method=scenario.method))
    base = (SCALED_SINGLE_CONFIG if len(traces) == 1
            else SCALED_MULTI_CONFIG)
    if system_config is not None:
        base = system_config
    system = SimSystem(traces, config=replace(base, kernel=kernel),
                       limiters=limiters)
    for _ in range(advance_ids):
        system.request_ids()
    checker = None
    if with_checker:
        checker = attach_checker(system,
                                 check_period=scenario.check_period,
                                 bound_scale=bound_scale)
    return system, checker


def _snapshot_diff(a: Dict, b: Dict) -> str:
    """First few differing keys of two stats snapshots."""
    diffs = []
    for key in sorted(set(a) | set(b)):
        va, vb = a.get(key), b.get(key)
        if va != vb:
            diffs.append(f"{key}: {va!r} != {vb!r}")
        if len(diffs) >= 4:
            break
    return "; ".join(diffs) if diffs else "snapshots differ"


# ----------------------------------------------------------------------
# the properties


def prop_kernels(scenario: Scenario) -> None:
    """Heap and batched kernels agree on the full stats snapshot."""
    heap, _ = build_system(scenario, kernel="heap")
    batched, _ = build_system(scenario, kernel="batched")
    heap.run(scenario.cycles)
    batched.run(scenario.cycles)
    a, b = heap.stats.snapshot(), batched.stats.snapshot()
    if a != b:
        raise PropertyFailure("kernels", scenario, _snapshot_diff(a, b))


def prop_checkpoint(scenario: Scenario) -> None:
    """Halfway checkpoint + resume reproduces the uninterrupted run."""
    reference, _ = build_system(scenario, kernel="batched")
    reference.run(scenario.cycles)

    half = max(1, scenario.cycles // 2)
    first, _ = build_system(scenario, kernel="batched")
    first.run(half)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "halfway.ckpt"
        first.save_checkpoint(path)
        resumed = SimSystem.load_checkpoint(path)
    probe = resumed.mc.probe
    if not isinstance(probe, BoundChecker):
        raise PropertyFailure(
            "checkpoint", scenario,
            f"bound checker did not survive the checkpoint "
            f"(mc.probe is {type(probe).__name__})")
    resumed.run(scenario.cycles - half)
    a, b = reference.stats.snapshot(), resumed.stats.snapshot()
    if a != b:
        raise PropertyFailure("checkpoint", scenario, _snapshot_diff(a, b))


def prop_relabel(scenario: Scenario) -> None:
    """Uniformly shifting request ids never changes the snapshot."""
    rng = random.Random(scenario.master_seed * 104_729 + scenario.index)
    shift = rng.randint(1, 997)
    plain, _ = build_system(scenario, kernel="batched")
    shifted, _ = build_system(scenario, kernel="batched",
                              advance_ids=shift)
    plain.run(scenario.cycles)
    shifted.run(scenario.cycles)
    a, b = plain.stats.snapshot(), shifted.stats.snapshot()
    if a != b:
        raise PropertyFailure(
            "relabel", scenario,
            f"id shift {shift} changed the run: {_snapshot_diff(a, b)}")


def prop_monotonicity(scenario: Scenario) -> None:
    """More credits never slow a core down; shaping never speeds it up.

    Both claims are only sound on a controlled derivative: one core (so
    the address stream, and hence every hit/miss, is order-determined),
    head-select FCFS dispatch, refresh disabled, and both shaped runs
    pinned to one shared replenishment period (so the boosted config's
    credit state dominates the base config's at every cycle).
    """
    rng = random.Random(scenario.master_seed * 7_919 + scenario.index)
    spec = scenario.spec
    base_vector = list(scenario.credits[0])
    boosted = list(base_vector)
    for _ in range(rng.randint(1, 3)):
        where = rng.randrange(spec.num_bins)
        boosted[where] = min(spec.max_credits,
                             boosted[where] + rng.randint(1, 4))
    period = BinConfig(spec=spec,
                       credits=tuple(base_vector)).replenish_period()

    timing = replace(SCALED_SINGLE_CONFIG.timing, refresh_enabled=False)
    config = replace(SCALED_SINGLE_CONFIG, timing=timing)
    single = replace(scenario, benchmarks=scenario.benchmarks[:1])

    def retired(vector, pinned_period) -> int:
        derived = replace(single, credits=(tuple(vector),))
        system, _ = build_system(derived, kernel="batched",
                                 system_config=config,
                                 period=pinned_period)
        system.run(scenario.cycles)
        return system.stats.cores[0].retired

    base_work = retired(base_vector, period)
    boosted_work = retired(boosted, period)
    if boosted_work < base_work:
        raise PropertyFailure(
            "monotonicity", scenario,
            f"boosting {base_vector} -> {boosted} reduced retired work "
            f"{base_work} -> {boosted_work}")
    unshaped_work = retired(BinConfig.unlimited(spec).credits, None)
    if base_work > unshaped_work:
        raise PropertyFailure(
            "monotonicity", scenario,
            f"shaped config {base_vector} retired {base_work} > "
            f"unshaped {unshaped_work}")


def prop_bounds(scenario: Scenario) -> None:
    """Both hybrid methods run bound-clean, and the checker is live."""
    for method in (MittsShaper.METHOD_DEDUCT_REFUND,
                   MittsShaper.METHOD_TIMESTAMP):
        derived = replace(scenario, method=method)
        system, checker = build_system(derived, kernel="batched")
        system.run(scenario.cycles)  # a violation raises BoundViolation
        if checker.checks["credit"] == 0:
            raise PropertyFailure(
                "bounds", scenario,
                f"method {method}: checker performed zero credit checks "
                f"(check_period {scenario.check_period} vs horizon "
                f"{scenario.cycles})")
        if method == MittsShaper.METHOD_DEDUCT_REFUND \
                and checker.checks["arrival"] == 0:
            raise PropertyFailure(
                "bounds", scenario,
                "method 2: checker performed zero arrival-curve checks")


def walk_earliest_issue(shaper: MittsShaper, now: int) -> Optional[int]:
    """Reference oracle for :meth:`MittsShaper.earliest_issue`.

    The step-by-step probe walk the shaper used before its closed form:
    walk forward through aging steps (a stalled request's growing
    inter-arrival time reaching a farther populated bin) and
    replenishment boundaries, probing *copies* of the credit state and
    replenishment clock.  Slow but obviously right; catches the live
    state up to ``now`` exactly as the shaper does.

    The one departure from the shaper's old walk is its step budget
    (``4 * (N + slices) + 16`` steps), dropped here: with a period of a
    few cycles every boundary is a step, so the budgeted walk could run
    out and answer ``None`` ("no slot within the horizon") long before
    a release the closed form finds.  Unbounded, the walk still ends:
    every step moves ``t`` strictly forward, and a live configuration
    always has a finite answer.
    """
    if shaper.stall_forever():
        return None
    shaper.replenisher.apply_until(shaper.state, now)
    if shaper.state.find_deductible(shaper.bin_at(now)) is not None:
        return now

    probe_state = CreditState(shaper.config)
    probe_state.counts = list(shaper.state.counts)
    probe_policy = copy.copy(shaper.replenisher)

    t = now
    while True:
        probe_policy.apply_until(probe_state, t)
        bin_index = shaper.bin_at(t)
        if probe_state.find_deductible(bin_index) is not None:
            return t
        candidates = []
        next_bin = next((index for index in range(bin_index + 1,
                                                  len(probe_state.counts))
                         if probe_state.counts[index] > 0), None)
        if next_bin is not None and shaper._last_release is not None:
            candidates.append(shaper._last_release
                              + shaper.spec.lower_edge(next_bin))
        candidates.append(probe_policy.next_boundary())
        future = [c for c in candidates if c > t]
        if not future:
            return None
        t = min(future)


def reference_issue(shaper: MittsShaper, cycle: int, req_id: int) -> None:
    """Reference for :meth:`MittsShaper.issue`: the same commit spelled
    through the public helpers (:meth:`~ReplenishPolicy.apply_until`,
    :meth:`MittsShaper.bin_at`, :meth:`CreditState.find_deductible`)."""
    shaper.replenisher.apply_until(shaper.state, cycle)
    if shaper.method == MittsShaper.METHOD_DEDUCT_REFUND:
        source = shaper.state.find_deductible(shaper.bin_at(cycle))
        if source is None:
            raise ValueError(f"no credit available at cycle {cycle}")
        shaper.state.deduct(source)
        shaper._pending_bin[req_id] = source
    else:
        shaper._pending_stamp[req_id] = cycle
    shaper._last_release = cycle
    shaper.released += 1


def random_shaper(rng: random.Random, spec: BinSpec,
                  credits: Tuple[int, ...],
                  method: int) -> Tuple[MittsShaper, int]:
    """A shaper in a random reachable-looking state, plus a query clock.

    Draws the replenishment policy (reset with a derived or explicit
    period down to 1 cycle; drip with 1/2/8/16 slices), its phase, a
    live clock position, counters anywhere in ``[0, K_i]`` and a
    ``last_release`` (``None`` = nothing released since boot) at or
    before the returned query cycle.
    """
    config = BinConfig(spec=spec, credits=credits)
    period = rng.choice((None, None, 1, rng.randint(1, 3 * spec.num_bins
                                                    * spec.interval_length)))
    phase = rng.randrange(4 * spec.num_bins * spec.interval_length + 1)
    policy: ReplenishPolicy
    if rng.random() < 0.5:
        policy = ResetReplenisher(config, period=period, phase=phase)
    else:
        policy = RateReplenisher(config, period=period,
                                 slices=rng.choice((1, 2, 8, 16)),
                                 phase=phase)
    shaper = MittsShaper(config, replenisher=policy, method=method)
    clock = rng.randrange(2 * policy.period + 2)
    policy.apply_until(shaper.state, clock)
    shaper.state.counts = [rng.randint(0, limit) for limit in credits]
    now = clock + rng.randrange(2 * spec.interval_length * spec.num_bins)
    if rng.random() < 0.8:
        shaper._last_release = rng.randint(max(0, clock - 3 * spec.num_bins
                                                * spec.interval_length),
                                           now)
    return shaper, now


def prop_shaper_release(scenario: Scenario, cases: int = 120) -> None:
    """The closed-form release time equals the probe walk's, step by step.

    Each case drives a shaper and an identical copy through a few
    release/issue rounds: the copy answers through the reference walk
    and commits through :func:`reference_issue`, so the rounds also
    compare the credit counters and pending entries the shaper's inline
    issue path leaves behind.
    """
    rng = random.Random(scenario.master_seed * 15_485_863 + scenario.index)
    vectors = list(scenario.credits)
    for case in range(cases):
        spec = scenario.spec
        if case % 2:
            spec = BinSpec(num_bins=rng.randint(1, 16),
                           interval_length=rng.randint(1, 17))
        if case % 2 == 0 and vectors:
            credits = vectors[case // 2 % len(vectors)]
        elif rng.random() < 0.05:
            credits = (0,) * spec.num_bins  # stalls forever
        else:
            credits = _credit_vector(rng, rng.choice(SHAPES),
                                     spec.num_bins, spec.max_credits)
        for method in (MittsShaper.METHOD_DEDUCT_REFUND,
                       MittsShaper.METHOD_TIMESTAMP):
            shaper, now = random_shaper(rng, spec, credits, method)
            reference = copy.deepcopy(shaper)
            for round_ in range(4):
                got = shaper.earliest_issue(now)
                want = walk_earliest_issue(reference, now)
                if got != want or shaper.credit_counts() \
                        != reference.credit_counts() \
                        or shaper._pending_bin != reference._pending_bin:
                    raise PropertyFailure(
                        "shaper_release", scenario,
                        f"case {case} method {method} round {round_}: "
                        f"earliest_issue({now}) = {got}, walk = {want} "
                        f"(credits {list(credits)}, L="
                        f"{spec.interval_length}, "
                        f"{type(shaper.replenisher).__name__} period "
                        f"{shaper.replenisher.period}, counts "
                        f"{reference.state.counts})")
                if got is None:
                    break
                shaper.issue(got, req_id=round_)
                reference_issue(reference, got, round_)
                now = got + rng.randrange(2 * spec.interval_length + 1)


#: name -> property, in reporting order
PROPERTIES: Dict[str, Callable[[Scenario], None]] = {
    "kernels": prop_kernels,
    "checkpoint": prop_checkpoint,
    "relabel": prop_relabel,
    "monotonicity": prop_monotonicity,
    "bounds": prop_bounds,
    "shaper_release": prop_shaper_release,
}


# ----------------------------------------------------------------------
# running + shrinking


@dataclass(frozen=True)
class Failure:
    """One property failure, shrunk and ready to report."""

    prop: str
    scenario: Scenario
    detail: str
    #: smallest failing horizon found by bisection (== scenario.cycles
    #: when shrinking was disabled or could not reduce it)
    shrunk_cycles: int

    def describe(self) -> str:
        return (f"{self.prop} FAILED on scenario {self.scenario.index} "
                f"(seed {self.scenario.master_seed}, "
                f"shape {self.scenario.shape}, shrunk to "
                f"{self.shrunk_cycles} cycles): {self.detail}\n"
                f"  replay: scenario = generate_scenario("
                f"{self.scenario.master_seed}, {self.scenario.index})")


def check_once(prop: str, scenario: Scenario) -> Optional[str]:
    """Run one property; return the failure detail, or None if it holds."""
    try:
        PROPERTIES[prop](scenario)
    except (PropertyFailure, BoundViolation) as exc:
        return str(exc)
    return None


def shrink_cycles(prop: str, scenario: Scenario,
                  max_probes: int = 7) -> int:
    """Bisect the cycle horizon down to a minimal failing prefix.

    The scenario is known to fail at ``scenario.cycles``; properties are
    prefix-observable (every check applies at every horizon), so a
    shorter failing horizon is an equally valid -- and much easier to
    debug -- witness.  Returns the smallest failing horizon found.
    """
    low, high = 0, scenario.cycles  # fails at high, unknown below
    for _ in range(max_probes):
        if high - low <= max(64, high // 16):
            break
        mid = (low + high) // 2
        if check_once(prop, replace(scenario, cycles=mid)) is not None:
            high = mid
        else:
            low = mid
    return high


def run_scenario(scenario: Scenario, only: Optional[str] = None,
                 shrink: bool = True) -> List[Failure]:
    """Run every (or one) property against a scenario."""
    failures: List[Failure] = []
    for prop in PROPERTIES:
        if only is not None and prop != only:
            continue
        detail = check_once(prop, scenario)
        if detail is None:
            continue
        # shaper_release never simulates, so it has no horizon to shrink
        cycles = (shrink_cycles(prop, scenario)
                  if shrink and prop != "shaper_release"
                  else scenario.cycles)
        failures.append(Failure(prop=prop, scenario=scenario,
                                detail=detail, shrunk_cycles=cycles))
    return failures
