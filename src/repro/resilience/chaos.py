"""Seeded fault-injection harness: prove the recovery paths actually fire.

Robustness code that is never exercised is decoration.  This module
deterministically injects one fault per failure class the resilience
stack claims to handle and asserts the corresponding detection/recovery
mechanism engages:

==================  =====================================================
fault class         recovery path proven
==================  =====================================================
``worker-kill``     ``os._exit`` mid-job breaks the process pool; the
                    runner charges the in-flight attempt, rebuilds the
                    pool, retries, and the sweep still succeeds
``event-bomb``      an exception thrown at a chosen simulated cycle kills
                    the run after a periodic checkpoint; resuming from
                    the checkpoint reproduces the undisturbed run
                    fingerprint-for-fingerprint
``clock-skew``      scheduling into the past clamps to ``now`` (never
                    time-travels); a float cycle is rejected by the
                    runtime contracts
``duplicate-event`` the same callback scheduled twice at one cycle runs
                    exactly twice, in FIFO order, identically across runs
``starvation``      a zero-credit shaper raises ``StarvationError``
                    within the watchdog window instead of hanging
``fabric-steal``    a campaign worker dies holding a claim (its lease
                    left dangling, exactly the ``kill -9`` footprint);
                    a second pool steals the job after lease expiry and
                    the merged results database is bit-identical to a
                    serial drain
``fabric-torn-``    result writes fail mid-rename (tmp debris, EIO);
``rename``          verified writes retry until the commit lands,
                    ``fabric doctor`` sweeps the debris, and the
                    database is bit-identical to a clean drain
``fabric-disk-``    ENOSPC raised on claim creates and result writes;
``full``            the drain loop re-polls and the campaign still
                    completes bit-identically once space "returns"
``fabric-stale-``   reads served the previous version of a file (NFS
``read``            attribute-cache lie); the read-back verify detects
                    the stale echo and rewrites until the commit proves
                    durable
``fabric-poison``   a job that deterministically raises is quarantined
                    to the dead-letter directory on its *first* failure
                    (never retried), the campaign terminates
                    ``complete-degraded``, serial and pooled drains are
                    fingerprint-identical, and ``requeue`` makes the
                    job runnable again
``fabric-``         a supervised pool is hard-killed after its first
``supervisor``      claim; the supervisor's liveness probe sees the
                    exit, restarts it with backoff, and the campaign
                    completes bit-identically to a serial drain
==================  =====================================================

Every fault parameter (kill target, bomb cycle, injection seed) is drawn
from a ``random.Random(seed)``, so a failing chaos run reproduces exactly
from its seed.  Shipped as a pytest suite (``tests/test_resilience_chaos``)
and a CLI (``python -m repro.resilience --chaos``).
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from typing import Callable, List

from ..analysis import contracts
from ..core.bins import BinConfig
from ..core.shaper import MittsShaper
from ..runner import JobSpec, Runner, RunnerConfig
from ..sim.engine import Engine
from ..sim.system import SCALED_MULTI_CONFIG, SimSystem
from ..workloads.mixes import workload_traces
from .checkpoint import read_checkpoint_meta, run_with_checkpoints
from .watchdog import StarvationError, WatchdogConfig


class ChaosFault(RuntimeError):
    """The injected failure itself (thrown by the event bomb)."""


@dataclass(frozen=True)
class ChaosOutcome:
    """Result of one injected fault: did its recovery path engage?"""

    fault: str
    passed: bool
    detail: str


# ----------------------------------------------------------------------
# module-level job functions (workers import these by path)


def chaos_echo(value):
    """Trivial well-behaved job (control group for pool recovery)."""
    return value


def chaos_exit_once(marker_path, value):
    """Kill the worker outright on the first attempt, succeed after.

    ``os._exit`` bypasses all exception handling -- the pool itself
    breaks, which is exactly the fault the runner's rebuild path covers.
    """
    if not os.path.exists(marker_path):
        with open(marker_path, "w", encoding="utf-8") as handle:
            handle.write("killed")
        os._exit(23)
    return value


def chaos_poison(value):
    """Deterministic poison: negative values always raise ValueError
    (the runner taxonomy's deterministic lineage), so retrying is
    provably futile -- the quarantine contract under test."""
    if value < 0:
        raise ValueError(f"poison value {value}")
    return value


def chaos_slow_echo(value, delay=0.4):
    """Echo after a short delay -- slow enough that a supervised fleet
    is still mid-campaign when its first casualty is noticed."""
    from ..runner import wallclock

    wallclock.sleep(delay)
    return value


# ----------------------------------------------------------------------
# simulated-system helpers


def _make_system() -> SimSystem:
    """Small deterministic multicore mix (cheap enough to run repeatedly)."""
    return SimSystem(workload_traces(1, seed=11),
                     config=SCALED_MULTI_CONFIG)


class _EventBomb:
    """Callback that raises :class:`ChaosFault` the first time it runs.

    The "first time" latch is a filesystem marker, so the bomb is inert
    on the resumed run (its event is restored from the checkpoint's heap
    and fires again) -- modelling a transient mid-run fault.  Whether
    armed or spent, the callback never touches simulator state, so the
    disturbed-then-resumed run is statistically identical to an
    undisturbed one.
    """

    __slots__ = ("marker_path",)

    def __init__(self, marker_path: str) -> None:
        self.marker_path = marker_path

    def __call__(self) -> None:
        if not os.path.exists(self.marker_path):
            # The marker file IS the fault model: it must survive the
            # checkpoint/restore boundary, which simulator state cannot.
            with open(self.marker_path, "w",  # simlint: disable=SIM011
                      encoding="utf-8") as handle:
                handle.write("detonated")
            raise ChaosFault(f"event bomb detonated "
                             f"(marker {self.marker_path!r})")


class _CycleRecorder:
    """Appends the engine's cycle at each invocation (ordering probes)."""

    __slots__ = ("engine", "fired_at")

    def __init__(self, engine: Engine) -> None:
        self.engine = engine
        self.fired_at: List[int] = []

    def __call__(self) -> None:
        self.fired_at.append(self.engine.now)


# ----------------------------------------------------------------------
# the fault classes


def fault_worker_kill(rng: random.Random, workdir: str) -> ChaosOutcome:
    """Kill one pool worker mid-job; the sweep must still complete."""
    marker = os.path.join(workdir, "kill-marker")
    victim = rng.randrange(3)
    specs = []
    for index in range(3):
        if index == victim:
            specs.append(JobSpec.create(
                f"kill[{index}]", "repro.resilience.chaos:chaos_exit_once",
                marker, index * 10))
        else:
            specs.append(JobSpec.create(
                f"kill[{index}]", "repro.resilience.chaos:chaos_echo",
                index * 10))
    with Runner(RunnerConfig(jobs=2, retries=2, backoff=0.01)) as runner:
        sweep = runner.run(specs)
    values = [sweep[spec.job_id].value for spec in specs]
    attempts = sweep[f"kill[{victim}]"].attempts
    ok = values == [0, 10, 20] and attempts >= 2
    return ChaosOutcome(
        "worker-kill", ok,
        f"victim=kill[{victim}] attempts={attempts} values={values}")


def fault_event_bomb(rng: random.Random, workdir: str) -> ChaosOutcome:
    """Crash mid-run after a checkpoint; resume must match undisturbed."""
    cycles, interval = 60_000, 20_000
    bomb_cycle = rng.randrange(45_000, 55_000)
    marker = os.path.join(workdir, "bomb-marker")
    checkpoint = os.path.join(workdir, "bomb.ckpt")

    def make_armed() -> SimSystem:
        system = _make_system()
        system.engine.schedule(bomb_cycle, _EventBomb(marker))
        return system

    # Reference: same bomb event, pre-spent marker, uninterrupted run.
    with open(marker, "w", encoding="utf-8") as handle:
        handle.write("pre-spent")
    reference = make_armed()
    reference.run(cycles)
    expected = reference.stats.fingerprint()
    os.unlink(marker)

    detonated = False
    try:
        run_with_checkpoints(make_armed, cycles, path=checkpoint,
                             interval=interval)
    except ChaosFault:
        detonated = True
    if not detonated:
        return ChaosOutcome("event-bomb", False,
                            f"bomb at {bomb_cycle} never detonated")
    resumed_from = read_checkpoint_meta(checkpoint)["cycle"]
    system = run_with_checkpoints(make_armed, cycles, path=checkpoint,
                                  interval=interval)
    ok = (system.stats.fingerprint() == expected
          and 0 < resumed_from < bomb_cycle)
    return ChaosOutcome(
        "event-bomb", ok,
        f"bomb at {bomb_cycle}, resumed from checkpointed cycle "
        f"{resumed_from}, fingerprint match={ok}")


def fault_clock_skew(rng: random.Random, workdir: str) -> ChaosOutcome:
    """Past and float scheduling attempts must be clamped / rejected."""
    engine = Engine()
    recorder = _CycleRecorder(engine)
    target = rng.randrange(2_000, 5_000)
    engine.schedule(target, recorder)
    engine.run(until=target + 1)
    # Attempt to schedule an event in the past: must clamp to now.
    engine.schedule(target - rng.randrange(1, target), recorder)
    engine.run(until=target + 10)
    clamped = recorder.fired_at == [target, target + 1]

    violations: List[str] = []
    with contracts.enabled_scope():
        checked = Engine()
        with contracts.observing(lambda error: violations.append(str(error))):
            try:
                # Deliberate contract violation -- the fault under test.
                checked.schedule(float(target),  # simlint: disable=SIM003
                                 recorder)
                rejected = False
            except contracts.ContractViolation:
                rejected = True
    ok = clamped and rejected and len(violations) == 1
    return ChaosOutcome(
        "clock-skew", ok,
        f"past event clamped={clamped} (fired at {recorder.fired_at}); "
        f"float cycle rejected={rejected}, observed={len(violations)}")


def fault_duplicate_events(rng: random.Random, workdir: str) -> ChaosOutcome:
    """Duplicate same-cycle events run exactly twice, FIFO, repeatably."""
    when = rng.randrange(100, 1_000)

    def burst() -> List[int]:
        engine = Engine()
        recorder = _CycleRecorder(engine)
        engine.schedule(when, recorder)
        engine.schedule(when, recorder)  # the duplicate attempt
        engine.run(until=when + 1)
        return recorder.fired_at

    first, second = burst(), burst()
    ok = first == second == [when, when]
    return ChaosOutcome(
        "duplicate-event", ok,
        f"fired at {first} vs {second} (want [{when}, {when}] twice)")


def fault_starvation(rng: random.Random, workdir: str) -> ChaosOutcome:
    """A zero-credit shaper must raise within the watchdog window."""
    traces = workload_traces(1, seed=11)
    limiters = [MittsShaper(BinConfig.from_credits([0] * 10))
                for _ in traces]
    system = SimSystem(traces, config=SCALED_MULTI_CONFIG,
                       limiters=limiters)
    config = WatchdogConfig(check_period=1_000, stall_threshold=8_000)
    system.attach_watchdog(config)
    try:
        system.run(60_000)
    except StarvationError as exc:
        cycle = exc.diagnostics["cycle"]
        window = config.stall_threshold + 2 * config.check_period
        shapers = [core["shaper"]["stall_forever"]
                   for core in exc.diagnostics["cores"]]
        ok = cycle <= window and all(shapers)
        return ChaosOutcome(
            "starvation", ok,
            f"raised at cycle {cycle} (window {window}); "
            f"stall_forever={shapers}")
    return ChaosOutcome("starvation", False,
                        "zero-credit run completed without StarvationError")


def fault_fabric_steal(rng: random.Random, workdir: str) -> ChaosOutcome:
    """A dead campaign worker's claim must be stolen, not waited on.

    The victim is modelled by its exact post-``kill -9`` footprint: a
    claim file with a short lease that is never renewed or completed.
    A live pool must sit out the lease, steal the job, finish the
    campaign, and merge a database bit-identical to a serial drain.
    """
    from ..fabric import (CampaignQueue, ResultsDb, parse_manifest,
                          run_campaign_serial, work_campaign)

    manifest = parse_manifest({
        "name": "chaos-steal",
        "fn": "repro.resilience.chaos:chaos_echo",
        "grid": {"value": [rng.randrange(1 << 16) for _ in range(4)]},
    })
    serial_queue = CampaignQueue.submit(
        os.path.join(workdir, "serial"), manifest)
    run_campaign_serial(serial_queue)

    fabric_root = os.path.join(workdir, "fabric")
    fabric_queue = CampaignQueue.submit(fabric_root, manifest)
    victim_claim = fabric_queue.claim_next("chaos-victim",
                                           lease_seconds=0.5)
    if victim_claim is None:
        return ChaosOutcome("fabric-steal", False,
                            "victim could not claim a job")
    counters = work_campaign(fabric_queue, worker="chaos-survivor",
                             jobs=1, pool=False, lease_seconds=0.5,
                             poll_seconds=0.05)

    with ResultsDb(os.path.join(workdir, "serial.sqlite")) as db:
        db.merge_queue(serial_queue)
        serial_print = db.fingerprint(serial_queue.campaign_id)
    with ResultsDb(os.path.join(workdir, "fabric.sqlite")) as db:
        db.merge_queue(fabric_queue)
        fabric_print = db.fingerprint(fabric_queue.campaign_id)

    ok = (counters["stolen"] >= 1 and counters["failed"] == 0
          and fabric_queue.is_drained()
          and serial_print == fabric_print)
    return ChaosOutcome(
        "fabric-steal", ok,
        f"victim held job {victim_claim.index}; survivor executed "
        f"{counters['executed']} ({counters['stolen']} stolen); "
        f"fingerprint match={serial_print == fabric_print}")


def _merge_print(db_path: str, queue) -> str:
    """Merge one queue into a fresh database; return its fingerprint."""
    from ..fabric import ResultsDb

    with ResultsDb(db_path) as db:
        db.merge_queue(queue)
        return db.fingerprint(queue.campaign_id)


def fault_fabric_torn_rename(rng: random.Random,
                             workdir: str) -> ChaosOutcome:
    """Result renames tear mid-commit; verified writes must converge.

    The first two write attempts fail like a crash between tmp-write
    and rename (debris left, EIO raised); the campaign must still drain
    bit-identically to a clean serial run, and ``fabric doctor`` must
    sweep the debris.
    """
    from ..fabric import (CampaignQueue, FaultPlan, FaultyFS, diagnose,
                          parse_manifest, run_campaign_serial)

    manifest = parse_manifest({
        "name": "chaos-torn",
        "fn": "repro.resilience.chaos:chaos_echo",
        "grid": {"value": [rng.randrange(1 << 16) for _ in range(4)]},
    })
    serial_queue = CampaignQueue.submit(
        os.path.join(workdir, "serial"), manifest)
    run_campaign_serial(serial_queue)
    serial_print = _merge_print(os.path.join(workdir, "serial.sqlite"),
                                serial_queue)

    chaos_queue = CampaignQueue.submit(
        os.path.join(workdir, "chaos"), manifest)
    shim = FaultyFS(FaultPlan(seed=rng.randrange(1 << 16), rate=1.0,
                              faults=("torn-rename",), limit=2),
                    inner=chaos_queue.storage)
    chaos_queue.storage = shim
    counters = run_campaign_serial(chaos_queue, worker="chaos-torn")
    chaos_print = _merge_print(os.path.join(workdir, "chaos.sqlite"),
                               chaos_queue)

    # Triage with real storage: the debris must be found and swept.
    clean_queue = CampaignQueue(os.path.join(workdir, "chaos"),
                                chaos_queue.campaign_id)
    report = diagnose(clean_queue, repair=True)
    debris = report["by_category"].get("debris", 0)
    after = diagnose(clean_queue)
    ok = (counters["failed"] == 0 and chaos_queue.is_drained()
          and serial_print == chaos_print
          and shim.injected.get("torn-rename", 0) == 2
          and debris >= 1 and after["clean"])
    return ChaosOutcome(
        "fabric-torn-rename", ok,
        f"{shim.injected.get('torn-rename', 0)} torn rename(s); "
        f"fingerprint match={serial_print == chaos_print}; "
        f"doctor swept {debris} debris file(s), clean={after['clean']}")


def fault_fabric_disk_full(rng: random.Random,
                           workdir: str) -> ChaosOutcome:
    """ENOSPC on claims and result writes; the drain must ride it out.

    The injection budget (``limit=4``) is strictly below the verified
    write's retry budget, so the campaign provably terminates once the
    disk "heals" -- the recovery claim is that no ENOSPC burst below
    that budget can cost completeness or bits.
    """
    from ..fabric import (CampaignQueue, FaultPlan, FaultyFS,
                          parse_manifest, run_campaign_serial,
                          work_campaign)

    manifest = parse_manifest({
        "name": "chaos-enospc",
        "fn": "repro.resilience.chaos:chaos_echo",
        "grid": {"value": [rng.randrange(1 << 16) for _ in range(6)]},
    })
    serial_queue = CampaignQueue.submit(
        os.path.join(workdir, "serial"), manifest)
    run_campaign_serial(serial_queue)
    serial_print = _merge_print(os.path.join(workdir, "serial.sqlite"),
                                serial_queue)

    chaos_queue = CampaignQueue.submit(
        os.path.join(workdir, "chaos"), manifest)
    shim = FaultyFS(FaultPlan(seed=rng.randrange(1 << 16), rate=0.6,
                              faults=("enospc",), limit=4),
                    inner=chaos_queue.storage)
    chaos_queue.storage = shim
    counters = work_campaign(chaos_queue, worker="chaos-enospc", jobs=1,
                             pool=False, lease_seconds=3600.0,
                             poll_seconds=0.05)
    chaos_print = _merge_print(os.path.join(workdir, "chaos.sqlite"),
                               chaos_queue)
    ok = (counters["failed"] == 0 and chaos_queue.is_drained()
          and serial_print == chaos_print
          and shim.injected.get("enospc", 0) >= 1)
    return ChaosOutcome(
        "fabric-disk-full", ok,
        f"{shim.injected.get('enospc', 0)} ENOSPC injection(s) over "
        f"{shim.operations} op(s); drained={chaos_queue.is_drained()}; "
        f"fingerprint match={serial_print == chaos_print}")


def fault_fabric_stale_read(rng: random.Random,
                            workdir: str) -> ChaosOutcome:
    """Reads served yesterday's bytes; the read-back verify must catch it.

    First a whole campaign drains behind a stale-read shim
    (bit-identical to serial), then the lie is staged directly: a file
    with a committed previous version is rewritten while the next read
    returns the old content -- the verified write must detect the stale
    echo and converge on the new bytes instead of declaring success.
    """
    from ..fabric import (CampaignQueue, FaultPlan, FaultyFS,
                          parse_manifest, run_campaign_serial)

    manifest = parse_manifest({
        "name": "chaos-stale",
        "fn": "repro.resilience.chaos:chaos_echo",
        "grid": {"value": [rng.randrange(1 << 16) for _ in range(4)]},
    })
    serial_queue = CampaignQueue.submit(
        os.path.join(workdir, "serial"), manifest)
    run_campaign_serial(serial_queue)
    serial_print = _merge_print(os.path.join(workdir, "serial.sqlite"),
                                serial_queue)

    chaos_queue = CampaignQueue.submit(
        os.path.join(workdir, "chaos"), manifest)
    drain_shim = FaultyFS(FaultPlan(seed=rng.randrange(1 << 16),
                                    rate=0.5, faults=("stale-read",)),
                          inner=chaos_queue.storage)
    chaos_queue.storage = drain_shim
    counters = run_campaign_serial(chaos_queue, worker="chaos-stale")
    chaos_print = _merge_print(os.path.join(workdir, "chaos.sqlite"),
                               chaos_queue)

    # Stage the attribute-cache lie on a rewritten file.
    probe_shim = FaultyFS(FaultPlan(seed=rng.randrange(1 << 16),
                                    rate=1.0, faults=("stale-read",),
                                    limit=1))
    chaos_queue.storage = probe_shim
    probe = chaos_queue.directory / "stale-probe.json"
    probe_shim.write_atomic(probe, '{"version": 1}')
    chaos_queue._write_verified(probe, {"version": 2}, "result")
    committed = probe.read_text(encoding="utf-8")
    converged = json.loads(committed) == {"version": 2}
    ok = (counters["failed"] == 0 and chaos_queue.is_drained()
          and serial_print == chaos_print
          and probe_shim.injected.get("stale-read", 0) == 1
          and converged)
    return ChaosOutcome(
        "fabric-stale-read", ok,
        f"drain match={serial_print == chaos_print} "
        f"({drain_shim.injected.get('stale-read', 0)} stale drain "
        f"read(s)); staged lie detected and "
        f"converged={converged}")


def fault_fabric_poison(rng: random.Random, workdir: str) -> ChaosOutcome:
    """A deterministic crasher must dead-letter on first failure.

    One grid value is poison (always raises ValueError).  Serial and
    pooled drains must both terminate ``complete-degraded`` with
    exactly the poison job quarantined after a *single* attempt, with
    identical database fingerprints; ``requeue`` must return the job to
    the runnable pool, and re-draining must re-quarantine it without
    disturbing the fingerprint.
    """
    from ..fabric import (CampaignQueue, ResultsDb, parse_manifest,
                          run_campaign_serial, work_campaign)
    from ..fabric.queue import DISPOSITION_DEGRADED, REASON_DETERMINISTIC

    values = [rng.randrange(1, 1 << 16) for _ in range(4)]
    poison_at = rng.randrange(len(values))
    values[poison_at] = -values[poison_at]
    manifest = parse_manifest({
        "name": "chaos-poison",
        "fn": "repro.resilience.chaos:chaos_poison",
        "grid": {"value": values},
    })

    serial_queue = CampaignQueue.submit(
        os.path.join(workdir, "serial"), manifest)
    serial_counters = run_campaign_serial(serial_queue)
    serial_print = _merge_print(os.path.join(workdir, "serial.sqlite"),
                                serial_queue)

    fabric_queue = CampaignQueue.submit(
        os.path.join(workdir, "fabric"), manifest)
    fabric_counters = work_campaign(fabric_queue, worker="chaos-poison",
                                    jobs=2, pool=True,
                                    wait_for_drain=True)
    fabric_print = _merge_print(os.path.join(workdir, "fabric.sqlite"),
                                fabric_queue)

    poison_record = fabric_queue.load_result(poison_at) or {}
    first_failure_only = poison_record.get("attempts") == 1

    # The escape hatch: requeue, then re-drain re-quarantines.
    diagnosis = fabric_queue.requeue(poison_at)
    requeued_runnable = not fabric_queue.is_drained()
    work_campaign(fabric_queue, worker="chaos-poison-2", jobs=1,
                  pool=False, wait_for_drain=True)
    with ResultsDb(os.path.join(workdir, "fabric2.sqlite")) as db:
        db.merge_queue(fabric_queue)
        requeued_print = db.fingerprint(fabric_queue.campaign_id)

    ok = (serial_counters["disposition"] == DISPOSITION_DEGRADED
          and fabric_counters["disposition"] == DISPOSITION_DEGRADED
          and serial_queue.dead_letter_indices() == [poison_at]
          and fabric_queue.dead_letter_indices() == [poison_at]
          and first_failure_only
          and diagnosis.reason == REASON_DETERMINISTIC
          and requeued_runnable
          and serial_print == fabric_print == requeued_print)
    return ChaosOutcome(
        "fabric-poison", ok,
        f"poison at index {poison_at}; attempts="
        f"{poison_record.get('attempts')}; dead-letter "
        f"{fabric_queue.dead_letter_indices()}; requeue reason="
        f"{diagnosis.reason}; fingerprints match="
        f"{serial_print == fabric_print == requeued_print}")


def fault_fabric_supervisor(rng: random.Random,
                            workdir: str) -> ChaosOutcome:
    """A supervised pool dies; the liveness probe must restart it.

    Pool 0's first incarnation hard-exits after its first claim (the
    ``kill -9`` footprint).  The supervisor must notice the exit,
    restart the slot with backoff, and the fleet must finish the
    campaign bit-identically to a serial drain.
    """
    from ..fabric import (CampaignQueue, parse_manifest,
                          run_campaign_serial, run_supervisor)

    manifest = parse_manifest({
        "name": "chaos-fleet",
        "fn": "repro.resilience.chaos:chaos_slow_echo",
        "grid": {"value": [rng.randrange(1 << 16) for _ in range(6)]},
    })
    serial_queue = CampaignQueue.submit(
        os.path.join(workdir, "serial"), manifest)
    run_campaign_serial(serial_queue)
    serial_print = _merge_print(os.path.join(workdir, "serial.sqlite"),
                                serial_queue)

    fleet_queue = CampaignQueue.submit(
        os.path.join(workdir, "fleet"), manifest)
    report = run_supervisor(
        fleet_queue, pools=2, jobs=1, lease_seconds=2.0,
        seed=rng.randrange(1 << 16), backoff_seconds=0.2,
        first_spawn_extra=("--die-after-claims", "1"),
        timeout=120.0, echo=lambda *_args: None)
    fleet_print = _merge_print(os.path.join(workdir, "fleet.sqlite"),
                               fleet_queue)
    ok = (report["disposition"] == "complete"
          and report["restarts"] >= 1
          and 137 in report["exit_codes"]["0"]
          and fleet_queue.is_drained()
          and serial_print == fleet_print)
    return ChaosOutcome(
        "fabric-supervisor", ok,
        f"disposition={report['disposition']}, "
        f"restarts={report['restarts']}, pool-0 exits="
        f"{report['exit_codes']['0']}; fingerprint "
        f"match={serial_print == fleet_print}")


FAULTS: List[Callable[[random.Random, str], ChaosOutcome]] = [
    fault_worker_kill,
    fault_event_bomb,
    fault_clock_skew,
    fault_duplicate_events,
    fault_starvation,
    fault_fabric_steal,
    fault_fabric_torn_rename,
    fault_fabric_disk_full,
    fault_fabric_stale_read,
    fault_fabric_poison,
    fault_fabric_supervisor,
]


def run_chaos_suite(seed: int, workdir: str) -> List[ChaosOutcome]:
    """Run every fault class with parameters drawn from ``seed``.

    A fault function that *itself* crashes (as opposed to detecting a
    missed recovery) is reported as a failed outcome, not an aborted
    suite -- the harness must be more robust than the code it attacks.
    """
    outcomes: List[ChaosOutcome] = []
    for fault in FAULTS:
        rng = random.Random((seed, fault.__name__).__repr__())
        fault_dir = os.path.join(workdir, fault.__name__)
        os.makedirs(fault_dir, exist_ok=True)
        try:
            outcomes.append(fault(rng, fault_dir))
        except Exception as exc:
            outcomes.append(ChaosOutcome(
                fault.__name__.replace("fault_", "").replace("_", "-"),
                False, f"harness error: {type(exc).__name__}: {exc}"))
    return outcomes
