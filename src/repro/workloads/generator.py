"""Synthetic trace generation: phase-structured, burst-modulated streams.

Real traces (the paper drives its simulator from GEM5 Alpha full-system
traces of SPEC/PARSEC/Apache/mail) are replaced by parameterised stochastic
processes.  Each benchmark is a sequence of :class:`PhaseProfile` segments;
within a phase, a two-state Markov chain modulates between *burst* and
*idle* gap regimes (capturing the burstiness axis MITTS cares about), and
the address stream mixes sequential walking with uniform jumps inside the
phase's working set (capturing locality, hence L1/LLC filtering and DRAM
row-buffer behaviour).

Determinism: the generator re-seeds its RNG per trace, so every iteration
-- and every simulation that replays it -- sees the identical event
sequence.  The events are synthesised lazily, straight into the columns
of a shared growing prefix (:class:`~repro.workloads.trace.TracePrefix`):
a run synthesises only the chunks it reads, and no per-event record is
ever built.
"""

from __future__ import annotations

import random
import zlib
from array import array
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Iterator, List, Sequence, Tuple

from .trace import (FLAG_DEPENDS, FLAG_WRITE, PrefixReplay, TraceEvent,
                    TracePrefix)

#: Bounded memo of growing event prefixes keyed by ``(profile, seed)``.
#: Synthesis is a sequential seeded RNG and a prefix only ever appends, so
#: replaying a memoised prefix is indistinguishable from regenerating -- it
#: just skips the per-event RNG work when the same trace drives several
#: systems (slowdown baselines, GA evaluations, benchmark repeats), and
#: each prefix holds only the chunks some replay has reached.
_TRACE_MEMO: "OrderedDict[Tuple, TracePrefix]" = OrderedDict()
_TRACE_MEMO_MAX = 64


@dataclass(frozen=True)
class PhaseProfile:
    """Stochastic parameters of one program phase."""

    #: number of trace events in this phase
    length: int = 2000
    #: mean compute gap (cycles) while in the burst state
    burst_gap: float = 2.0
    #: mean compute gap (cycles) while in the idle state
    idle_gap: float = 60.0
    #: mean number of consecutive events spent in the burst state
    burst_length: float = 20.0
    #: mean number of consecutive events spent in the idle state
    idle_length: float = 10.0
    #: bytes of the phase's working set (addresses jump within this region)
    working_set: int = 256 * 1024
    #: probability the next access continues a sequential walk
    sequential_fraction: float = 0.5
    #: stride of the sequential walk, in bytes
    stride: int = 64
    #: probability an access is a write
    write_fraction: float = 0.2
    #: probability a non-sequential access targets the hot subset
    hot_access_fraction: float = 0.0
    #: fraction of the working set forming the hot subset
    hot_set_fraction: float = 0.1
    #: probability a non-sequential access depends on the previous one
    #: (pointer chasing); only the window core model enforces this
    dependency_fraction: float = 0.0

    def __post_init__(self) -> None:
        if self.length < 1:
            raise ValueError("phase length must be >= 1")
        if self.working_set < 64:
            raise ValueError("working set must hold at least one line")
        if not 0.0 <= self.sequential_fraction <= 1.0:
            raise ValueError("sequential_fraction must be in [0, 1]")
        if not 0.0 <= self.write_fraction <= 1.0:
            raise ValueError("write_fraction must be in [0, 1]")
        if not 0.0 <= self.hot_access_fraction <= 1.0:
            raise ValueError("hot_access_fraction must be in [0, 1]")
        if not 0.0 < self.hot_set_fraction <= 1.0:
            raise ValueError("hot_set_fraction must be in (0, 1]")
        if not 0.0 <= self.dependency_fraction <= 1.0:
            raise ValueError("dependency_fraction must be in [0, 1]")


@dataclass(frozen=True)
class BenchmarkProfile:
    """A named benchmark: an ordered list of phases plus an address base."""

    name: str
    phases: Sequence[PhaseProfile] = field(default_factory=tuple)
    #: base byte address of the benchmark's memory region
    base_address: int = 0
    #: memory-level parallelism the core sustains for this program
    mlp: int = 4

    def __post_init__(self) -> None:
        if not self.phases:
            raise ValueError(f"benchmark {self.name!r} has no phases")
        if self.mlp < 1:
            raise ValueError("mlp must be >= 1")

    @property
    def total_events(self) -> int:
        return sum(phase.length for phase in self.phases)


class SyntheticTrace:
    """Deterministic, replayable trace synthesised from a profile."""

    def __init__(self, profile: BenchmarkProfile, seed: int = 1) -> None:
        self.profile = profile
        self.seed = seed

    def __len__(self) -> int:
        return self.profile.total_events

    def __iter__(self) -> Iterator[TraceEvent]:
        return PrefixReplay(self.prefix())

    def prefix(self) -> TracePrefix:
        """The memoised growing prefix of this trace's events."""
        key = (self.profile, self.seed)
        try:
            prefix = _TRACE_MEMO.get(key)
        except TypeError:
            # Profiles holding an unhashable phase container (e.g. a list)
            # simply skip the memo.
            return TracePrefix(fill=self._synthesise)
        if prefix is None:
            prefix = TracePrefix(fill=self._synthesise)
            _TRACE_MEMO[key] = prefix
            if len(_TRACE_MEMO) > _TRACE_MEMO_MAX:
                _TRACE_MEMO.popitem(last=False)
        return prefix

    def _synthesise(self, works: array, addrs: array,
                    flags: bytearray) -> Iterator[None]:
        """Append the trace's events to a prefix's columns, one event per
        step (the ``fill`` of :class:`TracePrefix`)."""
        # zlib.crc32 is stable across processes (unlike builtin hash()).
        name_hash = zlib.crc32(self.profile.name.encode("utf-8"))
        rng = random.Random((self.seed << 16) ^ name_hash)
        for phase in self.profile.phases:
            yield from self._phase_events(phase, rng, works.append,
                                          addrs.append, flags.append)

    def _phase_events(self, phase: PhaseProfile, rng: random.Random,
                      add_work: Callable[[int], None],
                      add_address: Callable[[int], None],
                      add_flags: Callable[[int], None]) -> Iterator[None]:
        base = self.profile.base_address
        lines = max(1, phase.working_set // 64)
        hot_lines = max(1, int(lines * phase.hot_set_fraction))
        cursor = base
        in_burst = True
        # Per-event exit probability of each Markov state.
        leave_burst = 1.0 / max(1.0, phase.burst_length)
        leave_idle = 1.0 / max(1.0, phase.idle_length)
        for _ in range(phase.length):
            mean_gap = phase.burst_gap if in_burst else phase.idle_gap
            # Geometric-ish gap with the requested mean, floored at 0.
            gap = int(rng.expovariate(1.0 / mean_gap)) if mean_gap > 0 else 0
            # Hot-set re-touches correlate with the burst state: bursts
            # model loop-nest reuse (short inter-arrival, cache-friendly),
            # idle-state wandering is compulsory/cold traffic.  This is
            # what makes a larger LLC remove the *short-gap* requests and
            # shift the surviving distribution right (Figure 2).
            hot_probability = phase.hot_access_fraction \
                * (1.5 if in_burst else 0.25)
            depends = False
            if rng.random() < phase.sequential_fraction:
                cursor += phase.stride
                if cursor >= base + phase.working_set:
                    cursor = base
                address = cursor
            elif rng.random() < hot_probability:
                address = base + 64 * rng.randrange(hot_lines)
                depends = rng.random() < phase.dependency_fraction
            else:
                address = base + 64 * rng.randrange(lines)
                cursor = address
                depends = rng.random() < phase.dependency_fraction
            is_write = rng.random() < phase.write_fraction
            add_work(gap)
            add_address(address)
            add_flags((FLAG_WRITE if is_write else 0)
                      | (FLAG_DEPENDS if depends else 0))
            yield
            if in_burst:
                if rng.random() < leave_burst:
                    in_burst = False
            else:
                if rng.random() < leave_idle:
                    in_burst = True


def _idle_phase(length: int = 400) -> PhaseProfile:
    """A near-idle stretch: the thread trickles occasional accesses.

    Models pipeline-stage imbalance in threaded programs -- the situation
    where "some threads are idle or cannot use up their credits within a
    replenishment window" (Section IV-H).
    """
    return PhaseProfile(length=length, burst_gap=200.0, idle_gap=800.0,
                        burst_length=2.0, idle_length=30.0,
                        working_set=64 * 1024, sequential_fraction=0.9,
                        write_fraction=0.1)


def thread_traces(profile: BenchmarkProfile, threads: int,
                  seed: int = 1) -> List[SyntheticTrace]:
    """Per-thread traces for a multi-threaded program (Section IV-H).

    Threads share the program's address region (so they share LLC capacity
    the way x264/ferret threads do) and run *staggered* schedules: the
    phase order rotates per thread and an idle stage is inserted at a
    thread-specific position, so at any time some threads burst while
    others are near-idle -- the demand imbalance the shared-vs-per-thread
    MITTS study relies on.
    """
    if threads < 1:
        raise ValueError("threads must be >= 1")
    traces = []
    for t in range(threads):
        rotated = [profile.phases[(i + t) % len(profile.phases)]
                   for i in range(len(profile.phases))]
        # Insert the idle stage at a per-thread position (threads > 1
        # only: a single thread is just the program).
        if threads > 1:
            slot = t % (len(rotated) + 1)
            rotated.insert(slot, _idle_phase())
        shifted = BenchmarkProfile(name=f"{profile.name}#t{t}",
                                   phases=tuple(rotated),
                                   base_address=profile.base_address,
                                   mlp=profile.mlp)
        traces.append(SyntheticTrace(shifted, seed=seed + 101 * t))
    return traces
