"""Genome representation for bin-configuration search.

A genome is one credit vector per core (the GA searches all co-running
programs' configurations jointly -- "Each benchmark can have a different
MITTS bin configuration", Section IV-D).  Crossover and mutation operate
per-core so building blocks transfer between candidate solutions the way
genetic algorithms exploit.
"""

from __future__ import annotations

import random
from typing import Callable, List, Sequence

from ..core.bins import BinConfig, BinSpec
from ..core.config_space import validate_credit_vector

Genome = List[BinConfig]
RepairFn = Callable[[Sequence[int], BinSpec], BinConfig]


def validate_genome(genome: Genome) -> Genome:
    """Reject genomes with unusable per-core configurations, up front.

    Aggregates every core's :func:`~repro.core.config_space.
    validate_credit_vector` failure into one :class:`ValueError` naming
    the offending cores and bins, so user-supplied seed genomes fail at
    GA construction rather than stalling a simulation mid-search.
    Randomly generated and mutated genomes never trip this (both
    operators guarantee at least one credit); the check guards the
    user-facing boundary only.
    """
    if not genome:
        raise ValueError("genome must configure at least one core")
    errors = []
    for core_id, config in enumerate(genome):
        try:
            validate_credit_vector(config.credits, config.spec,
                                   core=core_id)
        except ValueError as exc:
            errors.append(str(exc))
    if errors:
        raise ValueError("invalid genome: " + "; ".join(errors))
    return genome


def random_config(spec: BinSpec, rng: random.Random,
                  max_per_bin: int = None) -> BinConfig:
    """A random credit vector; bins are exponentially weighted so both
    sparse and dense configurations appear in the initial population."""
    if max_per_bin is None:
        max_per_bin = min(spec.max_credits, 64)
    credits = []
    for _ in range(spec.num_bins):
        if rng.random() < 0.3:
            credits.append(0)
        else:
            credits.append(min(max_per_bin,
                               int(rng.expovariate(1.0 / 8.0))))
    if not any(credits):
        credits[rng.randrange(spec.num_bins)] = 1
    return BinConfig(spec=spec, credits=tuple(credits))


def random_genome(spec: BinSpec, num_cores: int, rng: random.Random,
                  max_per_bin: int = None) -> Genome:
    """One random per-core configuration for every core in the mix."""
    return [random_config(spec, rng, max_per_bin)
            for _ in range(num_cores)]


def crossover(parent_a: Genome, parent_b: Genome,
              rng: random.Random) -> Genome:
    """Uniform crossover at bin granularity, independently per core."""
    if len(parent_a) != len(parent_b):
        raise ValueError("genomes must cover the same number of cores")
    child: Genome = []
    for config_a, config_b in zip(parent_a, parent_b):
        credits = tuple(
            a if rng.random() < 0.5 else b
            for a, b in zip(config_a.credits, config_b.credits))
        child.append(BinConfig(spec=config_a.spec, credits=credits))
    return child


def mutate(genome: Genome, rng: random.Random,
           rate: float = 0.15, max_per_bin: int = None) -> Genome:
    """Per-bin point mutation: perturb, zero, or re-roll a credit count."""
    if not 0.0 <= rate <= 1.0:
        raise ValueError("mutation rate must be in [0, 1]")
    mutated: Genome = []
    for config in genome:
        spec = config.spec
        limit = max_per_bin if max_per_bin is not None \
            else min(spec.max_credits, 64)
        credits = list(config.credits)
        for index in range(len(credits)):
            if rng.random() >= rate:
                continue
            choice = rng.random()
            if choice < 0.4:
                delta = rng.choice([-4, -2, -1, 1, 2, 4])
                credits[index] = min(limit, max(0, credits[index] + delta))
            elif choice < 0.6:
                credits[index] = 0
            else:
                credits[index] = rng.randrange(limit + 1)
        if not any(credits):
            credits[rng.randrange(len(credits))] = 1
        mutated.append(BinConfig(spec=spec, credits=tuple(credits)))
    return mutated


def seed_genomes(spec: BinSpec, num_cores: int,
                 max_per_bin: int = 64) -> List[Genome]:
    """Structured starting points for the search.

    A generous full-rate allocation, a flat mid-rate allocation, and a
    front-loaded geometric taper -- the three qualitative shapes Figure 17
    shows real optima take -- so the GA begins from sane operating points
    instead of pure noise.
    """
    generous = BinConfig.single_bin(0, max_per_bin, spec)
    flat = BinConfig(spec=spec,
                     credits=tuple([max(1, max_per_bin // 4)]
                                   * spec.num_bins))
    taper = BinConfig(spec=spec,
                      credits=tuple(max(1, max_per_bin >> min(i, 6))
                                    for i in range(spec.num_bins)))
    mid = BinConfig.single_bin(spec.num_bins // 2,
                               max(1, max_per_bin // 4), spec)
    slow = BinConfig.single_bin(spec.num_bins - 1,
                                max(1, max_per_bin // 8), spec)
    return [[generous] * num_cores,
            [flat] * num_cores,
            [taper] * num_cores,
            [mid] * num_cores,
            [slow] * num_cores]


def genome_key(genome: Genome) -> tuple:
    """A hashable identity for a genome, for fitness memoisation.

    Two genomes with equal specs and equal per-core credit vectors
    describe the same shaper configuration and therefore the same
    (deterministic) fitness.
    """
    return tuple((config.spec.num_bins, config.spec.interval_length,
                  config.spec.max_credits, config.credits)
                 for config in genome)
