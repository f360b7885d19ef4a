"""Seeded inputs for the benchmark: program sizes and the serve job stream.

Every ``main`` of the five workloads takes its sizes followed by a guest
PRNG seed.  The benchmark seed only ever reaches the program as that
trailing guest seed (and as the order of the serve job stream), so the
same ``--seed`` always gives the same inputs.

Sizes are below the workloads' own train sets (``repro.workloads``),
not between train and ref: large enough that every operation does real
interpretation, profiling and parallel work, small enough that the runs
``BENCHMARK.json`` asks for fit their time budget.  Only alvinn's run
size is also below its train set.

alvinn keeps 3 epochs, the fewest with which profiling selects the same
loop as on its train set (16 patterns, 6 epochs): the pattern loop.
With 2 epochs the epoch loop is selected instead, and every execute of
that plan dies with a MemoryError in ``ShadowHeap._grow`` (reached from
``RuntimeSystem.restore_predictions``).  That crash is a known defect of
the package, left for a later fix (see CHANGES.md at the repository
root); keeping 3 epochs is partly chosen to avoid it, so this benchmark
does not show it.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

PROGRAMS: Tuple[str, ...] = (
    "alvinn", "blackscholes", "dijkstra", "enc_md5", "swaptions")

#: Profiling ("train") sizes: every ``main`` argument except the seed.
TRAIN_SIZES: Dict[str, Tuple[int, ...]] = {
    "alvinn": (4, 3),          # patterns, epochs
    "blackscholes": (16, 12),  # options, runs
    "dijkstra": (12, 8),       # nodes, sources
    "enc_md5": (8, 64),        # messages, message length
    "swaptions": (8, 8),       # swaptions, steps
}

#: Evaluation ("ref") sizes for the baseline and every timed run.
RUN_SIZES: Dict[str, Tuple[int, ...]] = {
    "alvinn": (10, 3),
    "blackscholes": (80, 24),
    "dijkstra": (32, 16),
    "enc_md5": (24, 96),
    "swaptions": (24, 16),
}

#: run-misspec injects a misspeculation every this many iterations.
#: Small enough that every program's hot loop (alvinn has 10 iterations
#: per invocation) sees injections.
MISSPEC_PERIOD = 5

#: Pool workers for every timed execute (the host has two cores).
POOL_WORKERS = 2


def guest_seed(seed: int, *salt: object) -> int:
    """A guest PRNG seed in [1, 2**31) derived from the benchmark seed."""
    digest = hashlib.sha256(repr((seed,) + salt).encode()).digest()
    return 1 + int.from_bytes(digest[:4], "little") % (2 ** 31 - 1)


def train_args(program: str, seed: int, variant: int = 0) -> Tuple[int, ...]:
    """Profiling input; ``variant`` > 0 gives a fresh input of the same size."""
    return TRAIN_SIZES[program] + (guest_seed(seed, program, "train", variant),)


def run_args(program: str, seed: int) -> Tuple[int, ...]:
    return RUN_SIZES[program] + (guest_seed(seed, program, "run"),)


# -- serve-mixed job stream ---------------------------------------------------

#: One block of the stream, in cache tiers.  Cache hits are the majority
#: so the median job measures the submit path; warm jobs hold the 80-95%
#: band so each program's p90 is the median of its warm jobs, queue wait
#: plus execution; one cold job per block keeps new compiles flowing
#: through the single lane.
BLOCK: Tuple[str, ...] = ("cache_hit",) * 16 + ("warm",) * 3 + ("cold",)

#: Workers of the population jobs; warm jobs use 3, 4, ... per program.
POPULATION_WORKERS = 2


@dataclass(frozen=True)
class Job:
    """One submission: the tier it is meant to hit, and its payload."""

    tier: str
    program: str
    args: Tuple[int, ...]
    workers: int

    def payload(self) -> Dict[str, object]:
        return {"workload": self.program, "args": list(self.args),
                "train_args": list(self.args), "workers": self.workers}


def population(seed: int) -> List[Job]:
    """The jobs submitted (untimed) before the closed loop starts; every
    cache hit and warm job of the stream refers to one of these."""
    return [Job("cold", p, train_args(p, seed), POPULATION_WORKERS)
            for p in PROGRAMS]


def job_blocks(seed: int) -> Iterator[List[Job]]:
    """An endless, seed-determined stream of :data:`BLOCK`-shaped blocks.

    * cache_hit — an identical resubmission of a population job;
    * warm — a population program/input at a workers count not run yet,
      so the prepared program is resident but the result is not cached;
    * cold — a program with a fresh input, so nothing is cached.
    Each tier walks the programs round-robin in a seeded order, so every
    five blocks weigh each program equally whatever the seed.
    """
    rng = random.Random(seed)
    order = list(PROGRAMS)
    rng.shuffle(order)
    warm_runs = {p: 0 for p in PROGRAMS}
    issued = {tier: 0 for tier in set(BLOCK)}
    while True:
        tiers = list(BLOCK)
        rng.shuffle(tiers)
        block = []
        for tier in tiers:
            p = order[issued[tier] % len(order)]
            issued[tier] += 1
            if tier == "cache_hit":
                block.append(Job(tier, p, train_args(p, seed),
                                 POPULATION_WORKERS))
            elif tier == "warm":
                warm_runs[p] += 1
                block.append(Job(tier, p, train_args(p, seed),
                                 POPULATION_WORKERS + warm_runs[p]))
            else:
                block.append(Job(tier, p, train_args(p, seed, issued[tier]),
                                 POPULATION_WORKERS))
        yield block
