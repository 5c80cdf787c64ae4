"""Seeded spec generation for the three workloads.

Every spec comes from one ``random.Random`` seeded by a string, so the
same workload seed yields the same spec sequence in every process.  The
program under test only ever sees the generated specs.

Left out on purpose: ``dynamic-counting`` and ``DynamicTopology``.  Their
stopping rule is about to change, and its hangs and miscounts would read
as noise in the failure count (see ``NOTES.md``).
"""

from __future__ import annotations

import random
from typing import Iterator, List, Set, Tuple

from repro.core.ring import RingConfiguration
from repro.faults.registry import sync_target_by_name, target_by_name
from repro.runtime.spec import RunSpec

#: The engine and algorithm mix, as ``(engine, algorithm, campaign n)``.
#: The serve workloads draw the same kinds at ``SERVE_N``.
MIX: Tuple[Tuple[str, str, int], ...] = (
    ("sync", "fig2-input-distribution", 64),
    ("sync", "sync-and", 256),
    ("sync-batch", "fig2-input-distribution", 64),
    ("sync-batch", "chang-roberts-sync", 128),
    ("async", "input-distribution", 48),
    ("async", "hirschberg-sinclair", 64),
    ("async", "franklin", 64),
    ("async-synchronized", "and", 32),
)

SERVE_N = 16

#: Campaign seeds per ``run_specs`` call: eight specs of each
#: ``sync-batch`` algorithm share one grouped engine call.
CAMPAIGN_SEEDS_PER_CALL = 8

#: Groups (requests' worth of specs) in the serve-warm pool.
WARM_POOL_GROUPS = 16


def rng_for(*parts: object) -> random.Random:
    """A generator seeded by its coordinates, stable across processes."""
    return random.Random("|".join(str(part) for part in parts))


def _ring(engine: str, algorithm: str, n: int, rng: random.Random) -> RingConfiguration:
    if algorithm == "input-distribution":
        # Oriented, so that the even-n refinement applies and the run
        # sends exactly n(n-1) messages (experiment E1).
        return RingConfiguration.oriented(tuple(rng.randint(0, 7) for _ in range(n)))
    if engine in ("sync", "sync-batch"):
        return sync_target_by_name(algorithm).make_config(n, rng)
    return target_by_name(algorithm).make_config(n, rng)


def make_spec(
    engine: str, algorithm: str, n: int, rng: random.Random, record: bool = False
) -> RunSpec:
    ring = _ring(engine, algorithm, n, rng)
    params = {"assume_oriented": True} if algorithm == "input-distribution" else None
    scheduler = {}
    if engine == "async":
        scheduler = {"scheduler": "random", "scheduler_seed": rng.randrange(2**31)}
    return RunSpec.make(engine, ring, algorithm, params, record=record, **scheduler)


def campaign_calls(seed: str) -> Iterator[List[RunSpec]]:
    """Endless ``run_specs`` batches: every mix kind once per campaign seed."""
    rng = rng_for("campaign", seed)
    while True:
        yield [
            make_spec(engine, algorithm, n, rng)
            for _ in range(CAMPAIGN_SEEDS_PER_CALL)
            for engine, algorithm, n in MIX
        ]


#: The mix position whose spec records its obs event stream.  Async
#: input distribution sends exactly n(n-1) messages, so every request
#: streams the same number of event lines; recorded kinds differ up to
#: twentyfold in events at n=16, which would split request latency into
#: one mode per kind.
RECORDED = next(i for i, (_, algorithm, _) in enumerate(MIX) if algorithm == "input-distribution")


def serve_group(rng: random.Random, seen: Set[RunSpec]) -> List[RunSpec]:
    """One request: every mix kind once at ``SERVE_N``, shuffled.

    The ``RECORDED`` kind has ``record=True``, one spec in eight.  A spec
    already in ``seen`` is drawn again, so no spec repeats.
    """
    group = []
    for index, (engine, algorithm, _) in enumerate(MIX):
        spec = make_spec(engine, algorithm, SERVE_N, rng, record=index == RECORDED)
        while spec in seen:
            spec = make_spec(engine, algorithm, SERVE_N, rng, record=index == RECORDED)
        seen.add(spec)
        group.append(spec)
    rng.shuffle(group)
    return group


def cold_requests(seed: str) -> Iterator[List[RunSpec]]:
    """Endless requests of specs never submitted before."""
    rng = rng_for("serve-cold", seed)
    seen: Set[RunSpec] = set()
    while True:
        yield serve_group(rng, seen)


def warm_pool(seed: str) -> List[List[RunSpec]]:
    """The serve-warm pool: distinct groups, submitted once during set-up."""
    rng = rng_for("serve-warm", seed)
    seen: Set[RunSpec] = set()
    return [serve_group(rng, seen) for _ in range(WARM_POOL_GROUPS)]


def warm_order(seed: str, pool_size: int) -> Iterator[int]:
    """Endless seeded redraws of pool groups."""
    rng = rng_for("serve-warm-order", seed)
    while True:
        yield rng.randrange(pool_size)
