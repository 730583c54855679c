"""Seeded instance batches of the benchmark, serialized as instance JSON.

Points and capacities are drawn the way
``ftkcenter.oracle.random_point_instance`` draws them, but the generator
lives here so that the program under test receives only the generated JSON
and a later change to the package cannot change the inputs.
Every instance gets its own ``random.Random`` seeded by workload, seed and
index, so a batch is fixed by (workload, seed).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Family:
    """``count`` instances of one solver and one generator setting."""

    algorithm: str  # ft-general | ft-0l | cons-0l | cons-general
    count: int
    n: int
    k: int
    alpha: int
    caps_mode: str  # general: each capacity in 1..n; uniform: {0, L}
    span: int  # points lie on the span x span integer grid
    level: int = 0  # L of uniform capacities

    @property
    def variant(self) -> str:
        return "conservative" if self.algorithm.startswith("cons") else "ft"


@dataclass(frozen=True)
class Workload:
    name: str
    families: tuple[Family, ...]


WORKLOADS = {
    w.name: w
    for w in (
        # front end: threshold graphs, hops and clustering over a long sweep
        Workload(
            "sweep-sparse",
            (Family("ft-general", 12, 34, 3, 1, "general", 1000),),
        ),
        # flow: one max-flow per failure pair in separation, verify and repair
        Workload(
            "grid-failures",
            (
                Family("ft-general", 60, 36, 8, 2, "general", 12),
                Family("cons-general", 8, 24, 8, 2, "general", 12),
            ),
        ),
        # exact LP and Hall cuts; the control for front-end changes.  The
        # last two families cannot cover n = 8 with k - alpha centers of
        # capacity 2, so their sweeps reject every threshold.
        Workload(
            "uniform-cuts",
            (
                Family("ft-0l", 90, 8, 3, 1, "uniform", 1000, 4),
                Family("cons-0l", 10, 8, 4, 1, "uniform", 1000, 3),
                Family("ft-0l", 8, 8, 3, 1, "uniform", 1000, 2),
                Family("cons-0l", 4, 8, 4, 1, "uniform", 1000, 2),
            ),
        ),
    )
}


def instance_payload(rng: random.Random, fam: Family, name: str) -> dict:
    n = fam.n
    points = [[rng.randrange(fam.span), rng.randrange(fam.span)] for _ in range(n)]
    if fam.caps_mode == "general":
        caps = [rng.randint(1, n) for _ in range(n)]
    elif fam.caps_mode == "uniform":
        caps = [fam.level if rng.random() < 0.85 else 0 for _ in range(n)]
        if all(c == 0 for c in caps):
            caps[rng.randrange(n)] = fam.level
    else:
        raise ValueError(f"unknown caps_mode {fam.caps_mode!r}")
    return {
        "name": name,
        "n": n,
        "k": fam.k,
        "alpha": fam.alpha,
        "variant": fam.variant,
        "capacities": caps,
        "points": points,
    }


def batch(workload: Workload, seed: int) -> list[tuple[str, str]]:
    """(algorithm, instance JSON) for every instance of the batch."""
    out = []
    for f, fam in enumerate(workload.families):
        for i in range(fam.count):
            rng = random.Random(f"{workload.name}/{seed}/{f}/{i}")
            payload = instance_payload(rng, fam, f"{workload.name}-{seed}-{f}-{i}")
            out.append((fam.algorithm, json.dumps(payload)))
    return out
