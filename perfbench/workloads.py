"""The benchmark's workloads: the CLI commands one pass runs, made from the seed.

``search-deep`` and ``search-degenerate`` are exhaustive ranges and ignore
the seed.  ``oracle`` draws its traces from the seed inside a fixed set of
fields, so every seed reaches GF(2^16), GF(3^10) and fields of
characteristic 5 and 7 and costs about the same.  Nothing here imports
``ecsquares``: the workers and the checks share these definitions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import reference

WORKLOADS = ("search-deep", "search-degenerate", "oracle")

QMAX = 50                 # the paper's range: every prime power q < 50
PAPER_NMAX = 1000         # the paper's range: n <= 1000
SEARCH_DEEP_NMAX = 1500
COUNT_LIMIT = 1 << 16     # verify-extension's default --count-limit

# q = 16 and q = 9 reach GF(2^16) and GF(3^10) under COUNT_LIMIT; 27, 25
# and 49 add characteristic 3, 5 and 7 fields that have inadmissible traces.
# The fields are fixed because one field's tables cost many times another's:
# a seed choosing fields would make the timing measure the seed.
ORACLE_FIELDS = (16, 9, 27, 25, 49)


@dataclass(frozen=True)
class Command:
    """One ``ecsquares`` CLI invocation; ``name`` names its captured output."""

    name: str
    argv: tuple[str, ...]


@dataclass(frozen=True)
class OracleSample:
    verify: tuple[tuple[int, int], ...]   # (q, a) for verify-extension
    refuse: tuple[tuple[int, int], ...]   # inadmissible (q, a) for realize


def oracle_sample(seed: int) -> OracleSample:
    """Per field: one ordinary and one supersingular admissible trace to
    verify (p does not / does divide a), and one inadmissible trace to refuse
    where the field has any."""
    rng = random.Random(seed)
    verify, refuse = [], []
    for q in ORACLE_FIELDS:
        p, _ = reference.prime_power(q)
        bound = reference.hasse_bound(q)
        traces = range(-bound, bound + 1)
        ordinary = [a for a in traces if a % p]
        supersingular = [a for a in traces if a % p == 0 and reference.admissible(q, a)]
        inadmissible = [a for a in traces if not reference.admissible(q, a)]
        verify += [(q, rng.choice(ordinary)), (q, rng.choice(supersingular))]
        if inadmissible:
            refuse.append((q, rng.choice(inadmissible)))
    return OracleSample(tuple(verify), tuple(refuse))


def extension_degrees(q: int) -> int:
    """How many n >= 1 have q^n <= COUNT_LIMIT: the counts verify-extension makes."""
    n = 0
    while q ** (n + 1) <= COUNT_LIMIT:
        n += 1
    return n


def commands(workload: str, seed: int) -> list[Command]:
    if workload == "search-deep":
        return [Command("paper-check", ("paper-check",)),
                Command("search", ("search", "--nmax", str(SEARCH_DEEP_NMAX)))]
    if workload == "search-degenerate":
        return [Command("search", ("search", "--degenerate", "only"))]
    if workload == "oracle":
        sample = oracle_sample(seed)
        return ([Command(f"verify_{q}_{a}", ("verify-extension", "--q", str(q), "--a", str(a)))
                 for q, a in sample.verify]
                + [Command(f"realize_{q}_{a}", ("realize", "--q", str(q), "--a", str(a)))
                   for q, a in sample.refuse])
    raise ValueError(f"unknown workload {workload!r}")
