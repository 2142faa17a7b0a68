"""Exhaustive perfect-square search over all prime powers q < qmax.

``run_search`` scans every (q, a) pair allowed by the configured
admissibility and degeneracy filters and collects all perfect-square point
counts with n <= nmax.  ``paper_check`` diffs a default-range report against
the embedded table of published results and flags the known defects of that
table as expected deviations, so a clean run means "reproduced exactly,
modulo the documented errata".
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .errors import DomainError
from .numeric import prime_power_decompose
from .sequence import SquareHit, square_hits_scan, sporadic_list, trace_term
from .traces import (
    PrimePower,
    classify_degeneracy,
    hasse_bound,
    waterhouse_admissible,
)

ADMISSIBILITY_MODES = ("waterhouse", "hasse")
DEGENERACY_MODES = ("exclude", "include", "only")


@dataclass(frozen=True)
class SearchConfig:
    qmax: int = 50          # exclusive
    nmax: int = 1000
    admissibility: str = "waterhouse"
    degeneracy: str = "exclude"

    def __post_init__(self):
        if self.qmax < 2:
            raise DomainError(f"qmax must be >= 2, got {self.qmax}")
        if self.nmax < 1:
            raise DomainError(f"nmax must be >= 1, got {self.nmax}")
        if self.admissibility not in ADMISSIBILITY_MODES:
            raise DomainError(f"unknown admissibility mode {self.admissibility!r}")
        if self.degeneracy not in DEGENERACY_MODES:
            raise DomainError(f"unknown degeneracy mode {self.degeneracy!r}")


@dataclass
class SearchReport:
    config: SearchConfig
    hits: list[SquareHit]
    pairs_scanned: int
    elapsed_seconds: float


def prime_powers_below(qmax: int) -> list[PrimePower]:
    out = []
    for q in range(2, qmax):
        decomposition = prime_power_decompose(q)
        if decomposition is not None:
            p, b = decomposition
            out.append(PrimePower(p, b, q))
    return out


def search_pairs(config: SearchConfig) -> list[tuple[PrimePower, int]]:
    """The (q, a) work units selected by the config filters, in canonical order."""
    pairs = []
    for pp in prime_powers_below(config.qmax):
        bound = hasse_bound(pp)
        for a in range(-bound, bound + 1):
            if config.admissibility == "waterhouse" and not waterhouse_admissible(pp, a):
                continue
            m = classify_degeneracy(pp, a)
            if config.degeneracy == "exclude" and m is not None:
                continue
            if config.degeneracy == "only" and m is None:
                continue
            pairs.append((pp, a))
    return pairs


def run_search(config: SearchConfig) -> SearchReport:
    """Scan all selected pairs and re-verify every hit with ``verify_hit``.

    Hits are returned in canonical (q, a, n) order.
    """
    start = time.perf_counter()
    pairs = search_pairs(config)
    hits = sorted((hit for pp, a in pairs
                   for hit in square_hits_scan(pp, a, config.nmax)),
                  key=lambda h: h.triple())
    for hit in hits:
        if not verify_hit(hit):
            raise RuntimeError(f"hit failed re-verification: {hit}")
    return SearchReport(
        config=config,
        hits=hits,
        pairs_scanned=len(pairs),
        elapsed_seconds=time.perf_counter() - start,
    )


def verify_hit(hit: SquareHit) -> bool:
    """Confirm u^2 = q^n + 1 - a_n, with a_n from Lucas doubling (``trace_term``).

    Doubling is independent of the recurrence loop that scans for hits, and
    costs O(log n) multiplications per hit.  A hit with n < 1 is rejected.
    """
    if hit.n < 1:
        return False
    return hit.u * hit.u == hit.q.q ** hit.n + 1 - trace_term(hit.q, hit.a, hit.n)


# -- published search table and its verified errata ---------------------------

# The published exhaustive-search table for q < 50, n <= 1000 (nondegenerate
# pairs), as (q, a, n, u) with u*u = q^n + 1 - a_n.  Grouped by square value.
# The published list also contains the degenerate entry (32, 8, 1, 5), which
# this package keeps in the sporadic table instead (see sequence.py).
PUBLISHED_SQUARES: tuple[tuple[int, int, int, int], ...] = (
    # 4 = 2^2
    (2, -1, 1, 2), (2, -1, 3, 2), (4, 1, 1, 2), (5, 2, 1, 2),
    (7, 4, 1, 2), (8, 5, 1, 2),
    # 9 = 3^2
    (5, -3, 1, 3), (7, -1, 1, 3), (9, 1, 1, 3), (11, 3, 1, 3), (13, 5, 1, 3),
    # 16 = 4^2
    (2, -1, 4, 4), (2, 1, 4, 4), (4, -3, 2, 4), (4, 3, 2, 4), (11, -4, 1, 4),
    (13, -2, 1, 4), (16, 1, 1, 4), (17, 2, 1, 4), (19, 4, 1, 4), (23, 8, 1, 4),
    # 25 = 5^2
    (17, -7, 1, 5), (19, -5, 1, 5), (23, -1, 1, 5), (25, 1, 1, 5),
    (27, 3, 1, 5), (29, 5, 1, 5), (31, 7, 1, 5),
    # 36 = 6^2
    (3, 1, 3, 6), (27, -8, 1, 6), (29, -6, 1, 6), (31, -4, 1, 6),
    (36, 1, 1, 6), (37, 2, 1, 6), (41, 6, 1, 6), (43, 8, 1, 6), (47, 12, 1, 6),
    # 49 = 7^2
    (37, -11, 1, 7), (41, -7, 1, 7), (43, -5, 1, 7), (47, -1, 1, 7), (49, 1, 1, 7),
    # larger squares
    (5, 3, 3, 12),
    (7, -4, 3, 18), (7, -1, 3, 18), (7, 5, 3, 18),
    (2, -1, 11, 46),
    (5, 1, 5, 55),
    (17, -7, 3, 70),
    (23, -1, 3, 110),
    (29, -9, 3, 156),
    (47, -1, 3, 322),
)

# Published entries that no search can reproduce.
ERRATUM_NOT_PRIME_POWER = (36, 1, 1)   # 36 = 2^2 * 3^2; no field of 36 elements
ERRATUM_INADMISSIBLE = (27, 3, 1)      # fails the Waterhouse criterion: no curve
                                       # over GF(27) has trace 3; the arithmetic
                                       # 27 + 1 - 3 = 25 only holds formally and
                                       # the entry appears under hasse screening.

# Verified omissions: squares the published table misses.  Both are
# Waterhouse-admissible, nondegenerate, and confirmed by the recurrence and
# by counting points on a realized curve (the published scan appears to have
# skipped q = 32; its only q = 32 entry comes from the sporadic analysis).
#   32 + 1 - (-3)      = 36    = 6^2
#   32^3 + 1 - (-355)  = 33124 = 182^2
VERIFIED_OMISSIONS: tuple[tuple[int, int, int, int], ...] = (
    (32, -3, 1, 6),
    (32, 5, 3, 182),
)

# Sign-pattern notes for the published degenerate-family table; the
# recurrence is authoritative and guaranteed_square derives signs from it.
PUBLISHED_TABLE_NOTES: tuple[str, ...] = (
    "degenerate family m=3, a=+sqrt(q), n = 3 mod 6: recurrence gives "
    "a_n = -2*q^(n/2) and count (q^(n/2)+1)^2; the published row states "
    "a_n = +2*q^(n/2) with (q^(n/2)-1)^2",
    "degenerate family m=3, a=-sqrt(q), n = 3 mod 6: recurrence gives "
    "a_n = +2*q^(n/2); the published row states a_n = -2*q^(n/2)",
    "degenerate family m=4, n = 0 mod 8: recurrence gives a_n = +2^((nv+2)/2) "
    "(count (q^(n/2)-1)^2); the published case text states a negative a_n",
)


@dataclass
class PaperCheckReport:
    """Three-way diff of a search report against the published table."""

    matching: list[tuple[int, int, int]]
    missing: list[tuple[int, int, int]]
    extra: list[tuple[int, int, int]]
    expected_deviations: list[str]
    verification_failures: list[tuple[int, int, int]]
    notes: tuple[str, ...] = field(default=PUBLISHED_TABLE_NOTES)

    @property
    def clean(self) -> bool:
        return not (self.missing or self.extra or self.verification_failures)


def paper_check(report: SearchReport) -> PaperCheckReport:
    """Diff a default-range report against the published table.

    Requires qmax = 50, nmax = 1000 and degenerates excluded (the published
    table covers nondegenerate pairs only).  Waterhouse and hasse
    admissibility are both supported; the expectations adjust accordingly.
    """
    config = report.config
    if config.qmax != 50 or config.nmax != 1000:
        raise DomainError(
            f"paper check is defined for qmax=50, nmax=1000; "
            f"got qmax={config.qmax}, nmax={config.nmax}")
    if config.degeneracy != "exclude":
        raise DomainError(
            "paper check is defined for degeneracy='exclude'; "
            f"got {config.degeneracy!r}")

    deviations = [
        f"published entry {ERRATUM_NOT_PRIME_POWER} dropped: 36 is not a "
        f"prime power, so no trace sequence exists",
    ]
    expected = {(q, a, n): u for q, a, n, u in PUBLISHED_SQUARES}
    del expected[ERRATUM_NOT_PRIME_POWER]
    if config.admissibility == "waterhouse":
        del expected[ERRATUM_INADMISSIBLE]
        deviations.append(
            f"published entry {ERRATUM_INADMISSIBLE} dropped: trace 3 is not "
            f"Waterhouse-admissible for q=27 (appears under --admissibility hasse)")
    else:
        deviations.append(
            f"published entry {ERRATUM_INADMISSIBLE} retained under hasse "
            f"screening (no curve realizes it)")
    for q, a, n, u in VERIFIED_OMISSIONS:
        expected[(q, a, n)] = u
        deviations.append(
            f"verified omission ({q}, {a}, {n}) added: {q}^{n} + 1 - a_{n} = "
            f"{u}^2 = {u * u} is admissible and nondegenerate but absent from "
            f"the published table")

    produced = {hit.triple(): hit for hit in report.hits}
    verification_failures = sorted(
        triple for triple, hit in produced.items()
        if not verify_hit(hit) or expected.get(triple, hit.u) != hit.u)
    missing = sorted(t for t in expected if t not in produced)
    extra = sorted(t for t in produced if t not in expected)
    matching = sorted(t for t in produced if t in expected)
    return PaperCheckReport(
        matching=matching,
        missing=missing,
        extra=extra,
        expected_deviations=deviations,
        verification_failures=verification_failures,
    )


def sporadic_check(qmax: int = 50, nmax: int = 1000) -> tuple[bool, list, list]:
    """Compare the squares of degenerate admissible pairs at n NOT divisible by m
    against the embedded sporadic table (q < qmax).

    For q < 50 and n <= 1000 the two must agree exactly.
    """
    report = run_search(SearchConfig(qmax=qmax, nmax=nmax, degeneracy="only"))
    found = {hit.triple(): hit.u for hit in report.hits
             if hit.n % hit.degenerate_m != 0}
    expected = {hit.triple(): hit.u for hit in sporadic_list()
                if hit.q.q < qmax}
    missing = sorted(t for t in expected if found.get(t) != expected[t])
    extra = sorted(t for t in found if t not in expected)
    return (not missing and not extra, missing, extra)
