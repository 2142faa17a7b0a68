"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  Everything here is exact integer arithmetic; there
are no tolerances anywhere.
"""

import random

import pytest

from ecsquares import (
    SearchConfig,
    admissible_traces,
    base_change_count,
    classify_degeneracy,
    guaranteed_square,
    isqrt,
    paper_check,
    perfect_square_root,
    realize_trace,
    run_search,
    sporadic_check,
    sporadic_list,
    trace_sequence,
    waterhouse_admissible,
)
from ecsquares.cli import main as cli_main
from ecsquares.search import VERIFIED_OMISSIONS, prime_powers_below
from ecsquares.traces import hasse_bound

QMAX = 50
NMAX = 1000
COUNT_LIMIT = 1 << 16


def _report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} [{status}] {name}{suffix}")
    assert ok, f"criterion {number}: {name}{suffix}"


@pytest.fixture(scope="module")
def default_report():
    return run_search(SearchConfig(qmax=QMAX, nmax=NMAX,
                                   admissibility="waterhouse",
                                   degeneracy="exclude"))


@pytest.fixture(scope="module")
def admissible_pairs():
    pairs = []
    for pp in prime_powers_below(QMAX):
        for a in admissible_traces(pp):
            pairs.append((pp, a))
    return pairs


def test_criterion_1_published_search_reproduction(default_report, capsys):
    diff = paper_check(default_report)
    ok = (diff.clean
          and len(diff.matching) == 52
          and diff.missing == []
          and diff.extra == []
          and len(diff.expected_deviations) == 4)

    # the two verified omissions must be exactly the known ones, each backed
    # by an actual curve whose brute-force extension count is the square
    produced = {h.triple(): h.u for h in default_report.hits}
    assert VERIFIED_OMISSIONS == ((32, -3, 1, 6), (32, 5, 3, 182))
    for q, a, n, u in VERIFIED_OMISSIONS:
        ok = ok and produced.get((q, a, n)) == u
        curve = realize_trace(q, a)
        ok = ok and curve is not None
        ok = ok and base_change_count(curve, n) == u * u

    # the CLI command agrees (exit 0 means clean modulo documented deviations)
    exit_code = cli_main(["paper-check"])
    capsys.readouterr()
    ok = ok and exit_code == 0
    with capsys.disabled():
        _report(1, "published-table reproduction (0 missing / 0 extra after "
                   "documented errata; exit 0)", ok,
                f"matching={len(diff.matching)} deviations={len(diff.expected_deviations)}")


def test_criterion_2_degenerate_guaranteed_squares(capsys):
    checked_pairs = 0
    checked_terms = 0
    ok = True
    for pp in prime_powers_below(QMAX):
        for a in admissible_traces(pp):
            m = classify_degeneracy(pp, a)
            if m is None:
                continue
            checked_pairs += 1
            q = pp.q
            api_sample = {m, 2 * m, 24, 996, 1000} | {k * m for k in range(1, 11)}
            for term in trace_sequence(pp, a, NMAX):
                if term.n % m != 0:
                    continue
                checked_terms += 1
                s = isqrt(q ** term.n)
                ok = ok and s * s == q ** term.n
                ok = ok and term.a_n in (2 * s, -2 * s)
                u = s - 1 if term.a_n > 0 else s + 1
                ok = ok and u * u == term.N_n and u in (s - 1, s + 1)
                if m == 1:
                    root = pp.p ** (pp.b // 2)
                    signed = root if a > 0 else -root
                    ok = ok and u == abs(signed ** term.n - 1)
                if term.n in api_sample:
                    hit = guaranteed_square(pp, a, term.n)
                    ok = ok and hit is not None and hit.u == u
                if not ok:
                    break
            if not ok:
                break
    with capsys.disabled():
        _report(2, "degenerate pairs: every n = 0 mod m gives a square with "
                   "u in {s-1, s+1}", ok,
                f"{checked_pairs} pairs, {checked_terms} guaranteed squares")


def test_criterion_3_sporadic_completeness(capsys):
    clean, missing, extra = sporadic_check(QMAX, NMAX)
    expected = {h.triple() for h in sporadic_list()}
    ok = clean and len(expected) == 7
    with capsys.disabled():
        _report(3, "degenerate pairs at n != 0 mod m yield exactly the seven "
                   "sporadic squares", ok,
                f"missing={missing} extra={extra}")


def test_criterion_4_constructive_trace_realization(capsys):
    ok = True
    realized = 0
    refused = 0
    for pp in prime_powers_below(QMAX):
        bound = hasse_bound(pp)
        for a in range(-bound, bound + 1):
            curve = realize_trace(pp, a)
            admissible = waterhouse_admissible(pp, a)
            if (curve is not None) != admissible:
                ok = False
                break
            if curve is not None:
                realized += 1
            else:
                refused += 1
        if not ok:
            break
    with capsys.disabled():
        _report(4, "realize_trace succeeds exactly on Waterhouse-admissible "
                   "pairs (both directions)", ok,
                f"{realized} realized, {refused} refused")


def test_criterion_5_oracle_equivalence(admissible_pairs, capsys):
    ok = True
    counts_checked = 0
    for pp, a in admissible_pairs:
        curve = realize_trace(pp, a)
        terms = {t.n: t.N_n for t in trace_sequence(pp, a, 64)}
        n, q_pow = 1, pp.q
        while q_pow <= COUNT_LIMIT:
            if base_change_count(curve, n) != terms[n]:
                ok = False
                break
            counts_checked += 1
            n += 1
            q_pow *= pp.q
        if not ok:
            break
    with capsys.disabled():
        _report(5, "brute-force extension counts equal the recurrence for "
                   "every admissible pair", ok,
                f"{len(admissible_pairs)} pairs, {counts_checked} extension counts")


def test_criterion_6_property_suites(admissible_pairs, capsys):
    divisors = [[] for _ in range(NMAX + 1)]
    for d in range(1, NMAX + 1):
        for n in range(2 * d, NMAX + 1, d):
            divisors[n].append(d)

    ok = True
    pairs_checked = 0
    for pp, a in admissible_pairs:
        q = pp.q
        traces = [2]
        counts = [None]
        q_pow = 1
        for term in trace_sequence(pp, a, NMAX):
            q_pow *= q
            # Hasse over the extension
            if term.a_n ** 2 > 4 * q_pow:
                ok = False
                break
            traces.append(term.a_n)
            counts.append(term.N_n)
        if not ok:
            break
        # doubling identity
        q_pow = 1
        for n in range(1, NMAX // 2 + 1):
            q_pow *= q
            if traces[2 * n] != traces[n] ** 2 - 2 * q_pow:
                ok = False
                break
        if not ok:
            break
        # Lagrange divisibility: N_d | N_n whenever d | n
        for n in range(2, NMAX + 1):
            for d in divisors[n]:
                if counts[n] % counts[d]:
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            break
        pairs_checked += 1

    rng = random.Random(1 << 20)
    rounds = 0
    for _ in range(10_000):
        x = rng.randrange(0, 1 << 6000)
        r = isqrt(x)
        if not (r * r <= x < (r + 1) * (r + 1)):
            ok = False
            break
        u = rng.randrange(0, 1 << 3000)
        if perfect_square_root(u * u) != u:
            ok = False
            break
        if u and perfect_square_root(u * u + 1) is not None:
            ok = False
            break
        rounds += 1
    with capsys.disabled():
        _report(6, "Hasse / doubling / Lagrange on all scanned pairs plus "
                   "10^4 isqrt round-trips", ok,
                f"{pairs_checked} pairs, {rounds} random round-trips")


def test_criterion_7_out_of_scope_bound_declared(capsys):
    # The finiteness bound for nondegenerate pairs (at most 10^200 perfect
    # squares per sequence, as the paper's abstract states) rests on
    # Diophantine approximation machinery with no computational content; no
    # run of this tool can confirm or deny it.  The artifact therefore never
    # claims that bound: criteria 1-6 are the verifiable substitute, and the
    # README documents the limitation.
    from pathlib import Path

    readme = Path(__file__).resolve().parent.parent / "README.md"
    ok = readme.exists() and "Scope" in readme.read_text(encoding="utf-8")
    with capsys.disabled():
        _report(7, "non-reproducible finiteness bound declared out of scope "
                   "(criteria 1-6 substitute)", ok)
