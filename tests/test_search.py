import math

import pytest

import ecsquares.search

from ecsquares import (
    DomainError,
    PrimePower,
    SearchConfig,
    SquareHit,
    classify_degeneracy,
    paper_check,
    run_search,
    verify_hit,
)
from ecsquares.search import (
    ERRATUM_INADMISSIBLE,
    ERRATUM_NOT_PRIME_POWER,
    PUBLISHED_SQUARES,
    VERIFIED_OMISSIONS,
    SearchReport,
    prime_powers_below,
    search_pairs,
)
from ecsquares.sequence import SequenceTerm, square_hits_scan, trace_sequence, trace_term


def test_published_table_shape():
    assert len(PUBLISHED_SQUARES) == 52
    triples = [(q, a, n) for q, a, n, _ in PUBLISHED_SQUARES]
    assert len(set(triples)) == 52
    assert ERRATUM_NOT_PRIME_POWER in triples
    assert ERRATUM_INADMISSIBLE in triples
    # the degenerate entry lives in the sporadic table, not here
    assert (32, 8, 1) not in triples


def test_prime_powers_below_50():
    values = [pp.q for pp in prime_powers_below(50)]
    assert values == [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27,
                      29, 31, 32, 37, 41, 43, 47, 49]


def test_config_validation():
    with pytest.raises(DomainError):
        SearchConfig(qmax=1)
    with pytest.raises(DomainError):
        SearchConfig(nmax=0)
    with pytest.raises(DomainError):
        SearchConfig(admissibility="loose")
    with pytest.raises(DomainError):
        SearchConfig(degeneracy="sometimes")


def test_search_pair_counts_default_ranges():
    assert len(search_pairs(SearchConfig())) == 334
    assert len(search_pairs(SearchConfig(admissibility="hasse"))) == 352
    assert len(search_pairs(SearchConfig(degeneracy="include"))) == 384
    assert len(search_pairs(SearchConfig(degeneracy="only"))) == 50


def test_small_search_matches_direct_rederivation():
    from ecsquares import waterhouse_admissible

    config = SearchConfig(qmax=10, nmax=30)
    report = run_search(config)
    # independent re-derivation with the plain recurrence
    expected = []
    for pp in prime_powers_below(10):
        q = pp.q
        bound = math.isqrt(4 * q)
        for a in range(-bound, bound + 1):
            if not waterhouse_admissible(pp, a):
                continue
            if classify_degeneracy(pp, a) is not None:
                continue
            prev, cur = 2, a
            q_pow = 1
            for n in range(1, 31):
                q_pow *= q
                count = q_pow + 1 - cur
                root = math.isqrt(count)
                if root * root == count:
                    expected.append((q, a, n, root))
                prev, cur = cur, a * cur - q * prev
    assert [(h.q.q, h.a, h.n, h.u) for h in report.hits] == sorted(expected)


def test_search_is_deterministic_and_sorted():
    from ecsquares.records import render_records

    config = SearchConfig(qmax=20, nmax=50)
    first = run_search(config)
    second = run_search(config)
    # byte-identical serialized hit lists
    assert render_records(first.hits, "jsonl") == render_records(second.hits, "jsonl")
    triples = [h.triple() for h in first.hits]
    assert triples == sorted(triples)
    assert len(set(triples)) == len(triples)


def test_on_pair_receives_each_pairs_hits_in_order():
    batches = []
    report = run_search(SearchConfig(qmax=10, nmax=40, degeneracy="include"), batches.append)
    assert len(batches) == report.pairs_scanned == len(search_pairs(report.config))
    assert [hit for batch in batches for hit in batch] == report.hits
    assert all(len({(hit.q, hit.a) for hit in batch}) <= 1 for batch in batches)
    assert sum(1 for batch in batches if batch) > 1


def test_hasse_mode_is_a_superset_with_the_inadmissible_entry():
    waterhouse = run_search(SearchConfig(qmax=28, nmax=10))
    hasse = run_search(SearchConfig(qmax=28, nmax=10, admissibility="hasse"))
    w_triples = {h.triple() for h in waterhouse.hits}
    h_triples = {h.triple() for h in hasse.hits}
    assert w_triples <= h_triples
    assert (27, 3, 1) in h_triples - w_triples


def test_degeneracy_modes_partition_hits():
    include = run_search(SearchConfig(qmax=10, nmax=12, degeneracy="include"))
    exclude = run_search(SearchConfig(qmax=10, nmax=12, degeneracy="exclude"))
    only = run_search(SearchConfig(qmax=10, nmax=12, degeneracy="only"))
    assert {h.triple() for h in exclude.hits}.isdisjoint(h.triple() for h in only.hits)
    assert {h.triple() for h in include.hits} == \
           {h.triple() for h in exclude.hits} | {h.triple() for h in only.hits}
    assert all(h.degenerate_m is not None for h in only.hits)


def test_verify_hit():
    pp = PrimePower.from_q(2)
    good = SquareHit(q=pp, a=-1, n=11, u=46, degenerate_m=None, source="scan")
    bad = SquareHit(q=pp, a=-1, n=2, u=3, degenerate_m=None, source="scan")
    assert verify_hit(good)
    assert not verify_hit(bad)  # N_2 = 8 is not a square
    # (49, 14) has m = 1 and a_n = 2 * 7^n, so N_1000 = (7^1000 - 1)^2.
    s = 7 ** 1000
    q49 = PrimePower.from_q(49)
    assert verify_hit(SquareHit(q=q49, a=14, n=1000, u=s - 1, degenerate_m=1, source="guaranteed"))
    assert not verify_hit(SquareHit(q=q49, a=14, n=1000, u=s, degenerate_m=1, source="guaranteed"))
    # No term exists at n = 0; N_0 = 1 + 1 - 2 = 0 = 0^2 must not pass.
    assert not verify_hit(SquareHit(q=pp, a=-1, n=0, u=0, degenerate_m=None, source="scan"))


def test_verify_hit_rejects_a_term_at_another_n():
    pp = PrimePower.from_q(2)
    hit = SquareHit(q=pp, a=-1, n=11, u=46, degenerate_m=None, source="scan")
    term = list(trace_sequence(pp, -1, 11))[-1]
    assert verify_hit(hit, term)
    # Right count, wrong n: only the n check can reject it.
    assert not verify_hit(hit, SequenceTerm(n=12, a_n=term.a_n, N_n=term.N_n))
    assert not verify_hit(hit, list(trace_sequence(pp, -1, 12))[-1])


# Nondegenerate and degenerate pairs, with m = 1, 2, 4 and 6.
@pytest.mark.parametrize("q, a", [(2, -1), (7, -4), (49, 14), (17, 0), (2, 2), (3, 3)])
def test_recurrence_verifier_agrees_with_doubling(q, a):
    pp = PrimePower.from_q(q)
    m = classify_degeneracy(pp, a)
    for n in (1, 2, 7, 64, 999):
        count = q ** n + 1 - trace_term(pp, a, n)
        u = math.isqrt(count)
        if m is not None and n % m == 0:
            assert u * u == count
        hit = SquareHit(q=pp, a=a, n=n, u=u, degenerate_m=m, source="scan")
        assert verify_hit(hit) == (u * u == count)
        assert not verify_hit(hit._replace(u=u + 1))


def _wrong_u(hits, i):
    hits[i] = hits[i]._replace(u=hits[i].u + 1)


def _swapped(hits, i):
    hits[i], hits[i + 1] = hits[i + 1], hits[i]


def _duplicated(hits, i):
    hits.insert(i, hits[i])


@pytest.mark.parametrize("corrupt, i", [
    (_wrong_u, 10), (_wrong_u, -1), (_swapped, 10), (_swapped, -2),
    (_duplicated, 10), (_duplicated, -1)])
def test_shared_walk_rejects_corrupted_scan_output(monkeypatch, corrupt, i):
    # (49, 14) has m = 1: every n is a hit, so the walk visits no other n.
    def scan(pp, a, nmax):
        hits = square_hits_scan(pp, a, nmax)
        if (pp.q, a) == (49, 14):
            corrupt(hits, i)
        return hits

    config = SearchConfig(qmax=50, nmax=20, degeneracy="only")
    assert len(run_search(config).hits) > 0
    monkeypatch.setattr(ecsquares.search, "square_hits_scan", scan)
    with pytest.raises(RuntimeError, match="re-verification"):
        run_search(config)


def test_run_search_verifies_each_hit_once_at_its_own_term(monkeypatch):
    calls = []

    def counting(hit, term=None):
        calls.append((hit, term))
        return verify_hit(hit, term)

    monkeypatch.setattr(ecsquares.search, "verify_hit", counting)
    report = run_search(SearchConfig(qmax=10, nmax=60, degeneracy="include"))
    assert [hit for hit, _ in calls] == report.hits
    assert any(hit.degenerate_m for hit in report.hits)
    for hit, term in calls:
        # The shared walk's term at the hit's n, equal to exact doubling.
        a_n = trace_term(hit.q, hit.a, hit.n)
        assert term == (hit.n, a_n, hit.q.q ** hit.n + 1 - a_n)


def test_run_search_rejects_a_wrong_u_mid_pair(monkeypatch):
    # (8, 4) has m = 4: its walk passes the off-cycle n between hits.
    def scan(pp, a, nmax):
        hits = square_hits_scan(pp, a, nmax)
        if (pp.q, a) == (8, 4):
            i = len(hits) // 2
            hits[i] = hits[i]._replace(u=hits[i].u + 1)
        return hits

    monkeypatch.setattr(ecsquares.search, "square_hits_scan", scan)
    with pytest.raises(RuntimeError, match=r"re-verification: .*q=8.*a=4"):
        run_search(SearchConfig(qmax=10, nmax=60, degeneracy="include"))


def _default_report_with(hits):
    return SearchReport(config=SearchConfig(), hits=hits,
                        pairs_scanned=334, elapsed_seconds=0.0)


def _expected_full_hits():
    out = []
    for q, a, n, u in PUBLISHED_SQUARES + VERIFIED_OMISSIONS:
        if (q, a, n) in (ERRATUM_NOT_PRIME_POWER, ERRATUM_INADMISSIBLE):
            continue
        out.append(SquareHit(q=PrimePower.from_q(q), a=a, n=n, u=u,
                             degenerate_m=None, source="scan"))
    return sorted(out, key=lambda h: h.triple())


def test_paper_check_on_synthetic_clean_report():
    diff = paper_check(_default_report_with(_expected_full_hits()))
    assert diff.clean
    assert len(diff.matching) == 52
    assert diff.missing == [] and diff.extra == []
    assert len(diff.expected_deviations) == 4


def test_paper_check_detects_missing():
    hits = [h for h in _expected_full_hits() if h.triple() != (2, -1, 11)]
    diff = paper_check(_default_report_with(hits))
    assert diff.missing == [(2, -1, 11)]
    assert not diff.clean


def test_paper_check_detects_fabricated_extra():
    fake = SquareHit(q=PrimePower.from_q(2), a=-1, n=2, u=3,
                     degenerate_m=None, source="scan")
    hits = sorted(_expected_full_hits() + [fake], key=lambda h: h.triple())
    diff = paper_check(_default_report_with(hits))
    assert diff.extra == [(2, -1, 2)]
    assert (2, -1, 2) in diff.verification_failures  # 3^2 != N_2 = 8
    assert not diff.clean


def test_paper_check_under_hasse_screening():
    # Hasse screening keeps the published (27, 3, 1), which no curve realizes.
    diff = paper_check(run_search(SearchConfig(admissibility="hasse")))
    assert diff.clean
    assert len(diff.matching) == 53 and (27, 3, 1) in diff.matching
    assert diff.missing == [] and diff.extra == [] and diff.verification_failures == []
    assert diff.expected_deviations == [
        "published entry (36, 1, 1) dropped: 36 is not a prime power, so no trace "
        "sequence exists",
        "published entry (27, 3, 1) retained under hasse screening (no curve realizes it)",
        "verified omission (32, -3, 1) added: 32^1 + 1 - a_1 = 6^2 = 36 is admissible "
        "and nondegenerate but absent from the published table",
        "verified omission (32, 5, 3) added: 32^3 + 1 - a_3 = 182^2 = 33124 is "
        "admissible and nondegenerate but absent from the published table",
    ]


def test_paper_check_rejects_wrong_ranges():
    report = run_search(SearchConfig(qmax=10, nmax=10))
    with pytest.raises(DomainError):
        paper_check(report)


def test_paper_check_empty_report_misses_everything():
    diff = paper_check(_default_report_with([]))
    assert len(diff.missing) == 52
    assert not diff.clean


def test_paper_check_rejects_degenerate_modes():
    report = SearchReport(config=SearchConfig(degeneracy="include"), hits=[],
                          pairs_scanned=0, elapsed_seconds=0.0)
    with pytest.raises(DomainError):
        paper_check(report)


def test_no_nondegenerate_square_between_n_1000_and_5000():
    # The residue sieve makes n <= 5000 cheap: past the paper's n <= 1000 no
    # new square appears for q < 50.
    def squares(nmax):
        report = run_search(SearchConfig(nmax=nmax))
        return [(h.q.q, h.a, h.n, h.u) for h in report.hits]

    paper_range = squares(1000)
    assert len(paper_range) == 52
    assert squares(5000) == paper_range
