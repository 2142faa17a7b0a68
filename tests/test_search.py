import math

import pytest

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
    from ecsquares.cli import _hit_record
    from ecsquares.records import render_records

    config = SearchConfig(qmax=20, nmax=50)
    first = run_search(config)
    second = run_search(config)
    # byte-identical serialized hit lists
    assert render_records([_hit_record(h) for h in first.hits], "jsonl") == \
           render_records([_hit_record(h) for h in second.hits], "jsonl")
    triples = [h.triple() for h in first.hits]
    assert triples == sorted(triples)
    assert len(set(triples)) == len(triples)


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
