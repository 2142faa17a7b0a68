import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ecsquares import (
    DomainError,
    base_change_count,
    guaranteed_square,
    hasse_bound,
    realize_trace,
    sporadic_list,
    square_hits_scan,
    trace_sequence,
    trace_term,
)
from ecsquares.search import prime_powers_below

# (q, a) over every prime power q < 50 and its whole Hasse range, degenerate
# pairs included.
HASSE_PAIRS = st.sampled_from(prime_powers_below(50)).flatmap(
    lambda pp: st.tuples(st.just(pp.q),
                         st.integers(-hasse_bound(pp), hasse_bound(pp))))


def test_recurrence_values_q2_a_minus1():
    terms = list(trace_sequence(2, -1, 11))
    assert [t.a_n for t in terms] == [-1, -3, 5, 1, -11, 9, 13, -31, 5, 57, -67]
    assert terms[10].N_n == 2048 + 1 + 67 == 2116


def test_recurrence_value_q5_a1():
    terms = {t.n: t for t in trace_sequence(5, 1, 5)}
    assert terms[5].a_n == 101
    assert terms[5].N_n == 3025


def test_recurrence_value_q2_a0():
    terms = {t.n: t for t in trace_sequence(2, 0, 3)}
    assert terms[3].a_n == 0
    assert terms[3].N_n == 9


def test_sequence_invariants_sampled():
    for (q, a) in [(2, -1), (3, 1), (7, -4), (49, 14), (32, 5)]:
        terms = list(trace_sequence(q, a, 60))
        n_by_index = {t.n: t for t in terms}
        for t in terms:
            assert t.N_n == q ** t.n + 1 - t.a_n
            assert t.a_n ** 2 <= 4 * q ** t.n
            assert t.N_n > 0
            if 2 * t.n <= 60:
                assert n_by_index[2 * t.n].a_n == t.a_n ** 2 - 2 * q ** t.n


def test_sequence_rejects_hasse_violation():
    with pytest.raises(DomainError):
        list(trace_sequence(2, 3, 5))
    with pytest.raises(DomainError):
        trace_term(2, 3, 5)


def test_sequence_rejects_bad_nmax():
    with pytest.raises(DomainError):
        list(trace_sequence(2, 1, 0))
    with pytest.raises(DomainError):
        trace_term(2, 1, 0)


@settings(max_examples=300, deadline=None)
@given(HASSE_PAIRS, st.integers(min_value=1, max_value=300))
@example((49, 14), 300)  # degenerate, m = 1
@example((32, 8), 299)   # degenerate, m = 4
@example((2, -1), 11)
def test_trace_term_matches_recurrence(pair, n):
    q, a = pair
    *_, last = trace_sequence(q, a, n)
    assert trace_term(q, a, n) == last.a_n


def test_scan_q2_a_minus1():
    hits = square_hits_scan(2, -1, 20)
    assert [(h.n, h.u) for h in hits] == [(1, 2), (3, 2), (4, 4), (11, 46)]
    assert all(h.source == "scan" and h.degenerate_m is None for h in hits)


def test_scan_q47_a_minus1():
    hits = square_hits_scan(47, -1, 5)
    assert [(h.n, h.u) for h in hits] == [(1, 7), (3, 322)]


def test_scan_q2_a1_no_hits_and_oracle_agrees():
    assert square_hits_scan(2, 1, 3) == []
    # cross-check the three counts against brute force on a realized curve
    curve = realize_trace(2, 1)
    expected = {t.n: t.N_n for t in trace_sequence(2, 1, 3)}
    assert expected == {1: 2, 2: 8, 3: 14}
    for n in (1, 2, 3):
        assert base_change_count(curve, n) == expected[n]


def test_guaranteed_square_m2():
    hit = guaranteed_square(5, 0, 2)
    assert (hit.u, hit.N) == (6, 36)
    assert hit.source == "guaranteed"


def test_guaranteed_square_m1():
    hit = guaranteed_square(4, 4, 3)
    assert (hit.u, hit.N) == (7, 49)
    # m = 1 closed form: u = |(+-p^v)^n - 1|
    assert hit.u == abs(2 ** 3 - 1)
    hit = guaranteed_square(4, -4, 3)
    assert hit.u == abs((-2) ** 3 - 1) == 9


def test_guaranteed_square_m4_sign_comes_from_recurrence():
    # a_4 = -8 for (q, a) = (2, 2), so the count is (4 + 1)^2, not (4 - 1)^2
    hit = guaranteed_square(2, 2, 4)
    assert (hit.u, hit.N) == (5, 25)


def test_guaranteed_square_off_cycle_is_none():
    assert guaranteed_square(2, 2, 3) is None
    assert guaranteed_square(5, 0, 7) is None


def test_guaranteed_square_rejects_nondegenerate():
    with pytest.raises(DomainError):
        guaranteed_square(7, 3, 6)


def test_guaranteed_square_agrees_with_scan():
    from ecsquares import classify_degeneracy

    for (q, a) in [(2, 2), (3, -3), (4, 2), (5, 0), (9, 3), (8, -4)]:
        hits = {h.n: h.u for h in square_hits_scan(q, a, 48)}
        m = classify_degeneracy(q, a)
        for n in range(m, 49, m):
            hit = guaranteed_square(q, a, n)
            assert hit is not None
            assert hits[n] == hit.u, (q, a, n)


def test_sporadic_list_is_exact_and_self_verifying():
    hits = sporadic_list()
    assert [h.triple() for h in hits] == [
        (2, 2, 1), (3, 3, 1), (3, 0, 1), (2, 0, 3), (8, 0, 1), (2, -2, 5), (32, 8, 1)]
    for hit in hits:
        assert hit.source == "sporadic"
        assert hit.degenerate_m is not None
        assert hit.n % hit.degenerate_m != 0
        term = [t for t in trace_sequence(hit.q, hit.a, hit.n)][-1]
        assert hit.u ** 2 == term.N_n


def test_lagrange_divisibility_sampled():
    for (q, a) in [(2, -1), (5, 2), (9, -2), (25, 3)]:
        counts = {t.n: t.N_n for t in trace_sequence(q, a, 40)}
        for n in range(1, 41):
            for d in range(1, n):
                if n % d == 0:
                    assert counts[n] % counts[d] == 0, (q, a, d, n)
