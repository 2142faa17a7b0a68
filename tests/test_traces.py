import pytest

from ecsquares import (
    DomainError,
    PrimePower,
    admissible_traces,
    as_prime_power,
    classify_degeneracy,
    hasse_bound,
    realize_trace,
    trace_sequence,
    trace_term,
    waterhouse_admissible,
)
from ecsquares.search import prime_powers_below


def test_prime_power_validation():
    pp = PrimePower.from_q(32)
    assert (pp.p, pp.b, pp.q) == (2, 5, 32)
    with pytest.raises(DomainError):
        PrimePower.from_q(36)
    with pytest.raises(DomainError):
        PrimePower(4, 1, 4)
    with pytest.raises(DomainError):
        PrimePower(2, 3, 9)
    with pytest.raises(DomainError, match="exponent"):
        PrimePower(2, 0, 1)
    assert str(PrimePower.from_q(49)) == "49"


def test_waterhouse_examples():
    assert waterhouse_admissible(13, 5) is True       # gcd(a, p) = 1
    assert waterhouse_admissible(25, 0) is False      # p = 5 is 1 mod 4
    assert waterhouse_admissible(27, 3) is False      # b odd allows only 0, +-9
    assert waterhouse_admissible(32, 8) is True       # +-2^((5+1)/2)
    assert waterhouse_admissible(32, -8) is True
    assert waterhouse_admissible(49, 7) is False      # p = 7 is 1 mod 3
    assert waterhouse_admissible(49, 14) is True      # a^2 = 4q
    assert waterhouse_admissible(49, 0) is True       # 7 is 3 mod 4


def test_waterhouse_screens_hasse_violations_quietly():
    assert waterhouse_admissible(2, 3) is False
    assert waterhouse_admissible(2, -100) is False


def test_admissible_traces_q2():
    assert admissible_traces(2) == [-2, -1, 0, 1, 2]


def test_admissible_traces_q4():
    assert admissible_traces(4) == [-4, -3, -2, -1, 0, 1, 2, 3, 4]


def test_admissible_traces_q25():
    expected = [a for a in range(-10, 11) if a != 0]
    assert admissible_traces(25) == expected


def test_admissible_traces_q27():
    got = admissible_traces(27)
    assert 0 in got and 9 in got and -9 in got
    assert 3 not in got and 6 not in got
    assert all(a % 3 != 0 or a in (-9, 0, 9) for a in got)


def test_admissibility_is_symmetric_under_negation():
    for pp in prime_powers_below(50):
        traces = set(admissible_traces(pp))
        assert traces == {-a for a in traces}


def test_classification_examples():
    assert classify_degeneracy(32, 8) == 4
    assert classify_degeneracy(4, 4) == 1
    assert classify_degeneracy(7, 3) is None
    assert classify_degeneracy(5, 0) == 2
    assert classify_degeneracy(9, 3) == 3
    assert classify_degeneracy(3, 3) == 6
    assert classify_degeneracy(27, -9) == 6


def test_classification_requires_hasse():
    with pytest.raises(DomainError):
        classify_degeneracy(2, 5)


def test_degenerate_m_is_the_exact_eigenvalue_ratio_order():
    # a_m^2 = 4 q^m at m and nowhere earlier, checked through the recurrence
    cases = [(4, 4), (4, -2), (5, 0), (2, 2), (3, -3), (32, 8), (27, 9), (25, 5)]
    for q, a in cases:
        m = classify_degeneracy(q, a)
        assert m is not None
        terms = list(trace_sequence(q, a, m))
        for term in terms[:-1]:
            assert term.a_n ** 2 != 4 * q ** term.n, (q, a, term.n)
        assert terms[-1].a_n ** 2 == 4 * q ** m, (q, a)


def test_degenerate_pairs_have_expected_field_shapes():
    for pp in prime_powers_below(50):
        for a in admissible_traces(pp):
            m = classify_degeneracy(pp, a)
            if m == 1 or m == 3:
                assert pp.b % 2 == 0  # q is a perfect square
            elif m == 4:
                assert pp.p == 2 and pp.b % 2 == 1
            elif m == 6:
                assert pp.p == 3 and pp.b % 2 == 1


def test_hasse_bound_values():
    assert hasse_bound(2) == 2
    assert hasse_bound(49) == 14
    with pytest.raises(DomainError):
        hasse_bound(50)  # not a prime power


def test_hasse_violation_reads_the_same_everywhere():
    message = "trace 6 violates the Hasse bound for q = 7"
    for check in (classify_degeneracy, realize_trace,
                  lambda q, a: trace_term(q, a, 1),
                  lambda q, a: next(trace_sequence(q, a, 1))):
        with pytest.raises(DomainError) as info:
            check(7, 6)
        assert str(info.value) == message
    assert waterhouse_admissible(7, 6) is False  # the screening predicate


def test_as_prime_power_passthrough():
    pp = PrimePower.from_q(9)
    assert as_prime_power(pp) is pp
    assert as_prime_power(9) == pp
