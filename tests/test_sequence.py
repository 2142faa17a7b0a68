import math
import random
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ecsquares import (
    DomainError,
    base_change_count,
    classify_degeneracy,
    guaranteed_square,
    hasse_bound,
    realize_trace,
    sequence,
    sporadic_list,
    square_hits_scan,
    trace_sequence,
    trace_term,
)
from ecsquares.numeric import FILTER_MODULUS, SIEVE_MODULI
from ecsquares.search import prime_powers_below
from ecsquares.traces import as_prime_power

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
    with pytest.raises(DomainError):
        square_hits_scan(2, 3, 5)
    with pytest.raises(DomainError):
        square_hits_scan(49, -15, 5)


def test_sequence_rejects_bad_nmax():
    with pytest.raises(DomainError):
        list(trace_sequence(2, 1, 0))
    with pytest.raises(DomainError):
        trace_term(2, 1, 0)
    with pytest.raises(DomainError):
        square_hits_scan(2, 1, 0)
    with pytest.raises(DomainError):
        square_hits_scan(49, 14, -5)


@settings(max_examples=300, deadline=None)
@given(HASSE_PAIRS, st.integers(min_value=1, max_value=300))
@example((49, 14), 300)  # degenerate, m = 1
@example((32, 8), 299)   # degenerate, m = 4
@example((2, -1), 11)
def test_trace_term_matches_recurrence(pair, n):
    q, a = pair
    *_, last = trace_sequence(q, a, n)
    assert trace_term(q, a, n) == last.a_n


def exact_scan(q, a, nmax):
    """(n, u) for every square count, from the exact loop and ``math.isqrt``."""
    hits = []
    for term in trace_sequence(q, a, nmax):
        root = math.isqrt(term.N_n)
        if root * root == term.N_n:
            hits.append((term.n, root))
    return hits


@settings(max_examples=200, deadline=None)
@given(HASSE_PAIRS, st.integers(min_value=1, max_value=300))
@example((49, 14), 300)  # degenerate, m = 1
@example((32, 8), 300)   # degenerate, m = 4
@example((3, 3), 300)    # degenerate, m = 6
@example((2, 0), 300)    # degenerate, m = 2
@example((2, -1), 11)
def test_sieve_scan_matches_exact_scan(pair, nmax):
    q, a = pair
    hits = square_hits_scan(q, a, nmax)
    assert [(h.n, h.u) for h in hits] == exact_scan(q, a, nmax)
    m = classify_degeneracy(q, a)
    assert all(h.source == "scan" and h.degenerate_m == m for h in hits)


# Squares modulo each sieve modulus, listed here rather than read from the
# sieve's own tables.
SQUARES_MOD = {m: {i * i % m for i in range(m)} for m in SIEVE_MODULI}


# Nondegenerate pairs whose q is a prime among the 40 stage-2 moduli, so q^n is
# 0 modulo that prime, with the longest gap between stage-1 survivors (n where
# N_n is a square modulo 64, 63, 65 and 11) for n <= 2000; plus one pair per q
# whose gaps are all short, and the degenerate (17, 0) with m = 2.
LONG_GAP_PAIRS = {(17, 6): 252, (17, -1): 84, (127, 17): 252, (127, 10): 168,
                  (199, 14): 840, (199, 3): 420}
SHORT_GAP_PAIRS = [(17, 4), (127, -12), (199, -24), (17, 0)]


class RecordingTable:
    """Stands in for the stage-2 residue tables: records each N_n mod M2 it is
    asked about and accepts none."""

    def __init__(self):
        self.residues = []

    def __getitem__(self, residue):
        self.residues.append(residue)
        return 0


def test_stage_two_jump_is_exact_for_long_gaps(monkeypatch):
    """Stage 2 sees exactly the stage-1 survivors, and its jump lands on N_n
    modulo M2 at each of them, across gaps of up to 840 terms."""
    jump_modulus = math.prod(SIEVE_MODULI[4:])
    assert jump_modulus.bit_length() == 258
    for (q, a), longest in LONG_GAP_PAIRS.items():
        assert classify_degeneracy(q, a) is None
        survivors = [t for t in trace_sequence(q, a, 2000)
                     if all(t.N_n % m in SQUARES_MOD[m] for m in SIEVE_MODULI[:4])]
        ns = [0] + [t.n for t in survivors]
        assert max(hi - lo for lo, hi in zip(ns, ns[1:])) == longest, (q, a)
        table = RecordingTable()
        with monkeypatch.context() as patch:
            patch.setattr(sequence, "_JUMP_TABLES", ((jump_modulus, table),))
            assert square_hits_scan(q, a, 2000) == []
        assert table.residues == [t.N_n % jump_modulus for t in survivors], (q, a)
    assert classify_degeneracy(17, 0) == 2
    for q, a in [*LONG_GAP_PAIRS, *SHORT_GAP_PAIRS]:
        hits = square_hits_scan(q, a, 2000)
        assert [(h.n, h.u) for h in hits] == exact_scan(q, a, 2000), (q, a)


def test_every_excluded_n_has_a_residue_proof():
    """Each n <= 2000 the sieve drops has N_n, exact from Lucas doubling, a
    non-square modulo some sieve modulus; no modular stream is involved."""
    assert len(SIEVE_MODULI) == 44
    assert math.prod(SIEVE_MODULI).bit_length() == 279
    rng = random.Random(20261018)
    pairs = [(2, -1), (47, -1), (32, 5), (2, 0), (3, 3), (32, 8), (17, 6), (199, 14)]
    for pp in rng.sample(prime_powers_below(50), 8):
        bound = hasse_bound(pp)
        pairs.append((pp.q, rng.randint(-bound, bound)))
    for q, a in pairs:
        found = {h.n for h in square_hits_scan(q, a, 2000)}
        for n in range(1, 2001):
            if n in found:
                continue
            count = q ** n + 1 - trace_term(q, a, n)
            assert any(count % m not in SQUARES_MOD[m] for m in SIEVE_MODULI), (q, a, n)


def _trace_mod(q, a, n, m):
    """a_n mod m by Lucas doubling, every step reduced mod m."""
    v, w, q_k = 2, a % m, 1
    for bit in bin(n)[2:]:
        if bit == "1":
            v, w, q_k = (v * w - a * q_k) % m, (w * w - 2 * q_k * q) % m, q_k * q_k * q % m
        else:
            v, w, q_k = (v * v - 2 * q_k) % m, (v * w - a * q_k) % m, q_k * q_k % m
    return v


def test_excluded_n_to_1e5_have_a_residue_proof():
    """200 random n <= 10^5 the scan drops, per nondegenerate pair, have N_n a
    non-square modulo some sieve modulus, with a_n mod m from doubling mod m."""
    rng = random.Random(100000)
    for q, a in [(2, -1), (47, -1), (49, 13)]:
        assert classify_degeneracy(q, a) is None
        assert all(_trace_mod(q, a, n, m) == trace_term(q, a, n) % m
                   for n in range(1, 100) for m in SIEVE_MODULI[:8])
        found = {h.n for h in square_hits_scan(q, a, 10 ** 5)}
        excluded = [n for n in range(1, 10 ** 5 + 1) if n not in found]
        for n in rng.sample(excluded, 200):
            assert any((pow(q, n, m) + 1 - _trace_mod(q, a, n, m)) % m not in SQUARES_MOD[m]
                       for m in SIEVE_MODULI), (q, a, n)


@pytest.mark.parametrize("q, a, n, u", [
    # (2, 2) has m = 4 and a_4 = -8, so c = -4 and N_4 = (-4 - 1)^2.
    (2, 2, 4, 5),
    # (17, 0) has m = 2 and a_2 = -34, so c = -17 and N_2 = 324 = (17 + 1)^2.
    (17, 0, 2, 18),
    # (3, 3) has m = 6 and a_6 = -54, so c = -27 and N_6 = (27 + 1)^2.
    (3, 3, 6, 28),
])
def test_cycle_square_is_c_to_the_k_minus_one(q, a, n, u):
    """The scan and ``guaranteed_square`` take u = |c^k - 1| at n = km, with
    c = a_m / 2 and c * c = q^m."""
    assert trace_term(q, a, n) == -2 * math.isqrt(q ** n)
    assert guaranteed_square(q, a, n).u == u
    assert {h.n: h.u for h in square_hits_scan(q, a, n)}[n] == u


def test_cycle_root_must_square_to_q_to_the_m(monkeypatch):
    """A wrong a_m, odd or not +-2 sqrt(q^m), raises instead of giving a square."""
    for wrong in (-7, -6, 10):
        monkeypatch.setattr(sequence, "trace_term", lambda q, a, n, wrong=wrong: wrong)
        with pytest.raises(RuntimeError):
            guaranteed_square(2, 2, 4)
        with pytest.raises(RuntimeError):
            square_hits_scan(2, 2, 4)


# For each stage-1 factor, the q < 50 sharing its prime, where q^n mod m dies
# out and the walk can have a pre-period, and one q prime to it.
SHARING_Q = {64: [2, 4, 8, 16, 32], 9: [3, 9, 27], 7: [7, 49], 5: [5, 25],
             13: [13], 11: [11]}
COPRIME_Q = {64: 49, 9: 4, 7: 2, 5: 47, 13: 25, 11: 3}


def test_stage_one_walk_proves_its_period():
    """Each walk ends at an exact state repeat: (a_n, a_(n+1), q^n) mod m from
    exact ``trace_term`` values agrees at n = mu and mu + lam and not at
    mu - 1 and mu - 1 + lam, and the excluded bits are the non-residues of the
    exact N_n over the pre-period and two periods."""
    moduli = [mod for mod, _ in sequence._WALK_SQUARES]
    assert moduli == list(SHARING_Q) and math.prod(moduli) == FILTER_MODULUS

    def state(q, a, n, mod):
        return trace_term(q, a, n) % mod, trace_term(q, a, n + 1) % mod, pow(q, n, mod)

    pre_periods = {}
    for (mod, squares), shared in zip(sequence._WALK_SQUARES, SHARING_Q.values()):
        own_squares = {i * i % mod for i in range(mod)}
        for q in [*shared, COPRIME_Q[mod]]:
            bound = hasse_bound(as_prime_power(q))
            for a in (-bound, 1):
                mu, lam, excluded = sequence._stage_one_walk(q, a, mod, squares, 1000)
                assert state(q, a, mu, mod) == state(q, a, mu + lam, mod), (q, a, mod)
                if mu > 1:
                    assert state(q, a, mu - 1, mod) != state(q, a, mu - 1 + lam, mod)
                for n in range(1, mu + 2 * lam):
                    count = q ** n + 1 - trace_term(q, a, n)
                    assert (excluded >> n - 1) & 1 == (count % mod not in own_squares), (q, a, n)
                pre_periods[q, a, mod] = mu
                hits = square_hits_scan(q, a, mu + 3 * lam)
                assert [(h.n, h.u) for h in hits] == exact_scan(q, a, mu + 3 * lam)
    # The sharing pairs do exercise pre-periods, longest for (2, -2) mod 64;
    # where q is a unit mod m the step is invertible and the walk is purely
    # periodic.
    assert max(pre_periods.values()) == pre_periods[2, -2, 64] == 10
    assert all(mu == 1 for (q, _, mod), mu in pre_periods.items() if math.gcd(q, mod) == 1)


@pytest.mark.parametrize("window", [1, 5, 97])
def test_scan_across_narrow_windows(monkeypatch, window):
    """Windows narrower than a pre-period or a period read the same hits."""
    monkeypatch.setattr(sequence, "_WINDOW", window)
    for q, a in [(2, -1), (2, 1), (4, 3), (32, 8), (3, 3), (27, 5), (2, 2), (49, 13)]:
        assert [(h.n, h.u) for h in square_hits_scan(q, a, 400)] == exact_scan(q, a, 400)


def test_survivors_across_three_windows_are_the_residue_proof_set(monkeypatch):
    """Over more than three windows, stage 2 is asked about exactly the n where
    N_n is a square modulo 64, 63, 65 and 11, and lands on N_n mod M2 there;
    a_n and q^n run here modulo those four by the plain per-n recurrence."""
    nmax = 3 * sequence._WINDOW + 1234
    filter_mod, jump_modulus = math.prod(SIEVE_MODULI[:4]), math.prod(SIEVE_MODULI[4:])
    for q, a in [(2, -1), (4, 3)]:
        survivors, prev, cur, q_n = [], 2, a, 1
        for n in range(1, nmax + 1):
            q_n = q_n * q % filter_mod
            if all((q_n + 1 - cur) % m in SQUARES_MOD[m] for m in SIEVE_MODULI[:4]):
                survivors.append(n)
            prev, cur = cur, (a * cur - q * prev) % filter_mod
        table = RecordingTable()
        with monkeypatch.context() as patch:
            patch.setattr(sequence, "_JUMP_TABLES", ((jump_modulus, table),))
            assert square_hits_scan(q, a, nmax) == []
        assert survivors[-1] > 3 * sequence._WINDOW
        assert table.residues == [
            (pow(q, n, jump_modulus) + 1 - _trace_mod(q, a, n, jump_modulus)) % jump_modulus
            for n in survivors], (q, a)


def test_scan_memory_does_not_grow_with_nmax():
    """A scan to n = 2 * 10^6 peaks under 1 MiB; one bin() string of a
    full-length live set would take 2 MB.  (23, -3) keeps the fewest stage-1
    survivors of the paper's pairs, so its stage-2 gaps and U lists are the
    longest."""
    assert classify_degeneracy(23, -3) is None
    tracemalloc.start()
    try:
        assert square_hits_scan(23, -3, 2 * 10 ** 6) == []
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


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
