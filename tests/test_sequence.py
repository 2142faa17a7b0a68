import itertools
import math
import operator
import random
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ecsquares import (
    DomainError,
    SearchConfig,
    base_change_count,
    classify_degeneracy,
    guaranteed_square,
    hasse_bound,
    realize_trace,
    run_search,
    sequence,
    sporadic_list,
    square_hits_scan,
    trace_sequence,
    trace_term,
)
from ecsquares.search import prime_powers_below, search_pairs
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
        trace_term(5, 1, 10, -7)
    with pytest.raises(DomainError):
        square_hits_scan(2, 1, 0)
    with pytest.raises(DomainError):
        square_hits_scan(49, 14, -5)


# Nondegenerate pairs, and degenerate ones with m = 1, 2, 3, 4 and 6.
@pytest.mark.parametrize("q, a", [(2, -1), (47, -1), (49, 14), (17, 0), (9, 3),
                                  (2, 2), (3, 3)])
def test_trace_sequence_terms_are_exact(q, a):
    terms = list(trace_sequence(q, a, 80))
    exact = [(n, trace_term(q, a, n), q ** n + 1 - trace_term(q, a, n))
             for n in range(1, 81)]
    assert terms == exact
    assert all(type(t) is sequence.SequenceTerm for t in terms)
    assert (terms[-1].n, terms[-1].a_n, terms[-1].N_n) == exact[-1]


def test_terms_and_hits_are_immutable_hashable_records():
    term = next(trace_sequence(2, -1, 1))
    hit = guaranteed_square(49, 14, 3)
    for record, name in ((term, "N_n"), (term, "n"), (hit, "u"), (hit, "q")):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
    assert {hit, guaranteed_square(49, 14, 3)} == {hit}
    assert hash(term) == hash(next(trace_sequence(2, -1, 1)))
    wrong = hit._replace(u=hit.u + 1)
    assert (wrong.u, wrong.N, wrong.triple()) == (hit.u + 1, (hit.u + 1) ** 2, (49, 14, 3))
    assert wrong != hit and wrong._replace(u=hit.u) == hit
    assert hit.source == "guaranteed" and hit.u == 7 ** 3 - 1


@settings(max_examples=300, deadline=None)
@given(HASSE_PAIRS, st.integers(min_value=1, max_value=300))
@example((49, 14), 300)  # degenerate, m = 1
@example((32, 8), 299)   # degenerate, m = 4
@example((2, -1), 11)
def test_trace_term_matches_recurrence(pair, n):
    q, a = pair
    *_, last = trace_sequence(q, a, n)
    assert trace_term(q, a, n) == last.a_n
    assert sequence._lucas(q, a, n, 0) == (last.a_n, q ** n)
    for mod in (199 * 197, 17 * 19 * 23 * 29 * 31):
        assert trace_term(q, a, n, mod) == last.a_n % mod
        assert sequence._lucas(q, a, n, mod) == (last.a_n % mod, pow(q, n, mod))


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


# The sieve's moduli, read from the scan's own tables: stage 1 walks the
# first six for every pair and, per pair, some of the other 40; stage 2 tests
# the rest.  Their squares are listed here rather than read from the tables'
# flags.
WALK_MODULI = [m for m, _ in sequence._WALK_TABLES]
JUMP_MODULI = [m for m, _ in sequence._JUMP_TABLES]
SIEVE_MODULI = WALK_MODULI + JUMP_MODULI
SQUARES_MOD = {m: {i * i % m for i in range(m)} for m in SIEVE_MODULI}


def sieve_plan(q, a, nmax):
    """The engine's walks for the pair, (modulus, mu, lam, excluded), and the
    jump primes it leaves to stage 2."""
    walks, jumps = sequence._stage_one(q, a, classify_degeneracy(q, a), nmax,
                                       min(sequence._WINDOW, nmax))
    return walks, [ell for ell, _ in jumps]


class RecordingTable:
    """Stands in for an unwalked prime's square flags: logs each residue stage
    2 looks up, then answers as the real table does."""

    def __init__(self, ell, flags, log):
        self.ell, self.flags, self.log = ell, flags, log

    def __getitem__(self, residue):
        self.log.append((self.ell, residue))
        return self.flags[residue]


def stage_two_lookups(monkeypatch, q, a, nmax):
    """The scan's hits, and each (l, residue) stage 2 looks up, in order."""
    log, stage_one = [], sequence._stage_one

    def recording_stage_one(*args):
        walks, jumps = stage_one(*args)
        return walks, [(ell, RecordingTable(ell, flags, log)) for ell, flags in jumps]

    with monkeypatch.context() as patch:
        patch.setattr(sequence, "_stage_one", recording_stage_one)
        hits = square_hits_scan(q, a, nmax)
    return hits, log


def expected_lookups(counts, unwalked):
    """N_n mod each unwalked prime in turn, up to the first non-residue, for
    each (exact or reduced) count N_n."""
    log = []
    for count in counts:
        for ell in unwalked:
            log.append((ell, count % ell))
            if count % ell not in SQUARES_MOD[ell]:
                break
    return log


# Nondegenerate pairs whose q is a prime among the 40 jump primes, so q^n is 0
# modulo that prime and it is never walked, with survivors up to 840 terms
# apart for n <= 2000; plus one pair per q with shorter gaps, and the
# degenerate (17, 0) with m = 2.
LONG_GAP_PAIRS = [(17, 6), (17, -1), (127, 17), (127, 10), (199, 14), (199, 3)]
SHORT_GAP_PAIRS = [(17, 4), (127, -12), (199, -24), (17, 0)]


def test_stage_two_jump_is_exact_for_long_gaps(monkeypatch):
    """Stage 2 is asked about exactly the n that no walked modulus excludes
    (less the cycle squares of a degenerate pair), and its two doublings land
    on N_n: the one modulo the leading unwalked primes' product serves their
    tables, the one modulo all unwalked primes' product, made only when each
    leading prime passes, the rest.  So each prime's table sees N_n mod l, in
    turn, up to the first non-residue.  No state is carried from one survivor
    to the next, so a gap of 840 terms costs at most two doublings."""
    gaps = []
    for q, a in [*LONG_GAP_PAIRS, *SHORT_GAP_PAIRS]:
        m = classify_degeneracy(q, a)
        assert (m is None) == ((q, a) != (17, 0))
        walks, unwalked = sieve_plan(q, a, 2000)
        walked = [w[0] for w in walks]
        assert walked[:6] == WALK_MODULI and q in unwalked and q not in walked
        assert sorted(walked[6:] + unwalked) == JUMP_MODULI
        survivors = [t for t in trace_sequence(q, a, 2000)
                     if (m is None or t.n % m)
                     and all(t.N_n % w in SQUARES_MOD[w] for w in walked)]
        hits, log = stage_two_lookups(monkeypatch, q, a, 2000)
        assert log == expected_lookups([t.N_n for t in survivors], unwalked), (q, a)
        assert [(h.n, h.u) for h in hits] == exact_scan(q, a, 2000), (q, a)
        ns = [0] + [t.n for t in survivors]
        gaps += [hi - lo for lo, hi in zip(ns, ns[1:])]
    assert max(gaps) >= 700


def test_stage_two_doubles_at_full_width_only_past_the_leading_primes(monkeypatch):
    """Each survivor takes one doubling modulo the leading unwalked primes'
    product, the longest prefix of them below 2^30 (one CPython digit).  Only
    a survivor whose exact N_n is a square modulo every leading prime takes a
    second, modulo the product of all unwalked primes; the scan's other
    doublings are the l^2 valuation tests and the exact confirmations."""
    lucas = sequence._lucas
    for q, a in [(2, -1), (7, -1), (17, 6), (47, -1)]:
        assert classify_degeneracy(q, a) is None
        walks, unwalked = sieve_plan(q, a, 2000)
        walked = [w[0] for w in walks]
        leading = unwalked[:sum(p < 2 ** 30 for p in itertools.accumulate(unwalked, operator.mul))]
        lead, full = math.prod(leading), math.prod(unwalked)
        assert lead < 2 ** 30 <= lead * unwalked[len(leading)]
        expected, survivors = [], 0
        for t in trace_sequence(q, a, 2000):
            if all(t.N_n % w in SQUARES_MOD[w] for w in walked):
                survivors += 1
                expected.append((t.n, lead))
                if all(t.N_n % ell in SQUARES_MOD[ell] for ell in leading):
                    expected.append((t.n, full))
        moduli = []
        with monkeypatch.context() as patch:
            patch.setattr(sequence, "_lucas", lambda qv, a, n, mod:
                          moduli.append((n, mod)) or lucas(qv, a, n, mod))
            hits = square_hits_scan(q, a, 2000)
        assert [(n, mod) for n, mod in moduli if mod in (lead, full)] == expected, (q, a)
        assert all(mod == 0 or math.isqrt(mod) in unwalked and math.isqrt(mod) ** 2 == mod
                   for _, mod in moduli if mod not in (lead, full)), (q, a)
        assert sum(mod == 0 for _, mod in moduli) == len(hits) == len(exact_scan(q, a, 2000))
        # Some survivors fall to a leading prime and some do not.
        assert 0 < len(expected) - survivors < survivors, (q, a)


def test_every_excluded_n_has_a_residue_proof():
    """Each n <= 2000 the sieve drops has N_n, exact from Lucas doubling, a
    non-square modulo some sieve modulus; no modular stream is involved."""
    assert WALK_MODULI == [64, 9, 7, 5, 13, 11] and len(JUMP_MODULI) == 40
    assert all(math.gcd(m, k) == 1 for m in SIEVE_MODULI for k in SIEVE_MODULI if m < k)
    assert math.prod(SIEVE_MODULI).bit_length() == 279
    for m, flags in (*sequence._WALK_TABLES, *sequence._JUMP_TABLES):
        assert {r for r in range(m) if flags[r]} == SQUARES_MOD[m] and len(flags) == m
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


def test_an_odd_valuation_excludes_a_survivor_before_its_exact_root(monkeypatch):
    """N_n for (29, 4, 226,800) is a square modulo every sieve modulus, but it
    is 97 * 73 mod 97^2: 97 divides it exactly once, so it is no square, and
    the scan never builds its 1.1-million-bit count."""
    q, a, n = 29, 4, 226800
    assert all((pow(q, n, m) + 1 - _trace_mod(q, a, n, m)) % m in SQUARES_MOD[m]
               for m in SIEVE_MODULI)
    assert (pow(q, n, 97 ** 2) + 1 - _trace_mod(q, a, n, 97 ** 2)) % 97 ** 2 == 97 * 73
    bits = []  # of each count that reaches the exact root
    exact = sequence.perfect_square_root
    monkeypatch.setattr(sequence, "perfect_square_root",
                        lambda N: bits.append(N.bit_length()) or exact(N))
    assert square_hits_scan(q, a, n) == []
    assert bits == []


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
    assert WALK_MODULI == list(SHARING_Q)

    def state(q, a, n, mod):
        return trace_term(q, a, n) % mod, trace_term(q, a, n + 1) % mod, pow(q, n, mod)

    pre_periods = {}
    for (mod, _), shared in zip(sequence._WALK_TABLES, SHARING_Q.values()):
        own_squares = {i * i % mod for i in range(mod)}
        for q in [*shared, COPRIME_Q[mod]]:
            bound = hasse_bound(as_prime_power(q))
            for a in (-bound, 1):
                mu, lam, excluded = sequence._stage_one_walk(q, a, mod, 1000)
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
    N_n is a square modulo every walked modulus, split primes included, and
    its tables see N_n mod each unwalked prime there, the leading primes'
    from the one-digit doubling and the others' from the full-width one, in
    one order; a_n and q^n run here modulo the walked moduli's product by the
    plain per-n recurrence, and the stage-2 residues come from exact
    ``trace_term``."""
    nmax = 3 * sequence._WINDOW + 1234
    last = []
    for q, a in [(2, -1), (7, -1)]:
        walks, unwalked = sieve_plan(q, a, nmax)
        walked = [w[0] for w in walks]
        assert len(walked) > 12
        walk_modulus = math.prod(walked)
        survivors, prev, cur, q_n = [], 2, a, 1
        for n in range(1, nmax + 1):
            q_n = q_n * q % walk_modulus
            if all((q_n + 1 - cur) % m in SQUARES_MOD[m] for m in walked):
                survivors.append(n)
            prev, cur = cur, (a * cur - q * prev) % walk_modulus
        hits, log = stage_two_lookups(monkeypatch, q, a, nmax)
        last.append(survivors[-1])
        counts = [q ** n + 1 - trace_term(q, a, n) for n in survivors]
        assert log == expected_lookups(counts, unwalked), (q, a)
        assert [h.n for h in hits] == [n for n, *_ in exact_scan(q, a, 20)]
    assert min(last) > 2 * sequence._WINDOW and max(last) > 3 * sequence._WINDOW


# (q, a) whose walks include split or ramified jump primes at n <= 2000:
# q = 17 and 47 are jump primes themselves, 17 divides D = -187 of (47, -1),
# and (32, 8) and (3, 3) are degenerate, with m = 4 and 6.
SPLIT_WALK_PAIRS = [(17, 6), (17, -1), (47, -1), (47, 5), (32, 8), (3, 3), (2, -1)]


def test_split_prime_walks_prove_their_periods():
    """Each jump prime a pair walks is prime to q with D = a^2 - 4q a square or
    0 modulo it, and its walk ends at an exact return: (a_n, a_(n+1), q^n) mod
    l from exact ``trace_term`` values at n = 1 + lam equals that at n = 1 and
    at no n in between, lam divides l - 1, and the excluded bits are the
    non-residues of the exact N_n over two periods.  An inert prime's walk,
    which stage 1 never makes, has a period that does not divide l - 1."""

    def state(q, a, n, mod):
        return trace_term(q, a, n) % mod, trace_term(q, a, n + 1) % mod, pow(q, n, mod)

    walked_primes = {}
    for q, a in SPLIT_WALK_PAIRS:
        walks, unwalked = sieve_plan(q, a, 2000)
        disc = a * a - 4 * q
        for ell, mu, lam, excluded in walks[6:]:
            assert q % ell and disc % ell in SQUARES_MOD[ell], (q, a, ell)
            assert mu == 1 and (ell - 1) % lam == 0, (q, a, ell)
            first = state(q, a, 1, ell)
            assert [n for n in range(2, lam + 2) if state(q, a, n, ell) == first] == [lam + 1]
            for n in range(1, 2 * lam + 1):
                count = q ** n + 1 - trace_term(q, a, n)
                assert (excluded >> n - 1) & 1 == (count % ell not in SQUARES_MOD[ell]), (q, a, n)
        walked_primes[q, a] = [w[0] for w in walks[6:]]
        if q in JUMP_MODULI:
            assert q in unwalked
    assert all(walked_primes.values())
    assert (47 * 4 - 1) % 17 == 0 and 17 in walked_primes[47, -1]
    assert classify_degeneracy(32, 8) == 4 and classify_degeneracy(3, 3) == 6
    # D = 0 for (49, 14), so every l != 7 is ramified, but with m = 1 the cycle
    # root settles every n: S = 0 and no jump prime is walked.
    assert classify_degeneracy(49, 14) == 1 and len(sieve_plan(49, 14, 2000)[0]) == 6
    # D = -7 is a non-residue mod 17: the eigenvalues lie in GF(17^2), not
    # GF(17), and (a_n, a_(n+1), q^n) returns only after 144 steps, which
    # does not divide 16.
    assert (-7) % 17 not in SQUARES_MOD[17]
    assert sequence._stage_one_walk(2, -1, 17, 100)[:2] == (1, 144) and 16 % 144 != 0


def residue_classes(m, flags):
    """The default search's pairs that walk m, grouped by (q mod m, a mod m):
    every pair for a prime power, the split or ramified ones for a jump prime."""
    classes = {}
    for pp, a in search_pairs(SearchConfig()):
        q = pp.q
        if m in WALK_MODULI or (q % m and flags[(a * a - 4 * q) % m]):
            classes.setdefault((q % m, a % m), []).append((q, a))
    return classes


def test_pairs_of_a_residue_class_share_one_exact_walk():
    """Pairs of the search's range with the same q and a mod a walked modulus
    get the same cached period, and it is exact for each of them: its excluded
    bits are the non-residues of the pair's own N_n for n < mu + 2 lam.  The
    tiled masks from a warm cache equal those from a cold one at every window
    width.  Each modulus's largest class is checked, and its largest class with
    q not a unit mod m, whose walk compares every state, not only the first."""
    checked, masks = [], {}
    for m, flags in sequence._WALK_TABLES + sequence._JUMP_TABLES[:4]:
        classes = sorted(residue_classes(m, flags).values(), key=len, reverse=True)
        shared = [c for c in classes if len(c) > 1]
        ramified = [c for c in shared if math.gcd(c[0][0], m) > 1]
        for pairs in shared[:1] + ramified[:1]:
            period = sequence._walk_period(m, pairs[0][0] % m, pairs[0][1] % m)
            for q, a in pairs:
                assert sequence._walk_period(m, q % m, a % m) is period
                mu, lam, excluded = sequence._stage_one_walk(q, a, m, 1000)
                assert (mu, lam) == period[:2]
                for n in range(1, mu + 2 * lam):
                    count = q ** n + 1 - trace_term(q, a, n)
                    assert (excluded >> n - 1) & 1 == (count % m not in SQUARES_MOD[m]), (q, a, m, n)
                for width in (1, 1000, 1 << 16):
                    args = q, a, m, width
                    masks[args] = sequence._stage_one_walk(*args)
            checked.append((m, len(pairs), math.gcd(pairs[0][0], m) > 1))
    # Classes of up to 22 pairs share a walk.  The walks with a pre-period,
    # mod 64 and 9 for q = 2, 4, 8, 16, 32 and 3, are one pair each here.
    assert max(size for _, size, _ in checked) == 22
    assert {m for m, _, ramified in checked if ramified} == {9, 7, 5, 13, 11}
    for args, mask in masks.items():
        sequence._walk_period.cache_clear()
        assert sequence._stage_one_walk(*args) == mask


def test_search_caches_periods_not_masks_and_reuses_them(monkeypatch):
    """After a search, each cached walk holds no more than its pre-period and
    one period, not a tiled mask; an identical second search walks nothing
    new; and a walk of a prime stage 1 never walks is cached all the same."""
    walk_period, values = sequence._walk_period, {}

    def recording_walk_period(*key):
        values[key] = walk_period(*key)
        return values[key]

    walk_period.cache_clear()
    with monkeypatch.context() as patch:
        patch.setattr(sequence, "_walk_period", recording_walk_period)
        first = run_search(SearchConfig())
    assert len(values) == walk_period.cache_info().currsize
    assert all(v[2].bit_length() < v[0] + v[1] for v in values.values())
    misses = walk_period.cache_info().misses
    assert run_search(SearchConfig()).hits == first.hits and len(first.hits) == 52
    assert walk_period.cache_info().misses == misses
    walk_period.cache_clear()
    for _ in ("cold", "warm"):
        assert sequence._stage_one_walk(2, -1, 17, 100)[:2] == (1, 144)
    info = walk_period.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_every_split_prime_walk_of_a_search_closes_within_l_minus_1(monkeypatch):
    """Over the default search, --nmax 1500 and --degenerate only, every walk
    of a jump prime l is one stage 1 may make, prime to q with D = a^2 - 4q a
    square or 0 mod l, and it closes as the eigenvalues in GF(l)* prove:
    purely periodic, lam dividing l - 1."""
    walk_period, keys = sequence._walk_period, set()

    def recording_walk_period(*key):
        keys.add(key)
        return walk_period(*key)

    walk_period.cache_clear()
    with monkeypatch.context() as patch:
        patch.setattr(sequence, "_walk_period", recording_walk_period)
        for config in (SearchConfig(), SearchConfig(nmax=1500),
                       SearchConfig(degeneracy="only")):
            run_search(config)
    assert len(keys) == walk_period.cache_info().currsize
    # 1,845 residue classes of the primes 17 to 113 (all but 107) are walked.
    split = [(m, q, a) for m, q, a in keys if m in JUMP_MODULI]
    assert len(split) == 1845 and {m for m, _, _ in split} == set(JUMP_MODULI[:24]) - {107}
    for m, q, a in split:
        mu, lam, _ = walk_period(m, q, a)
        assert q % m and (a * a - 4 * q) % m in SQUARES_MOD[m], (m, q, a)
        assert mu == 1 and (m - 1) % lam == 0, (m, q, a, lam)


def test_scan_memory_does_not_grow_with_nmax():
    """A scan to n = 2 * 10^6 peaks under 1 MiB; one bin() string of a
    full-length live set would take 2 MB.  (23, -3) keeps the fewest survivors
    of the six prime-power walks of the paper's pairs, so its stage-2 gaps
    are the longest."""
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


def test_a_minus_1_cube_count_is_square_exactly_when_q_plus_2_is():
    """For a = -1, a_3 = 3q - 1 and N_3 = (q - 1)^2 (q + 2), so n = 3 is a
    hit exactly when q + 2 is a square, for every prime power q < 1024.  At
    nmax = 3 the walk rule walks no jump prime l with l - 1 > 3K."""
    found = []
    for pp in prime_powers_below(1024):
        q = pp.q
        assert trace_term(q, -1, 3) == 3 * q - 1
        assert q ** 3 + 1 - (3 * q - 1) == (q - 1) ** 2 * (q + 2)
        hits = {h.n: h.u for h in square_hits_scan(q, -1, 3)}
        root = math.isqrt(q + 2)
        assert (3 in hits) == (root * root == q + 2), q
        if 3 in hits:
            assert hits[3] == (q - 1) * root
            found.append(q)
        walks, _ = sieve_plan(q, -1, 3)
        assert all(ell - 1 <= 3 * sequence._WALK_BUDGET for ell, *_ in walks[6:]), q
    assert found == [2, 7, 23, 47, 79, 167, 223, 359, 439, 727, 839]


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


def test_guaranteed_square_rejects_n_below_one():
    with pytest.raises(DomainError, match="n must be >= 1"):
        guaranteed_square(49, 14, 0)


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
