import hashlib
import itertools
import math
import random
import tracemalloc
from collections import Counter

import pytest

from ecsquares import DomainError, ResourceLimitError, embed_field, make_field_context
from ecsquares.finitefield import FieldContext, _find_modulus, _is_irreducible, render_coeffs
from ecsquares.numeric import is_prime

from reference_oracles import _poly_divmod, reference_exp, reference_mul


# -- modulus selection ---------------------------------------------------------

def test_gf4_modulus_is_the_unique_irreducible_quadratic():
    assert make_field_context(2, 2).modulus == (1, 1, 1)


def test_prime_field_modulus_is_x():
    assert make_field_context(5, 1).modulus == (0, 1)


def _divides(candidate, divisor, p):
    _, rem = _poly_divmod(candidate, divisor, p)
    return not rem


def _brute_force_irreducible(poly, p):
    # Independent check: no monic divisor of any degree 1..b-1.
    deg = len(poly) - 1
    for d in range(1, deg):
        for tail in itertools.product(range(p), repeat=d):
            if _divides(poly, list(tail) + [1], p):
                return False
    return True


def test_gf27_modulus_is_lex_smallest_irreducible():
    ctx = make_field_context(3, 3)
    modulus = list(ctx.modulus)
    assert len(modulus) == 4 and modulus[-1] == 1
    assert _brute_force_irreducible(modulus, 3)
    # every lexicographically earlier monic cubic must be reducible
    for coeffs in itertools.product(range(3), repeat=3):
        candidate = list(coeffs) + [1]
        if candidate == modulus:
            break
        assert not _brute_force_irreducible(candidate, 3), candidate


def test_frozen_moduli():
    assert make_field_context(2, 3).modulus == (1, 0, 1, 1)
    assert make_field_context(2, 4).modulus == (1, 0, 0, 1, 1)
    assert make_field_context(2, 5).modulus == (1, 0, 0, 1, 0, 1)
    assert make_field_context(3, 2).modulus == (1, 0, 1)
    assert make_field_context(3, 3).modulus == (1, 0, 2, 1)
    assert make_field_context(5, 2).modulus == (1, 1, 1)
    assert make_field_context(7, 2).modulus == (1, 0, 1)


# sha256 over f"{p} {b} {modulus}" for every prime p and b >= 2 with
# p^b <= 2^16, by p then b, joined by newlines.  It was computed with
# trial-division irreducibility, so it pins that the root test in subfields
# picks the same lexicographically first modulus.
MODULI_SHA256 = "05e16849d2f1f503829e49c518d1587381bacc4049b7e2711104426c408cdf2f"


def test_moduli_are_pinned():
    lines = [f"{p} {b} {make_field_context(p, b).modulus}"
             for p in range(2, 257) if is_prime(p)
             for b in range(2, 17) if p ** b <= 1 << 16]
    assert len(lines) == 93
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == MODULI_SHA256


@pytest.mark.parametrize("p,max_degree", [(2, 6), (3, 4), (5, 3), (7, 3)])
def test_root_test_agrees_with_trial_division(p, max_degree):
    for degree in range(2, max_degree + 1):
        for tail in itertools.product(range(p), repeat=degree):
            poly = list(tail) + [1]
            assert _is_irreducible(poly, p) == _brute_force_irreducible(poly, p), poly


def test_context_construction_guards():
    with pytest.raises(DomainError):
        make_field_context(4, 2)
    with pytest.raises(DomainError):
        make_field_context(5, 0)
    with pytest.raises(ResourceLimitError):
        make_field_context(2, 25)


def test_size_guard_refuses_a_huge_degree_before_computing_the_size():
    # 2**(10**8) alone would take 12 MiB; the guard must not build it.
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="exceeds the guard"):
            make_field_context(2, 10 ** 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_tables_and_embedding_never_list_the_field(monkeypatch):
    # A fresh GF(2^16) with enumeration disabled: its tables, primitive
    # element and an embedding into it stand on index arithmetic alone.
    modulus = _find_modulus(2, 16)
    small = make_field_context(2, 4)
    small.log_tables()

    def no_listing(ctx):
        raise AssertionError(f"{ctx!r} listed its elements")

    monkeypatch.setattr(FieldContext, "element_tuples", no_listing)
    big = FieldContext(2, 16, modulus)
    tracemalloc.start()
    try:
        tables = big.log_tables()
        image = embed_field(small, big).generator_image
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 15 << 20
    cached = make_field_context(2, 16)
    assert tables == cached.log_tables()
    assert image == embed_field(small, cached).generator_image


def test_field_tables_are_compact():
    # exp, log, Zech and orbit positions are 4-byte arrays and the y-side
    # histogram is bytes: a fresh GF(2^16) keeps under 1.5 MiB of them
    # (about 6.2 MiB as lists of ints).
    modulus = _find_modulus(2, 16)
    tracemalloc.start()
    try:
        ctx = FieldContext(2, 16, modulus)
        ctx.log_tables()
        ctx.frobenius_orbits(4)
        ctx.artin_schreier_counter()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained < 3 << 19


@pytest.mark.parametrize("p,b,method", [(2, 16, "element_tuples"), (3, 10, "square_counter")])
def test_a_dropped_listing_or_histogram_leaves_nothing_behind(p, b, method):
    # Each call builds its result afresh: once the caller drops it, the
    # context holds none of it (a kept GF(2^16) listing is about 12 MB, a
    # kept GF(3^10) histogram 59 KB).  The bound is relative because
    # CPython's tuple free list keeps up to 2,000 of the freed 16-tuples,
    # about 0.3 MB.
    ctx = FieldContext(p, b, _find_modulus(p, b))
    tracemalloc.start()
    try:
        result = getattr(ctx, method)()
        held = tracemalloc.get_traced_memory()[0]
        assert len(result) == ctx.q
        del result
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained < held / 16


def test_contexts_are_cached():
    assert make_field_context(3, 2) is make_field_context(3, 2)


# -- element arithmetic --------------------------------------------------------

def test_gf4_generator_relation():
    ctx = make_field_context(2, 2)
    t = (0, 1)
    assert ctx.mul_t(t, t) == ctx.add_t(t, ctx.one_t)


def test_gf5_inverse():
    ctx = make_field_context(5, 1)
    assert ctx.inv_t((2,)) == (3,)


def test_gf8_multiplicative_order():
    ctx = make_field_context(2, 3)
    for x in ctx.element_tuples():
        if any(x):
            assert ctx.pow_t(x, 7) == ctx.one_t


def test_inverse_of_zero_raises():
    ctx = make_field_context(3, 2)
    with pytest.raises(ZeroDivisionError):
        ctx.inv_t(ctx.zero_t)


def test_negative_exponent_rejected():
    ctx = make_field_context(5, 1)
    with pytest.raises(DomainError):
        ctx.pow_t((2,), -1)


def test_field_axioms_on_sampled_triples(small_contexts):
    rng = random.Random(7)
    for ctx in small_contexts:
        add, mul = ctx.add_t, ctx.mul_t
        elems = ctx.element_tuples()
        for _ in range(60):
            x, y, z = (rng.choice(elems) for _ in range(3))
            assert add(add(x, y), z) == add(x, add(y, z))
            assert add(x, y) == add(y, x)
            assert mul(mul(x, y), z) == mul(x, mul(y, z))
            assert mul(x, y) == mul(y, x)
            assert mul(x, add(y, z)) == add(mul(x, y), mul(x, z))
        for x in elems:
            if any(x):
                assert mul(x, ctx.inv_t(x)) == ctx.one_t


def test_frobenius_is_additive(small_contexts):
    rng = random.Random(13)
    for ctx in small_contexts:
        add, p = ctx.add_t, ctx.p
        elems = ctx.element_tuples()
        for _ in range(40):
            x, y = rng.choice(elems), rng.choice(elems)
            assert ctx.pow_t(add(x, y), p) == add(ctx.pow_t(x, p), ctx.pow_t(y, p))


def test_mul_matches_schoolbook(small_contexts):
    rng = random.Random(99)
    for ctx in small_contexts:
        tuples = ctx.element_tuples()
        for _ in range(120):
            u, v = rng.choice(tuples), rng.choice(tuples)
            assert ctx.mul_t(u, v) == reference_mul(ctx, u, v)


def test_mul_matches_schoolbook_large_degree():
    rng = random.Random(5)
    for (p, b) in [(2, 16), (3, 10), (5, 6), (47, 3)]:
        ctx = make_field_context(p, b)
        for _ in range(150):
            u = tuple(rng.randrange(p) for _ in range(b))
            v = tuple(rng.randrange(p) for _ in range(b))
            assert ctx.mul_t(u, v) == reference_mul(ctx, u, v)
        # inverses round-trip in the big field too
        for _ in range(20):
            u = tuple(rng.randrange(p) for _ in range(b))
            if any(u):
                assert ctx.mul_t(u, ctx.inv_t(u)) == ctx.one_t


# mul_t adds each high digit times a packed row t^(b+j) into the low slots
# before it unpacks them, so a low slot holds up to b (p - 1)^2 (1 + (b - 1)
# (p - 1)), and u = v = all digits p - 1 comes nearest.  These fields span
# the slot widths from 1 bit at (2, 1) to 20 bits at (1021, 1).  GF(3^13) is
# past the field-size guard, so it is built directly.
@pytest.mark.parametrize("p,b", [(2, 1), (2, 20), (257, 2), (1021, 1), (3, 13),
                                 (3, 12), (5, 8), (31, 4)])
def test_mul_at_slot_width_edges(p, b):
    ctx = FieldContext(p, b, _find_modulus(p, b))
    top = (p - 1,) * b
    assert ctx.mul_t(top, top) == reference_mul(ctx, top, top)
    rng = random.Random(p * b)
    for _ in range(30):
        u = tuple(rng.choice((0, p - 1, rng.randrange(p))) for _ in range(b))
        assert ctx.mul_t(u, top) == reference_mul(ctx, u, top)
        assert ctx.mul_t(top, u) == reference_mul(ctx, top, u)
    for _ in range(200):
        u = tuple(rng.randrange(p) for _ in range(b))
        v = tuple(rng.randrange(p) for _ in range(b))
        assert ctx.mul_t(u, v) == reference_mul(ctx, u, v), (u, v)


# -- counting tables -----------------------------------------------------------

def _table_contexts(small_contexts):
    return small_contexts + [make_field_context(2, 8), make_field_context(3, 5)]


def test_exp_and_log_are_inverse_bijections(small_contexts):
    for ctx in _table_contexts(small_contexts):
        exp, log, zech = ctx.log_tables()
        m = ctx.q - 1
        assert sorted(exp) == list(range(1, ctx.q)), ctx
        assert all(log[i] == k for k, i in enumerate(exp)), ctx
        assert log[0] == m and len(log) == ctx.q and len(zech) == m


def test_generator_is_first_primitive_element(small_contexts):
    for ctx in _table_contexts(small_contexts):
        exp, log, _ = ctx.log_tables()
        m = ctx.q - 1
        g = exp[1 % m]
        # An element g^k generates the group exactly when gcd(k, q - 1) = 1.
        assert math.gcd(log[g], m) == 1
        assert all(math.gcd(log[i], m) != 1 for i in range(1, g)), ctx


def test_exp_table_multiplies_like_schoolbook(small_contexts):
    # Also the oracle's largest fields, and odd b, where the exp walk splits
    # an index into unequal halves.
    large = [make_field_context(p, b) for p, b in [(2, 16), (3, 9), (3, 10), (5, 6), (7, 4)]]
    rng = random.Random(17)
    for ctx in _table_contexts(small_contexts) + large:
        exp, _, _ = ctx.log_tables()
        tuples = ctx.element_tuples()
        m = ctx.q - 1
        for _ in range(200):
            i, j = rng.randrange(m), rng.randrange(m)
            assert tuples[exp[(i + j) % m]] == reference_mul(ctx, tuples[exp[i]], tuples[exp[j]])


def test_exp_table_equals_schoolbook_walk(small_contexts):
    for ctx in _table_contexts(small_contexts) + [make_field_context(17, 2)]:
        assert list(ctx.log_tables()[0]) == reference_exp(ctx), ctx


# sha256 of repr(log_tables()) per field, each table read as a list.  They
# were computed with the walk that built one coefficient tuple per element
# (add_t, then index_of), so they pin that the packed walk gives the same
# exp, log and Zech tables.
LOG_TABLES_SHA256 = {
    (2, 16): "abd08c0b59be4d1eaccc3e0ff0ec0a3e7787f6b55b7f0696393346ea41f16ea9",
    (3, 10): "b1a87d4cf2cb0b115e9b372768c2da239fd33dc73785051bd4f363ba01e1a885",
    (3, 9): "1bd72b3060104c10c45754942e64ab7f405c8e85ee1db5b705017775228ed915",
    (5, 6): "caf5e1a9a96ba02a95ba13faf7aba8d0498af9c486cd742cc322a89a4788ded0",
    (7, 4): "862217c1178372353c3cf576e4e9f73e2866297433f9ae1080866e5dfe372fb2",
    # b = 1 leaves the walk's high half empty, odd b splits the digits
    # unevenly, and p >= 11 widens the slots.
    (2, 13): "ce7094bc9acf8127ed3ad494c7f0240095f5696eb14320c4ad1411189e575040",
    (3, 7): "2da573c8e8c670157c00763e44e5642ad10219ea3fa3f25f6f8ac7c39a55658d",
    (11, 3): "48621f93b69419ba72d2ba6844a2a4e99e438d5c5ea0f190fca500aff10f55cb",
    (13, 2): "dcbcb755d4438f5b59f5a5df4d32064b77e3f31f116da1edd01ad881580dab86",
    (1021, 1): "9cbd4abe5ced809f2d40828bbcb5365f7acdf6483652a69d4aa792d6df7f8b70",
}


@pytest.mark.parametrize("p,b", sorted(LOG_TABLES_SHA256))
def test_log_tables_are_pinned(p, b):
    tables = make_field_context(p, b).log_tables()
    digest = hashlib.sha256(repr(tuple(map(list, tables))).encode()).hexdigest()
    assert digest == LOG_TABLES_SHA256[p, b]


# The largest digit sum 2p - 2 is a power of two for p = 2, 3, 5, 17 and 257,
# so it alone sets its slot's top bit, and each of these walks reaches it;
# b = 1 leaves the walk's high half empty.
@pytest.mark.parametrize("p,b", [(2, 4), (3, 4), (5, 3), (17, 2), (257, 2), (257, 1)])
def test_exp_walk_at_slot_width_edges(p, b):
    ctx = make_field_context(p, b)
    exp, _, _ = ctx.log_tables()
    m = ctx.q - 1
    assert sorted(exp) == list(range(1, ctx.q))

    def element(index):
        return tuple(index // p ** j % p for j in reversed(range(b)))

    rng = random.Random(p ** b)
    for _ in range(200):
        i, j = rng.randrange(m), rng.randrange(m)
        assert element(exp[(i + j) % m]) == reference_mul(ctx, element(exp[i]), element(exp[j]))


def test_zech_table_adds_one(small_contexts):
    for ctx in _table_contexts(small_contexts):
        exp, log, zech = ctx.log_tables()
        tuples = ctx.element_tuples()
        for k, z in enumerate(zech):
            assert z == log[ctx.index_of(ctx.add_t(tuples[exp[k]], ctx.one_t))], (ctx, k)


def test_y_side_histogram_matches_enumeration(small_contexts):
    # Both histograms are read off the group structure; here every y is
    # evaluated, from GF(2) and GF(3) up to GF(2^12), GF(3^7) and GF(5^4).
    large = [make_field_context(p, b) for p, b in [(2, 12), (3, 7), (5, 4)]]
    for ctx in _table_contexts(small_contexts) + large:
        _, log, _ = ctx.log_tables()
        q = ctx.q
        if ctx.p == 2:
            hist = ctx.artin_schreier_counter()
            values = [ctx.add_t(reference_mul(ctx, y, y), y) for y in ctx.element_tuples()]
            # Half the field has trace 0, each of those v hit twice.
            assert Counter(hist) == {2: q // 2, 0: q // 2}, ctx
        else:
            hist = ctx.square_counter()
            values = [reference_mul(ctx, y, y) for y in ctx.element_tuples()]
        expected = Counter(log[ctx.index_of(v)] for v in values)
        assert sum(hist) == q
        assert list(hist) == [expected[k] for k in range(q)], ctx


def _schoolbook_eval(ctx, coeffs, x):
    """f(x) by Horner's rule with reference_mul; coefficients highest degree first."""
    acc = ctx.zero_t
    for c in coeffs:
        acc = ctx.add_t(reference_mul(ctx, acc, x), c)
    return acc


def test_poly_logs_matches_schoolbook_horner(small_contexts):
    rng = random.Random(23)
    for ctx in _table_contexts(small_contexts):
        exp, log, _ = ctx.log_tables()
        tuples = ctx.element_tuples()
        xs = [tuples[i] for i in exp] + [ctx.zero_t]  # x = g^k at k, then x = 0
        for degree in range(5):
            for zeroed in (None, 0, degree // 2, degree):  # a leading, middle or constant zero
                coeffs = [rng.choice(tuples) for _ in range(degree + 1)]
                if zeroed is not None:
                    coeffs[zeroed] = ctx.zero_t
                expected = [log[ctx.index_of(_schoolbook_eval(ctx, coeffs, x))] for x in xs]
                assert ctx.poly_logs(coeffs) == expected, (ctx, coeffs)


def test_poly_logs_over_runs_of_zero_coefficients(small_contexts):
    rng = random.Random(31)
    for ctx in _table_contexts(small_contexts):
        exp, log, _ = ctx.log_tables()
        tuples = ctx.element_tuples()
        xs = [tuples[i] for i in exp] + [ctx.zero_t]
        zero = ctx.zero_t
        for coeffs in ([zero, zero] + [rng.choice(tuples) for _ in range(3)],
                       [zero, zero, ctx.one_t], [zero] * 4, [zero]):
            given = list(coeffs)
            expected = [log[ctx.index_of(_schoolbook_eval(ctx, coeffs, x))] for x in xs]
            assert ctx.poly_logs(coeffs) == expected, (ctx, coeffs)
            assert coeffs == given
        # The zero polynomial reads zero, log q - 1, at every position.
        assert ctx.poly_logs([zero, zero, zero]) == [ctx.q - 1] * ctx.q


def test_poly_logs_reads_the_given_positions(small_contexts):
    rng = random.Random(29)
    for ctx in _table_contexts(small_contexts):
        tuples = ctx.element_tuples()
        m = ctx.q - 1
        for degree in range(4):
            coeffs = [rng.choice(tuples) for _ in range(degree + 1)]
            full = ctx.poly_logs(coeffs)
            for step in (d for d in range(1, m + 1) if m % d == 0):
                # full[::step] ends at position q - 1, x = 0, since step divides it
                positions = range(0, ctx.q, step)
                assert ctx.poly_logs(coeffs, positions) == full[::step], (ctx, coeffs, step)
            # Any positions, in any order, as a list.
            positions = rng.sample(range(ctx.q), min(ctx.q, 7))
            assert ctx.poly_logs(coeffs, positions) == [full[k] for k in positions]


def test_frobenius_orbits_partition_the_positions_for_every_subfield(small_contexts):
    for ctx in _table_contexts(small_contexts):
        exp, log, _ = ctx.log_tables()
        tuples = ctx.element_tuples()
        m = ctx.q - 1

        def orbit(k, q0):
            # The orbit of x = g^k (x = 0 at k = q - 1) under x -> x^q0, walked by pow_t.
            x = ctx.zero_t if k == m else tuples[exp[k]]
            out, y = [], x
            while True:
                out.append(log[ctx.index_of(y)])
                y = ctx.pow_t(y, q0)
                if y == x:
                    return out

        for n in (n for n in range(1, ctx.b + 1) if ctx.b % n == 0):
            q0 = ctx.p ** (ctx.b // n)
            groups = ctx.frobenius_orbits(n)
            assert ctx.frobenius_orbits(n) is groups
            if n == 1:
                # Every orbit is one position: one group, each position once.
                (one, positions), = groups
                assert one == 1 and sorted(positions) == list(range(ctx.q)), ctx
                continue
            (one, short), (weight, reps) = groups
            assert (one, weight) == (1, n), (ctx, n)
            # S: x = 0 and the positions of every proper subfield GF(q0^j), j | n.
            subfields = {m}
            for j in (j for j in range(1, n) if n % j == 0):
                subfields.update(k for k in range(m) if ctx.pow_t(tuples[exp[k]], q0 ** j)
                                 == tuples[exp[k]])
            assert sorted(short) == sorted(subfields) and len(short) == len(set(short)), (ctx, n)
            covered = list(short)
            for k in reps:
                walk = orbit(k, q0)
                assert len(walk) == n and k == min(walk), (ctx, n, k)
                covered += walk
            assert sorted(covered) == list(range(ctx.q)), (ctx, n)


@pytest.mark.parametrize("p,b,n", [(2, 16, 4), (3, 10, 5), (3, 9, 3), (5, 6, 3), (7, 4, 2)])
def test_frobenius_orbit_representatives_at_oracle_scale(p, b, n):
    # k -> k q0 mod (q - 1) rotates k's n base-q0 digits, so an orbit of
    # length n has exactly one position whose digit string, leading digit
    # first, is below each of its other rotations.  product() lists the
    # strings in position order, and the last one, all q0 - 1, is q - 1.
    q0 = p ** (b // n)
    _, (_, reps) = make_field_context(p, b).frobenius_orbits(n)
    expected = {k for k, s in enumerate(itertools.product(range(q0), repeat=n))
                if all(s < s[j:] + s[:j] for j in range(1, n))}
    assert len(reps) == len(expected) and set(reps) == expected


def test_frobenius_orbits_refuse_a_non_subfield():
    ctx = make_field_context(2, 4)
    for n in (0, 3, 5, 8):
        with pytest.raises(DomainError, match="not a degree"):
            ctx.frobenius_orbits(n)


def test_index_of_is_enumeration_position():
    ctx = make_field_context(3, 3)
    assert [ctx.index_of(t) for t in ctx.element_tuples()] == list(range(ctx.q))


# -- enumeration ---------------------------------------------------------------

def test_enumeration_gf2():
    ctx = make_field_context(2, 1)
    assert ctx.element_tuples() == [(0,), (1,)]


def test_enumeration_gf4_distinct_starts_at_zero():
    ctx = make_field_context(2, 2)
    elems = ctx.element_tuples()
    assert len(elems) == 4
    assert len(set(elems)) == 4
    assert elems[0] == ctx.zero_t


def test_enumeration_gf27_sums_to_zero():
    ctx = make_field_context(3, 3)
    elems = ctx.element_tuples()
    assert len(elems) == 27
    total = ctx.zero_t
    for x in elems:
        total = ctx.add_t(total, x)
    assert total == ctx.zero_t


def test_enumeration_is_lexicographic():
    ctx = make_field_context(3, 2)
    assert ctx.element_tuples() == sorted(ctx.element_tuples())


# -- embeddings ----------------------------------------------------------------

def test_embed_prime_field_is_identity_on_constants():
    f2 = make_field_context(2, 1)
    f8 = make_field_context(2, 3)
    emb = embed_field(f2, f8)
    assert emb.map_tuple(f2.zero_t) == f8.zero_t
    assert emb.map_tuple(f2.one_t) == f8.one_t


def test_embed_gf4_into_gf16_image_satisfies_modulus():
    f4 = make_field_context(2, 2)
    f16 = make_field_context(2, 4)
    g = embed_field(f4, f16).generator_image
    add = f16.add_t
    assert add(add(f16.mul_t(g, g), g), f16.one_t) == f16.zero_t


def test_embed_image_is_first_root_in_enumeration_order():
    f4 = make_field_context(2, 2)
    f16 = make_field_context(2, 4)
    g = embed_field(f4, f16).generator_image
    add = f16.add_t
    for candidate in f16.element_tuples():
        if add(add(f16.mul_t(candidate, candidate), candidate), f16.one_t) == f16.zero_t:
            assert candidate == g
            break


def test_embed_image_is_first_schoolbook_root_for_every_pair():
    pairs = [(p, b, big) for p in range(2, 65) if is_prime(p)
             for big in range(2, 13) if p ** big <= 4096
             for b in range(1, big) if big % b == 0]
    assert len(pairs) == 57
    for p, b, big in pairs:
        small_ctx, big_ctx = make_field_context(p, b), make_field_context(p, big)
        coeffs = [big_ctx.smul_t(c, big_ctx.one_t) for c in reversed(small_ctx.modulus)]
        first_root = next(x for x in big_ctx.element_tuples()
                          if not any(_schoolbook_eval(big_ctx, coeffs, x)))
        assert embed_field(small_ctx, big_ctx).generator_image == first_root, (p, b, big)


def test_embed_rejects_non_dividing_degree():
    with pytest.raises(DomainError):
        embed_field(make_field_context(2, 2), make_field_context(2, 3))
    with pytest.raises(DomainError):
        embed_field(make_field_context(2, 2), make_field_context(3, 2))


# The last five are the embeddings the oracle benchmark counts through.
@pytest.mark.parametrize("small,big", [
    ((2, 2), (2, 4)), ((3, 2), (3, 4)), ((2, 3), (2, 6)),
    ((2, 4), (2, 8)), ((2, 4), (2, 16)), ((3, 2), (3, 10)), ((5, 2), (5, 6)), ((7, 2), (7, 4)),
])
def test_embedding_is_a_homomorphism(small, big):
    rng = random.Random(31)
    s = make_field_context(*small)
    b = make_field_context(*big)
    emb = embed_field(s, b).map_tuple
    elems = s.element_tuples()
    for _ in range(80):
        x, y = rng.choice(elems), rng.choice(elems)
        assert emb(s.add_t(x, y)) == b.add_t(emb(x), emb(y))
        assert emb(s.mul_t(x, y)) == b.mul_t(emb(x), emb(y))
    assert emb(s.one_t) == b.one_t
    # One-to-one onto the copy of the small field: positions 0, d, 2d, ...,
    # q - 1 (zero) with d = (q - 1) / (q' - 1).
    _, log, _ = b.log_tables()
    positions = sorted(log[b.index_of(emb(x))] for x in elems)
    assert positions == list(range(0, b.q, (b.q - 1) // (s.q - 1)))


# -- rendering -----------------------------------------------------------------

def test_render_coeffs():
    assert render_coeffs((0, 0)) == "0"
    assert render_coeffs((1, 2, 0)) == "1+2*t"
    assert render_coeffs((0, 1, 3)) == "t+3*t^2"
    assert render_coeffs((0, 1)) == "t"
