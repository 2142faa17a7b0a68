import itertools
import math
import random
from collections import Counter

import pytest

from ecsquares import DomainError, ResourceLimitError, embed_field, make_field_context
from ecsquares.finitefield import _poly_divmod, render_coeffs

from reference_oracles import reference_mul


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


def test_context_construction_guards():
    with pytest.raises(DomainError):
        make_field_context(4, 2)
    with pytest.raises(DomainError):
        make_field_context(5, 0)
    with pytest.raises(ResourceLimitError):
        make_field_context(2, 25)


def test_contexts_are_cached():
    assert make_field_context(3, 2) is make_field_context(3, 2)


# -- element arithmetic --------------------------------------------------------

def test_gf4_generator_relation():
    ctx = make_field_context(2, 2)
    t = ctx.gen
    assert t * t == t + ctx.one


def test_gf5_inverse():
    ctx = make_field_context(5, 1)
    assert ctx.element(2).inverse() == ctx.element(3)


def test_gf8_multiplicative_order():
    ctx = make_field_context(2, 3)
    for x in ctx.elements():
        if x:
            assert x ** 7 == ctx.one


def test_inverse_of_zero_raises():
    ctx = make_field_context(3, 2)
    with pytest.raises(ZeroDivisionError):
        ctx.zero.inverse()


def test_cross_context_arithmetic_rejected():
    a = make_field_context(2, 2).one
    b = make_field_context(2, 3).one
    with pytest.raises(DomainError):
        a + b


def test_negative_exponent_rejected():
    ctx = make_field_context(5, 1)
    with pytest.raises(DomainError):
        ctx.element(2) ** -1


def test_field_axioms_on_sampled_triples(small_contexts):
    rng = random.Random(7)
    for ctx in small_contexts:
        elems = [ctx.element(t) for t in ctx.element_tuples()]
        for _ in range(60):
            x, y, z = (rng.choice(elems) for _ in range(3))
            assert (x + y) + z == x + (y + z)
            assert x + y == y + x
            assert (x * y) * z == x * (y * z)
            assert x * y == y * x
            assert x * (y + z) == x * y + x * z
        for x in elems:
            if x:
                assert x * x.inverse() == ctx.one


def test_frobenius_is_additive(small_contexts):
    rng = random.Random(13)
    for ctx in small_contexts:
        elems = [ctx.element(t) for t in ctx.element_tuples()]
        for _ in range(40):
            x, y = rng.choice(elems), rng.choice(elems)
            assert (x + y) ** ctx.p == x ** ctx.p + y ** ctx.p


def test_packed_mul_matches_schoolbook(small_contexts):
    rng = random.Random(99)
    for ctx in small_contexts:
        tuples = ctx.element_tuples()
        for _ in range(120):
            u, v = rng.choice(tuples), rng.choice(tuples)
            assert ctx.mul_t(u, v) == reference_mul(ctx, u, v)


def test_packed_mul_matches_schoolbook_large_degree():
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
    rng = random.Random(17)
    for ctx in _table_contexts(small_contexts):
        exp, _, _ = ctx.log_tables()
        tuples = ctx.element_tuples()
        m = ctx.q - 1
        for _ in range(60):
            i, j = rng.randrange(m), rng.randrange(m)
            assert tuples[exp[(i + j) % m]] == reference_mul(ctx, tuples[exp[i]], tuples[exp[j]])


def test_zech_table_adds_one(small_contexts):
    for ctx in _table_contexts(small_contexts):
        exp, log, zech = ctx.log_tables()
        tuples = ctx.element_tuples()
        for k, z in enumerate(zech):
            assert z == log[ctx.index_of(ctx.add_t(tuples[exp[k]], ctx.one_t))], (ctx, k)


def test_y_side_histogram_matches_enumeration(small_contexts):
    for ctx in _table_contexts(small_contexts):
        _, log, _ = ctx.log_tables()
        if ctx.p == 2:
            hist = ctx.artin_schreier_counter()
            values = [ctx.add_t(reference_mul(ctx, y, y), y) for y in ctx.element_tuples()]
        else:
            hist = ctx.square_counter()
            values = [reference_mul(ctx, y, y) for y in ctx.element_tuples()]
        expected = Counter(log[ctx.index_of(v)] for v in values)
        assert sum(hist) == ctx.q
        assert hist == [expected[k] for k in range(ctx.q)], ctx


def test_index_of_is_enumeration_position():
    ctx = make_field_context(3, 3)
    assert [ctx.index_of(t) for t in ctx.element_tuples()] == list(range(ctx.q))


# -- enumeration ---------------------------------------------------------------

def test_enumeration_gf2():
    ctx = make_field_context(2, 1)
    assert [e.coeffs for e in ctx.elements()] == [(0,), (1,)]


def test_enumeration_gf4_distinct_starts_at_zero():
    ctx = make_field_context(2, 2)
    elems = list(ctx.elements())
    assert len(elems) == 4
    assert len(set(elems)) == 4
    assert elems[0] == ctx.zero


def test_enumeration_gf27_sums_to_zero():
    ctx = make_field_context(3, 3)
    elems = list(ctx.elements())
    assert len(elems) == 27
    total = ctx.zero
    for x in elems:
        total = total + x
    assert total == ctx.zero


def test_enumeration_is_lexicographic():
    ctx = make_field_context(3, 2)
    assert ctx.element_tuples() == sorted(ctx.element_tuples())


# -- embeddings ----------------------------------------------------------------

def test_embed_prime_field_is_identity_on_constants():
    f2 = make_field_context(2, 1)
    f8 = make_field_context(2, 3)
    emb = embed_field(f2, f8)
    assert emb(f2.zero) == f8.zero
    assert emb(f2.one) == f8.one


def test_embed_gf4_into_gf16_image_satisfies_modulus():
    f4 = make_field_context(2, 2)
    f16 = make_field_context(2, 4)
    g = embed_field(f4, f16).generator_image
    assert g * g + g + f16.one == f16.zero


def test_embed_image_is_first_root_in_enumeration_order():
    f4 = make_field_context(2, 2)
    f16 = make_field_context(2, 4)
    g = embed_field(f4, f16).generator_image
    for candidate in f16.elements():
        if candidate * candidate + candidate + f16.one == f16.zero:
            assert candidate == g
            break


def test_embed_rejects_non_dividing_degree():
    with pytest.raises(DomainError):
        embed_field(make_field_context(2, 2), make_field_context(2, 3))
    with pytest.raises(DomainError):
        embed_field(make_field_context(2, 2), make_field_context(3, 2))


@pytest.mark.parametrize("small,big", [((2, 2), (2, 4)), ((3, 2), (3, 4)), ((2, 3), (2, 6))])
def test_embedding_is_a_homomorphism(small, big):
    rng = random.Random(31)
    s = make_field_context(*small)
    b = make_field_context(*big)
    emb = embed_field(s, b)
    elems = [s.element(t) for t in s.element_tuples()]
    for _ in range(80):
        x, y = rng.choice(elems), rng.choice(elems)
        assert emb(x + y) == emb(x) + emb(y)
        assert emb(x * y) == emb(x) * emb(y)
    assert emb(s.one) == b.one


# -- rendering -----------------------------------------------------------------

def test_render_coeffs():
    assert render_coeffs((0, 0)) == "0"
    assert render_coeffs((1, 2, 0)) == "1+2*t"
    assert render_coeffs((0, 1, 3)) == "t+3*t^2"
    assert str(make_field_context(2, 2).gen) == "t"
