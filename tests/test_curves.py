import hashlib
import itertools
import random

import pytest

from ecsquares import (
    DomainError,
    ResourceLimitError,
    WeierstrassCurve,
    base_change_count,
    count_points_naive,
    discriminant,
    make_field_context,
    realize_trace,
    short_weierstrass,
    trace_sequence,
)
from ecsquares.curves import _count_curve, _discriminant_t
from ecsquares.search import prime_powers_below
from ecsquares.traces import hasse_bound

from reference_oracles import reference_count


def _curve(ctx, a1, a2, a3, a4, a6):
    return WeierstrassCurve(*(ctx.element(c) for c in (a1, a2, a3, a4, a6)))


# -- discriminant --------------------------------------------------------------

def test_discriminant_nonsingular_over_f5():
    ctx = make_field_context(5, 1)
    delta = discriminant(short_weierstrass(ctx, 1, 0))
    # -16 * (4*1 + 0) = -64 = 1 mod 5
    assert delta == ctx.element(1)


def test_cusp_is_rejected():
    ctx = make_field_context(5, 1)
    curve = short_weierstrass(ctx, 0, 0)
    assert not discriminant(curve)
    with pytest.raises(DomainError):
        count_points_naive(curve)


def test_char2_supersingular_discriminant_and_smoothness():
    ctx = make_field_context(2, 1)
    curve = _curve(ctx, 0, 0, 1, 0, 0)  # y^2 + y = x^3
    assert discriminant(curve) == ctx.one
    # independent smoothness scan: no affine point annihilates both partials
    # [partial_x: 3x^2 + a4 = x^2 in char 2; partial_y: 2y + a3 = 1]
    for x in range(2):
        for y in range(2):
            if (y * y + y) % 2 == (x ** 3) % 2:
                assert (1) % 2 != 0  # partial_y = a3 = 1 never vanishes


def test_short_form_is_always_singular_in_char2():
    ctx = make_field_context(2, 2)
    for a4 in ctx.element_tuples():
        for a6 in ctx.element_tuples():
            curve = short_weierstrass(ctx, a4, a6)
            assert not discriminant(curve)


@pytest.mark.parametrize("p,b", [(3, 1), (3, 2)])
def test_char3_family_discriminant_shortcut_matches_generic(p, b):
    # the sweep uses a2^2 a4^2 - a4^3 - a2^3 a6; confirm against the generic form
    ctx = make_field_context(p, b)
    mul, sub = ctx.mul_t, ctx.sub_t
    for a2 in ctx.element_tuples():
        for a4 in ctx.element_tuples():
            for a6 in ctx.element_tuples():
                quint = (ctx.zero_t, a2, ctx.zero_t, a4, a6)
                shortcut = sub(
                    sub(mul(mul(a2, a2), mul(a4, a4)), mul(a4, mul(a4, a4))),
                    mul(mul(a2, mul(a2, a2)), a6))
                assert shortcut == _discriminant_t(ctx, quint)


def test_char2_family_discriminant_shortcuts_match_generic():
    ctx = make_field_context(2, 2)
    one, zero = ctx.one_t, ctx.zero_t
    for x in ctx.element_tuples():
        for y in ctx.element_tuples():
            # ordinary family: delta = a6
            assert _discriminant_t(ctx, (one, x, zero, zero, y)) == y
            # supersingular family: delta = a3^4
            a3_4 = ctx.mul_t(ctx.mul_t(x, x), ctx.mul_t(x, x))
            assert _discriminant_t(ctx, (zero, zero, x, zero, y)) == a3_4


# -- counting ------------------------------------------------------------------

def test_count_examples():
    f7 = make_field_context(7, 1)
    cc = count_points_naive(short_weierstrass(f7, 0, 2))
    assert (cc.N, cc.a) == (9, -1)

    f2 = make_field_context(2, 1)
    cc = count_points_naive(_curve(f2, 0, 0, 1, 0, 0))
    assert (cc.N, cc.a) == (3, 0)

    f5 = make_field_context(5, 1)
    cc = count_points_naive(short_weierstrass(f5, 0, 1))
    assert (cc.N, cc.a) == (6, 0)


def test_table_count_matches_double_loop_reference(small_contexts):
    rng = random.Random(41)
    for ctx in small_contexts:
        tuples = ctx.element_tuples()
        for _ in range(12):
            quint = tuple(rng.choice(tuples) for _ in range(5))
            assert _count_curve(ctx, quint) == reference_count(ctx, quint), (ctx, quint)


@pytest.mark.parametrize("p,b", [(2, 1), (3, 1), (2, 2)])
def test_count_matches_reference_on_every_curve(p, b):
    # Singular curves included: in characteristic 2 this covers a1 = 0,
    # a1 = 1 with a3 = 0, and a general line a1 x + a3.
    ctx = make_field_context(p, b)
    for quint in itertools.product(ctx.element_tuples(), repeat=5):
        assert _count_curve(ctx, quint) == reference_count(ctx, quint), (ctx, quint)


def test_hasse_bound_for_every_curve_over_small_fields():
    for (p, b) in [(2, 1), (3, 1), (5, 1), (2, 2), (7, 1), (3, 2), (11, 1), (13, 1)]:
        ctx = make_field_context(p, b)
        q = ctx.q
        tuples = ctx.element_tuples()
        rng = random.Random(q)
        quints = [tuple(rng.choice(tuples) for _ in range(5)) for _ in range(80)]
        for quint in quints:
            if not any(_discriminant_t(ctx, quint)):
                continue
            n = _count_curve(ctx, quint)
            a = q + 1 - n
            assert a * a <= 4 * q, (quint, n)


# -- realization ---------------------------------------------------------------

def test_realize_first_match_is_lexicographic():
    curve = realize_trace(7, -1)
    coeffs = [c.coeffs[0] for c in (curve.a1, curve.a2, curve.a3, curve.a4, curve.a6)]
    assert coeffs == [0, 0, 0, 0, 2]


# sha256 of one line "q a curve" (or "q a none") per trace a with a^2 <= 4q,
# for every prime power q < 50, as realized by the earlier per-characteristic
# sweeps.  It pins the lexicographically first curve for every trace.
REALIZATIONS_SHA256 = "2490370d4a42148d9bac9eff0ba54dea0b7f0e9ec34c6460830e4ecf98fd3254"


def test_realizations_are_pinned():
    lines = []
    for pp in prime_powers_below(50):
        bound = hasse_bound(pp)
        for a in range(-bound, bound + 1):
            curve = realize_trace(pp, a)
            lines.append(f"{pp.q} {a} {'none' if curve is None else curve}")
    assert len(lines) == 405
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == REALIZATIONS_SHA256


def test_realize_inadmissible_is_none():
    assert realize_trace(27, 3) is None


def test_realize_supersingular_trace_over_gf32():
    curve = realize_trace(32, 8)
    assert curve is not None
    assert not curve.a1  # supersingular family
    assert curve.a3
    assert count_points_naive(curve).a == 8


def test_realize_hasse_violation_raises():
    with pytest.raises(DomainError):
        realize_trace(7, 6)


def test_realized_counts_have_the_requested_trace():
    for q in (2, 3, 4, 5, 8, 9):
        for a in range(-3, 4):
            if a * a > 4 * q:
                continue
            curve = realize_trace(q, a)
            if curve is not None:
                assert count_points_naive(curve).a == a


# -- base change ---------------------------------------------------------------

def test_base_change_examples():
    f2 = make_field_context(2, 1)
    curve = _curve(f2, 0, 0, 1, 0, 0)  # y^2 + y = x^3, trace 0
    assert base_change_count(curve, 3) == 9
    assert base_change_count(curve, 1) == count_points_naive(curve).N

    f7 = make_field_context(7, 1)
    curve7 = short_weierstrass(f7, 0, 2)  # trace -1
    # doubling identity: a_2 = (-1)^2 - 2*7 = -13, so N_2 = 49 + 1 + 13
    assert base_change_count(curve7, 2) == 63


def test_base_change_matches_recurrence_spot_checks():
    cases = [(2, -1), (3, 1), (4, 1), (5, -3), (9, 1)]
    for q, a in cases:
        curve = realize_trace(q, a)
        terms = {t.n: t.N_n for t in trace_sequence(q, a, 12)}
        n = 1
        while q ** n <= 4096:
            assert base_change_count(curve, n) == terms[n], (q, a, n)
            n += 1


def test_base_change_guard():
    f7 = make_field_context(7, 1)
    curve = short_weierstrass(f7, 0, 2)
    with pytest.raises(ResourceLimitError):
        base_change_count(curve, 7)  # 7^7 > 2^16
    assert base_change_count(curve, 3, limit=400) == 324
    with pytest.raises(ResourceLimitError):
        base_change_count(curve, 3, limit=300)
    with pytest.raises(ResourceLimitError):
        base_change_count(curve, 1, limit=(1 << 20) + 1)  # above the field-size guard


def test_mixed_context_curve_rejected():
    f2 = make_field_context(2, 1)
    f4 = make_field_context(2, 2)
    with pytest.raises(DomainError):
        WeierstrassCurve(f2.zero, f2.zero, f2.one, f2.zero, f4.zero)


def test_curve_rendering():
    curve = realize_trace(7, -1)
    assert str(curve) == "[0,0,0,0,2] over GF(7^1) mod t"
    curve4 = realize_trace(4, 1)
    assert "GF(2^2) mod 1+t+t^2" in str(curve4)
