import hashlib
import itertools
import random
import tracemalloc

import pytest

from ecsquares import (
    DomainError,
    ResourceLimitError,
    WeierstrassCurve,
    base_change_count,
    count_points_naive,
    discriminant,
    embed_field,
    make_field_context,
    realize_trace,
    short_weierstrass,
    trace_sequence,
)
from ecsquares.curves import (_count_curve, _discriminant_t, _families, _realization_table,
                              _row_counts)
from ecsquares.search import prime_powers_below
from ecsquares.traces import as_prime_power, hasse_bound

from reference_oracles import reference_count


def _curve(ctx, a1, a2, a3, a4, a6):
    return WeierstrassCurve(ctx, *(ctx.smul_t(c, ctx.one_t) for c in (a1, a2, a3, a4, a6)))


# -- discriminant --------------------------------------------------------------

def test_discriminant_nonsingular_over_f5():
    ctx = make_field_context(5, 1)
    delta = discriminant(short_weierstrass(ctx, 1, 0))
    # -16 * (4*1 + 0) = -64 = 1 mod 5
    assert delta == (1,)


def test_cusp_is_rejected():
    ctx = make_field_context(5, 1)
    curve = short_weierstrass(ctx, 0, 0)
    assert not any(discriminant(curve))
    with pytest.raises(DomainError):
        count_points_naive(curve)


def test_char2_supersingular_discriminant_and_smoothness():
    ctx = make_field_context(2, 1)
    curve = _curve(ctx, 0, 0, 1, 0, 0)  # y^2 + y = x^3
    assert discriminant(curve) == ctx.one_t
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
            assert not any(discriminant(curve))


@pytest.mark.parametrize("p,b", [(3, 1), (3, 2)])
def test_char3_family_discriminant_shortcut_matches_generic(p, b):
    # a2^2 a4^2 - a4^3 - a2^3 a6 is the discriminant of the p = 3 family:
    # pin _discriminant_t, the sweep's one singularity test, on both of its
    # families (a2 = 0 and a4 = 0) and on every other curve of the form.
    ctx = make_field_context(p, b)
    mul, add, smul = ctx.mul_t, ctx.add_t, ctx.smul_t

    def sub(u, v):
        return add(u, smul(-1, v))

    for a2 in ctx.element_tuples():
        for a4 in ctx.element_tuples():
            for a6 in ctx.element_tuples():
                quint = (ctx.zero_t, a2, ctx.zero_t, a4, a6)
                shortcut = sub(
                    sub(mul(mul(a2, a2), mul(a4, a4)), mul(a4, mul(a4, a4))),
                    mul(mul(a2, mul(a2, a2)), a6))
                assert shortcut == _discriminant_t(ctx, quint)


def _unreduced_rows(ctx):
    """Every (a1, a2, a3, a4) of the realization families, in lex order."""
    elems, zero, one = ctx.element_tuples(), ctx.zero_t, ctx.one_t
    if ctx.p > 3:
        return [(zero, zero, zero, a4) for a4 in elems]
    if ctx.p == 3:
        return [(zero, a2, zero, a4) for a2 in elems for a4 in elems if any(a2) or any(a4)]
    return ([(one, a2, zero, zero) for a2 in elems]
            + [(zero, zero, a3, a4) for a3 in elems[1:] for a4 in elems])


@pytest.mark.parametrize("p,b", [(5, 1), (7, 1), (11, 1), (13, 1), (5, 2), (3, 1), (3, 2),
                                 (2, 1), (2, 2), (2, 3), (2, 4)])
def test_class_first_rows_realize_what_every_curve_does(p, b):
    # Count every nonsingular curve of every row, with the generic
    # discriminant.  A row the sweep skips must count the same multiset as
    # an earlier row it keeps, and the first curve per trace must be the
    # sweep's, which reads the discriminant only at traces -1, 0 and 1.
    ctx = make_field_context(p, b)
    kept = list(_families(ctx))
    rows = _unreduced_rows(ctx)
    assert [row for row in rows if row in kept] == kept
    kept_counts, table = [], {}
    for row in rows:
        a6s = [a6 for a6 in ctx.element_tuples() if any(_discriminant_t(ctx, row + (a6,)))]
        counts = [_count_curve(ctx, 1, row + (a6,)) for a6 in a6s]
        for a6, n in zip(a6s, counts):
            table.setdefault(ctx.q + 1 - n, row + (a6,))
        if row in kept:
            kept_counts.append(sorted(counts))
        else:
            assert sorted(counts) in kept_counts, row
    assert table == _realization_table(as_prime_power(ctx.q))


def test_char2_family_discriminant_shortcuts_match_generic():
    # Pin _discriminant_t, the sweep's one singularity test, on both
    # families of characteristic 2 at every coefficient pair over GF(4).
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
    assert count_points_naive(short_weierstrass(f7, 0, 2)) == 9  # trace 7 + 1 - 9 = -1

    f2 = make_field_context(2, 1)
    assert count_points_naive(_curve(f2, 0, 0, 1, 0, 0)) == 3  # trace 0

    f5 = make_field_context(5, 1)
    assert count_points_naive(short_weierstrass(f5, 0, 1)) == 6  # trace 0


def test_table_count_matches_double_loop_reference(small_contexts):
    rng = random.Random(41)
    for ctx in small_contexts:
        tuples = ctx.element_tuples()
        for _ in range(12):
            quint = tuple(rng.choice(tuples) for _ in range(5))
            assert _count_curve(ctx, 1, quint) == reference_count(ctx, quint), (ctx, quint)


@pytest.mark.parametrize("p,b", [(2, 1), (3, 1), (2, 2), (5, 1)])
def test_count_matches_reference_on_every_curve(p, b):
    # Singular curves included: in characteristic 2 this covers a1 = 0,
    # a1 = 1 with a3 = 0, and a general line a1 x + a3, so an x with
    # L(x) = 0; in odd characteristic every run of zero coefficients.
    ctx = make_field_context(p, b)
    for quint in itertools.product(ctx.element_tuples(), repeat=5):
        assert _count_curve(ctx, 1, quint) == reference_count(ctx, quint), (ctx, quint)


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
            n = _count_curve(ctx, 1, quint)
            a = q + 1 - n
            assert a * a <= 4 * q, (quint, n)


# -- realization ---------------------------------------------------------------

def test_row_transform_matches_direct_counts():
    # One transform per row against one direct count per curve, at every a6
    # of every row of every field q <= 128, singular curves included: a
    # singular cubic must have trace -1, 0 or 1, which is all the sweep's
    # discriminant check relies on.  The supersingular rows of
    # characteristic 2 include a6 = 0, where the sign (-1)^Tr(a6 / a3^2) is
    # +1, not the sign read at log 0: rows (a3, a4) = (1, 1) over GF(2),
    # (t, 0) over GF(4) and (t^3, 0) over GF(16) tell the two apart.
    at_zero = {2: ((1,), (1,)), 4: ((0, 1), (0, 0)), 16: ((0, 0, 0, 1), (0, 0, 0, 0))}
    pps = prime_powers_below(129)
    assert {2, 3, 4, 9, 16, 27, 81} <= {pp.q for pp in pps}
    singular = 0
    for pp in pps:
        ctx = make_field_context(pp.p, pp.b)
        rows = list(_families(ctx))
        if pp.q in at_zero:
            assert (ctx.zero_t, ctx.zero_t) + at_zero[pp.q] in rows
        if pp.p == 3:  # both families: a2 = 0, then a4 = 0
            assert {any(row[1]) for row in rows} == {False, True}
        for row in rows:
            counts = _row_counts(ctx, row)
            for a6 in ctx.element_tuples():
                quint = row + (a6,)
                n = _count_curve(ctx, 1, quint)
                assert counts[ctx.index_of(a6)] == n - 1, (ctx, row, a6)
                if not any(_discriminant_t(ctx, quint)):
                    singular += 1
                    assert (pp.q + 1 - n) ** 2 <= 1, (ctx, quint)
    assert singular


def test_realize_first_match_is_lexicographic():
    curve = realize_trace(7, -1)
    coeffs = [c[0] for c in curve.coefficient_tuples()]
    assert coeffs == [0, 0, 0, 0, 2]


# sha256 of one line "q a curve" (or "q a none") per trace a with a^2 <= 4q,
# for every prime power q < 50, as realized by the earlier per-characteristic
# sweeps.  It pins the lexicographically first curve for every trace.
REALIZATIONS_SHA256 = "2490370d4a42148d9bac9eff0ba54dea0b7f0e9ec34c6460830e4ecf98fd3254"


def _realization_lines(pps):
    lines = []
    for pp in pps:
        bound = hasse_bound(pp)
        for a in range(-bound, bound + 1):
            curve = realize_trace(pp, a)
            lines.append(f"{pp.q} {a} {'none' if curve is None else curve}")
    return lines


def _sha256(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_realizations_are_pinned():
    lines = _realization_lines(prime_powers_below(50))
    assert len(lines) == 405
    assert _sha256(lines) == REALIZATIONS_SHA256


# The same lines for q = 81, pinned from the sweep that counted every
# (a2, a4, a6) of characteristic 3 on its own, before the translation.
REALIZATIONS_81_SHA256 = "ba2cd69527ccdcf928952a14a47c2ec1edb430418a5687185e59cd0918bd5e29"


def test_realizations_are_pinned_for_q81():
    lines = _realization_lines([as_prime_power(81)])
    assert len(lines) == 37
    assert sum(line.endswith(" none") for line in lines) == 8
    assert _sha256(lines) == REALIZATIONS_81_SHA256


# The same lines for every prime power 50 <= q <= 128, pinned from the sweep
# that counted every row of the families, before it kept one row per class.
REALIZATIONS_50_128_SHA256 = "a9453cd7865e86d3e634efb1820e5a605e1b2466cb0e07090ce718d0edd5de55"


def test_realizations_are_pinned_for_q50_to_128():
    pps = [pp for pp in prime_powers_below(129) if pp.q >= 50]
    lines = _realization_lines(pps)
    assert (len(pps), len(lines)) == (21, 797)
    assert sum(line.endswith(" none") for line in lines) == 48
    assert _sha256(lines) == REALIZATIONS_50_128_SHA256


def test_realize_inadmissible_is_none():
    assert realize_trace(27, 3) is None


def test_realize_supersingular_trace_over_gf32():
    curve = realize_trace(32, 8)
    assert curve is not None
    assert not any(curve.a1)  # supersingular family
    assert any(curve.a3)
    assert 32 + 1 - count_points_naive(curve) == 8


def test_realize_hasse_violation_raises():
    with pytest.raises(DomainError):
        realize_trace(7, 6)


def test_realize_guard_refuses_large_fields_before_building(monkeypatch):
    def no_sweep(pp):
        raise AssertionError(f"swept GF({pp.q})")

    monkeypatch.setattr("ecsquares.curves._realization_table", no_sweep)
    for q in (1031, 2048, 1 << 20):
        with pytest.raises(ResourceLimitError, match="realization guard"):
            realize_trace(q, 0)
    with pytest.raises(DomainError):  # the Hasse check still comes first
        realize_trace(1031, 65)


def test_realize_refusal_names_the_guard_and_no_cost():
    """The refusal claims no sweep size: that differs by characteristic."""
    with pytest.raises(ResourceLimitError) as refusal:
        realize_trace(2048, 0)
    assert str(refusal.value) == (
        "realizing a trace over GF(2048) is refused: the realization guard is q <= 1024")


def test_realized_counts_have_the_requested_trace():
    for q in (2, 3, 4, 5, 8, 9):
        for a in range(-3, 4):
            if a * a > 4 * q:
                continue
            curve = realize_trace(q, a)
            if curve is not None:
                assert q + 1 - count_points_naive(curve) == a


# -- base change ---------------------------------------------------------------

def test_base_change_examples():
    f2 = make_field_context(2, 1)
    curve = _curve(f2, 0, 0, 1, 0, 0)  # y^2 + y = x^3, trace 0
    assert base_change_count(curve, 3) == 9
    assert base_change_count(curve, 1) == count_points_naive(curve)

    f7 = make_field_context(7, 1)
    curve7 = short_weierstrass(f7, 0, 2)  # trace -1
    # doubling identity: a_2 = (-1)^2 - 2*7 = -13, so N_2 = 49 + 1 + 13
    assert base_change_count(curve7, 2) == 63
    with pytest.raises(DomainError, match="extension degree"):
        base_change_count(curve7, 0)


def test_base_change_matches_recurrence_spot_checks():
    cases = [(2, -1), (3, 1), (4, 1), (5, -3), (9, 1)]
    for q, a in cases:
        curve = realize_trace(q, a)
        terms = {t.n: t.N_n for t in trace_sequence(q, a, 12)}
        n = 1
        while q ** n <= 4096:
            assert base_change_count(curve, n) == terms[n], (q, a, n)
            n += 1


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_base_change_orbit_count_equals_unreduced_count(q):
    # The oracle evaluates one x per orbit of x -> x^q; the double loop
    # evaluates every (x, y) of the embedded curve over GF(q^n).  Where
    # q > p the coefficients lie outside GF(p), which x -> x^p would move.
    pp = as_prime_power(q)
    ctx = make_field_context(pp.p, pp.b)
    tuples = ctx.element_tuples()
    outside = [c for c in tuples if any(c[1:])] or tuples
    rng = random.Random(q)
    quint = tuple(rng.choice(outside) for _ in range(5))
    while not any(_discriminant_t(ctx, quint)):
        quint = tuple(rng.choice(outside) for _ in range(5))
    curve = WeierstrassCurve(ctx, *quint)
    n = 1
    while q ** n <= 243:
        big = make_field_context(pp.p, pp.b * n)
        embedded = tuple(map(embed_field(ctx, big).map_tuple, quint))
        assert base_change_count(curve, n) == reference_count(big, embedded), (q, quint, n)
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


def test_base_change_guard_refuses_a_huge_degree_before_computing_the_size():
    # 2**(10**8) alone would take 12 MiB; the guard must not build it.
    curve = _curve(make_field_context(2, 1), 0, 0, 1, 0, 0)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="exceeds the count guard"):
            base_change_count(curve, 10 ** 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("p,b,a6", [
    pytest.param(2, 1, (0, 0), id="gf4-tuple-in-gf2"),
    pytest.param(5, 1, (5,), id="digit-out-of-range"),
    pytest.param(3, 2, (1,), id="too-short-for-gf9"),
])
def test_mixed_context_curve_rejected(p, b, a6):
    ctx = make_field_context(p, b)
    zero = ctx.zero_t
    with pytest.raises(DomainError):
        WeierstrassCurve(ctx, zero, zero, ctx.one_t, zero, a6)


def test_short_weierstrass_reduces_ints_mod_p():
    f5 = make_field_context(5, 1)
    assert short_weierstrass(f5, -1, 7) == short_weierstrass(f5, 4, 2)


def test_curve_rendering():
    curve = realize_trace(7, -1)
    assert str(curve) == "[0,0,0,0,2] over GF(7^1) mod t"
    curve4 = realize_trace(4, 1)
    assert "GF(2^2) mod 1+t+t^2" in str(curve4)
