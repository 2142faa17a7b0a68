"""Weierstrass curves over small finite fields: the brute-force counting oracle.

Counting is exhaustive and one routine serves every characteristic: for
every x the number of y solving the curve equation is read from a histogram
of the y-side values, counted once per field by enumerating y.  In odd
characteristic the square is completed first, so the lookup is at
f(x) = x^3 + a2 x^2 + a4 x + a6; in characteristic 2 it is at f(x) / L(x)^2
with L = a1 x + a3, and an x with L(x) = 0 gives one point.  The loop over x
runs on the field's log and Zech tables.  No point-counting theory beyond
the defining equation is used, which is the point: these counts
independently validate the trace recurrence.

Trace realization is one sweep over reduced curve families that cover every
isomorphism class in each characteristic.  Per (a1, a2, a3, a4) it finds
the x-side once, then counts each nonsingular a6:

* p > 3:  y^2 = x^3 + A x + B              over (A, B) in lex order
* p = 3:  y^2 = x^3 + a2 x^2 + a4 x + a6   over (a2, a4, a6) in lex order;
          for a2 != 0 the curve is counted on its translate by
          x -> x + a4 / a2, y^2 = x^3 + a2 x^2 + a6', so the q curves of
          one (a2, a6') share one x-side and one count
* p = 2:  y^2 + x y = x^3 + a2 x^2 + a6    (ordinary, (a2, a6) lex), then
          y^2 + a3 y = x^3 + a4 x + a6     (supersingular, (a3, a4, a6) lex)

The short form is singular for every coefficient choice in characteristic 2,
so the split families there are mandatory, not an optimization.  A sweep
costs about q^3 x-steps for p > 3 and for the ordinary family of p = 2
(q^2 curves of q points each), about 2 q^3 for p = 3 (about 2 q^2 distinct
counts, the q^3 curves being lookups), and q^4 for the supersingular family
of p = 2 (q^3 curves); q = 64 takes about 5 s, q = 81 about 2 s.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .errors import DomainError, ResourceLimitError
from .finitefield import (
    DEFAULT_FIELD_SIZE_LIMIT,
    FieldContext,
    FieldElement,
    embed_field,
    make_field_context,
    render_coeffs,
)
from .traces import PrimePower, _checked_q

DEFAULT_COUNT_LIMIT = 1 << 16
REALIZATION_Q_LIMIT = 128  # realize_trace's sweep costs up to about q^4 x-steps (module docstring)


@dataclass(frozen=True)
class WeierstrassCurve:
    """y^2 + a1 x y + a3 y = x^3 + a2 x^2 + a4 x + a6 over one field."""

    a1: FieldElement
    a2: FieldElement
    a3: FieldElement
    a4: FieldElement
    a6: FieldElement

    def __post_init__(self):
        ctx = self.a1.ctx
        for c in (self.a2, self.a3, self.a4, self.a6):
            if c.ctx is not ctx:
                raise DomainError("curve coefficients belong to different fields")

    @property
    def ctx(self) -> FieldContext:
        return self.a1.ctx

    def coefficient_tuples(self):
        return (self.a1.coeffs, self.a2.coeffs, self.a3.coeffs,
                self.a4.coeffs, self.a6.coeffs)

    def __str__(self) -> str:
        ctx = self.ctx
        coeffs = ",".join(str(c) for c in (self.a1, self.a2, self.a3, self.a4, self.a6))
        return (f"[{coeffs}] over GF({ctx.p}^{ctx.b})"
                f" mod {render_coeffs(ctx.modulus)}")


@dataclass(frozen=True)
class CurveCount:
    """An exact point count N (including infinity) and the trace a = q + 1 - N."""

    curve: WeierstrassCurve
    N: int
    a: int


def short_weierstrass(ctx: FieldContext, A, B) -> WeierstrassCurve:
    """Convenience constructor for y^2 = x^3 + A x + B."""
    return WeierstrassCurve(ctx.zero, ctx.zero, ctx.zero, ctx.element(A), ctx.element(B))


def discriminant(curve: WeierstrassCurve) -> FieldElement:
    """The discriminant; the curve is elliptic exactly when this is nonzero."""
    ctx = curve.ctx
    return FieldElement(ctx, _discriminant_t(ctx, curve.coefficient_tuples()))


def _discriminant_t(ctx: FieldContext, quint) -> tuple[int, ...]:
    a1, a2, a3, a4, a6 = quint
    mul, add, smul = ctx.mul_t, ctx.add_t, ctx.smul_t
    b2 = add(mul(a1, a1), smul(4, a2))
    b4 = add(smul(2, a4), mul(a1, a3))
    b6 = add(mul(a3, a3), smul(4, a6))
    b8 = add(
        add(mul(mul(a1, a1), a6), smul(4, mul(a2, a6))),
        add(smul(-1, mul(a1, mul(a3, a4))),
            add(mul(a2, mul(a3, a3)), smul(-1, mul(a4, a4)))),
    )
    term = add(smul(-1, mul(mul(b2, b2), b8)), smul(-8, mul(b4, mul(b4, b4))))
    term = add(term, smul(-27, mul(b6, b6)))
    return add(term, smul(9, mul(b2, mul(b4, b6))))


def count_points_naive(curve: WeierstrassCurve) -> CurveCount:
    """Exhaustive point count of a nonsingular curve, including infinity."""
    ctx = curve.ctx
    if not any(_discriminant_t(ctx, curve.coefficient_tuples())):
        raise DomainError(f"singular curve {curve}")
    n = _count_curve(ctx, curve.coefficient_tuples())
    return CurveCount(curve=curve, N=n, a=ctx.q + 1 - n)


def _count_curve(ctx: FieldContext, quint) -> int:
    """Total points (with infinity) of y^2 + a1 x y + a3 y = x^3 + a2 x^2 + a4 x + a6."""
    a1, a2, a3, a4, a6 = quint
    return 1 + _affine_counter(ctx, a1, a2, a3, a4)(a6)


def _affine_counter(ctx: FieldContext, a1, a2, a3, a4):
    """a6 -> affine points of y^2 + L(x) y = x^3 + a2 x^2 + a4 x + a6, L = a1 x + a3.

    In odd characteristic the square is completed first, which leaves L = 1
    and the y-side y^2.  In characteristic 2, y = L z turns the y-side into
    L^2 (z^2 + z), and an x with L(x) = 0 has exactly one point because
    squaring is a bijection.  Either way an x with L(x) != 0 has as many
    points as the y-side histogram holds at f(x) / L(x)^2.  Everything runs
    in the log domain: ``poly_logs`` finds log(x^3 + a2 x^2 + a4 x) and
    log L(x) once per x, after which each a6 costs one Zech addition per x.
    """
    hist = ctx.artin_schreier_counter() if ctx.p == 2 else ctx.square_counter()
    _, log, zech = ctx.log_tables()
    q, m = ctx.q, ctx.q - 1
    add = ctx.add_t
    a6_shift = ctx.zero_t
    if ctx.p != 2:
        # Complete the square: y -> y - (a1 x + a3)/2 leaves y^2 on the left
        # and adds (a1 x + a3)^2 / 4 on the right.
        mul, smul = ctx.mul_t, ctx.smul_t
        inv2 = pow(2, -1, ctx.p)
        inv4 = inv2 * inv2
        a2 = add(a2, smul(inv4, mul(a1, a1)))
        a4 = add(a4, smul(inv2, mul(a1, a3)))
        a6_shift = smul(inv4, mul(a3, a3))
        a1, a3 = ctx.zero_t, ctx.one_t

    cubic = ctx.poly_logs([ctx.one_t, a2, a4, ctx.zero_t])
    lines = ctx.poly_logs([a1, a3])
    points = [(u, -2 * l % m) for u, l in zip(cubic, lines) if l != m]
    vertical = q - len(points)

    def count(a6) -> int:
        c = log[ctx.index_of(add(a6, a6_shift))]
        if c == m:
            return vertical + sum([hist[u if u == m else (u + s) % m] for u, s in points])
        return vertical + sum([
            hist[(c + s) % m if u == m else m if (w := zech[u - c]) == m else (c + w + s) % m]
            for u, s in points])

    return count


# -- trace realization --------------------------------------------------------

_REALIZATION_CACHE: dict[tuple[int, int], dict[int, tuple]] = {}


def realize_trace(q: "int | PrimePower", a: int) -> WeierstrassCurve | None:
    """First curve (in the family enumeration order) with trace a, or None.

    None means the full enumeration found no curve, which by the Waterhouse
    criterion happens exactly for inadmissible traces.  q above the
    realization guard is refused before any field is built.
    """
    pp = _checked_q(q, a)
    if pp.q > REALIZATION_Q_LIMIT:
        raise ResourceLimitError(
            f"realizing a trace over GF({pp.q}) is refused: "
            f"the realization guard is q <= {REALIZATION_Q_LIMIT}")
    table = _realization_table(pp)
    quint = table.get(a)
    if quint is None:
        return None
    ctx = make_field_context(pp.p, pp.b)
    a1, a2, a3, a4, a6 = (FieldElement(ctx, c) for c in quint)
    return WeierstrassCurve(a1, a2, a3, a4, a6)


def _realization_table(pp: PrimePower) -> dict[int, tuple]:
    """trace -> first realizing curve, computed by one exhaustive family sweep.

    A translated base is shared by the q curves of one a2 that differ in a4,
    so its counter and every count it gives are memoized; an untranslated
    family is counted once per a6, where a memo would only cost lookups.
    """
    key = (pp.p, pp.b)
    table = _REALIZATION_CACHE.get(key)
    if table is None:
        ctx = make_field_context(pp.p, pp.b)

        @functools.cache
        def translated(base):
            return functools.cache(_affine_counter(ctx, *base))

        table = {}
        for prefix, base, a6_pairs in _families(ctx):
            count = _affine_counter(ctx, *prefix) if base is None else translated(base)
            for a6, base_a6 in a6_pairs:
                table.setdefault(ctx.q - count(base_a6), prefix + (a6,))
        _REALIZATION_CACHE[key] = table
    return table


def _families(ctx: FieldContext):
    """Each (a1, a2, a3, a4) of the realization families, in order, with the
    base (a1, a2, a3, a4) it is counted on (None: itself) and its nonsingular
    a6 values in order, each paired with the a6 at which to count the base.

    For p = 3 and a2 != 0, x -> x + r with r = a4 / a2 (= -a4 / (2 a2))
    clears the x term: (a2, a4, a6) becomes (a2, 0, a6 + s), with
    s = r^3 + a2 r^2 + a4 r, and (x, y) -> (x - r, y) matches up the points.
    So the base is (0, a2, 0, 0), and each curve is counted there at a6 + s.

    The discriminant reduces per family: 4A^3 + 27B^2 up to a unit for
    p > 3; for p = 3, -a4^3 when a2 = 0 and -a2^3 (a6 + s) otherwise; a6
    for the ordinary and a3^4 for the supersingular family of p = 2 (each
    checked against the generic formula in the test suite).  Ordinary
    traces are odd and supersingular ones even, so the first-curve table
    never has to arbitrate between the two families of p = 2.
    """
    elems = ctx.element_tuples()
    zero, one = ctx.zero_t, ctx.one_t
    add, mul, smul = ctx.add_t, ctx.mul_t, ctx.smul_t
    if ctx.p > 3:
        b_terms = [smul(27, mul(b, b)) for b in elems]
        for a in elems:
            a_term = smul(4, mul(a, mul(a, a)))
            yield (zero, zero, zero, a), None, [(b, b) for b, t in zip(elems, b_terms)
                                                if any(add(a_term, t))]
    elif ctx.p == 3:
        for a4 in elems[1:]:
            yield (zero, zero, zero, a4), None, [(a6, a6) for a6 in elems]
        for a2 in elems[1:]:
            base = (zero, a2, zero, zero)
            inv_a2 = ctx.inv_t(a2)
            for a4 in elems:
                r = mul(a4, inv_a2)
                s = mul(add(mul(add(r, a2), r), a4), r)
                yield (zero, a2, zero, a4), base, [(a6, t) for a6 in elems if any(t := add(a6, s))]
    else:
        for a2 in elems:
            yield (one, a2, zero, zero), None, [(a6, a6) for a6 in elems[1:]]
        for a3 in elems[1:]:
            for a4 in elems:
                yield (zero, zero, a3, a4), None, [(a6, a6) for a6 in elems]


def base_change_count(curve: WeierstrassCurve, n: int, *,
                      limit: int = DEFAULT_COUNT_LIMIT) -> int:
    """Exhaustive point count of the curve over GF(q^n).

    Builds GF(q^n) explicitly, maps the coefficients through the canonical
    field embedding, and counts.  This is the independent oracle for the
    trace recurrence; it never consults it.  A limit above the field-size
    guard (2^20) is refused before anything is built.
    """
    ctx = curve.ctx
    if n < 1:
        raise DomainError(f"extension degree must be >= 1, got {n}")
    if limit > DEFAULT_FIELD_SIZE_LIMIT:
        raise ResourceLimitError(
            f"count limit {limit} exceeds the field-size guard of {DEFAULT_FIELD_SIZE_LIMIT}")
    if n >= limit.bit_length() or ctx.q ** n > limit:  # q >= 2: refuse before q**n
        raise ResourceLimitError(
            f"extension field size {ctx.q}^{n} exceeds the count guard of {limit}")
    big = make_field_context(ctx.p, ctx.b * n)
    embedding = embed_field(ctx, big)
    quint = tuple(embedding.map_tuple(c) for c in curve.coefficient_tuples())
    return _count_curve(big, quint)
