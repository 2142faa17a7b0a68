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
* p = 3:  y^2 = x^3 + a2 x^2 + a4 x + a6   over (a2, a4, a6) in lex order
* p = 2:  y^2 + x y = x^3 + a2 x^2 + a6    (ordinary, (a2, a6) lex), then
          y^2 + a3 y = x^3 + a4 x + a6     (supersingular, (a3, a4, a6) lex)

The short form is singular for every coefficient choice in characteristic 2,
so the split families there are mandatory, not an optimization.
"""

from __future__ import annotations

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
from .traces import PrimePower, as_prime_power

DEFAULT_COUNT_LIMIT = 1 << 16


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
    in the log domain: log(x^3 + a2 x^2 + a4 x) and log(1 / L(x)^2) are
    found once per x, after which each a6 costs one Zech addition per x.
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

    def log_of(u):
        return log[ctx.index_of(u)]

    # Lists of logs run over x = g^k at position k < m, then x = 0 at m.
    # zech has length m, so zech[u - c] for 0 <= u, c < m reads zech[(u - c) % m].
    def plus(logs, c):
        """log(u + g^c) for each log u."""
        if c == m:
            return list(logs)
        return [c if u == m else m if (w := zech[u - c]) == m else (c + w) % m
                for u in logs]

    def times_x(logs):
        return [m if u == m or k == m else (u + k) % m for k, u in enumerate(logs)]

    cubic = times_x(plus(times_x(plus(range(q), log_of(a2))), log_of(a4)))
    lines = plus(times_x([log_of(a1)] * q), log_of(a3))
    points = [(u, -2 * l % m) for u, l in zip(cubic, lines) if l != m]
    vertical = q - len(points)

    def count(a6) -> int:
        c = log_of(add(a6, a6_shift))
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
    criterion happens exactly for inadmissible traces.
    """
    pp = as_prime_power(q)
    if a * a > 4 * pp.q:
        raise DomainError(f"trace {a} violates the Hasse bound for q = {pp.q}")
    table = _realization_table(pp)
    quint = table.get(a)
    if quint is None:
        return None
    ctx = make_field_context(pp.p, pp.b)
    a1, a2, a3, a4, a6 = (FieldElement(ctx, c) for c in quint)
    return WeierstrassCurve(a1, a2, a3, a4, a6)


def _realization_table(pp: PrimePower) -> dict[int, tuple]:
    """trace -> first realizing curve, computed by one exhaustive family sweep."""
    key = (pp.p, pp.b)
    table = _REALIZATION_CACHE.get(key)
    if table is None:
        ctx = make_field_context(pp.p, pp.b)
        table = {}
        for prefix, a6_values in _families(ctx):
            count = _affine_counter(ctx, *prefix)
            for a6 in a6_values:
                table.setdefault(ctx.q - count(a6), prefix + (a6,))
        _REALIZATION_CACHE[key] = table
    return table


def _families(ctx: FieldContext):
    """Each (a1, a2, a3, a4) of the realization families, in order, with its
    nonsingular a6 values in order.

    The discriminant reduces per family: 4A^3 + 27B^2 up to a unit for
    p > 3, a2^2 a4^2 - a4^3 - a2^3 a6 for p = 3, a6 for the ordinary and
    a3^4 for the supersingular family of p = 2 (each checked against the
    generic formula in the test suite).  Ordinary traces are odd and
    supersingular ones even, so the first-curve table never has to arbitrate
    between the two families of p = 2.
    """
    elems = ctx.element_tuples()
    zero, one = ctx.zero_t, ctx.one_t
    add, sub, mul, smul = ctx.add_t, ctx.sub_t, ctx.mul_t, ctx.smul_t
    if ctx.p > 3:
        b_terms = [smul(27, mul(b, b)) for b in elems]
        for a in elems:
            a_term = smul(4, mul(a, mul(a, a)))
            yield (zero, zero, zero, a), [b for b, t in zip(elems, b_terms) if any(add(a_term, t))]
    elif ctx.p == 3:
        for a2 in elems:
            a2_sq = mul(a2, a2)
            a6_terms = [mul(mul(a2_sq, a2), a6) for a6 in elems]
            for a4 in elems:
                const = sub(mul(a2_sq, mul(a4, a4)), mul(a4, mul(a4, a4)))
                yield (zero, a2, zero, a4), [a6 for a6, t in zip(elems, a6_terms)
                                             if any(sub(const, t))]
    else:
        for a2 in elems:
            yield (one, a2, zero, zero), elems[1:]
        for a3 in elems[1:]:
            for a4 in elems:
                yield (zero, zero, a3, a4), elems


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
    if ctx.q ** n > limit:
        raise ResourceLimitError(
            f"extension field size {ctx.q}^{n} exceeds the count guard of {limit}")
    big = make_field_context(ctx.p, ctx.b * n)
    embedding = embed_field(ctx, big)
    quint = tuple(embedding.map_tuple(c) for c in curve.coefficient_tuples())
    return _count_curve(big, quint)
