"""Weierstrass curves over small finite fields: the brute-force counting oracle.

Counting is exhaustive: for every x the number of y solving the curve
equation is found by table lookup against a precomputed multiset of the
y-side values (a reorganized but still element-by-element enumeration, exact
for every characteristic).  No point-counting theory beyond the defining
equation is used, which is the point: these counts independently validate
the trace recurrence.

Trace realization enumerates reduced curve families that cover every
isomorphism class in each characteristic:

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
    """Total points (with infinity) of y^2 + a1 x y + a3 y = x^3 + a2 x^2 + a4 x + a6.

    Exhaustive per-element evaluation: a multiset of the y-side values is
    built once, then each x contributes the multiplicity of its cubic value.
    In characteristic 2 the substitution y = L z with L = a1 x + a3 reduces
    the y-side to the fixed map z^2 + z (and L = 0 leaves the bijective
    squaring map, giving exactly one y).
    """
    a1, a2, a3, a4, a6 = quint
    elems = ctx.element_tuples()
    cubes = ctx.cube_table()
    squares = ctx.square_table()
    add, mul, smul = ctx.add_t, ctx.mul_t, ctx.smul_t
    has_a2, has_a4 = any(a2), any(a4)

    def fx(i: int) -> tuple[int, ...]:
        v = cubes[i]
        if has_a2:
            v = add(v, mul(a2, squares[i]))
        if has_a4:
            v = add(v, mul(a4, elems[i]))
        return add(v, a6)

    affine = 0
    if ctx.p != 2:
        counter = ctx.square_counter()
        inv4 = pow(4, -1, ctx.p)
        if any(a1) or any(a3):
            # Complete the square: y -> y - L/2 turns the y-side into y^2
            # and shifts the cubic by L^2/4.
            for i in range(ctx.q):
                line = add(mul(a1, elems[i]), a3) if any(a1) else a3
                shifted = add(fx(i), smul(inv4, mul(line, line)))
                affine += counter.get(shifted, 0)
        else:
            for i in range(ctx.q):
                affine += counter.get(fx(i), 0)
    else:
        counter = ctx.artin_schreier_counter()
        if not any(a1):
            if not any(a3):
                affine = ctx.q  # y^2 = f(x): squaring is a bijection
            else:
                inv_l = ctx.inv_t(a3)
                inv_l2 = mul(inv_l, inv_l)
                for i in range(ctx.q):
                    affine += counter.get(mul(fx(i), inv_l2), 0)
        elif a1 == ctx.one_t and not any(a3):
            inv_squares = ctx.inverse_square_table()
            affine = 1  # x = 0: y^2 = a6 has exactly one solution
            for i in range(1, ctx.q):
                affine += counter.get(mul(fx(i), inv_squares[elems[i]]), 0)
        else:
            for i in range(ctx.q):
                line = add(mul(a1, elems[i]), a3)
                if not any(line):
                    affine += 1
                else:
                    inv_l = ctx.inv_t(line)
                    affine += counter.get(mul(fx(i), mul(inv_l, inv_l)), 0)
    return affine + 1


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
        if pp.p > 3:
            table = _sweep_short(ctx)
        elif pp.p == 3:
            table = _sweep_char3(ctx)
        else:
            table = _sweep_char2(ctx)
        _REALIZATION_CACHE[key] = table
    return table


def _sweep_short(ctx: FieldContext) -> dict[int, tuple]:
    """y^2 = x^3 + A x + B, (A, B) lex; singular iff 4A^3 + 27B^2 = 0."""
    elems = ctx.element_tuples()
    cubes = ctx.cube_table()
    squares = ctx.square_table()
    counter = ctx.square_counter()
    add, mul, smul = ctx.add_t, ctx.mul_t, ctx.smul_t
    zero = ctx.zero_t
    q = ctx.q
    first: dict[int, tuple] = {}
    for ia, A in enumerate(elems):
        four_a3 = smul(4, cubes[ia]) if any(A) else None
        base = [add(cubes[i], mul(A, elems[i])) for i in range(q)] if any(A) else cubes
        for ib, B in enumerate(elems):
            sing = smul(27, squares[ib])
            if four_a3 is not None:
                sing = add(sing, four_a3)
            if not any(sing):
                continue
            affine = 0
            for v in base:
                affine += counter.get(add(v, B), 0)
            first.setdefault(q - affine, (zero, zero, zero, A, B))
    return first


def _sweep_char3(ctx: FieldContext) -> dict[int, tuple]:
    """y^2 = x^3 + a2 x^2 + a4 x + a6, (a2, a4, a6) lex.

    Here the discriminant reduces to a2^2 a4^2 - a4^3 - a2^3 a6 (checked
    against the generic formula in the test suite).
    """
    elems = ctx.element_tuples()
    cubes = ctx.cube_table()
    squares = ctx.square_table()
    counter = ctx.square_counter()
    add, sub, mul = ctx.add_t, ctx.sub_t, ctx.mul_t
    zero = ctx.zero_t
    q = ctx.q
    first: dict[int, tuple] = {}
    for i2, a2 in enumerate(elems):
        a2_sq = squares[i2]
        a2_cb = cubes[i2]
        for i4, a4 in enumerate(elems):
            disc_const = sub(mul(a2_sq, squares[i4]), cubes[i4])
            base = cubes
            if any(a2):
                base = [add(base[i], mul(a2, squares[i])) for i in range(q)]
            if any(a4):
                base = [add(base[i], mul(a4, elems[i])) for i in range(q)]
            for a6 in elems:
                if not any(sub(disc_const, mul(a2_cb, a6))):
                    continue
                affine = 0
                for v in base:
                    affine += counter.get(add(v, a6), 0)
                first.setdefault(q - affine, (zero, a2, zero, a4, a6))
    return first


def _sweep_char2(ctx: FieldContext) -> dict[int, tuple]:
    """Ordinary family first, then supersingular; disjoint trace parities."""
    elems = ctx.element_tuples()
    cubes = ctx.cube_table()
    squares = ctx.square_table()
    counter = ctx.artin_schreier_counter()
    inv_squares = ctx.inverse_square_table()
    add, mul = ctx.add_t, ctx.mul_t
    zero, one = ctx.zero_t, ctx.one_t
    q = ctx.q

    # Ordinary: y^2 + x y = x^3 + a2 x^2 + a6, nonsingular iff a6 != 0.
    # For x != 0 substitute y = x z: z^2 + z = x + a2 + a6 / x^2; x = 0
    # contributes the single solution of y^2 = a6.  The a6 loop is hoisted
    # outside the a2 loop to reuse a6/x^2; the lex-first (a2, a6) per trace
    # is recovered by index comparison.
    best: dict[int, tuple[tuple[int, int], tuple]] = {}
    nonzero = elems[1:]
    for i6, a6 in enumerate(elems):
        if not any(a6):
            continue
        shifted = [add(x, mul(a6, inv_squares[x])) for x in nonzero]
        for i2, a2 in enumerate(elems):
            affine = 1
            for v in shifted:
                affine += counter.get(add(v, a2), 0)
            trace = q - affine
            rank = (i2, i6)
            prev = best.get(trace)
            if prev is None or rank < prev[0]:
                best[trace] = (rank, (one, a2, zero, zero, a6))
    first = {trace: quint for trace, (_, quint) in best.items()}

    # Supersingular: y^2 + a3 y = x^3 + a4 x + a6, nonsingular iff a3 != 0.
    # Ordinary traces are odd and supersingular traces even, so setdefault
    # never has to arbitrate between the families.
    for a3 in elems:
        if not any(a3):
            continue
        y_side: dict[tuple, int] = {}
        for iy in range(q):
            v = add(squares[iy], mul(a3, elems[iy]))
            y_side[v] = y_side.get(v, 0) + 1
        for a4 in elems:
            base = [add(cubes[i], mul(a4, elems[i])) for i in range(q)] if any(a4) else cubes
            for a6 in elems:
                affine = 0
                for v in base:
                    affine += y_side.get(add(v, a6), 0)
                first.setdefault(q - affine, (zero, zero, a3, a4, a6))
    return first


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
