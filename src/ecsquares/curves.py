"""Weierstrass curves over small finite fields: the brute-force counting oracle.

Counting is exhaustive and one routine serves every characteristic: for
every x the number of y solving the curve equation is read from a histogram
of the y-side values, built once per field from the group structure (the
squares are the even powers of g; y^2 + y is additive, kernel {0, 1}).  In odd
characteristic the square is completed first, so the lookup is at
f(x) = x^3 + a2 x^2 + a4 x + a6; in characteristic 2 it is at f(x) / L(x)^2
with L = a1 x + a3, and an x with L(x) = 0 gives one point.  The loop over x
runs on the field's log and Zech tables: Horner's rule gives log L(x) and
log(x^2 + a2 x + a4), and one last pass multiplies by x, adds a6, divides by
L(x)^2 and reads the histogram.  No point-counting theory beyond the
defining equation is used, which is the point: these counts independently
validate the trace recurrence.  A base-changed curve has its coefficients
in GF(q) inside GF(q^n), so x -> x^q maps the points above x one-to-one
onto those above x^q (Silverman, *The Arithmetic of Elliptic Curves*,
ch. V): the x-side runs on the proper subfields of GF(q^n) once and on one
x of every other orbit of that map n times, about q^n / n x.  The log/Zech
tables still cover all of GF(q^n).

Trace realization sweeps reduced families covering every isomorphism class,
one row (a1, a2, a3, a4) at a time, and takes the row's counts at every a6
from one transform of its x-side, not from q counts (``_row_counts``): a
big-int correlation over the additive group in odd characteristic, trace
character sums in characteristic 2 (the ordinary family's are Kloosterman
sums: Lachaud and Wolfmann, IEEE Trans. Inform. Theory 36, 1990).

* p > 3:  y^2 = x^3 + A x + B              rows A
* p = 3:  y^2 = x^3 + a4 x + a6            rows a4 != 0, then
          y^2 = x^3 + a2 x^2 + a6          rows a2 != 0, a6 != 0
* p = 2:  y^2 + x y = x^3 + a2 x^2 + a6    rows a2, a6 != 0 (ordinary), then
          y^2 + a3 y = x^3 + a4 x + a6     rows (a3, a4) (supersingular)

An admissible change of variables maps points one-to-one, so rows it joins
count the same multiset, and only the first row of each class is swept.
x -> u^2 x scales A and a4 by u^4, a2 by u^2 and a3 by u^3 (class key: log
mod gcd(n, q - 1) for u^n, zero apart); for p = 3, x -> x + a4 / a2 takes
row (a2, a4) to (a2, 0); for p = 2, y -> y + s x moves a2 by s^2 + s, and
x -> x + s^2 moves a4 by s^4 + a3 s (key: the coset of that image).  So a
field costs at most 8 rows, each a few passes over q x and one big-int
product of at most (2p - 1)^b slots.
The short form is singular for every coefficient choice in characteristic
2, so the split families there are mandatory, not an optimization.
"""

from __future__ import annotations

import functools
import math
import struct
from collections import Counter
from dataclasses import dataclass

from .errors import DomainError, ResourceLimitError
from .finitefield import (
    DEFAULT_FIELD_SIZE_LIMIT,
    FieldContext,
    embed_field,
    make_field_context,
    render_coeffs,
)
from .traces import PrimePower, _checked_q

DEFAULT_COUNT_LIMIT = 1 << 16
REALIZATION_Q_LIMIT = 1024  # realize_trace: at most 8 rows, a transform each (module docstring)


@dataclass(frozen=True)
class WeierstrassCurve:
    """y^2 + a1 x y + a3 y = x^3 + a2 x^2 + a4 x + a6 over the field ctx, each
    coefficient a tuple of ctx.b digits in range(p), lowest degree first."""

    ctx: FieldContext
    a1: tuple[int, ...]
    a2: tuple[int, ...]
    a3: tuple[int, ...]
    a4: tuple[int, ...]
    a6: tuple[int, ...]

    def __post_init__(self):
        ctx, digits = self.ctx, range(self.ctx.p)
        for c in self.coefficient_tuples():
            if not (isinstance(c, tuple) and len(c) == ctx.b and all(d in digits for d in c)):
                raise DomainError(f"curve coefficient {c!r} is not an element of {ctx!r}")

    def coefficient_tuples(self):
        return (self.a1, self.a2, self.a3, self.a4, self.a6)

    def __str__(self) -> str:
        ctx = self.ctx
        coeffs = ",".join(map(render_coeffs, self.coefficient_tuples()))
        return (f"[{coeffs}] over GF({ctx.p}^{ctx.b})"
                f" mod {render_coeffs(ctx.modulus)}")


def short_weierstrass(ctx: FieldContext, A, B) -> WeierstrassCurve:
    """y^2 = x^3 + A x + B, for A and B ints (constants, reduced mod p) or
    coefficient sequences."""
    A, B = (ctx.smul_t(c, ctx.one_t) if isinstance(c, int) else tuple(c) for c in (A, B))
    zero = ctx.zero_t
    return WeierstrassCurve(ctx, zero, zero, zero, A, B)


def discriminant(curve: WeierstrassCurve) -> tuple[int, ...]:
    """The discriminant as a coefficient tuple; the curve is elliptic exactly
    when it is nonzero."""
    return _discriminant_t(curve.ctx, curve.coefficient_tuples())


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


def count_points_naive(curve: WeierstrassCurve) -> int:
    """Exhaustive point count N, with infinity, of a nonsingular curve: trace q + 1 - N."""
    if not any(discriminant(curve)):
        raise DomainError(f"singular curve {curve}")
    return _count_curve(curve.ctx, 1, curve.coefficient_tuples())


def _count_curve(ctx: FieldContext, n: int, quint) -> int:
    """Total points (with infinity) of y^2 + L(x) y = x^3 + a2 x^2 + a4 x + a6,
    L = a1 x + a3, a curve with coefficients in the subfield of which ctx is
    a degree-n extension; x runs on ``frobenius_orbits(n)`` (module docstring).

    In odd characteristic the square is completed first, which leaves L = 1
    and the y-side y^2.  In characteristic 2, y = L z turns the y-side into
    L^2 (z^2 + z), and an x with L(x) = 0 has exactly one point because
    squaring is a bijection.  Either way an x with L(x) != 0 has as many
    points as the y-side histogram holds at f(x) / L(x)^2.  Everything runs
    in the log domain: ``poly_logs`` finds log L(x) and log u(x), u the
    quotient of x^2 + a2 x + a4 by the highest power x^(e - 1) dividing it;
    one last pass per x multiplies u by x^e, adds a6 by a Zech step, takes
    off 2 log L(x) and reads the histogram.
    """
    a1, a2, a3, a4, a6 = quint
    hist = ctx.artin_schreier_counter() if ctx.p == 2 else ctx.square_counter()
    _, log, zech = ctx.log_tables()
    m = ctx.q - 1
    if ctx.p != 2:
        # Complete the square: y -> y - (a1 x + a3)/2 leaves y^2 on the left
        # and adds (a1 x + a3)^2 / 4 on the right.
        add, mul, smul = ctx.add_t, ctx.mul_t, ctx.smul_t
        inv2 = pow(2, -1, ctx.p)
        inv4 = inv2 * inv2
        a2 = add(a2, smul(inv4, mul(a1, a1)))
        a4 = add(a4, smul(inv2, mul(a1, a3)))
        a6 = add(a6, smul(inv4, mul(a3, a3)))
        a1, a3 = ctx.zero_t, ctx.one_t
    c = log[ctx.index_of(a6)]
    u_coeffs, e = [ctx.one_t, a2, a4], 1
    while not any(u_coeffs[-1]):
        u_coeffs.pop()
        e += 1
    total = 1
    for weight, positions in ctx.frobenius_orbits(n):
        us = ctx.poly_logs(u_coeffs, positions)
        ls = ctx.poly_logs([a1, a3], positions)
        # x^e u(x) + a6 is a6 where u or x is zero, else one Zech step from it.
        if c == m:
            points = [1 if l == m else hist[m if u == m or k == m else (u + e * k - 2 * l) % m]
                      for k, u, l in zip(positions, us, ls)]
        else:
            points = [1 if l == m else hist[(c - 2 * l) % m if u == m or k == m
                                            else m if (w := zech[(u + e * k - c) % m]) == m
                                            else (c + w - 2 * l) % m]
                      for k, u, l in zip(positions, us, ls)]
        total += weight * sum(points)
    return total


# -- trace realization --------------------------------------------------------

_REALIZATION_CACHE: dict[tuple[int, int], dict[int, tuple]] = {}


def realize_trace(q: "int | PrimePower", a: int) -> WeierstrassCurve | None:
    """First curve (in the family enumeration order) with trace a, or None.

    None means that no class of any family has the trace.  q above the
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
    return WeierstrassCurve(make_field_context(pp.p, pp.b), *quint)


def _realization_table(pp: PrimePower) -> dict[int, tuple]:
    """trace -> first realizing curve, from one sweep of the class-first rows.

    A skipped row maps one-to-one onto an earlier row's curves, so it adds no
    trace, and every first curve is that of the full family enumeration.  A
    singular cubic has q, q + 1 or q + 2 points (its nonsingular points form
    G_m, G_a or a norm-one torus: Washington, *Elliptic Curves*, 2.10), so
    only a curve that would first set trace 1, 0 or -1 reads the discriminant.
    """
    key = (pp.p, pp.b)
    table = _REALIZATION_CACHE.get(key)
    if table is None:
        ctx = make_field_context(pp.p, pp.b)
        table = {}
        for row in _families(ctx):
            for count, a6 in zip(_row_counts(ctx, row), ctx.element_tuples()):
                a = ctx.q - count
                if a not in table and (a * a > 1 or any(_discriminant_t(ctx, row + (a6,)))):
                    table[a] = row + (a6,)
        _REALIZATION_CACHE[key] = table
    return table


def _row_counts(ctx: FieldContext, row) -> list[int]:
    """Affine points of the curve row + (a6,) at every a6, by the index of a6,
    from one transform of the row's x-side (module docstring).

    The row is one that ``_families`` yields: a1 = a3 = 0 in odd
    characteristic, (1, a2, 0, 0) or (0, 0, a3, a4) in characteristic 2.
    """
    a1, a2, a3, a4 = row
    q, m, p = ctx.q, ctx.q - 1, ctx.p
    exp, log, _ = ctx.log_tables()
    if p != 2:
        # The count at a6 is the sum over v of cnt[v] Y[v + a6], cnt the
        # histogram of f = x^3 + a2 x^2 + a4 x and Y that of y^2, both by
        # element.  Base-p index digit j goes to base-(2p - 1) place j, so
        # the product of cnt at -v and Y at w holds cnt[v] Y[w] at digits
        # up to 2p - 2, which fold mod p onto the index of w - v.
        base, b = 2 * p - 1, ctx.b
        size = base ** b
        place, neg = [0], [0]
        for j in range(b):
            place = [f + d * base ** j for d in range(p) for f in place]
            neg = [f + -d % p * base ** j for d in range(p) for f in neg]
        xs, ys = bytearray(4 * size), bytearray(4 * size)
        for u, c in Counter(ctx.poly_logs([ctx.one_t, a2, a4, ctx.zero_t])).items():
            xs[4 * neg[0 if u == m else exp[u]]] = c
        for k in range(0, m, 2):
            ys[4 * place[exp[k]]] = 2
        ys[0] = 1  # zero, at place 0, has one root
        product = int.from_bytes(xs, "little") * int.from_bytes(ys, "little")
        slots = struct.unpack(f"<{size}I", product.to_bytes(4 * size, "little"))
        for _ in range(b):
            # Fold the lowest place mod p; its digit becomes the highest.
            slots = [t for d in range(p)
                     for t in (map(int.__add__, slots[d::base], slots[d + p::base])
                               if d < p - 1 else slots[d::base])]
        return slots
    hist = ctx.artin_schreier_counter()
    if any(a1):
        # y = x z: an x != 0 has 1 + (-1)^Tr(x + a2 + a6 / x^2) points, and
        # x = 0 one.  With s_k = Tr(g^k), a6 = g^c and h = 1/2 mod m,
        # Tr(a6 / x^2) = s_(hc - k), so the sum of (-1)^Tr(x + a6 / x^2) over
        # x = g^k is m - 4|s| + 4 conv[hc], conv the cyclic self-convolution
        # of s; at a6 = 0 it is m - 2|s|.
        s = hist[:m].translate(bytes.maketrans(b"\x00\x02", b"\x01\x00"))
        packed = bytearray(2 * m)
        packed[::2] = s
        square = struct.unpack(f"<{2 * m}H",
                               (int.from_bytes(packed, "little") ** 2).to_bytes(4 * m, "little"))
        conv = list(map(int.__add__, square[:m], square[m:]))
        ones, h = s.count(1), (m + 1) // 2
        sums = [m - 4 * ones + 4 * conv[c * h % m] for c in range(m)] + [m - 2 * ones]
        sign = hist[log[ctx.index_of(a2)]] - 1
        return [q + sign * sums[c] for c in log]
    # y = a3 z: z^2 + z = f(x) / a3^2 + a6 / a3^2, f = x^3 + a4 x, so the
    # count is q + (-1)^Tr(a6 / a3^2) T, T the sum of (-1)^Tr(f(x) / a3^2).
    shift = 2 * log[ctx.index_of(a3)]
    signs = [hist[m if u == m else (u - shift) % m] - 1 for u in log]
    fs = ctx.poly_logs([ctx.one_t, ctx.zero_t, a4, ctx.zero_t])
    total = sum(signs[0 if u == m else exp[u]] for u in fs)
    return [q + sign * total for sign in signs]


def _firsts(indices, key):
    """The indices whose key no earlier index had, in order."""
    first = {}
    for i in indices:
        first.setdefault(key(i), i)
    return list(first.values())


def _xor_down(x: int, e: int) -> int:
    """x with e added when that clears e's leading bit."""
    return min(x, x ^ e)


def _families(ctx: FieldContext):
    """(a1, a2, a3, a4), in order, the first row of each isomorphism class of
    the realization families, keyed on element indices.  Ordinary traces are
    odd and supersingular ones even, so the first-curve table never has to
    arbitrate between the two families of p = 2.
    """
    elems = ctx.element_tuples()
    zero, one = ctx.zero_t, ctx.one_t
    exp, log, _ = ctx.log_tables()
    q, m = ctx.q, ctx.q - 1

    def power_class(n):
        # c ~ u^n c: the class is log c mod gcd(n, q - 1), zero apart.
        d = math.gcd(n, m)
        return lambda i: log[i] % d if i else -1

    if ctx.p > 3:
        for i in _firsts(range(q), power_class(4)):
            yield zero, zero, zero, elems[i]
    elif ctx.p == 3:
        for i in _firsts(range(1, q), power_class(4)):
            yield zero, zero, zero, elems[i]
        for i in _firsts(range(1, q), power_class(2)):
            yield zero, elems[i], zero, zero
    else:
        hist = ctx.artin_schreier_counter()
        for i in _firsts(range(q), lambda i: hist[log[i]] > 0):
            yield one, elems[i], zero, zero
        for i3 in _firsts(range(1, q), power_class(3)):
            # Indices add by XOR in characteristic 2, so the image is a
            # subspace of them, and reducing by a basis with distinct leading
            # bits, highest first, gives the least index of a coset.
            a3, basis = elems[i3], []
            for k in ctx.poly_logs([one, zero, zero, a3, zero]):
                v = functools.reduce(_xor_down, basis, 0 if k == m else exp[k])
                if v:
                    basis = sorted(basis + [v], reverse=True)
            for i in _firsts(range(q), lambda i: functools.reduce(_xor_down, basis, i)):
                yield zero, zero, a3, elems[i]


def check_count_limit(limit: int) -> None:
    """Refuse a count limit above the field-size guard (2^20)."""
    if limit > DEFAULT_FIELD_SIZE_LIMIT:
        raise ResourceLimitError(
            f"count limit {limit} exceeds the field-size guard of {DEFAULT_FIELD_SIZE_LIMIT}")


def base_change_count(curve: WeierstrassCurve, n: int, *,
                      limit: int = DEFAULT_COUNT_LIMIT) -> int:
    """Exhaustive point count of the curve over GF(q^n).

    Builds GF(q^n) explicitly, maps the coefficients through the canonical
    field embedding, and counts the proper subfields' x once and one x per
    other orbit of x -> x^q n times.  This is the independent oracle for the
    trace recurrence; it consults neither the recurrence nor any trace or zeta
    function.  A limit above the field-size guard (2^20) is refused before
    anything is built.
    """
    ctx = curve.ctx
    if n < 1:
        raise DomainError(f"extension degree must be >= 1, got {n}")
    check_count_limit(limit)
    if n >= limit.bit_length() or ctx.q ** n > limit:  # q >= 2: refuse before q**n
        raise ResourceLimitError(
            f"extension field size {ctx.q}^{n} exceeds the count guard of {limit}")
    big = make_field_context(ctx.p, ctx.b * n)
    embedding = embed_field(ctx, big)
    quint = tuple(embedding.map_tuple(c) for c in curve.coefficient_tuples())
    return _count_curve(big, n, quint)
