"""Shared independent reference implementations used as test oracles.

These deliberately avoid the library's optimized paths: counting is a plain
double loop over (x, y) on coefficient tuples, multiplication is schoolbook
convolution, the exp table is repeated schoolbook multiplication by g and
irreducibility is trial division over Z_p[x].  So they can
catch errors in ``mul_t``, in the exp, log and Zech tables, in the
log-domain evaluator ``poly_logs`` and the counting loop, modulus search
and embeddings that run on it.
"""

from __future__ import annotations

from collections.abc import Sequence


def reference_mul(ctx, u, v):
    """Schoolbook polynomial product reduced by the context modulus."""
    p, b = ctx.p, ctx.b
    conv = [0] * (2 * b - 1)
    for i, a in enumerate(u):
        if a:
            for j, c in enumerate(v):
                conv[i + j] += a * c
    for j in range(2 * b - 2, b - 1, -1):
        c = conv[j] % p
        if c:
            for i in range(b):
                conv[j - b + i] -= c * ctx.modulus[i]
    return tuple(c % p for c in conv[:b])


def reference_exp(ctx):
    """Enumeration positions of g^0, ..., g^(q-2) by repeated ``reference_mul``.

    g is the first element, in enumeration order, whose powers reach all
    q - 1 nonzero elements before returning to one.
    """
    tuples = ctx.element_tuples()
    position = {u: i for i, u in enumerate(tuples)}
    for g in tuples[1:]:
        exp, u = [], ctx.one_t
        while True:
            exp.append(position[u])
            u = reference_mul(ctx, u, g)
            if u == ctx.one_t:
                break
        if len(exp) == ctx.q - 1:
            return exp
    raise AssertionError(f"{ctx!r} has no primitive element")


def reference_count(ctx, quint):
    """Points including infinity, by evaluating the equation at every (x, y)."""
    a1, a2, a3, a4, a6 = quint
    mul, add = reference_mul, ctx.add_t
    total = 1
    for x in ctx.element_tuples():
        x2 = mul(ctx, x, x)
        x3 = mul(ctx, x2, x)
        rhs = add(add(x3, mul(ctx, a2, x2)), add(mul(ctx, a4, x), a6))
        a1x = mul(ctx, a1, x)
        for y in ctx.element_tuples():
            lhs = add(mul(ctx, y, y), add(mul(ctx, a1x, y), mul(ctx, a3, y)))
            if lhs == rhs:
                total += 1
    return total


def _poly_trim(coeffs: list[int]) -> list[int]:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _poly_divmod(num: Sequence[int], den: Sequence[int], p: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of dense polynomials over Z_p (lowest degree first)."""
    num = list(num)
    dd = len(den) - 1
    lead_inv = pow(den[-1], -1, p)
    quo = [0] * max(0, len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = (num[i] * lead_inv) % p
        if c:
            quo[i - dd] = c
            for j in range(dd + 1):
                num[i - dd + j] = (num[i - dd + j] - c * den[j]) % p
    return quo, _poly_trim(num)
