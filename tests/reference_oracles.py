"""Shared independent reference implementations used as test oracles.

These deliberately avoid the library's optimized paths: counting is a plain
double loop over (x, y) on coefficient tuples and multiplication is
schoolbook convolution.  So they can catch errors in the packed big-integer
``mul_t``, in the exp, log and Zech tables built with it, and in the
log-domain counting loop that reads those tables.
"""

from __future__ import annotations


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
