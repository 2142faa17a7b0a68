"""Independent reference arithmetic for the benchmark's output checks.

Nothing here imports ``ecsquares``: the checks must not trust the code they
measure.  The exact evaluator is Lucas doubling on V_n(a, q),

    V_0 = 2,  V_1 = a,
    V_2k   = V_k^2 - 2 q^k,
    V_2k+1 = V_k V_k+1 - a q^k,

which shares no loop with the program's three-term recurrence.  Square tests
use ``math.isqrt``.  Degeneracy is read off a^2 in {0, q, 2q, 3q, 4q}.

Scanning every n of a range by doubling would cost O(n log n) big products
per pair, so ``square_terms`` walks its own three-term recurrence and checks
the last term of every scan against ``trace_term``; any drift between the two
evaluators raises.
"""

from __future__ import annotations

import math

# a^2 / q -> order m of the eigenvalue ratio, for the degenerate pairs.
_DEGENERATE_ORDER = {4: 1, 0: 2, 1: 3, 2: 4, 3: 6}

# The seven squares of degenerate pairs at n not divisible by m (the paper's
# sporadic list), as (q, a, n, u).  These are solutions of u^2 = q^n + 1 and
# u^2 = p^x +- p^y + 1 for p in {2, 3}; no other exists for q < 50, n <= 1000.
SPORADIC_SQUARES = frozenset({
    (2, 2, 1, 1), (3, 3, 1, 1), (3, 0, 1, 2), (2, 0, 3, 3),
    (8, 0, 1, 3), (2, -2, 5, 5), (32, 8, 1, 5),
})


def prime_power(q: int) -> tuple[int, int] | None:
    """(p, b) with q = p^b and p prime, or None."""
    if q < 2:
        return None
    p = next(d for d in range(2, q + 1) if q % d == 0)
    b = 0
    while q % p == 0:
        q //= p
        b += 1
    return (p, b) if q == 1 else None


def hasse_bound(q: int) -> int:
    return math.isqrt(4 * q)


def admissible(q: int, a: int) -> bool:
    """Waterhouse's criterion: some elliptic curve over GF(q) has trace a."""
    p, b = prime_power(q)
    if a * a > 4 * q:
        return False
    if a % p:
        return True
    if b % 2 == 0:
        return (a * a == 4 * q
                or (a * a == q and p % 3 != 1)
                or (a == 0 and p % 4 != 1))
    return a == 0 or (p in (2, 3) and abs(a) == p ** ((b + 1) // 2))


def degenerate_order(q: int, a: int) -> int | None:
    """Order m of the eigenvalue ratio when it is a root of unity, else None."""
    ratio, rem = divmod(a * a, q)
    return None if rem else _DEGENERATE_ORDER.get(ratio)


def search_pairs(qmax: int, degenerate: bool) -> list[tuple[int, int]]:
    """Admissible (q, a) with q < qmax, degenerate or nondegenerate only."""
    pairs = []
    for q in range(2, qmax):
        if prime_power(q) is None:
            continue
        bound = hasse_bound(q)
        for a in range(-bound, bound + 1):
            if admissible(q, a) and (degenerate_order(q, a) is not None) == degenerate:
                pairs.append((q, a))
    return pairs


def trace_term(q: int, a: int, n: int) -> int:
    """a_n = V_n(a, q) by Lucas doubling over the bits of n."""
    vk, vk1, qk = 2, a, 1
    for bit in bin(n)[2:]:
        if bit == "1":
            vk, vk1, qk = vk * vk1 - a * qk, vk1 * vk1 - 2 * qk * q, qk * qk * q
        else:
            vk, vk1, qk = vk * vk - 2 * qk, vk * vk1 - a * qk, qk * qk
    return vk


def point_count(q: int, a: int, n: int) -> int:
    """#E(GF(q^n)) = q^n + 1 - a_n."""
    return q ** n + 1 - trace_term(q, a, n)


# A square is a quadratic residue modulo every m, so a residue outside these
# sets proves x is not a square; only the survivors reach math.isqrt.  The
# moduli differ from the program's own pre-filter on purpose.
_RESIDUE_MODULI = (128, 9, 25, 7, 13, 17, 19, 23, 29, 31, 37)
_RESIDUE_PRODUCT = math.prod(_RESIDUE_MODULI)
_SQUARE_RESIDUES = tuple((m, frozenset(i * i % m for i in range(m))) for m in _RESIDUE_MODULI)


def square_root(x: int) -> int | None:
    """u with u * u == x, or None when x is not a perfect square."""
    if x < 0:
        return None
    r = x % _RESIDUE_PRODUCT
    for m, residues in _SQUARE_RESIDUES:
        if r % m not in residues:
            return None
    u = math.isqrt(x)
    return u if u * u == x else None


def square_terms(q: int, a: int, nmax: int) -> dict[int, int]:
    """n -> u for every n <= nmax with q^n + 1 - a_n = u^2."""
    hits = {}
    prev, cur, q_n = 2, a, 1
    for n in range(1, nmax + 1):
        q_n *= q
        u = square_root(q_n + 1 - cur)
        if u is not None:
            hits[n] = u
        if n < nmax:
            prev, cur = cur, a * cur - q * prev
    if cur != trace_term(q, a, nmax):
        raise RuntimeError(f"reference evaluators disagree at ({q}, {a}, {nmax})")
    return hits
