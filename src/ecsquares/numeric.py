"""Exact arbitrary-precision integer primitives.

Everything here is pure integer arithmetic; no floating point is involved
anywhere, so the results stay exact for operands of thousands of bits.
"""

from __future__ import annotations

import math

from .errors import DomainError, ResourceLimitError

# Trial division is the only factoring strategy used here.  Candidate
# divisors are capped at 2^20, which decides any q whose least prime factor
# is below that, and any q below 2^40 outright; beyond the cap the structure
# is undecidable here and a ResourceLimitError is raised.
TRIAL_DIVISOR_CAP = 1 << 20


def isqrt(x: int) -> int:
    """Floor of the square root of x (``math.isqrt``), rejecting negative x.

    Returns r with r*r <= x < (r+1)*(r+1).
    """
    if x < 0:
        raise DomainError(f"isqrt of negative number {x}")
    return math.isqrt(x)


def _square_residue_table(m: int) -> bytes:
    flags = bytearray(m)
    for i in range(m):
        flags[(i * i) % m] = 1
    return bytes(flags)


# Residue pre-filter moduli 64*63*65*11; a square must be a quadratic residue
# modulo each factor, which rejects ~99% of non-squares with one big divmod.
_FILTER_MODULUS = 64 * 63 * 65 * 11
_FILTER_TABLES = tuple((m, _square_residue_table(m)) for m in (64, 63, 65, 11))


def perfect_square_root(x: int) -> int | None:
    """The integer u >= 0 with u*u == x, or None when x is not a perfect square."""
    if x < 0:
        return None
    r = x % _FILTER_MODULUS
    for m, table in _FILTER_TABLES:
        if not table[r % m]:
            return None
    u = isqrt(x)
    return u if u * u == x else None


def is_prime(n: int) -> bool:
    """Deterministic primality by trial division up to isqrt(n)."""
    if n < 2:
        return False
    p = _least_prime_factor(n)
    return p == n


def prime_power_decompose(q: int) -> tuple[int, int] | None:
    """Write q = p**b with p prime, or return None when q is not a prime power.

    The decomposition is unique when it exists.
    """
    if q < 2:
        raise DomainError(f"prime-power decomposition needs q >= 2, got {q}")
    p = _least_prime_factor(q)
    rest = q
    b = 0
    while rest % p == 0:
        rest //= p
        b += 1
    return (p, b) if rest == 1 else None


def _least_prime_factor(n: int) -> int:
    """Smallest prime factor of n (n itself when n is prime)."""
    if n % 2 == 0:
        return 2
    if n % 3 == 0:
        return 3
    d = 5
    while d * d <= n:
        if n % d == 0:
            return d
        if n % (d + 2) == 0:
            return d + 2
        d += 6
        if d > TRIAL_DIVISOR_CAP:
            raise ResourceLimitError(
                f"{n} has no prime factor below 2^20 and is too large "
                f"to factor by trial division")
    return n
