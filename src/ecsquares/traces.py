"""Frobenius-trace admissibility and degeneracy classification.

A pair (q, a) with |a| <= 2*sqrt(q) is *admissible* when some elliptic curve
over GF(q) has exactly q + 1 - a points; the exact criterion (Waterhouse) is
implemented in :func:`waterhouse_admissible`.  A pair is *degenerate* when the
ratio of the two Frobenius eigenvalues is a root of unity, which happens
exactly when a*a is one of 0, q, 2q, 3q, 4q; the order m of that root of
unity is then 2, 3, 4, 6 or 1 respectively.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError
from .numeric import is_prime, isqrt, prime_power_decompose


@dataclass(frozen=True)
class PrimePower:
    """A validated field size q = p**b with p prime."""

    p: int
    b: int
    q: int

    def __post_init__(self):
        if self.b < 1:
            raise DomainError(f"exponent must be >= 1, got {self.b}")
        if not is_prime(self.p):
            raise DomainError(f"{self.p} is not prime")
        if self.q != self.p ** self.b:
            raise DomainError(f"{self.q} != {self.p}^{self.b}")

    @classmethod
    def from_q(cls, q: int) -> "PrimePower":
        decomposition = prime_power_decompose(q)
        if decomposition is None:
            raise DomainError(f"{q} is not a prime power (no single-prime factorization)")
        p, b = decomposition
        return cls(p, b, q)

    def __str__(self) -> str:
        return str(self.q)


def as_prime_power(q: "int | PrimePower") -> PrimePower:
    if isinstance(q, PrimePower):
        return q
    return PrimePower.from_q(q)


def _checked_q(q: "int | PrimePower", a: int) -> PrimePower:
    """q as a validated prime power, after checking the Hasse bound a*a <= 4q."""
    pp = as_prime_power(q)
    if a * a > 4 * pp.q:
        raise DomainError(f"trace {a} violates the Hasse bound for q = {pp.q}")
    return pp


def hasse_bound(q: "int | PrimePower") -> int:
    """Largest |a| allowed by the Hasse bound, floor(2*sqrt(q))."""
    return isqrt(4 * as_prime_power(q).q)


def waterhouse_admissible(q: "int | PrimePower", a: int) -> bool:
    """Whether some elliptic curve over GF(q) has trace a.

    A Hasse violation (a*a > 4q) yields False rather than an error, so the
    predicate can screen raw integer ranges.
    """
    pp = as_prime_power(q)
    p, b, qv = pp.p, pp.b, pp.q
    if a * a > 4 * qv:
        return False
    if math.gcd(a, p) == 1:
        return True
    if b % 2 == 0:
        if a * a == 4 * qv:
            return True
        if p % 3 != 1 and a * a == qv:
            return True
        if p % 4 != 1 and a == 0:
            return True
        return False
    if p in (2, 3) and abs(a) == p ** ((b + 1) // 2):
        return True
    return a == 0


def admissible_traces(q: "int | PrimePower") -> list[int]:
    """All admissible traces for GF(q), ascending."""
    pp = as_prime_power(q)
    bound = hasse_bound(pp)
    return [a for a in range(-bound, bound + 1) if waterhouse_admissible(pp, a)]


# m -> the ratio a*a / q that characterizes a root of unity of order m.
DEGENERACY_RATIOS = ((1, 4), (2, 0), (3, 1), (4, 2), (6, 3))


def classify_degeneracy(q: "int | PrimePower", a: int) -> int | None:
    """Order m of the eigenvalue ratio when it is a root of unity, else None.

    Nondegenerate pairs return None; degenerate pairs return m in
    {1, 2, 3, 4, 6}.  Requires a*a <= 4q.
    """
    pp = _checked_q(q, a)
    s = a * a
    for m, ratio in DEGENERACY_RATIOS:
        if s == ratio * pp.q:
            return m
    return None
