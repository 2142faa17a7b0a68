"""Point counts over field extensions via the integer trace recurrence.

With a = q + 1 - N over GF(q), the count over GF(q^n) is q^n + 1 - a_n where
a_n is the power sum of the two Frobenius eigenvalues.  The eigenvalues are
never materialized: a_n satisfies the integer recurrence

    a_0 = 2,  a_1 = a,  a_n = a * a_(n-1) - q * a_(n-2),

which is evaluated exactly in arbitrary precision (a_1000 for q = 49 needs
about 5615 bits).  ``trace_sequence`` is the only loop over it; ``trace_term``
evaluates a single a_n by Lucas doubling, so checking a hit never re-runs the
loop that found it.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from .errors import DomainError
from .numeric import isqrt, perfect_square_root
from .traces import PrimePower, _checked_q, as_prime_power, classify_degeneracy


@dataclass(frozen=True)
class SequenceTerm:
    """One extension count: N_n = q^n + 1 - a_n points over GF(q^n)."""

    n: int
    a_n: int
    N_n: int


@dataclass(frozen=True)
class SquareHit:
    """A perfect-square point count u*u = q^n + 1 - a_n, with provenance."""

    q: PrimePower
    a: int
    n: int
    u: int
    degenerate_m: int | None
    source: str  # "scan", "guaranteed" or "sporadic"

    @property
    def N(self) -> int:
        return self.u * self.u

    def triple(self) -> tuple[int, int, int]:
        return (self.q.q, self.a, self.n)


def trace_sequence(q: "int | PrimePower", a: int, nmax: int) -> Iterator[SequenceTerm]:
    """Terms n = 1..nmax of the trace recurrence, streamed in O(1) memory."""
    qv = _checked_q(q, a).q
    if nmax < 1:
        raise DomainError(f"nmax must be >= 1, got {nmax}")
    prev, cur = 2, a
    q_pow = 1
    for n in range(1, nmax + 1):
        q_pow *= qv
        yield SequenceTerm(n=n, a_n=cur, N_n=q_pow + 1 - cur)
        prev, cur = cur, a * cur - qv * prev


def trace_term(q: "int | PrimePower", a: int, n: int) -> int:
    """a_n alone, by Lucas doubling: O(log n) multiplications, no recurrence loop.

    Walks the bits of n from the top, keeping (a_k, a_(k+1), q^k) and using
    a_2k = a_k^2 - 2q^k and a_(2k+1) = a_k * a_(k+1) - a * q^k.
    """
    qv = _checked_q(q, a).q
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    v, w, q_k = 2, a, 1
    for bit in bin(n)[2:]:
        if bit == "1":
            v, w, q_k = v * w - a * q_k, w * w - 2 * q_k * qv, q_k * q_k * qv
        else:
            v, w, q_k = v * v - 2 * q_k, v * w - a * q_k, q_k * q_k
    return v


def square_hits_scan(q: "int | PrimePower", a: int, nmax: int) -> list[SquareHit]:
    """All n <= nmax where the point count over GF(q^n) is a perfect square."""
    pp = as_prime_power(q)
    m = classify_degeneracy(pp, a)
    hits = []
    for term in trace_sequence(pp, a, nmax):
        u = perfect_square_root(term.N_n)
        if u is not None:
            hits.append(SquareHit(q=pp, a=a, n=term.n, u=u,
                                  degenerate_m=m, source="scan"))
    return hits


def guaranteed_square(q: "int | PrimePower", a: int, n: int) -> SquareHit | None:
    """The structural square at n for a degenerate pair, or None when m does not divide n.

    For a degenerate pair of order m and m | n, the trace satisfies
    a_n = +-2s with s*s = q^n, so the count is (s -+ 1)^2.  The sign of a_n
    is taken from the recurrence itself (published sign tables for these
    families contain typos, see paper_check notes).
    """
    pp = as_prime_power(q)
    m = classify_degeneracy(pp, a)
    if m is None:
        raise DomainError(
            f"(q, a) = ({pp.q}, {a}) is nondegenerate; no guaranteed square exists")
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if n % m != 0:
        return None
    a_n = trace_term(pp, a, n)
    q_n = pp.q ** n
    s = isqrt(q_n)
    if s * s != q_n or a_n not in (2 * s, -2 * s):
        raise RuntimeError(
            f"invariant violation: a_{n} = {a_n} is not +-2*sqrt(q^{n}) "
            f"for degenerate pair ({pp.q}, {a})")
    u = s - 1 if a_n > 0 else s + 1
    return SquareHit(q=pp, a=a, n=n, u=u, degenerate_m=m, source="guaranteed")


# The complete list of degenerate-pair squares occurring at n not divisible
# by m (consequences of the solved exponential Diophantine equations
# u^2 = q^n + 1, u^2 = 2^x +- 2^y + 1 and u^2 = 3^x +- 3^y + 1, verified
# within the search range by the acceptance suite).
SPORADIC_TABLE: tuple[tuple[int, int, int, int], ...] = (
    (2, 2, 1, 1),
    (3, 3, 1, 1),
    (3, 0, 1, 2),
    (2, 0, 3, 3),
    (8, 0, 1, 3),
    (2, -2, 5, 5),
    (32, 8, 1, 5),
)


def sporadic_list() -> list[SquareHit]:
    """The seven sporadic squares of degenerate pairs (n not divisible by m)."""
    hits = []
    for qv, a, n, u in SPORADIC_TABLE:
        pp = as_prime_power(qv)
        hits.append(SquareHit(q=pp, a=a, n=n, u=u,
                              degenerate_m=classify_degeneracy(pp, a),
                              source="sporadic"))
    return hits
