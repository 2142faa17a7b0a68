"""Point counts over field extensions via the integer trace recurrence.

With a = q + 1 - N over GF(q), the count over GF(q^n) is q^n + 1 - a_n where
a_n is the power sum of the two Frobenius eigenvalues.  The eigenvalues are
never materialized: a_n satisfies the integer recurrence

    a_0 = 2,  a_1 = a,  a_n = a * a_(n-1) - q * a_(n-2),

``trace_sequence`` evaluates it exactly in arbitrary precision (a_1000 for
q = 49 needs about 5615 bits), for listing terms.  ``square_hits_scan`` runs
the same recurrence modulo the 279-bit ``SIEVE_MODULUS`` to select candidates:
an n is dropped only when N_n is a non-residue modulo one of the sieve moduli,
which proves it is not a square.  Each survivor is confirmed exactly, with a_n
from Lucas doubling (``trace_term``) and the root from ``math.isqrt``, so a
term of O(n) bits is built only for the few n that may be squares.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from .errors import DomainError
from .numeric import SIEVE_MODULUS, SIEVE_TABLES, isqrt, perfect_square_root
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
    """All n <= nmax where the point count over GF(q^n) is a perfect square.

    a_n and q^n run modulo ``SIEVE_MODULUS``; N_n is tested against each sieve
    modulus in turn and n is dropped at the first non-residue.  A survivor is
    a hit when ``perfect_square_root`` of the exact count (a_n by
    ``trace_term``) succeeds.  For a degenerate pair and m | n the count is
    (s -+ 1)^2 with s*s = q^n, as in ``guaranteed_square``; the sign comes from
    matching a_n against +-2s modulo ``SIEVE_MODULUS``.
    """
    pp = as_prime_power(q)
    m = classify_degeneracy(pp, a)
    if nmax < 1:
        raise DomainError(f"nmax must be >= 1, got {nmax}")
    qv, modulus = pp.q, SIEVE_MODULUS
    hits = []
    prev, cur, q_pow = 2, a % modulus, 1
    for n in range(1, nmax + 1):
        q_pow = q_pow * qv % modulus
        if m is not None and n % m == 0:
            u = _closed_form_root(pp, a, n, cur)
        else:
            x = q_pow + 1 - cur
            for sieve_m, table in SIEVE_TABLES:
                if not table[x % sieve_m]:
                    u = None
                    break
            else:
                u = perfect_square_root(qv ** n + 1 - trace_term(pp, a, n))
        if u is not None:
            hits.append(SquareHit(q=pp, a=a, n=n, u=u,
                                  degenerate_m=m, source="scan"))
        prev, cur = cur, (a * cur - qv * prev) % modulus
    return hits


def _closed_form_root(pp: PrimePower, a: int, n: int, a_n_residue: int) -> int:
    """u for a degenerate pair at m | n, where a_n = +-2s and s = p^(b*n/2)."""
    s = pp.p ** (pp.b * n // 2)
    if a_n_residue == 2 * s % SIEVE_MODULUS:
        return s - 1
    if a_n_residue == -2 * s % SIEVE_MODULUS:
        return s + 1
    raise RuntimeError(
        f"invariant violation: a_{n} is not +-2*sqrt(q^{n}) modulo the sieve "
        f"modulus for degenerate pair ({pp.q}, {a})")


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
