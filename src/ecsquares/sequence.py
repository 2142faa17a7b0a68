"""Point counts over field extensions via the integer trace recurrence.

With a = q + 1 - N over GF(q), the count over GF(q^n) is q^n + 1 - a_n where
a_n is the power sum of the two Frobenius eigenvalues.  The eigenvalues are
never materialized: a_n satisfies the integer recurrence

    a_0 = 2,  a_1 = a,  a_n = a * a_(n-1) - q * a_(n-2),

``trace_sequence`` evaluates it exactly in arbitrary precision (a_1000 for
q = 49 needs about 5615 bits), for listing terms.  ``square_hits_scan`` selects
candidates with a two-stage residue sieve over the 44 sieve moduli, dropping
an n only when N_n is a non-residue modulo one of them, which proves it is not
a square.  Stage 1 walks the recurrence and q^n modulo each prime-power factor
of 64 * 63 * 65 * 11 once, until the state repeats, and tiles what that period
excludes: about 92% of n.  Stage 2 reaches each survivor from the previous one
in a single jump modulo the 258-bit product of the other 40, with the Lucas
U-sequence of (a, q), and tests N_n against those.  Each survivor of both is
confirmed exactly, with a_n from Lucas doubling (``trace_term``) and the root
from ``math.isqrt``, so a term of O(n) bits is built only for the few n that
may be squares.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

from .errors import DomainError
# ``isqrt`` is unused here: perfbench's tracer wraps it at this module's name.
from .numeric import FILTER_TABLES, SIEVE_TABLES, isqrt, perfect_square_root
from .traces import PrimePower, _checked_q, as_prime_power, classify_degeneracy

# square_hits_scan: FILTER_MODULUS's prime-power factors with their squares, n
# per live-set window, and the other 40 sieve moduli with their 258-bit product.
_WALK_SQUARES = tuple((m, {i * i % m for i in range(m)}) for m in (64, 9, 7, 5, 13, 11))
_WINDOW = 1 << 16
_JUMP_TABLES = SIEVE_TABLES[len(FILTER_TABLES):]
_JUMP_MODULUS = math.prod(m for m, _ in _JUMP_TABLES)


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

    Stage 1 walks (a_n, a_(n+1), q^n) modulo each prime-power factor of
    ``FILTER_MODULUS`` = 64 * 63 * 65 * 11 to its first repeated state and
    tiles the n where N_n is a non-residue there, ``_WINDOW`` n at a time.
    Stage 2 jumps (a_k, a_(k+1), q^k) modulo the other 40 sieve moduli from
    one survivor k to the next, n = k + g, by the Lucas U-sequence of (a, q):
    a_(k+g) = U_g * a_(k+1) - q * U_(g-1) * a_k, q^(k+g) = q^k * q^g.  U_j
    and q^j are listed up to the longest gap so far.  A survivor of both is a
    hit when ``perfect_square_root`` of the exact count (``trace_term``)
    succeeds.  For a degenerate pair of order m and n = km the count is
    (c^k - 1)^2 with c = a_m / 2, as in ``guaranteed_square``, a square stage
    1 always keeps.
    """
    pp = as_prime_power(q)
    m = classify_degeneracy(pp, a)
    if nmax < 1:
        raise DomainError(f"nmax must be >= 1, got {nmax}")
    qv, mod2, width = pp.q, _JUMP_MODULUS, min(_WINDOW, nmax)
    hits = []
    c = None if m is None else _cycle_root(pp, a, m)
    walks = [_stage_one_walk(qv, a, mod, squares, width) for mod, squares in _WALK_SQUARES]
    # Stage 2: a_k, a_(k+1), q^k at the last survivor k, U_j, q * U_j and q^j.
    k, a_k, a_k1, q_k = 0, 2, a, 1
    us, qus, q_pows = [0, 1], [0, qv], [1, qv]
    for lo in range(1, nmax + 1, width):
        excluded = 0
        for mu, lam, tiled in walks:
            # From bit n - 1 for the walked n with lo's state: lo, or its place in the period.
            excluded |= tiled >> (lo - 1 if lo < mu else mu - 1 + (lo - mu) % lam)
        live = bin(~excluded & (1 << min(width, nmax + 1 - lo)) - 1)[:1:-1]
        i = live.find("1")
        while i >= 0:
            n, i = lo + i, live.find("1", i + 1)
            u = None
            if m is not None and n % m == 0:
                u = abs(c ** (n // m) - 1)
            else:
                g, k = n - k, n
                while len(us) <= g + 1:
                    u_j = (a * us[-1] - qus[-2]) % mod2
                    us.append(u_j)
                    qus.append(qv * u_j % mod2)
                    q_pows.append(q_pows[-1] * qv % mod2)
                a_k, a_k1 = ((us[g] * a_k1 - qus[g - 1] * a_k) % mod2,
                             (us[g + 1] * a_k1 - qus[g] * a_k) % mod2)
                q_k = q_k * q_pows[g] % mod2
                x = q_k + 1 - a_k
                for sieve_m, table in _JUMP_TABLES:
                    if not table[x % sieve_m]:
                        break
                else:
                    u = perfect_square_root(qv ** n + 1 - trace_term(pp, a, n))
            if u is not None:
                hits.append(SquareHit(q=pp, a=a, n=n, u=u,
                                      degenerate_m=m, source="scan"))
    return hits


def _stage_one_walk(qv: int, a: int, m: int, squares: set[int],
                    width: int) -> tuple[int, int, int]:
    """(mu, lam, excluded) for (a_n, a_(n+1), q^n) mod m walked from n = 1.

    n = mu + lam is the first n whose state repeats, that of mu.  Bit n - 1 of
    excluded flags N_n a non-residue mod m, tiled with doubling shifts to past
    n = mu + lam + width.
    """
    seen, head, a_n, a_n1, q_n = {}, 0, a % m, (a * a - 2 * qv) % m, qv % m
    while (a_n, a_n1, q_n) not in seen:
        seen[a_n, a_n1, q_n] = n = len(seen) + 1
        head |= ((q_n + 1 - a_n) % m not in squares) << n - 1
        a_n, a_n1, q_n = a_n1, (a * a_n1 - qv * a_n) % m, q_n * qv % m
    mu = seen[a_n, a_n1, q_n]
    lam = len(seen) + 1 - mu
    tiled, length = head >> mu - 1, lam
    while length < width + lam:
        tiled, length = tiled | tiled << length, 2 * length
    return mu, lam, head & (1 << mu - 1) - 1 | tiled << mu - 1


def _cycle_root(pp: PrimePower, a: int, m: int) -> int:
    """c = a_m / 2 for a degenerate pair of order m, checked to satisfy c*c = q^m.

    Both Frobenius eigenvalues have m-th power c, so a_(km) = 2c^k and the
    count over GF(q^(km)) is (c^k - 1)^2.
    """
    a_m = trace_term(pp, a, m)
    c = a_m // 2
    if 2 * c != a_m or c * c != pp.q ** m:
        raise RuntimeError(
            f"invariant violation: a_{m} = {a_m} is not +-2*sqrt(q^{m}) "
            f"for degenerate pair ({pp.q}, {a})")
    return c


def guaranteed_square(q: "int | PrimePower", a: int, n: int) -> SquareHit | None:
    """The structural square at n for a degenerate pair, or None when m does not divide n.

    For a degenerate pair of order m and n = km, a_n = 2c^k with c = a_m / 2
    and c*c = q^m, so the count is (c^k - 1)^2.  The sign of c comes from the
    recurrence itself (published sign tables for these families contain
    typos, see paper_check notes).
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
    u = abs(_cycle_root(pp, a, m) ** (n // m) - 1)
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
