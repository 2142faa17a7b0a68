"""Point counts over field extensions via the integer trace recurrence.

With a = q + 1 - N over GF(q), the count over GF(q^n) is q^n + 1 - a_n where
a_n is the power sum of the two Frobenius eigenvalues.  The eigenvalues are
never materialized: a_n satisfies the integer recurrence

    a_0 = 2,  a_1 = a,  a_n = a * a_(n-1) - q * a_(n-2),

``_recurrence`` is the one loop over it, exact in arbitrary precision
(a_1000 for q = 49 needs about 5615 bits), yielding bare (n, a_n, N_n)
tuples; ``trace_sequence`` wraps them into ``SequenceTerm``s for listing,
and ``trace_term`` evaluates one term by doubling, exactly or modulo m, in
``_lucas``, the one doubling loop, which also gives q^n.
``square_hits_scan`` drops an n only when N_n is a non-residue modulo one of
the sieve moduli listed here, which proves it is not a square.  Stage 1
walks (a_n, a_(n+1), q^n) modulo each walked modulus until the state repeats
and tiles what one period excludes: always the prime powers 64, 9, 7, 5, 13
and 11, and per pair the primes l in 17..199 with both eigenvalues in GF(l)
while many n survive.  A walk depends only on m, q mod m and a mod m, so
each is made once per process and tiled per pair.  Stage 2 reaches each
survivor by doubling modulo the product of the leading unwalked primes,
which fits one CPython digit.  Only a survivor that is a square modulo each
of them is doubled again, modulo all unwalked primes' product, for the
others.  Stage 2 drops n at a non-residue, or when an unwalked prime divides
N_n but its square does not (an odd valuation).  Survivors of both stages
are confirmed exactly, so a term of O(n) bits is built only for the few n
that may be squares.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections.abc import Iterator
from typing import NamedTuple

from .errors import DomainError
# ``isqrt`` is unused here: perfbench's tracer wraps it at this module's name.
from .numeric import _square_flags, is_prime, isqrt, perfect_square_root
from .traces import PrimePower, _checked_q, as_prime_power, classify_degeneracy


# square_hits_scan's sieve, pairwise coprime moduli with their square flags:
# the prime powers (product 2,882,880), always walked, and the primes 17 to
# 199, walked or left to stage 2 by ``_stage_one``.  Then K and the window.
_WALK_TABLES = tuple((m, _square_flags(m)) for m in (64, 9, 7, 5, 13, 11))
_JUMP_TABLES = tuple((m, _square_flags(m)) for m in range(17, 200) if is_prime(m))
_SQUARE_FLAGS = dict(_WALK_TABLES + _JUMP_TABLES)
_WALK_BUDGET = 8
_WINDOW = 1 << 16
# Stage 2 first doubles modulo the leading jump primes' product, kept below
# 2^30 so that every operand is a single CPython digit.
_ONE_DIGIT = 1 << 30


class SequenceTerm(NamedTuple):
    """One extension count: N_n = q^n + 1 - a_n points over GF(q^n)."""

    n: int
    a_n: int
    N_n: int


class SquareHit(NamedTuple):
    """A perfect-square point count u*u = q^n + 1 - a_n, with provenance.
    Immutable and hashable; ``hit._replace(u=...)`` makes a changed copy."""

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
    """Terms n = 1..nmax of the trace recurrence, streamed in O(1) memory:
    q, a and nmax checked, then each ``_recurrence`` tuple as a term."""
    qv = _checked_q(q, a).q
    if nmax < 1:
        raise DomainError(f"nmax must be >= 1, got {nmax}")
    yield from map(SequenceTerm._make, _recurrence(qv, a, nmax))


def _recurrence(qv: int, a: int, nmax: int) -> Iterator[tuple[int, int, int]]:
    """(n, a_n, N_n) for n = 1..nmax by the plain recurrence, unchecked."""
    prev, cur, q_pow = 2, a, 1
    for n in range(1, nmax + 1):
        q_pow *= qv
        yield n, cur, q_pow + 1 - cur
        prev, cur = cur, a * cur - qv * prev


def trace_term(q: "int | PrimePower", a: int, n: int, mod: int = 0) -> int:
    """a_n alone by Lucas doubling, reduced modulo mod when mod is nonzero."""
    qv = _checked_q(q, a).q
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if mod < 0:
        raise DomainError(f"mod must be >= 0, got {mod}")
    return _lucas(qv, a, n, mod)[0]


def _lucas(qv: int, a: int, n: int, mod: int) -> tuple[int, int]:
    """(a_n, q^n), reduced modulo mod when mod is nonzero, unchecked.

    Walks the bits of n from the top, keeping (a_k, a_(k+1), q^k) and using
    a_2k = a_k^2 - 2q^k and a_(2k+1) = a_k * a_(k+1) - a * q^k.
    """
    v, w, q_k = 2, a, 1
    for bit in bin(n)[2:]:
        if bit == "1":
            v, w, q_k = v * w - a * q_k, w * w - 2 * q_k * qv, q_k * q_k * qv
        else:
            v, w, q_k = v * v - 2 * q_k, v * w - a * q_k, q_k * q_k
        if mod:
            v, w, q_k = v % mod, w % mod, q_k % mod
    return v, q_k


def square_hits_scan(q: "int | PrimePower", a: int, nmax: int) -> list[SquareHit]:
    """All n <= nmax where the point count over GF(q^n) is a perfect square.

    Stage 1 (``_stage_one``) excludes n ``_WINDOW`` at a time, by walks each
    residue class shares.  Stage 2 takes N_n at each survivor by doubling,
    modulo the leading unwalked jump primes' product (below ``_ONE_DIGIT``),
    and tests it against each of them in order.  Only a survivor that passes
    them all is doubled again modulo every unwalked prime's product, tested
    against the remaining primes, and mod l^2 for each unwalked l that divides
    it; a survivor of both stages is a hit when ``perfect_square_root`` of the
    exact count succeeds.  For a degenerate pair of order m and n = km the
    count is (c^k - 1)^2 with c = a_m / 2, as in ``guaranteed_square``, a
    square stage 1 always keeps, so c^k takes one multiply per cycle n.
    """
    pp = as_prime_power(q)
    m = classify_degeneracy(pp, a)
    if nmax < 1:
        raise DomainError(f"nmax must be >= 1, got {nmax}")
    qv, width = pp.q, min(_WINDOW, nmax)
    c = None if m is None else _cycle_root(pp, a, m)
    c_k = 1  # c^k at the last cycle n = km
    walks, jumps = _stage_one(qv, a, m, nmax, width)
    # The leading jump primes, the longest prefix whose product is one digit.
    k = sum(p < _ONE_DIGIT for p in itertools.accumulate(
        (ell for ell, _ in jumps), operator.mul))
    lead, rest = jumps[:k], jumps[k:]
    lead_mod, full_mod = math.prod(ell for ell, _ in lead), math.prod(ell for ell, _ in jumps)
    hits = []
    for lo in range(1, nmax + 1, width):
        excluded = 0
        for _, mu, lam, tiled in walks:
            # From bit n - 1 for the walked n with lo's state: lo, or its place in the period.
            excluded |= tiled >> (lo - 1 if lo < mu else mu - 1 + (lo - mu) % lam)
        live = bin(~excluded & (1 << min(width, nmax + 1 - lo)) - 1)[:1:-1]
        i = live.find("1")
        while i >= 0:
            n, i = lo + i, live.find("1", i + 1)
            u = None
            if m is not None and n % m == 0:
                # A square is never excluded, so every cycle n comes, in turn.
                c_k *= c
                u = abs(c_k - 1)
            else:
                # Most survivors fall to a leading prime, at one-digit cost.
                x = _count(qv, a, n, lead_mod)
                if all(table[x % ell] for ell, table in lead):
                    x = _count(qv, a, n, full_mod)
                    # l | N_n with l^2 not dividing it: an odd valuation, no square.
                    if all(table[x % ell] for ell, table in rest) and all(
                            x % ell or _count(qv, a, n, ell * ell) % (ell * ell) == 0
                            for ell, _ in jumps):
                        u = perfect_square_root(_count(qv, a, n, 0))
            if u is not None:
                hits.append(SquareHit(pp, a, n, u, m, "scan"))
    return hits


def _count(qv: int, a: int, n: int, mod: int) -> int:
    """q^n + 1 - a_n from ``_lucas``: N_n exactly at mod 0, else congruent to it."""
    a_n, q_n = _lucas(qv, a, n, mod)
    return q_n + 1 - a_n


def _stage_one(qv: int, a: int, m: int | None, nmax: int, width: int) -> tuple[list, list]:
    """The pair's walks, (modulus, mu, lam, excluded), and its jump tables.

    After the prime powers, each jump prime l in turn is walked when l does
    not divide q, D = a^2 - 4q is a square or 0 mod l (both eigenvalues in
    GF(l)*, so the walk returns within l - 1 steps) and l - 1 <= _WALK_BUDGET
    * S, for S the first window's live n less the cycle squares, scaled to
    nmax.  Each walk is cached by residue class; the choices stay per pair.
    """
    walks = [(mod, *_stage_one_walk(qv, a, mod, width)) for mod, _ in _WALK_TABLES]
    # The first window's n no walk excludes, and those a cycle root settles.
    live, settled = (1 << width) - 1, width // m if m else 0
    for *_, excluded in walks:
        live &= ~excluded
    jumps, disc, survivors = [], a * a - 4 * qv, live.bit_count() - settled
    for i, (ell, flags) in enumerate(_JUMP_TABLES):
        if (ell - 1) * width > _WALK_BUDGET * survivors * nmax:
            # S only falls and l only grows, so no later prime is walked either.
            return walks, jumps + list(_JUMP_TABLES[i:])
        if qv % ell and flags[disc % ell]:
            walk = _stage_one_walk(qv, a, ell, width)
            walks.append((ell, *walk))
            live &= ~walk[2]
            survivors = live.bit_count() - settled
        else:
            jumps.append((ell, flags))
    return walks, jumps


def _stage_one_walk(qv: int, a: int, m: int, width: int) -> tuple[int, int, int]:
    """(mu, lam, excluded), bit n - 1 of excluded flagging N_n a non-residue
    mod m: the cached ``_walk_period``, its period tiled with doubling shifts
    to past n = mu + lam + width."""
    mu, lam, head = _walk_period(m, qv % m, a % m)
    tiled, length = head >> mu - 1, lam
    while length < width + lam:
        tiled, length = tiled | tiled << length, 2 * length
    return mu, lam, head & (1 << mu - 1) - 1 | tiled << mu - 1


@functools.cache
def _walk_period(m: int, q: int, a: int) -> tuple[int, int, int]:
    """(mu, lam, bits) for (a_n, a_(n+1), q^n) mod m walked from n = 1 and
    residues q and a: bit n - 1 flags N_n a non-residue, n < mu + lam, the
    first n whose state is that of mu.  For a unit q only the state at n = 1
    is compared."""
    flags = _SQUARE_FLAGS[m]
    start = a_n, a_n1, q_n = a0, a1, q0 = a, (a * a - 2 * q) % m, q
    seen, keep, head, n = {start: 1}, math.gcd(q, m) > 1, 0, 0
    while True:
        head |= (not flags[(q_n + 1 - a_n) % m]) << n
        n += 1
        a_n, a_n1, q_n = a_n1, (a * a_n1 - q * a_n) % m, q_n * q % m
        if keep:
            if (a_n, a_n1, q_n) in seen:
                break
            seen[a_n, a_n1, q_n] = n + 1
        elif q_n == q0 and a_n == a0 and a_n1 == a1:
            break
    mu = seen[a_n, a_n1, q_n]
    return mu, n + 1 - mu, head


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
