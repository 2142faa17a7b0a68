"""Explicit arithmetic in GF(p^b) on dense coefficient vectors.

Representation conventions:

* A field with q = p**b elements is described by a ``FieldContext`` carrying
  the prime p, the degree b and a monic irreducible modulus of degree b over
  Z_p.  The modulus is stored as a coefficient list ``[c0, c1, ..., 1]``,
  lowest degree first, and is always the lexicographically smallest monic
  irreducible polynomial of that degree, so a given (p, b) produces the same
  field representation in every run.
* Elements are plain coefficient tuples of length b over Z_p, lowest degree
  first.  Enumeration order is lexicographic on those tuples, starting at
  zero.
* For b = 1 the modulus is the polynomial x and elements behave as plain
  residues modulo p.

Contexts are cached: ``make_field_context(p, b)`` returns the same object for
the same arguments, so object identity doubles as field identity.  A context
is immutable after construction apart from internally cached lookup tables.

``mul_t`` is the one multiply, by Kronecker substitution: u and v, packed one
digit per w-bit slot, give one int product whose 2b - 1 digits are the
coefficients of u(t) v(t).  Each of the top b - 1 digits, times the cached
packed row t^(b+j), adds into the low b slots, which are unpacked once: O(b)
int operations.  A low slot then holds at most b (p - 1)^2 (1 + (b - 1)(p - 1)),
which sets w.  Inverses are u^(q-2).  The exp table sums multiples of the rows
g * t^j (``_t_rows``); an embedding maps a tuple by Horner's rule in the
generator's image, with ``mul_t`` and ``add_t``.

The int-indexed tables come from index arithmetic, never from listing the
field.  An element's index is its coefficients read as base-p digits
(``index_of``), its position in the enumeration; its log is k with element =
g^k, for g the first primitive element (zero's log is the sentinel q - 1).
``log_tables`` holds exp, log and the Zech table log(1 + g^k), so that
log(g^i + g^j) = i + zech[j - i] (mod q - 1); its exp table walks the powers
of g on packed ints, one add of two half-table entries per power, and zech
is one map of exp through a rotated log.  On them ``poly_logs``, Horner's
rule at every element at once, one pass per nonzero coefficient (a run of
zeros joins the next pass as a power of x), is the one polynomial
evaluator: for the x-side of the point counts (their y-side histograms are
read off the group structure), the modulus search (no root in any GF(p^d),
d <= b/2, means irreducible) and embeddings (the small modulus's first
root).  Given positions it evaluates only there: positions 0, d, 2 d, ...,
q - 1 with d = (q - 1) / (q' - 1) are exactly the q' elements of the
subfield GF(q'), the only place an embedding's root can lie.  A polynomial with
coefficients in GF(q') takes q'-th powers of its values along an orbit of
x -> x^q', and an orbit shorter than n = log_q' q lies in a proper
subfield, so ``frobenius_orbits(n)`` gives a curve over GF(q') about q / n
positions to count: those subfields once each, and one position of each
other orbit n times, generated from its base-q' digits.

The cached tables are flat: exp, log, zech and each orbit set R are 4-byte
``array("i")`` (q <= 2^20 fits), 12 bytes per element for the three log
tables where lists of ints took about 88, and the y-side histograms are
``bytes``.  Each array is built as a list, which is faster than filling an
array element by element, and converted once.  A fresh GF(2^16) keeps about
0.9 MiB of tables (6.2 MiB as lists), and a count over GF(2^20) peaks at
about 133 MiB RSS (248 MiB as lists).
"""

from __future__ import annotations

import functools
import itertools
from array import array
from collections.abc import Sequence

from .errors import DomainError, ResourceLimitError
from .numeric import _least_prime_factor, is_prime

DEFAULT_FIELD_SIZE_LIMIT = 1 << 20


def _is_irreducible(poly: Sequence[int], p: int) -> bool:
    """Whether a monic poly over Z_p (lowest degree first) is irreducible.

    A reducible poly of degree b has an irreducible factor of degree
    d <= b/2, whose roots lie in GF(p^d); a root there conversely gives a
    factor of degree at most d.  So poly is irreducible exactly when it has
    no root in any of those subfields.
    """
    for d in range(1, (len(poly) - 1) // 2 + 1):
        sub = _cached_context(p, d)
        if sub.q - 1 in sub.poly_logs([sub.smul_t(c, sub.one_t) for c in reversed(poly)]):
            return False
    return True


def _find_modulus(p: int, b: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree b over Z_p.

    Candidates run in lex order of (c0, ..., c_(b-1)).  Those with c0 = 0
    are divisible by t, so for b > 1 the search starts at c0 = 1.
    """
    if b == 1:
        return (0, 1)
    for coeffs in itertools.product(range(1, p), *[range(p)] * (b - 1)):
        candidate = list(coeffs) + [1]
        if _is_irreducible(candidate, p):
            return tuple(candidate)
    raise RuntimeError(f"no irreducible polynomial of degree {b} over Z_{p}")


class FieldContext:
    """One concrete field GF(p^b); the hub for all coefficient-tuple arithmetic."""

    def __init__(self, p: int, b: int, modulus: tuple[int, ...]):
        self.p = p
        self.b = b
        self.q = p ** b
        self.modulus = modulus
        self.zero_t: tuple[int, ...] = (0,) * b
        self.one_t: tuple[int, ...] = (1,) + (0,) * (b - 1)
        self._log_tables: tuple[array, array, array] | None = None
        self._as_counter: bytes | None = None
        self._frobenius_orbits: dict[int, list[tuple[int, Sequence[int]]]] = {}
        w = self._slot = (b * (p - 1) ** 2 * (1 + (b - 1) * (p - 1))).bit_length()
        self._high_rows = [sum(c << (w * i) for i, c in enumerate(row))
                           for row in self._t_rows(self._times_t((0,) * (b - 1) + (1,)))[:b - 1]]

    def __repr__(self) -> str:
        return f"GF({self.p}^{self.b})"

    # -- arithmetic on raw coefficient tuples ---------------------------------

    def add_t(self, u: tuple[int, ...], v: tuple[int, ...]) -> tuple[int, ...]:
        p = self.p
        return tuple((a + c) % p for a, c in zip(u, v))

    def smul_t(self, c: int, u: tuple[int, ...]) -> tuple[int, ...]:
        p = self.p
        c %= p
        if c == 0:
            return self.zero_t
        if c == 1:
            return u
        return tuple((c * a) % p for a in u)

    def _times_t(self, u: tuple[int, ...]) -> tuple[int, ...]:
        """u * t: shift up one place and reduce t^b by the modulus."""
        p, top = self.p, u[-1]
        return tuple((c - top * m) % p for c, m in zip((0,) + u[:-1], self.modulus))

    def _t_rows(self, u: tuple[int, ...]) -> list[tuple[int, ...]]:
        """[u, u * t, ..., u * t^(b-1)], the rows of the Z_p-linear map times u."""
        rows = [u]
        for _ in range(self.b - 1):
            rows.append(self._times_t(rows[-1]))
        return rows

    def mul_t(self, u: tuple[int, ...], v: tuple[int, ...]) -> tuple[int, ...]:
        """u * v by Kronecker substitution: one int product of the packed digits,
        whose high digits fold into the low slots as multiples of packed rows."""
        w, b = self._slot, self.b
        x = y = 0
        for c, d in zip(reversed(u), reversed(v)):
            x, y = (x << w) | c, (y << w) | d
        z, mask = x * y, (1 << w) - 1
        low, high = z & ((1 << (w * b)) - 1), z >> (w * b)
        for row in self._high_rows:
            low += (high & mask) * row
            high >>= w
        p = self.p
        return tuple([(low >> s & mask) % p for s in range(0, w * b, w)])

    def inv_t(self, u: tuple[int, ...]) -> tuple[int, ...]:
        if not any(u):
            raise ZeroDivisionError(f"inverse of zero in {self!r}")
        return self.pow_t(u, self.q - 2)

    def pow_t(self, u: tuple[int, ...], e: int) -> tuple[int, ...]:
        if e < 0:
            raise DomainError(f"pow expects a nonnegative exponent, got {e}")
        result = self.one_t
        base = u
        while e:
            if e & 1:
                result = self.mul_t(result, base)
            base = self.mul_t(base, base)
            e >>= 1
        return result

    # -- enumeration ----------------------------------------------------------

    def element_tuples(self) -> list[tuple[int, ...]]:
        """All q coefficient tuples in lexicographic order, a new list each call."""
        return list(itertools.product(range(self.p), repeat=self.b))

    # -- int-indexed tables and the one polynomial evaluator ------------------

    def index_of(self, u: tuple[int, ...]) -> int:
        """Position of a coefficient tuple in ``element_tuples()``."""
        index = 0
        for c in u:
            index = index * self.p + c
        return index

    def log_tables(self) -> tuple[array, array, array]:
        """(exp, log, zech), built once per field by walking g * u on packed ints.

        exp[k] is the index of g^k for k < q - 1; log[i] is the log of the
        element with index i; zech[k] is log(1 + g^k), so that for nonzero
        summands log(g^i + g^j) = i + zech[j - i] (mod q - 1).

        The walk holds each power of g as one int whose base-p digits sit in
        w-bit slots, in index order, with w = (2p - 2).bit_length(): the sum
        of two digits below p then stays inside its slot.  Times g is linear,
        so the images of every high half and every low half of the digits
        are tabulated, and one step is two lookups and one add, which stays
        unreduced: a half's table is keyed by digits up to 2p - 2 and holds
        the image of those digits mod p, with their index share above the
        image's w b bits.  So one add gives this power's index and the next
        power's image.  Each entry is reduced once, as the tables are built,
        by a slotwise conditional subtract: adding 2^(w-1) - p to every slot
        sets a slot's top bit exactly when its digit is at least p, and p
        times those bits, shifted down, is taken off.  Adding 1 steps an
        index's leading digit, so zech is log rotated by q / p, read at exp.
        """
        if self._log_tables is None:
            q, m, p, b = self.q, self.q - 1, self.p, self.b
            w = (2 * p - 2).bit_length()
            h = b // 2
            shift, image_bits = w * (b - h), w * b
            mask, hi_mask = (1 << shift) - 1, (1 << (w * h)) - 1
            ones = sum(1 << (w * j) for j in range(b))
            top, bias = ones << (w - 1), ones * ((1 << (w - 1)) - p)

            def pack(digits: Sequence[int]) -> int:
                x = 0
                for c in digits:
                    x = (x << w) | c
                return x

            # rows[j] = g * t^j adds a key digit d <= 2p - 2 and d mod p times its
            # image and index share, reduced; list slots that no key names pad.
            rows = self._t_rows(self._primitive_element())
            halves = []
            for half_rows, scale in ((rows[:h], p ** (b - h)), (rows[h:], 1)):
                keys, values = [0], [0]
                for j, row in enumerate(half_rows):
                    share = scale * p ** (len(half_rows) - 1 - j) << image_bits
                    multiples = [pack(self.smul_t(c, row)) + c * share for c in range(p)]
                    multiples += multiples[:-1]
                    keys = [k << w | d for k in keys for d in range(2 * p - 1)]
                    values = [x - (((x + bias) & top) >> (w - 1)) * p
                              for v in values for c in multiples for x in [v + c]]
                table = [0] * (1 << (w * len(half_rows)))
                for k, v in zip(keys, values):
                    table[k] = v
                halves.append(table)
            hi, lo = halves
            s = pack(self.one_t)
            exp = [(s := hi[s >> shift & hi_mask] + lo[s & mask]) >> image_bits
                   for _ in range(m)]
            del halves, hi, lo  # q entries each at p = 2
            log = [m] * q
            for k, i in enumerate(exp):
                log[i] = k
            zech = list(map((log[q // p:] + log[:q // p]).__getitem__, exp))
            self._log_tables = (array("i", exp), array("i", log), array("i", zech))
        return self._log_tables

    def _primitive_element(self) -> tuple[int, ...]:
        """The first element of multiplicative order q - 1 in enumeration order."""
        m = self.q - 1
        cofactors = []
        rest = m
        while rest > 1:
            r = _least_prime_factor(rest)
            cofactors.append(m // r)
            while rest % r == 0:
                rest //= r
        for u in itertools.islice(itertools.product(range(self.p), repeat=self.b), 1, None):
            if all(self.pow_t(u, e) != self.one_t for e in cofactors):
                return u
        raise RuntimeError(f"invariant violation: {self!r} has no primitive element")

    def poly_logs(self, coeffs: Sequence[tuple[int, ...]],
                  positions: Sequence[int] | None = None) -> list[int]:
        """log f(x) at each of the positions (default: all q, in order), for
        f given by coefficient tuples, highest degree first.

        Position k < q - 1 holds x = g^k and position q - 1 holds x = 0; a
        zero value reads q - 1.  This is Horner's rule in the log domain:
        multiplying by x^j adds j times the position, and adding a
        coefficient g^c takes one Zech step.  Leading zero coefficients cost
        no pass, and a run of j - 1 zeros joins the pass of the nonzero
        coefficient after it as "times x^j, then plus g^c"; only a run at
        the end takes a pass of its own.
        """
        _, log, zech = self.log_tables()
        m = self.q - 1
        if positions is None:
            positions = range(self.q)
        cs = list(itertools.dropwhile(m.__eq__, [log[self.index_of(c)] for c in coeffs])) or [m]
        logs = [cs[0]] * len(positions)
        j = 0
        for c in cs[1:]:
            j += 1
            if c != m:
                # Times x^j (zero if u or x is), then plus g^c by a Zech step.
                logs = [c if u == m or k == m else m if (w := zech[(u + j * k - c) % m]) == m
                        else (c + w) % m for k, u in zip(positions, logs)]
                j = 0
        if j:
            logs = [m if u == m or k == m else (u + j * k) % m for k, u in zip(positions, logs)]
        return logs

    def frobenius_orbits(self, n: int) -> list[tuple[int, Sequence[int]]]:
        """[(1, S), (n, R)], cached, for this field as a degree-n extension of
        GF(q0): S is x = 0 and the proper subfields' positions, sorted, R the
        least position of each other orbit of x -> x^q0, all n long, in no
        promised order.  At n = 1 every orbit is one position: [(1, range(q))].

        On positions x -> x^q0 is k -> k q0 mod (q - 1), which rotates the n
        base-q0 digits of k.  So R holds the k whose digits, leading first, are
        below each other rotation of them: k starts with its least digit d and,
        if n > 1, ends above it.  Such a k with no other digit d is in R; the
        rest, about q / q0, keep the filter k < k q0^j mod (q - 1) for
        1 < j < n - 1 (rotating by 1 or n - 1 cannot undercut them)."""
        groups = self._frobenius_orbits.get(n)
        if groups is None:
            if n < 1 or self.b % n:
                raise DomainError(f"{self!r} is not a degree-{n} extension of a subfield")
            m, q0 = self.q - 1, self.p ** (self.b // n)
            # An orbit shorter than n lies in a GF(q0^j) with j | n, that is
            # q0^j - 1 | m: the positions that m / (q0^j - 1) divides.
            ts, short = [q0 ** j for j in range(1, n)], {m}
            for t in ts:
                if m % (t - 1) == 0:
                    short.update(range(0, m, m // (t - 1)))
            reps = []
            for d in range(q0 if n > 1 else 0):
                # d, then middle digits > d (above) or >= d with a d (ties).
                above, ties = [d], []
                for _ in range(n - 2):
                    ties = [k * q0 + c for k in ties for c in range(d, q0)]
                    ties += [k * q0 + d for k in above]
                    above = [k * q0 + c for k in above for c in range(d + 1, q0)]
                ties = [k * q0 + c for k in ties for c in range(d + 1, q0)]
                for t in ts[1:-1]:
                    ties = [k for k in ties if k < k * t % m]
                reps += [k * q0 + c for k in above for c in range(d + 1, q0)] + ties
            groups = ([(1, range(self.q))] if n == 1
                      else [(1, sorted(short)), (n, array("i", reps))])
            self._frobenius_orbits[n] = groups
        return groups

    def square_counter(self) -> bytes:
        """Number of y with y*y = v, indexed by log v (odd characteristic):
        g^k and g^(k + (q-1)/2) square to g^(2k), and only 0 to 0."""
        return b"\x02\x00" * ((self.q - 1) // 2) + b"\x01"

    def artin_schreier_counter(self) -> bytes:
        """Number of y with y*y + y = v, indexed by log v (characteristic 2):
        the map is additive with kernel {0, 1}, so its image, hit twice, is a
        hyperplane, the v with absolute trace v + v^2 + ... + v^(2^(b-1)) 0.
        That trace is additive and indices add by XOR, so marks for every
        index double once per index bit, and exp reads them in log order."""
        if self._as_counter is None:
            exp, log, _ = self.log_tables()
            m, marks, swap = self.q - 1, b"\x02", bytes.maketrans(b"\x00\x02", b"\x02\x00")
            for bit in range(self.b):
                k, trace = log[1 << bit], 0
                for j in range(self.b):
                    trace ^= exp[(k << j) % m]
                marks += marks.translate(swap) if trace else marks
            self._as_counter = bytes(map(marks.__getitem__, exp)) + b"\x02"
        return self._as_counter

    # The tuple square, cube and 1/x^2 tables are gone: in the log domain
    # those maps are 2k, 3k and -2k.  The names stay as aliases because the
    # benchmark's tracer (perfbench/tracing.py) wraps them by name.
    square_table = log_tables
    cube_table = log_tables
    inverse_square_table = log_tables


def render_coeffs(coeffs: Sequence[int]) -> str:
    """Render a coefficient vector as ``c0+c1*t+...``, skipping zero terms."""
    terms = []
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        if i == 0:
            terms.append(str(c))
        elif i == 1:
            terms.append("t" if c == 1 else f"{c}*t")
        else:
            terms.append(f"t^{i}" if c == 1 else f"{c}*t^{i}")
    return "+".join(terms) if terms else "0"


@functools.lru_cache(maxsize=None)
def _cached_context(p: int, b: int) -> FieldContext:
    return FieldContext(p, b, _find_modulus(p, b))


def make_field_context(p: int, b: int) -> FieldContext:
    """The canonical GF(p^b) context (cached per (p, b)).

    Raises DomainError for invalid p or b and ResourceLimitError when p**b
    exceeds the size guard.
    """
    if b < 1:
        raise DomainError(f"field degree must be >= 1, got {b}")
    if not is_prime(p):
        raise DomainError(f"field characteristic must be prime, got {p}")
    # p >= 2, so a degree past the guard's bit length is refused before p**b.
    if b >= DEFAULT_FIELD_SIZE_LIMIT.bit_length() or p ** b > DEFAULT_FIELD_SIZE_LIMIT:
        raise ResourceLimitError(
            f"field size {p}^{b} exceeds the guard of {DEFAULT_FIELD_SIZE_LIMIT}")
    return _cached_context(p, b)


class FieldEmbedding:
    """A field homomorphism GF(p^b) -> GF(p^(b*n)) fixing the prime field."""

    __slots__ = ("big", "generator_image")

    def __init__(self, big: FieldContext, generator_image: tuple[int, ...]):
        self.big = big
        self.generator_image = generator_image

    def map_tuple(self, coeffs: tuple[int, ...]) -> tuple[int, ...]:
        """Sum of c_i gamma^i, gamma the generator's image, by Horner's rule from the top."""
        big = self.big
        out = big.smul_t(coeffs[-1], big.one_t)
        for c in reversed(coeffs[:-1]):
            out = big.add_t(big.mul_t(out, self.generator_image), big.smul_t(c, big.one_t))
        return out


@functools.lru_cache(maxsize=None)
def embed_field(small: FieldContext, big: FieldContext) -> FieldEmbedding:
    """Embed GF(p^b) into GF(p^B) where b divides B.

    The image of the small field's generator is the first element, in
    enumeration order of the big field, that is a root of the small modulus.
    Being irreducible of degree b, the modulus splits in GF(p^b), so all its
    roots lie in the copy of GF(p^b) inside GF(p^B): 0 and the powers g^(dj)
    with d = (p^B - 1) / (p^b - 1).  ``poly_logs`` at positions 0, d, 2d, ...,
    p^B - 1 evaluates the modulus at just those p^b elements.
    """
    if small.p != big.p:
        raise DomainError(
            f"cannot embed {small!r} into {big!r}: different characteristic")
    if big.b % small.b != 0:
        raise DomainError(
            f"cannot embed {small!r} into {big!r}: {small.b} does not divide {big.b}")
    exp, _, _ = big.log_tables()
    m = big.q - 1
    d = m // (small.q - 1)
    positions = range(0, big.q, d)
    values = big.poly_logs([big.smul_t(c, big.one_t) for c in reversed(small.modulus)], positions)
    roots = [0 if k == m else exp[k] for k, v in zip(positions, values) if v == m]
    if not roots:
        raise RuntimeError(
            f"invariant violation: {small!r} modulus has no root in {big!r}")
    # index_of read backwards: coefficient i is base-p digit b - 1 - i of the index.
    root = min(roots)
    image = tuple(root // big.p ** j % big.p for j in reversed(range(big.b)))
    return FieldEmbedding(big, image)
