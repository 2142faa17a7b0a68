"""Explicit arithmetic in GF(p^b) on dense coefficient vectors.

Representation conventions:

* A field with q = p**b elements is described by a ``FieldContext`` carrying
  the prime p, the degree b and a monic irreducible modulus of degree b over
  Z_p.  The modulus is stored as a coefficient list ``[c0, c1, ..., 1]``,
  lowest degree first, and is always the lexicographically smallest monic
  irreducible polynomial of that degree, so a given (p, b) produces the same
  field representation in every run.
* Elements are coefficient tuples of length b over Z_p, lowest degree first,
  wrapped in ``FieldElement``.  Enumeration order is lexicographic on those
  tuples, starting at zero.
* For b = 1 the modulus is the polynomial x and elements behave as plain
  residues modulo p.

Contexts are cached: ``make_field_context(p, b)`` returns the same object for
the same arguments, so object identity doubles as field identity.  A context
is immutable after construction apart from internally cached lookup tables,
and may be shared freely between workers.

Multiplication packs both coefficient vectors into a single big integer
(one digit of ``2**k`` bits per coefficient, k sized so that no digit can
overflow) and lets CPython's native big-integer multiply do the convolution;
degree reduction then adds precomputed packed images of t^b..t^(2b-2).  The
element representation stays a dense coefficient vector throughout.

Exhaustive point counting uses int-indexed tables instead, built once per
field with ``mul_t``.  An element's index is its position in the enumeration
and its log is k with element = g^k, for g the first primitive element in
enumeration order (zero's log is the sentinel q - 1).  ``log_tables`` holds
exp, log and the Zech table log(1 + g^k), through which logs add:
log(g^i + g^j) = i + zech[j - i] (mod q - 1).  The y-side histograms map
log v to the number of y with y^2 = v (odd p, ``square_counter``) or
y^2 + y = v (p = 2, ``artin_schreier_counter``).
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Iterator, Sequence

from .errors import DomainError, ResourceLimitError
from .numeric import _least_prime_factor, is_prime

DEFAULT_FIELD_SIZE_LIMIT = 1 << 20


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


def _poly_mul(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def _poly_sub(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    out = [0] * max(len(a), len(b))
    for i, ai in enumerate(a):
        out[i] = ai
    for i, bi in enumerate(b):
        out[i] = (out[i] - bi) % p
    return _poly_trim(out)


def _is_irreducible(poly: Sequence[int], p: int) -> bool:
    """Trial division by every monic polynomial of degree 1..deg//2."""
    deg = len(poly) - 1
    for d in range(1, deg // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            divisor = list(tail) + [1]
            _, rem = _poly_divmod(poly, divisor, p)
            if not rem:
                return False
    return True


def _find_modulus(p: int, b: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree b over Z_p."""
    if b == 1:
        return (0, 1)
    for coeffs in itertools.product(range(p), repeat=b):
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
        self.gen_t: tuple[int, ...] = ((0, 1) + (0,) * (b - 2)) if b > 1 else (0,)
        if b > 1:
            # Digit width: convolution digits stay below b*(p-1)^2 and each of
            # the b-1 reduction rows adds at most (p-1)^2 more, so 2b(p-1)^2
            # bounds every digit that can ever appear.
            self._kbits = (2 * b * (p - 1) ** 2).bit_length()
            self._kmask = (1 << self._kbits) - 1
            self._packed_rows = self._build_reduction_rows()
        self._element_list: list[tuple[int, ...]] | None = None
        self._log_tables: tuple[list[int], list[int], list[int]] | None = None
        self._square_counter: list[int] | None = None
        self._as_counter: list[int] | None = None

    def __repr__(self) -> str:
        return f"GF({self.p}^{self.b})"

    def _build_reduction_rows(self) -> list[int]:
        """Packed representations of t^j mod modulus for j = b .. 2b-2."""
        p, b, k = self.p, self.b, self._kbits
        row = [(-c) % p for c in self.modulus[:b]]  # t^b
        packed = []
        for _ in range(b - 1):
            packed.append(sum(c << (k * i) for i, c in enumerate(row)))
            carry = row[b - 1]
            row = [0] + row[:-1]
            if carry:
                for i in range(b):
                    row[i] = (row[i] - carry * self.modulus[i]) % p
        return packed

    # -- arithmetic on raw coefficient tuples ---------------------------------

    def add_t(self, u: tuple[int, ...], v: tuple[int, ...]) -> tuple[int, ...]:
        p = self.p
        return tuple((a + c) % p for a, c in zip(u, v))

    def sub_t(self, u: tuple[int, ...], v: tuple[int, ...]) -> tuple[int, ...]:
        p = self.p
        return tuple((a - c) % p for a, c in zip(u, v))

    def neg_t(self, u: tuple[int, ...]) -> tuple[int, ...]:
        p = self.p
        return tuple((-a) % p for a in u)

    def smul_t(self, c: int, u: tuple[int, ...]) -> tuple[int, ...]:
        p = self.p
        c %= p
        if c == 0:
            return self.zero_t
        if c == 1:
            return u
        return tuple((c * a) % p for a in u)

    def mul_t(self, u: tuple[int, ...], v: tuple[int, ...]) -> tuple[int, ...]:
        p = self.p
        b = self.b
        if b == 1:
            return ((u[0] * v[0]) % p,)
        k = self._kbits
        mask = self._kmask
        uu = 0
        for c in reversed(u):
            uu = (uu << k) | c
        vv = 0
        for c in reversed(v):
            vv = (vv << k) | c
        w = uu * vv
        rows = self._packed_rows
        for j in range(2 * b - 2, b - 1, -1):
            c = ((w >> (k * j)) & mask) % p
            if c:
                w += c * rows[j - b]
        return tuple(((w >> (k * i)) & mask) % p for i in range(b))

    def inv_t(self, u: tuple[int, ...]) -> tuple[int, ...]:
        if not any(u):
            raise ZeroDivisionError(f"inverse of zero in {self!r}")
        p = self.p
        if self.b == 1:
            return (pow(u[0], -1, p),)
        # Extended Euclid: track only the u-side Bezout coefficient.
        r0, r1 = list(self.modulus), _poly_trim(list(u))
        t0, t1 = [0], [1]
        while len(r1) > 1:
            quo, rem = _poly_divmod(r0, r1, p)
            r0, r1 = r1, rem
            t0, t1 = t1, _poly_sub(t0, _poly_mul(quo, t1, p), p)
        scale = pow(r1[0], -1, p)
        out = [(scale * c) % p for c in t1]
        out.extend([0] * (self.b - len(out)))
        return tuple(out)

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

    # -- element construction and enumeration ---------------------------------

    def element(self, value: "int | Sequence[int] | FieldElement") -> "FieldElement":
        """Lift an int (constant), coefficient sequence, or element into this field."""
        if isinstance(value, FieldElement):
            if value.ctx is not self:
                raise DomainError(f"element of {value.ctx!r} used in {self!r}")
            return value
        if isinstance(value, int):
            coeffs = (value % self.p,) + (0,) * (self.b - 1)
            return FieldElement(self, coeffs)
        coeffs = tuple(int(c) % self.p for c in value)
        if len(coeffs) > self.b:
            raise DomainError(
                f"coefficient vector of length {len(coeffs)} for degree-{self.b} field")
        coeffs += (0,) * (self.b - len(coeffs))
        return FieldElement(self, coeffs)

    @property
    def zero(self) -> "FieldElement":
        return FieldElement(self, self.zero_t)

    @property
    def one(self) -> "FieldElement":
        return FieldElement(self, self.one_t)

    @property
    def gen(self) -> "FieldElement":
        """The residue class of t (equals 0 in a prime field, where t is the modulus)."""
        return FieldElement(self, self.gen_t)

    def element_tuples(self) -> list[tuple[int, ...]]:
        """All q coefficient tuples in lexicographic order, cached."""
        if self._element_list is None:
            self._element_list = list(itertools.product(range(self.p), repeat=self.b))
        return self._element_list

    def elements(self) -> Iterator["FieldElement"]:
        for coeffs in self.element_tuples():
            yield FieldElement(self, coeffs)

    # -- int-indexed counting tables (used by the curves module) --------------

    def index_of(self, u: tuple[int, ...]) -> int:
        """Position of a coefficient tuple in ``element_tuples()``."""
        index = 0
        for c in u:
            index = index * self.p + c
        return index

    def log_tables(self) -> tuple[list[int], list[int], list[int]]:
        """(exp, log, zech), built once per field with ``mul_t``.

        exp[k] is the index of g^k for k < q - 1; log[i] is the log of the
        element with index i; zech[k] is log(1 + g^k), so that for nonzero
        summands log(g^i + g^j) = i + zech[j - i] (mod q - 1).
        """
        if self._log_tables is None:
            q, m = self.q, self.q - 1
            index = dict(zip(self.element_tuples(), range(q)))
            g = self._primitive_element()
            u = self.one_t
            exp = [index[u]]
            for _ in range(m - 1):
                u = self.mul_t(u, g)
                exp.append(index[u])
            log = [m] * q
            for k, i in enumerate(exp):
                log[i] = k
            # Adding 1 steps the constant coefficient, the leading digit of an index.
            step = q // self.p
            zech = [log[(i + step) % q] for i in exp]
            self._log_tables = (exp, log, zech)
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
        for u in self.element_tuples()[1:]:
            if all(self.pow_t(u, e) != self.one_t for e in cofactors):
                return u
        raise RuntimeError(f"invariant violation: {self!r} has no primitive element")

    def square_counter(self) -> list[int]:
        """Number of y with y*y = v, indexed by log v (odd characteristic)."""
        if self._square_counter is None:
            m = self.q - 1
            _, log, _ = self.log_tables()
            hist = [0] * self.q
            for k in log:  # y = g^k, or y = 0 at k = m
                hist[m if k == m else 2 * k % m] += 1
            self._square_counter = hist
        return self._square_counter

    def artin_schreier_counter(self) -> list[int]:
        """Number of y with y*y + y = v, indexed by log v (characteristic 2)."""
        if self._as_counter is None:
            m = self.q - 1
            _, log, zech = self.log_tables()
            hist = [0] * self.q
            for k in log:  # y^2 + y = y (1 + y), zero at y = 0 and y = 1
                hist[m if k == m or zech[k] == m else (k + zech[k]) % m] += 1
            self._as_counter = hist
        return self._as_counter

    # The tuple square, cube and 1/x^2 tables are gone: in the log domain
    # those maps are 2k, 3k and -2k.  The names stay as aliases because the
    # benchmark's tracer (perfbench/tracing.py) wraps them by name.
    square_table = log_tables
    cube_table = log_tables
    inverse_square_table = log_tables


class FieldElement:
    """An element of one FieldContext; a thin wrapper over a coefficient tuple."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: FieldContext, coeffs: tuple[int, ...]):
        self.ctx = ctx
        self.coeffs = coeffs

    def _peer(self, other: "FieldElement") -> "FieldElement":
        if not isinstance(other, FieldElement):
            raise TypeError(f"expected FieldElement, got {type(other).__name__}")
        if other.ctx is not self.ctx:
            raise DomainError(
                f"mixed-field arithmetic: {self.ctx!r} vs {other.ctx!r}")
        return other

    def __add__(self, other):
        other = self._peer(other)
        return FieldElement(self.ctx, self.ctx.add_t(self.coeffs, other.coeffs))

    def __sub__(self, other):
        other = self._peer(other)
        return FieldElement(self.ctx, self.ctx.sub_t(self.coeffs, other.coeffs))

    def __neg__(self):
        return FieldElement(self.ctx, self.ctx.neg_t(self.coeffs))

    def __mul__(self, other):
        if isinstance(other, int):
            return FieldElement(self.ctx, self.ctx.smul_t(other, self.coeffs))
        other = self._peer(other)
        return FieldElement(self.ctx, self.ctx.mul_t(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __pow__(self, e: int):
        return FieldElement(self.ctx, self.ctx.pow_t(self.coeffs, e))

    def inverse(self) -> "FieldElement":
        return FieldElement(self.ctx, self.ctx.inv_t(self.coeffs))

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def __eq__(self, other) -> bool:
        return (isinstance(other, FieldElement)
                and other.ctx is self.ctx
                and other.coeffs == self.coeffs)

    def __hash__(self) -> int:
        return hash((id(self.ctx), self.coeffs))

    def __str__(self) -> str:
        return render_coeffs(self.coeffs)

    def __repr__(self) -> str:
        return f"<{self} in {self.ctx!r}>"


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
    if p ** b > DEFAULT_FIELD_SIZE_LIMIT:
        raise ResourceLimitError(
            f"field size {p}^{b} exceeds the guard of {DEFAULT_FIELD_SIZE_LIMIT}")
    return _cached_context(p, b)


class FieldEmbedding:
    """A field homomorphism GF(p^b) -> GF(p^(b*n)) fixing the prime field."""

    __slots__ = ("small", "big", "generator_image", "_gen_powers")

    def __init__(self, small: FieldContext, big: FieldContext,
                 generator_image: tuple[int, ...]):
        self.small = small
        self.big = big
        self.generator_image = FieldElement(big, generator_image)
        powers = [big.one_t]
        for _ in range(small.b - 1):
            powers.append(big.mul_t(powers[-1], generator_image))
        self._gen_powers = powers

    def map_tuple(self, coeffs: tuple[int, ...]) -> tuple[int, ...]:
        big = self.big
        out = big.zero_t
        for c, power in zip(coeffs, self._gen_powers):
            if c:
                out = big.add_t(out, big.smul_t(c, power))
        return out

    def __call__(self, element: FieldElement) -> FieldElement:
        if element.ctx is not self.small:
            raise DomainError(
                f"embedding defined on {self.small!r}, got element of {element.ctx!r}")
        return FieldElement(self.big, self.map_tuple(element.coeffs))


@functools.lru_cache(maxsize=None)
def embed_field(small: FieldContext, big: FieldContext) -> FieldEmbedding:
    """Embed GF(p^b) into GF(p^B) where b divides B.

    The image of the small field's generator is the first element, in
    enumeration order of the big field, that is a root of the small modulus.
    """
    if small.p != big.p:
        raise DomainError(
            f"cannot embed {small!r} into {big!r}: different characteristic")
    if big.b % small.b != 0:
        raise DomainError(
            f"cannot embed {small!r} into {big!r}: {small.b} does not divide {big.b}")
    modulus = small.modulus
    add, mul, smul = big.add_t, big.mul_t, big.smul_t
    for candidate in big.element_tuples():
        # Horner evaluation of the small modulus at the candidate.
        acc = big.zero_t
        for c in reversed(modulus):
            acc = mul(acc, candidate)
            if c:
                acc = add(acc, smul(c, big.one_t))
        if not any(acc):
            return FieldEmbedding(small, big, candidate)
    raise RuntimeError(
        f"invariant violation: {small!r} modulus has no root in {big!r}")
