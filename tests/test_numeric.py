import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecsquares import (DomainError, ResourceLimitError, isqrt, numeric, perfect_square_root,
                       prime_power_decompose)
from ecsquares.numeric import TRIAL_DIVISOR_CAP, is_prime


def test_isqrt_small_values():
    assert isqrt(0) == 0
    assert isqrt(1) == 1
    assert isqrt(2) == 1
    assert isqrt(3) == 1
    assert isqrt(4) == 2
    assert isqrt(2116) == 46


def test_isqrt_huge_value_exact_bracket():
    x = 10 ** 40 + 7
    assert isqrt(x) == 10 ** 20


def test_isqrt_rejects_negative():
    with pytest.raises(DomainError):
        isqrt(-1)


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 6000))
def test_isqrt_bracket_property(x):
    r = isqrt(x)
    assert r * r <= x < (r + 1) * (r + 1)
    assert r == math.isqrt(x)


def test_perfect_square_examples():
    assert perfect_square_root(3025) == 55
    assert perfect_square_root(103684) == 322
    assert perfect_square_root(2117) is None
    assert perfect_square_root(0) == 0
    assert perfect_square_root(-4) is None


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 3000))
def test_perfect_square_roundtrip(u):
    assert perfect_square_root(u * u) == u
    if u >= 1:
        assert perfect_square_root(u * u + 1) is None


def test_square_flags_mod_64_are_the_squares():
    flags = numeric._SQUARE_FLAGS_64
    assert len(flags) == 64
    assert {r for r in range(64) if flags[r]} == {i * i % 64 for i in range(64)}


@pytest.mark.parametrize("bits", [1, 64, 1000, 3000])
def test_perfect_square_root_around_squares(bits):
    """Every x within 130 of u^2 covers all 64 residues mod 64, non-squares
    with a square residue among them, and the pre-filter loses no square."""
    u = random.Random(bits).getrandbits(bits) | 1 << bits - 1
    for x in range(u * u - 130, u * u + 131):
        root = math.isqrt(x) if x >= 0 else None
        expected = root if root is not None and root * root == x else None
        assert perfect_square_root(x) == expected, x


def test_random_square_roundtrips_bulk():
    rng = random.Random(20240817)
    for _ in range(10_000):
        x = rng.randrange(0, 1 << 600)
        r = isqrt(x)
        assert r * r <= x < (r + 1) * (r + 1)
        u = rng.randrange(0, 1 << 300)
        assert perfect_square_root(u * u) == u


def _sieve(limit):
    flags = bytearray([1]) * limit
    flags[0:2] = b"\x00\x00"
    for i in range(2, int(limit ** 0.5) + 1):
        if flags[i]:
            flags[i * i::i] = b"\x00" * len(flags[i * i::i])
    return [i for i in range(limit) if flags[i]]


def test_is_prime_against_sieve():
    primes = set(_sieve(2000))
    for n in range(2000):
        assert is_prime(n) == (n in primes), n


def test_prime_power_decompose_examples():
    assert prime_power_decompose(32) == (2, 5)
    assert prime_power_decompose(49) == (7, 2)
    assert prime_power_decompose(36) is None
    assert prime_power_decompose(2) == (2, 1)
    assert prime_power_decompose(47) == (47, 1)
    assert prime_power_decompose(1000) is None  # 2^3 * 5^3


def test_prime_power_decompose_rejects_small():
    for q in (1, 0, -8):
        with pytest.raises(DomainError):
            prime_power_decompose(q)


def test_prime_power_decompose_stops_at_the_trial_divisor_cap():
    # 2^20 + 7 is prime, so its square has no prime factor below the cap.
    p = (1 << 20) + 7
    assert p > TRIAL_DIVISOR_CAP and is_prime(p)
    with pytest.raises(ResourceLimitError, match="trial division"):
        prime_power_decompose(p * p)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47])
def test_prime_power_roundtrip(p):
    for b in range(1, 11):
        assert prime_power_decompose(p ** b) == (p, b)
