"""Integer helper tests: primality, factorization, mobius, integer CRT."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sidonbasis.primes import INT_CAP, factorize, is_prime, mobius, next_prime, primes_in_range

from oracles import crt_int


def trial_division_prime(n: int) -> bool:
    if n < 2:
        return False
    for d in range(2, int(math.isqrt(n)) + 1):
        if n % d == 0:
            return False
    return True


def test_is_prime_small_table():
    for n in range(-5, 200):
        assert is_prime(n) == trial_division_prime(n), n


def test_is_prime_carmichael_and_large():
    # 561, 1105, 1729 fool plain Fermat tests
    for n in (561, 1105, 1729, 2465, 2821):
        assert not is_prime(n)
    # exact up to INT_CAP, the largest prime below it included, and
    # refused above it before any division, prime or not
    assert is_prime(INT_CAP - 87)
    # the two largest primes below 2^20: no factor below sqrt(n) - 2
    assert not is_prime(1_048_571 * 1_048_573)
    for n in (2**61 - 1, 2**61 + 1):
        with pytest.raises(ValueError, match="INT_CAP"):
            is_prime(n)


@given(st.integers(min_value=2, max_value=10**6))
@settings(max_examples=200)
def test_is_prime_matches_trial_division(n):
    assert is_prime(n) == trial_division_prime(n)


@given(st.integers(min_value=1, max_value=10**12))
@settings(max_examples=100)
def test_factorize_roundtrip(n):
    factors = factorize(n)
    assert sorted(factors) == list(factors)
    assert math.prod(factors) == n
    for f in factors:
        assert is_prime(f)


def test_factorize_edge_cases():
    assert factorize(1) == []
    assert factorize(2) == [2]
    assert factorize(8) == [2, 2, 2]
    assert factorize(242) == [2, 11, 11]
    assert factorize(INT_CAP) == [2] * 40
    assert factorize(1_048_571 * 1_048_573) == [1_048_571, 1_048_573]
    with pytest.raises(ValueError):
        factorize(0)
    with pytest.raises(ValueError, match="INT_CAP"):
        factorize(INT_CAP + 1)
    with pytest.raises(ValueError, match="INT_CAP"):
        factorize(10**19)


def test_mobius_table():
    # OEIS A008683
    expected = [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0, -1, 1, 1, 0]
    assert [mobius(n) for n in range(1, 17)] == expected


@given(st.integers(min_value=1, max_value=3000))
@settings(max_examples=150)
def test_mobius_dirichlet_identity(n):
    # sum of mobius over divisors is the unit function
    total = sum(mobius(d) for d in range(1, n + 1) if n % d == 0)
    assert total == (1 if n == 1 else 0)


def test_next_prime_and_range():
    assert next_prime(2) == 3
    assert next_prime(14) == 17
    assert primes_in_range(10, 20) == [11, 13, 17, 19]
    # both endpoints are inclusive
    assert primes_in_range(11, 19) == [11, 13, 17, 19]
    assert primes_in_range(20, 10) == []
    with pytest.raises(ValueError, match="INT_CAP"):
        next_prime(INT_CAP)


def test_crt_int_examples():
    assert crt_int([2, 3], [3, 5]) == 8
    assert crt_int([1], [7]) == 1
    assert crt_int([0, 0, 0], [2, 3, 5]) == 0


@given(st.lists(st.sampled_from([3, 5, 7, 11, 13]), min_size=1, max_size=4, unique=True), st.randoms())
@settings(max_examples=100)
def test_crt_int_reconstructs(moduli, rng):
    residues = [rng.randrange(m) for m in moduli]
    x = crt_int(residues, moduli)
    prod = math.prod(moduli)
    assert 0 <= x < prod
    for r, m in zip(residues, moduli):
        assert x % m == r
