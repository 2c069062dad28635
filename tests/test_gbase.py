"""The generalized base of the construction: builder.digit_weights, the
place weights of the alternating mixed radix b_i = q^i - 1 (odd i), p
(even i), against the digit-by-digit encode and decode of the oracles."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sidonbasis.auxset import AuxSet, aux_from_json
from sidonbasis.builder import Params, digit_weights
from sidonbasis.ffpoly import PrimeModulus

from oracles import decode, encode, radix

Q3 = PrimeModulus(3)


def params_for(p, k_max=4):
    return Params(q=Q3, aux=AuxSet(p=p, A=(1,)), k_min=1, k_max=k_max)


P35 = params_for(5)
P307 = params_for(307, k_max=6)


def pack(weights, digits) -> int:
    """n of digits least significant first by the weights W_0, W_1, ..."""
    assert len(digits) <= len(weights)
    return sum(x * w for x, w in zip(digits, weights))


def test_mixed_radix_validation():
    # the schedule needs q >= 3 (q = 2 makes b_1 = 1) and a prime p:
    # Params refuses q = 2, and the aux loader a composite p
    with pytest.raises(ValueError, match="q must be >= 3"):
        Params(q=PrimeModulus(2), aux=AuxSet(p=5, A=(1,)))
    with pytest.raises(ValueError, match="aux p = 6 is not prime"):
        aux_from_json({"p": 6, "A": [1], "window_start": 0})


def test_radix_schedule():
    weights = digit_weights(P35, 7)
    assert [weights[i] // weights[i - 1] for i in range(1, 7)] == [2, 5, 26, 5, 242, 5]
    assert all(weights[i] % weights[i - 1] == 0 for i in range(1, 7))
    assert [radix(3, 5, i) for i in range(1, 7)] == [2, 5, 26, 5, 242, 5]
    assert radix(3, 307, 3) == 26
    assert radix(3, 307, 4) == 307
    # the default count covers every digit of a level-k_max entry and the
    # one above it
    assert len(digit_weights(P35)) == 2 * P35.k_max + 2
    assert digit_weights(P35) == digit_weights(P35, 2 * P35.k_max + 2)


@given(st.integers(min_value=0, max_value=12))
def test_radix_product(n):
    weights = digit_weights(P35, 13)
    assert weights[n] == math.prod(radix(3, 5, i) for i in range(1, n + 1))
    # the even/odd split: k full levels weigh p^k * prod(q^{2i-1}-1)
    if n % 2 == 0:
        k = n // 2
        assert weights[n] == 5**k * math.prod(3 ** (2 * i - 1) - 1 for i in range(1, k + 1))


def test_encode_examples():
    weights = digit_weights(P35)
    for digits, n in [((7,), 7), ((0, 1), 2), ((1, 1, 1, 1), 1 + 2 + 10 + 260), ((), 0)]:
        assert encode(3, 5, digits) == n == pack(weights, digits)
    assert encode(3, 5, (1, 1, 1, 1)) == 273


def test_decode_examples():
    assert decode(3, 5, 273, 4) == (1, 1, 1, 1)
    assert decode(3, 5, 0, 3) == (0, 0, 0)
    assert decode(3, 5, 99, 1) == (99,)
    with pytest.raises(ValueError):
        decode(3, 5, -1, 2)
    with pytest.raises(ValueError):
        decode(3, 5, 5, 0)


def canonical_digits(q, p, max_len=9):
    def build(lengths):
        n = lengths[0]
        strategies = [st.integers(min_value=0, max_value=radix(q, p, i) - 1) for i in range(1, n)]
        strategies.append(st.integers(min_value=0, max_value=10**6))
        return st.tuples(*strategies)

    return st.tuples(st.integers(min_value=1, max_value=max_len)).flatmap(build)


@given(canonical_digits(3, 307))
@settings(max_examples=300)
def test_decode_encode_roundtrip(digits):
    n = pack(digit_weights(P307, 12), digits)
    assert n == encode(3, 307, digits)
    assert decode(3, 307, n, len(digits)) == digits


@given(st.integers(min_value=0, max_value=3**400), st.integers(min_value=1, max_value=12))
@settings(max_examples=300)
def test_encode_decode_roundtrip(n, k):
    digits = decode(3, 307, n, k)
    assert all(0 <= x < radix(3, 307, i) for i, x in enumerate(digits[:-1], start=1))
    assert digits[-1] >= 0
    assert pack(digit_weights(P307, 12), digits) == n


def test_non_canonical_digits_still_encode_linearly():
    weights = digit_weights(P35)
    digits = (5, 9, 40)  # all beyond their radixes
    assert pack(weights, digits) == encode(3, 5, digits) == 5 + 9 * 2 + 40 * 10
    # bumping digit i adds exactly the weight of position i
    base_val = pack(weights, (1, 1, 1))
    assert pack(weights, (1, 1, 2)) == base_val + weights[2]
    assert pack(weights, (1, 3, 1)) == base_val + 2 * weights[1]


@given(st.integers(min_value=0, max_value=50), st.integers(min_value=1, max_value=50))
def test_monotone_in_top_digit(x, step):
    weights = digit_weights(P35)
    lo = pack(weights, (1, 1, x))
    hi = pack(weights, (1, 1, x + step))
    assert hi - lo == step * weights[2] == step * radix(3, 5, 1) * radix(3, 5, 2)
    assert hi > lo
