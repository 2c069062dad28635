"""Mixed-radix integer encoding with the alternating radix schedule
b_i = q^i - 1 for odd i and b_i = p for even i.

Digit vectors are least-significant first (position 1 is index 0). Digits
are allowed to exceed their radix at encode time; decode always returns
digits 1..n-1 in canonical range with the top digit absorbing whatever
quotient remains, so encode(decode(n, k)) == n for every k >= 1.

encode/decode accept any object exposing radix(i); MixedRadix is the real
schedule, tests may substitute a custom one.
"""

from __future__ import annotations

from dataclasses import dataclass

from .primes import is_prime
from .ffpoly import PrimeModulus


def fmod(a: int, b: int) -> int:
    """Representative of a mod b in [0, b)."""
    if b < 1:
        raise ValueError(f"modulus must be >= 1, got {b}")
    return a % b


@dataclass(frozen=True)
class MixedRadix:
    q: PrimeModulus
    p: int

    def __post_init__(self):
        if self.q.q < 3:
            raise ValueError("q must be >= 3 (q = 2 makes the first radix 1)")
        if not is_prime(self.p):
            raise ValueError(f"p must be prime, got {self.p}")

    def radix(self, i: int) -> int:
        """b_i for 1-indexed position i."""
        if i < 1:
            raise ValueError(f"radix positions start at 1, got {i}")
        return self.q.q**i - 1 if i % 2 else self.p

    def weights(self, count: int) -> tuple[int, ...]:
        """(W_0, ..., W_{count-1}) with W_i = b_1 b_2 ... b_i, the weight
        of digit position i + 1."""
        out = [1]
        for i in range(1, count):
            out.append(out[-1] * self.radix(i))
        return tuple(out[:count])

    def radix_product(self, n: int) -> int:
        """prod_{i=1..n} b_i; the weight of digit position n+1."""
        return self.weights(n + 1)[-1]


@dataclass(frozen=True)
class DigitVector:
    digits: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.digits)

    def is_canonical(self, base) -> bool:
        """True when digits 1..n-1 are in [0, b_i) and the top is >= 0."""
        if not self.digits:
            return True
        return all(
            0 <= d < base.radix(i + 1) for i, d in enumerate(self.digits[:-1])
        ) and self.digits[-1] >= 0


def encode(base, d: DigitVector) -> int:
    """x_1 + x_2 b_1 + x_3 b_1 b_2 + ... (digits need not be canonical)."""
    total = 0
    weight = 1
    for i, x in enumerate(d.digits, start=1):
        total += x * weight
        weight *= base.radix(i)
    return total


def decode(base, n: int, num_digits: int) -> DigitVector:
    """Canonical digits with the top digit absorbing the remainder."""
    if n < 0:
        raise ValueError(f"expected a natural number, got {n}")
    if num_digits < 1:
        raise ValueError(f"need at least one digit, got {num_digits}")
    digits = []
    for i in range(1, num_digits):
        n, r = divmod(n, base.radix(i))
        digits.append(r)
    digits.append(n)
    return DigitVector(tuple(digits))
