"""Integer primality, factorization and Mobius function.

Shared plumbing for the polynomial and unit-group modules. Everything here
is exact integer arithmetic on Python ints; sizes are desk-scale (group
orders like 3^15 - 1), so trial division plus Brent's variant of Pollard
rho covers the whole range comfortably.
"""

from __future__ import annotations

import math

_SMALL_PRIME_BOUND = 10_000

# Witness set proving primality for every n < 3.3e24 (standard result).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 3.3e24."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41):
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    """Smallest prime strictly greater than n."""
    k = n + 1
    if k <= 2:
        return 2
    if k % 2 == 0:
        k += 1
    while not is_prime(k):
        k += 2
    return k


def primes_in_range(lo: int, hi: int) -> list[int]:
    """Primes p with lo <= p <= hi, ascending."""
    out = []
    p = lo - 1
    while True:
        p = next_prime(p)
        if p > hi:
            return out
        out.append(p)


def _brent_rho(n: int) -> int:
    """One nontrivial factor of composite odd n (Brent's cycle variant)."""
    if n % 2 == 0:
        return 2
    for c in range(1, 100):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"rho failed on {n}")


def factorize(n: int) -> list[int]:
    """Prime factors of n >= 1 with multiplicity, sorted ascending."""
    if n < 1:
        raise ValueError(f"factorize expects n >= 1, got {n}")
    out: list[int] = []
    for p in range(2, _SMALL_PRIME_BOUND):
        if p * p > n:
            break
        while n % p == 0:
            out.append(p)
            n //= p
    if n > 1:
        stack = [n]
        while stack:
            m = stack.pop()
            if is_prime(m):
                out.append(m)
                continue
            d = _brent_rho(m)
            stack.append(d)
            stack.append(m // d)
    out.sort()
    return out


def mobius(n: int) -> int:
    """Mobius function via factorization; n is tiny here (a poly degree)."""
    if n < 1:
        raise ValueError(f"mobius expects n >= 1, got {n}")
    fs = factorize(n)
    if len(set(fs)) != len(fs):
        return 0
    return -1 if len(fs) % 2 else 1

