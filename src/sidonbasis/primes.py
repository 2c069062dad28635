"""Integer primality, factorization and Mobius function, by trial division.

is_prime and factorize refuse n > INT_CAP = 2^40 with a ValueError
before any division; below it, trial division up to sqrt(n) is exact and
takes at most about 2^19 steps. Every integer the package reaches is far
smaller:

- ffpoly.PrimeModulus tests q only up to ffpoly.ENUM_CAP = 2^20 (no
  residue table exists above it), and auxset tests p only up to
  auxset.AUX_P_CAP = 2^16;
- unitgroup factors unit-group orders q^deg(g) - 1, below ENUM_CAP by
  the checks of ffpoly.smallest_irreducible and of equidist;
- ffpoly factors polynomial degrees (is_irreducible, and
  count_irreducibles through mobius).

scripts/find_aux_experiments.py lists primes up to its --p-max (20,000
by default) through primes_in_range and next_prime.
"""

from __future__ import annotations

INT_CAP = 1 << 40


def _check_cap(n: int) -> None:
    if n > INT_CAP:
        raise ValueError(f"integer cap exceeded: {n} > INT_CAP = {INT_CAP}")


def _least_factor(n: int, d: int = 2) -> int:
    """Smallest divisor of n >= 2 that is at least d, given that no
    integer in [2, d) divides n; n itself when none is at most sqrt(n)."""
    while d * d <= n:
        if n % d == 0:
            return d
        d += 1 if d == 2 else 2
    return n


def is_prime(n: int) -> bool:
    """Exact for n <= INT_CAP; ValueError above it."""
    _check_cap(n)
    return n >= 2 and _least_factor(n) == n


def next_prime(n: int) -> int:
    """Smallest prime strictly greater than n."""
    k = max(n + 1, 2)
    while not is_prime(k):
        k += 1
    return k


def primes_in_range(lo: int, hi: int) -> list[int]:
    """Primes p with lo <= p <= hi, ascending."""
    return [p for p in range(max(lo, 2), hi + 1) if is_prime(p)]


def factorize(n: int) -> list[int]:
    """Prime factors of 1 <= n <= INT_CAP with multiplicity, ascending."""
    if n < 1:
        raise ValueError(f"factorize expects n >= 1, got {n}")
    _check_cap(n)
    out: list[int] = []
    d = 2
    while n > 1:
        d = _least_factor(n, d)
        out.append(d)
        n //= d
    return out


def mobius(n: int) -> int:
    """Mobius function via factorization; n is tiny here (a poly degree)."""
    if n < 1:
        raise ValueError(f"mobius expects n >= 1, got {n}")
    fs = factorize(n)
    if len(set(fs)) != len(fs):
        return 0
    return -1 if len(fs) % 2 else 1
