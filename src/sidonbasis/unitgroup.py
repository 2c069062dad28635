"""Unit groups of F_q[t]/(g): order, generators, discrete logarithm.

For irreducible g the units form a cyclic group of order N = q^deg(g) - 1.
Generators are found by the order test against the factored N.

The discrete log is a table while N <= DLOG_SCAN_LIMIT = 2^20, that is
for up to 2^20 + 1 residues (13^5 = 371,293 among them), and is not built
above it. dlog_table builds the powers of omega by doubling, one product
by the matrix of x -> omega^m x (ffpoly.mulmod_matrix, squared from step
to step) per step, and scatters them: 8 bytes per residue, about 3 MB at
13^5, cached. dlog, the scalar API and the tests' oracle, reads the table
or runs Pohlig-Hellman with baby-step giant-step per prime power.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import primes
from .ffpoly import (
    Poly,
    digit_codes,
    enumerate_irreducibles,
    is_irreducible,
    mulmod_matrix,
    poly_derivative,
    poly_divmod,
    poly_gcd,
    poly_invmod,
    poly_mod,
    poly_mul,
    poly_powmod,
)

DEFAULT_FACTOR_CAP = 10**18

DLOG_SCAN_LIMIT = 1 << 20


@functools.lru_cache(maxsize=None)
def _factorize_cached(n: int) -> tuple[int, ...]:
    return tuple(primes.factorize(n))


def factor_integer(n: int, cap: int = DEFAULT_FACTOR_CAP) -> tuple[int, ...]:
    """Prime factors with multiplicity, ascending. n = 1 gives ()."""
    if n < 1:
        raise ValueError(f"expected n >= 1, got {n}")
    if n > cap:
        raise ValueError(f"factoring cap exceeded: {n} > {cap}")
    return _factorize_cached(n)


def group_order(g: Poly) -> int:
    """Unit-group order q^deg(g) - 1 for irreducible g."""
    return g.q.q ** g.degree - 1


def _passes_order_test(omega: Poly, g: Poly, n: int, prime_factors: set[int]) -> bool:
    one = poly_mod(Poly.one(g.q), g)
    if poly_powmod(omega, n, g) != one:
        return False
    for ell in prime_factors:
        if poly_powmod(omega, n // ell, g) == one:
            return False
    return True


@dataclass(frozen=True)
class Generator:
    """A residue of full multiplicative order mod an irreducible g.

    Construction re-runs the order test; since the order test can only
    pass when the unit group has the full q^deg(g) - 1 elements, it also
    certifies irreducibility of g as a side effect.
    """

    g: Poly
    omega: Poly

    def __post_init__(self):
        g, omega = self.g, self.omega
        if not g.is_monic() or g.degree < 1:
            raise ValueError("modulus must be monic of degree >= 1")
        if omega.degree >= g.degree:
            raise ValueError("generator residue not reduced mod g")
        n = group_order(g)
        if poly_mod(omega, g).is_zero():
            raise ValueError("generator must be a unit")
        if not _passes_order_test(omega, g, n, set(factor_integer(n))):
            raise ValueError(f"{omega} does not have order {n} mod {g}")
        # the caches keyed by generators (builder._decode_index, read per
        # decoded value) hash them on every lookup; hashing g and omega
        # field by field costs microseconds
        object.__setattr__(self, "_hash", hash((g, omega)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def order(self) -> int:
        return group_order(self.g)


def find_generator(g: Poly, cap: int = DEFAULT_FACTOR_CAP) -> Generator:
    """Smallest monic-or-constant residue of full order, in code order.

    The trivial group (order 1) accepts the constant 1 vacuously.
    """
    if not g.is_monic() or g.degree < 1:
        raise ValueError("need a monic modulus of degree >= 1")
    if not is_irreducible(g):
        raise ValueError(f"{g} is reducible")
    n = group_order(g)
    prime_factors = set(factor_integer(n, cap=cap))
    qv = g.q.q
    for code in range(1, qv**g.degree):
        omega = Poly.from_code(g.q, code)
        if not (omega.degree == 0 or omega.is_monic()):
            continue
        if _passes_order_test(omega, g, n, prime_factors):
            return Generator(g, omega)
    raise ArithmeticError(f"no generator found mod {g}")  # unreachable for irreducible g


_LOG_TABLE_CACHE: dict[tuple[int, tuple[int, ...], tuple[int, ...]], np.ndarray] = {}


def dlog_table(gen: Generator) -> np.ndarray:
    """Full log table T with T[code(x)] = dlog(x) for every unit x,
    -1 elsewhere. Cached per (q, g, omega). Raises ValueError when the
    group order exceeds DLOG_SCAN_LIMIT, before allocating anything.

    The powers are built by doubling: with the digit rows of omega^0..
    omega^{m-1} in hand, those of omega^m..omega^{2m-1} are one product
    by the matrix of x -> omega^m x mod g, so about log2(order) products;
    squaring that matrix gives the next step's. T is then one scatter
    from the power codes."""
    key = (gen.g.q.q, gen.g.coeffs, gen.omega.coeffs)
    cached = _LOG_TABLE_CACHE.get(key)
    if cached is not None:
        return cached
    n = gen.order
    if n > DLOG_SCAN_LIMIT:
        raise ValueError(f"unit group of order {n} exceeds DLOG_SCAN_LIMIT = {DLOG_SCAN_LIMIT}")
    g = gen.g
    qv, d = g.q.q, g.degree
    powers = np.zeros((n, d), dtype=np.int64)
    powers[0, 0] = 1
    step = mulmod_matrix(gen.omega, g, d)  # x -> omega^m x for the m rows filled so far
    m = 1
    while m < n:
        stop = min(2 * m, n)
        np.matmul(powers[: stop - m], step, out=powers[m:stop])
        powers[m:stop] %= qv
        step = step @ step % qv
        m = stop
    codes = digit_codes(qv, powers)
    last = Poly.from_code(g.q, int(codes[-1]))
    if poly_mod(poly_mul(last, gen.omega), g) != poly_mod(Poly.one(g.q), g):
        raise AssertionError("generator orbit did not close")
    table = np.full(qv**d, -1, dtype=np.int64)
    table[codes] = np.arange(n, dtype=np.int64)
    if int(table[1:].min()) < 0:
        raise AssertionError("generator orbit missed a unit")
    table.flags.writeable = False
    _LOG_TABLE_CACHE[key] = table
    return table


def _bsgs(base: Poly, target: Poly, order: int, g: Poly) -> int:
    """x with base^x = target mod g, 0 <= x < order (order of base)."""
    m = int(order**0.5) + 1
    baby: dict[tuple[int, ...], int] = {}
    cur = poly_mod(Poly.one(g.q), g)
    for j in range(m):
        baby.setdefault(cur.coeffs, j)
        cur = poly_mod(poly_mul(cur, base), g)
    stride = poly_invmod(poly_powmod(base, m, g), g)
    cur = poly_mod(target, g)
    for i in range(m + 1):
        j = baby.get(cur.coeffs)
        if j is not None:
            return (i * m + j) % order
        cur = poly_mod(poly_mul(cur, stride), g)
    raise ValueError("element not in the subgroup generated by base")


def _pohlig_hellman(gen: Generator, f: Poly) -> int:
    g = gen.g
    n = gen.order
    factors = factor_integer(n)
    residues: list[int] = []
    moduli: list[int] = []
    for ell in sorted(set(factors)):
        e = factors.count(ell)
        pe = ell**e
        w0 = poly_powmod(gen.omega, n // pe, g)
        f0 = poly_powmod(f, n // pe, g)
        gamma = poly_powmod(w0, ell ** (e - 1), g)
        w0_inv = poly_invmod(w0, g)
        x = 0
        for i in range(e):
            h = poly_powmod(
                poly_mod(poly_mul(f0, poly_powmod(w0_inv, x, g)), g),
                ell ** (e - 1 - i),
                g,
            )
            x += _bsgs(gamma, h, ell, g) * ell**i
        residues.append(x)
        moduli.append(pe)
    return primes.crt_int(residues, moduli)


def dlog(gen: Generator, f: Poly, scan_limit: int = DLOG_SCAN_LIMIT) -> int:
    """The unique e in [0, order) with omega^e == f mod g."""
    r = poly_mod(f, gen.g)
    if r.is_zero():
        raise ValueError(f"{f} is divisible by the modulus {gen.g}")
    if gen.order <= scan_limit:
        return int(dlog_table(gen)[r.code])
    return _pohlig_hellman(gen, r)


def factor_squarefree_poly(g: Poly, cap: int = 1 << 20) -> tuple[Poly, ...]:
    """Irreducible factors of monic squarefree g, ascending code order,
    by trial division over enumerated irreducibles."""
    if not g.is_monic():
        raise ValueError("expected a monic polynomial")
    if g.degree >= 1 and poly_gcd(g, poly_derivative(g)).degree != 0:
        raise ValueError(f"{g} is not squarefree")
    factors = []
    rest = g
    d = 1
    while rest.degree > 0:
        if 2 * d > rest.degree:
            factors.append(rest)
            break
        for pi in enumerate_irreducibles(g.q, d, cap=cap):
            if rest.degree < d or 2 * d > rest.degree:
                break
            quot, rem = poly_divmod(rest, pi)
            if rem.is_zero():
                factors.append(pi)
                rest = quot
        d += 1
    return tuple(sorted(factors, key=lambda f: (f.degree, f.code)))


def euler_phi_poly(g: Poly) -> int:
    """|units of F_q[t]/(g)| for monic squarefree g: the product of
    q^deg - 1 over the irreducible factors."""
    if g.degree == 0:
        return 1
    out = 1
    for pi in factor_squarefree_poly(g):
        out *= g.q.q**pi.degree - 1
    return out
