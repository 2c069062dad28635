"""Unit groups of F_q[t]/(g): order, generators, discrete logarithm.

For irreducible g the units form a cyclic group of order N = q^deg(g) - 1.
Generators are found by the order test against the factored N, run on
blocks of candidates at once: omega^e mod g is row 0 of the e-th power
of the matrix of x -> omega x (ffpoly.mulmod_matrix), so one stack of
matrix squarings mod q serves every candidate of a block and every
exponent N/ell (_order_powers). No candidate is powered one polynomial
product at a time.

The discrete log is a table while N <= DLOG_SCAN_LIMIT = 2^20, that is
for up to 2^20 + 1 residues (13^5 = 371,293 among them), and is not built
above it. dlog_table forms the powers of omega in code space a block of
ffpoly.block_rows(deg g) rows at a time, each block one product by the
matrix of x -> omega^B x (ffpoly.mulmod_matrix) from the one before, and
scatters each block into the table before forming the next: 8 bytes per
residue, about 3 MB at 13^5, cached, plus about 1 MB of block arrays
while it is built. The table is the package's one discrete-log path:
every modulus that ffpoly.smallest_irreducible can return, and every
factor of an equidist modulus, has at most ffpoly.ENUM_CAP = 2^20
residues, so each gets one. Pohlig-Hellman with baby-step giant-step is
the tests' independent oracle for the table, in tests/oracles.py.

log_coordinates, the package's one map from polynomial codes to their
logs mod g_1..g_k, gives the build's e digits, the loader's log check,
the decode indexes and equidist's exponent coordinates.

The size limit of the log table is a module constant, DLOG_SCAN_LIMIT,
checked before any allocation; the orders the package factors for the
order test are below ffpoly.ENUM_CAP, well inside primes.INT_CAP. No
function takes a limit as an argument.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from . import primes
from .ffpoly import (
    Poly,
    block_rows,
    code_digits,
    digit_codes,
    enumerate_irreducibles,
    is_irreducible,
    map_codes,
    mulmod_matrix,
    poly_derivative,
    poly_divmod,
    poly_gcd,
    poly_mod,
    poly_mul,
    poly_powmod,
)

DLOG_SCAN_LIMIT = 1 << 20


def group_order(g: Poly) -> int:
    """Unit-group order q^deg(g) - 1 for irreducible g."""
    return g.q.q ** g.degree - 1


# candidates per block of the generator search; a generator is usually
# among the first few dozen, and one block costs about log2(N) stacked
# (block, deg g, deg g) matrix products
_SEARCH_BLOCK = 32


def _order_powers(g: Poly, omegas: np.ndarray, exponents: list[int]) -> np.ndarray:
    """omega^e mod g for every digit row omega of omegas (shape
    (B, deg g)) and every e in exponents, as digit vectors of shape
    (B, len(exponents), deg g).

    The matrix M of x -> omega x is sum_i omega_i H_i, H_i[j] the digits
    of t^(i+j) mod g, and omega^e = 1 * M^e is the product of the squares
    M^(2^b) over the bits b of e, all candidates at once."""
    qv, d = g.q.q, g.degree
    powers_of_t = _reduction_matrix(g, 2 * d - 1)  # row k: t^k mod g
    hankel = powers_of_t[np.arange(d)[:, None] + np.arange(d)]
    square = (omegas @ hankel.reshape(d, d * d)).reshape(-1, d, d) % qv
    out = np.zeros((len(omegas), len(exponents), d), dtype=np.int64)
    out[:, :, 0] = 1
    for bit in range(max(exponents, default=0).bit_length()):
        if bit:
            square = square @ square % qv
        take = np.array([e >> bit & 1 for e in exponents], dtype=bool)
        out[:, take] = out[:, take] @ square % qv
    return out


@functools.lru_cache(maxsize=64)
def _reduction_matrix(g: Poly, width: int) -> np.ndarray:
    """mulmod_matrix(1, g, width), the reduction map mod g, read-only;
    cached, as the generator search, the build, every load and the
    decode indexes read it."""
    out = mulmod_matrix(Poly.one(g.q), g, width)
    out.flags.writeable = False
    return out


def _is_one(powers: np.ndarray) -> np.ndarray:
    """Which digit vectors (along the last axis) are those of 1."""
    return (powers[..., 0] == 1) & ~powers[..., 1:].any(axis=-1)


def _order_exponents(n: int) -> list[int]:
    """n / ell for each prime ell dividing n, ascending in ell."""
    return [n // ell for ell in sorted(set(primes.factorize(n)))]


@dataclass(frozen=True)
class Generator:
    """A residue of full multiplicative order mod an irreducible g.

    Construction re-runs the full order test, omega^n = 1 and every
    omega^(n/ell) != 1 for n = q^deg(g) - 1, through _order_powers; since
    it can only pass when the unit group has all n elements, it also
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
        digits = code_digits(g.q.q, [omega.code], g.degree)
        is_one = _is_one(_order_powers(g, digits, [n, *_order_exponents(n)]))[0]
        if not is_one[0] or is_one[1:].any():
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


def _candidate_codes(q: int, d: int):
    """Codes of the monic-or-constant nonzero residues of degree < d,
    ascending."""
    yield from range(1, q)
    for k in range(1, d):
        yield from range(q**k, 2 * q**k)


def find_generator(g: Poly) -> Generator:
    """Smallest monic-or-constant residue of full order, in code order.

    Candidates are tested _SEARCH_BLOCK at a time against every n / ell
    only: omega^n = 1 holds for every unit once g is irreducible. The
    trivial group (order 1) accepts the constant 1 vacuously.
    """
    if not g.is_monic() or g.degree < 1:
        raise ValueError("need a monic modulus of degree >= 1")
    if not is_irreducible(g):
        raise ValueError(f"{g} is reducible")
    exponents = _order_exponents(group_order(g))
    qv = g.q.q
    candidates = _candidate_codes(qv, g.degree)
    while block := list(itertools.islice(candidates, _SEARCH_BLOCK)):
        passing = ~_is_one(_order_powers(g, code_digits(qv, block, g.degree), exponents)).any(axis=1)
        if passing.any():
            return Generator(g, Poly.from_code(g.q, block[int(passing.argmax())]))
    raise ArithmeticError(f"no generator found mod {g}")  # unreachable for irreducible g


_LOG_TABLE_CACHE: dict[tuple[int, tuple[int, ...], tuple[int, ...]], np.ndarray] = {}


def dlog_table(gen: Generator) -> np.ndarray:
    """Full log table T with T[code(x)] = dlog(x) for every unit x,
    -1 elsewhere. Cached per (q, g, omega). Raises ValueError when the
    group order exceeds DLOG_SCAN_LIMIT, before allocating anything.

    The powers of omega are formed in code space one block of B =
    ffpoly.block_rows(deg g) digit rows at a time, and each block is
    scattered into T before the next is formed, so no array but T grows
    with the order. The first block, omega^0..omega^{B-1}, is built by
    doubling: with the rows of omega^0..omega^{m-1} in hand, those of
    omega^m..omega^{2m-1} are one product by the matrix of x -> omega^m x
    mod g, squared from step to step. Every later block is the one before
    it times the matrix of x -> omega^B x. The orbit must close, with
    omega^(order - 1) omega = 1, and hit every unit."""
    key = (gen.g.q.q, gen.g.coeffs, gen.omega.coeffs)
    cached = _LOG_TABLE_CACHE.get(key)
    if cached is not None:
        return cached
    n = gen.order
    if n > DLOG_SCAN_LIMIT:
        raise ValueError(f"unit group of order {n} exceeds DLOG_SCAN_LIMIT = {DLOG_SCAN_LIMIT}")
    g = gen.g
    qv, d = g.q.q, g.degree
    rows = min(block_rows(d), n)
    block = np.zeros((rows, d), dtype=np.int64)
    block[0, 0] = 1
    step = mulmod_matrix(gen.omega, g, d)  # x -> omega^m x for the m rows filled so far
    m = 1
    while m < rows:
        stop = min(2 * m, rows)
        np.matmul(block[: stop - m], step, out=block[m:stop])
        block[m:stop] %= qv
        step = step @ step % qv
        m = stop
    step = mulmod_matrix(poly_powmod(gen.omega, rows, g), g, d)  # x -> omega^B x
    table = np.full(qv**d, -1, dtype=np.int64)
    start = 0
    while True:
        codes = digit_codes(qv, block)
        table[codes] = np.arange(start, start + len(codes), dtype=np.int64)
        start += len(codes)
        if start == n:
            break
        block = block[: min(rows, n - start)] @ step
        block %= qv
    last = Poly.from_code(g.q, int(codes[-1]))
    if poly_mod(poly_mul(last, gen.omega), g) != poly_mod(Poly.one(g.q), g):
        raise AssertionError("generator orbit did not close")
    if int(table[1:].min()) < 0:
        raise AssertionError("generator orbit missed a unit")
    table.flags.writeable = False
    _LOG_TABLE_CACHE[key] = table
    return table


def log_coordinates(generators: tuple[Generator, ...], codes, width: int) -> np.ndarray:
    """int64 row u: the table log of codes[u] (below q^width; an array or
    a range) mod each generator's g, -1 where g divides it. Per block of
    codes (ffpoly.map_codes), one product by each g's reduction matrix
    (reduction is F_q-linear) and one dlog_table gather."""
    tables = [dlog_table(gen) for gen in generators]
    matrices = [_reduction_matrix(gen.g, width) for gen in generators]
    out = np.empty((len(codes), len(generators)), dtype=np.int64)
    for rows, i, residues in map_codes(generators[0].g.q.q, codes, width, matrices):
        out[rows, i] = tables[i][residues]
    return out


def factor_squarefree_poly(g: Poly) -> tuple[Poly, ...]:
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
        for pi in enumerate_irreducibles(g.q, d):
            if rest.degree < d or 2 * d > rest.degree:
                break
            quot, rem = poly_divmod(rest, pi)
            if rem.is_zero():
                factors.append(pi)
                rest = quot
        d += 1
    return tuple(sorted(factors, key=lambda f: (f.degree, f.code)))

