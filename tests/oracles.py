"""Independent references that only the tests call.

Each function here recomputes, by the textbook method and one element at
a time, something the package computes another way:

- dlog by Pohlig-Hellman with baby-step giant-step per prime power, with
  its helpers poly_ext_gcd, poly_invmod and crt_int, against the package's
  one discrete-log path, unitgroup.dlog_table;
- crt, the polynomial CRT, by which the tests' reference decode
  rebuilds f from its e digits, against builder.decode_entry's lookup;
- unit_codes, the units mod g, from equidist's exponent coordinates;
- find_representations, the exact three-element sums by two pointers,
  against the pair-sum engine of analyzer;
- build_Fk and level_e_digits, a level's members as Poly objects and
  their e digits;
- _pack, n from one digit vector <s r_k e_k ... r_1 e_1> by its weights,
  against builder._encode.

The test files import this module by name: tests/ has no __init__.py,
so pytest puts the directory on sys.path.
"""

from __future__ import annotations

import math

import numpy as np

from sidonbasis.builder import Params, SidonSequence, _code_e_digits, level_tables
from sidonbasis.equidist import _exponent_coordinates
from sidonbasis.ffpoly import (
    Poly,
    _check_same_modulus,
    poly_divmod,
    poly_gcd,
    poly_mod,
    poly_mul,
    poly_powmod,
    poly_sub,
)
from sidonbasis.primes import factorize
from sidonbasis.unitgroup import DLOG_SCAN_LIMIT, Generator, dlog_table

# -- integers and polynomials -------------------------------------------


def crt_int(residues: list[int], moduli: list[int]) -> int:
    """Integer CRT for pairwise coprime moduli; result in [0, prod)."""
    x, m = 0, 1
    for r, n in zip(residues, moduli):
        g = math.gcd(m, n)
        if g != 1:
            raise ValueError("moduli not coprime")
        x = (x + m * ((r - x) * pow(m, -1, n) % n)) % (m * n)
        m *= n
    return x


def poly_add(a: Poly, b: Poly) -> Poly:
    _check_same_modulus(a, b)
    n = max(len(a.coeffs), len(b.coeffs))
    ca = a.coeffs + (0,) * (n - len(a.coeffs))
    cb = b.coeffs + (0,) * (n - len(b.coeffs))
    return Poly(a.q, tuple(x + y for x, y in zip(ca, cb)))


def poly_ext_gcd(a: Poly, b: Poly) -> tuple[Poly, Poly, Poly]:
    """(g, s, t) with s*a + t*b = g, g monic (or zero)."""
    _check_same_modulus(a, b)
    q = a.q
    r0, r1 = a, b
    s0, s1 = Poly.one(q), Poly.zero(q)
    t0, t1 = Poly.zero(q), Poly.one(q)
    while not r1.is_zero():
        quot, rem = poly_divmod(r0, r1)
        r0, r1 = r1, rem
        s0, s1 = s1, poly_sub(s0, poly_mul(quot, s1))
        t0, t1 = t1, poly_sub(t0, poly_mul(quot, t1))
    if r0.is_zero():
        return r0, s0, t0
    inv = pow(r0.coeffs[-1], -1, q.q)
    scale = Poly.constant(q, inv)
    return poly_mul(r0, scale), poly_mul(s0, scale), poly_mul(t0, scale)


def poly_invmod(a: Poly, g: Poly) -> Poly:
    d, s, _ = poly_ext_gcd(a, g)
    if d.degree != 0:
        raise ValueError(f"{a} is not invertible mod {g}")
    return poly_mod(s, g)


def crt(residues: list[Poly], moduli: list[Poly]) -> Poly:
    """Unique f with f == residues[i] mod moduli[i], deg f < sum deg moduli."""
    if len(residues) != len(moduli) or not moduli:
        raise ValueError("need equally many residues and moduli, at least one")
    for r, m in zip(residues, moduli):
        _check_same_modulus(r, m)
        if m.degree < 1:
            raise ValueError("CRT moduli must have degree >= 1")
        if r.degree >= m.degree:
            raise ValueError(f"residue {r} not reduced mod {m}")
    acc, mod = residues[0], moduli[0]
    for r, m in zip(residues[1:], moduli[1:]):
        g = poly_gcd(mod, m)
        if g.degree != 0:
            raise ValueError("moduli not coprime")
        # acc + mod * u == r (mod m)
        u = poly_mod(poly_mul(poly_sub(r, acc), poly_invmod(mod, m)), m)
        acc = poly_add(acc, poly_mul(mod, u))
        mod = poly_mul(mod, m)
    return acc


# -- discrete logs ------------------------------------------------------


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
    factors = factorize(n)
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
    return crt_int(residues, moduli)


def dlog(gen: Generator, f: Poly) -> int:
    """The unique e in [0, order) with omega^e == f mod g: read from
    dlog_table when the order is at most DLOG_SCAN_LIMIT, by
    Pohlig-Hellman above it."""
    r = poly_mod(f, gen.g)
    if r.is_zero():
        raise ValueError(f"{f} is divisible by the modulus {gen.g}")
    if gen.order <= DLOG_SCAN_LIMIT:
        return int(dlog_table(gen)[r.code])
    return _pohlig_hellman(gen, r)


def unit_codes(g: Poly) -> list[int]:
    """Codes of the residues coprime to g, ascending."""
    shape, coords = _exponent_coordinates(g)
    return np.flatnonzero((coords < shape).all(axis=1)).tolist()


# -- sequences ----------------------------------------------------------


def build_Fk(params: Params, k: int) -> list[Poly]:
    """All member polynomials at level k, degree-then-code order."""
    return [f for table in level_tables(params, k) for f in table.polys]


def level_e_digits(generators: tuple[Generator, ...], members: list[Poly]) -> np.ndarray:
    """The e digits of members at level k = len(generators): row u holds
    e_1..e_k of members[u], the table logs of members[u] mod g_1..g_k.
    Raises ValueError when some g_i divides a member."""
    width = 1 + max(f.degree for f in members)
    return _code_e_digits(generators, np.array([f.code for f in members], dtype=np.int64), width)


def _pack(weights: tuple[int, ...], e, r, s: int) -> int:
    """n for the digit vector <s r_k e_k ... r_1 e_1>, given a
    digit_weights table that holds at least W_0..W_{2k}."""
    n = 0
    i = 0
    for i, (e_i, r_i) in enumerate(zip(e, r), start=1):
        n += e_i * weights[2 * i - 2] + r_i * weights[2 * i - 1]
    return n + s * weights[2 * i]


def _sorted_values(seq_or_values) -> list[int]:
    if isinstance(seq_or_values, SidonSequence):
        vals = list(seq_or_values.values)
    else:
        vals = list(seq_or_values)
    if any(a >= b for a, b in zip(vals, vals[1:])):
        raise ValueError("values must be sorted ascending and distinct")
    return vals


def find_representations(m: int, seq_or_values, order: int = 3) -> list[tuple[int, ...]]:
    """All index multisets (ascending) whose values sum to m; two-pointer
    over the sorted tail, so no triple hashing."""
    vals = _sorted_values(seq_or_values)
    if order == 2:
        out2 = []
        lo, hi = 0, len(vals) - 1
        while lo <= hi:
            s = vals[lo] + vals[hi]
            if s == m:
                out2.append((lo, hi))
                lo += 1
                hi -= 1
            elif s < m:
                lo += 1
            else:
                hi -= 1
        return out2
    if order != 3:
        raise ValueError("only orders 2 and 3 are supported")
    out = []
    for i, first in enumerate(vals):
        target = m - first
        if target < 2 * first:
            break
        lo, hi = i, len(vals) - 1
        while lo <= hi:
            s = vals[lo] + vals[hi]
            if s == target:
                out.append((i, lo, hi))
                lo += 1
                hi -= 1
            elif s < target:
                lo += 1
            else:
                hi -= 1
    return out
