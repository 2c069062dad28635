"""Dense polynomials over a prime field F_q.

Coefficients are stored least-significant first in canonical form (no
trailing zeros, every coefficient already reduced mod q). The degree of
the zero polynomial is the MINUS_INFINITY sentinel so that degree
comparisons behave in divmod and gcd loops.

Monic polynomials of degree d are in bijection with integer codes
u in [0, q^d) via u = sum c_i q^i over the d lower coefficients; all
enumeration order in this package is ascending code order (the constant
coefficient varies fastest), which is also ascending order of the full
evaluation-at-q value. "Lexicographically smallest" downstream always
means smallest code. code_digits, digit_codes and mulmod_matrix are the
package's one vectorized form of codes and of the maps x -> a x mod g.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import primes

MINUS_INFINITY = float("-inf")

DEFAULT_ENUM_CAP = 1 << 20


@dataclass(frozen=True, order=True)
class PrimeModulus:
    q: int

    def __post_init__(self):
        q = self.q
        if q < 2:
            raise ValueError(f"modulus must be >= 2, got {q}")
        # trial division is plenty: q is a single machine word here
        d = 2
        while d * d <= q:
            if q % d == 0:
                raise ValueError(f"modulus {q} is not prime")
            d += 1


@dataclass(frozen=True)
class Poly:
    q: PrimeModulus
    coeffs: tuple[int, ...]

    def __post_init__(self):
        qv = self.q.q
        cs = tuple(c % qv for c in self.coeffs)
        while cs and cs[-1] == 0:
            cs = cs[:-1]
        object.__setattr__(self, "coeffs", cs)

    @classmethod
    def zero(cls, q: PrimeModulus) -> "Poly":
        return cls(q, ())

    @classmethod
    def one(cls, q: PrimeModulus) -> "Poly":
        return cls(q, (1,))

    @classmethod
    def t(cls, q: PrimeModulus) -> "Poly":
        return cls(q, (0, 1))

    @classmethod
    def constant(cls, q: PrimeModulus, c: int) -> "Poly":
        return cls(q, (c,))

    @classmethod
    def from_code(cls, q: PrimeModulus, code: int) -> "Poly":
        """Inverse of .code: digits of code in base q, low first."""
        if code < 0:
            raise ValueError("code must be nonnegative")
        cs = []
        while code:
            code, r = divmod(code, q.q)
            cs.append(r)
        return cls(q, tuple(cs))

    @property
    def degree(self) -> int | float:
        return len(self.coeffs) - 1 if self.coeffs else MINUS_INFINITY

    @property
    def code(self) -> int:
        """Evaluation at q; the enumeration/sort key."""
        v = 0
        for c in reversed(self.coeffs):
            v = v * self.q.q + c
        return v

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __str__(self) -> str:
        return poly_to_string(self)


def _check_same_modulus(a: Poly, b: Poly) -> None:
    if a.q != b.q:
        raise ValueError(f"modulus mismatch: {a.q.q} vs {b.q.q}")


def poly_add(a: Poly, b: Poly) -> Poly:
    _check_same_modulus(a, b)
    n = max(len(a.coeffs), len(b.coeffs))
    ca = a.coeffs + (0,) * (n - len(a.coeffs))
    cb = b.coeffs + (0,) * (n - len(b.coeffs))
    return Poly(a.q, tuple(x + y for x, y in zip(ca, cb)))


def poly_sub(a: Poly, b: Poly) -> Poly:
    _check_same_modulus(a, b)
    n = max(len(a.coeffs), len(b.coeffs))
    ca = a.coeffs + (0,) * (n - len(a.coeffs))
    cb = b.coeffs + (0,) * (n - len(b.coeffs))
    return Poly(a.q, tuple(x - y for x, y in zip(ca, cb)))


def poly_mul(a: Poly, b: Poly) -> Poly:
    _check_same_modulus(a, b)
    if a.is_zero() or b.is_zero():
        return Poly.zero(a.q)
    out = [0] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, ca in enumerate(a.coeffs):
        if ca:
            for j, cb in enumerate(b.coeffs):
                out[i + j] += ca * cb
    return Poly(a.q, tuple(out))


def poly_divmod(a: Poly, g: Poly) -> tuple[Poly, Poly]:
    _check_same_modulus(a, g)
    if g.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    qv = a.q.q
    dg = len(g.coeffs) - 1
    rem = list(a.coeffs)
    if len(rem) - 1 < dg:
        return Poly.zero(a.q), a
    quot = [0] * (len(rem) - dg)
    inv_lead = pow(g.coeffs[-1], -1, qv)
    for i in range(len(rem) - 1, dg - 1, -1):
        c = rem[i] % qv
        if c:
            factor = c * inv_lead % qv
            quot[i - dg] = factor
            for j, gc in enumerate(g.coeffs):
                rem[i - dg + j] -= factor * gc
        rem[i] = 0
    return Poly(a.q, tuple(quot)), Poly(a.q, tuple(rem))


def poly_mod(a: Poly, g: Poly) -> Poly:
    return poly_divmod(a, g)[1]


def poly_powmod(f: Poly, e: int, g: Poly) -> Poly:
    """f^e mod g by square-and-multiply; e is an arbitrary-size natural."""
    _check_same_modulus(f, g)
    if g.is_zero() or g.degree < 1:
        raise ValueError("modulus must have degree >= 1")
    if e < 0:
        raise ValueError("negative exponent")
    result = poly_mod(Poly.one(f.q), g)
    base = poly_mod(f, g)
    while e:
        if e & 1:
            result = poly_mod(poly_mul(result, base), g)
        e >>= 1
        if e:
            base = poly_mod(poly_mul(base, base), g)
    return result


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd."""
    _check_same_modulus(a, b)
    while not b.is_zero():
        a, b = b, poly_mod(a, b)
    if a.is_zero():
        return a
    inv = pow(a.coeffs[-1], -1, a.q.q)
    return Poly(a.q, tuple(c * inv for c in a.coeffs))


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


def poly_derivative(a: Poly) -> Poly:
    return Poly(a.q, tuple(i * c for i, c in enumerate(a.coeffs) if i >= 1))


def is_irreducible(f: Poly) -> bool:
    """Distinct-degree criterion: t^{q^d} == t mod f and, for each prime
    l | d, gcd(t^{q^{d/l}} - t, f) = 1.
    """
    if not f.is_monic():
        raise ValueError("irreducibility test expects a monic polynomial")
    d = f.degree
    if d < 1:
        raise ValueError("irreducibility test expects degree >= 1")
    if d == 1:
        return True
    q = f.q
    tp = Poly.t(q)
    qv = q.q
    for ell in sorted(set(primes.factorize(d))):
        w = poly_powmod(tp, qv ** (d // ell), f)
        g = poly_gcd(poly_sub(w, tp), f)
        if g.degree != 0:
            return False
    w = poly_powmod(tp, qv**d, f)
    return poly_sub(w, tp).is_zero()


def count_irreducibles(q: PrimeModulus, d: int) -> int:
    """(1/d) sum_{e | d} mu(d/e) q^e, exact."""
    if d < 1:
        raise ValueError(f"degree must be >= 1, got {d}")
    total = 0
    for e in range(1, d + 1):
        if d % e == 0:
            total += primes.mobius(d // e) * q.q**e
    assert total % d == 0
    return total // d


def code_digits(q: int, codes, width: int) -> np.ndarray:
    """Base-q digits of codes, low first: shape codes.shape + (width,).
    The digits of a code are the coefficient vector of Poly.from_code,
    padded to width; codes must lie in [0, q^width)."""
    digits = np.asarray(codes, dtype=np.int64)[..., None] // q ** np.arange(width, dtype=np.int64)
    digits %= q  # in place: one array of the output's size at a time
    return digits


def digit_codes(q: int, digits: np.ndarray) -> np.ndarray:
    """Inverse of code_digits: the code of each digit vector along the
    last axis."""
    return digits @ q ** np.arange(digits.shape[-1], dtype=np.int64)


def mulmod_matrix(a: Poly, g: Poly, width: int) -> np.ndarray:
    """The F_q-linear map x -> a x mod g on coefficient vectors of length
    width, as a (width, deg g) matrix: row j holds the coefficients of
    a t^j mod g, so x @ M % q is the coefficient vector of a x mod g."""
    out = np.zeros((width, g.degree), dtype=np.int64)
    row = poly_mod(a, g)
    for j in range(width):
        out[j, : len(row.coeffs)] = row.coeffs
        row = poly_mod(poly_mul(row, Poly.t(g.q)), g)
    return out


@functools.lru_cache(maxsize=None)
def _irreducible_codes(q: int, d: int) -> np.ndarray:
    """Codes (lower-coefficient values in [0, q^d)) of all monic irreducibles
    of degree d, ascending. Product sieve: every composite monic of degree d
    is pi * m for some irreducible pi with deg pi <= d/2 and m monic of
    degree d - deg pi; reduced mod t^d, the product keeps exactly the
    coefficients below its leading 1."""
    field = PrimeModulus(q)
    t_d = Poly(field, (0,) * d + (1,))
    composite = np.zeros(q**d, dtype=bool)
    for a in range(1, d // 2 + 1):
        b = d - a
        monics = code_digits(q, np.arange(q**b, 2 * q**b), b + 1)
        for pi_code in _irreducible_codes(q, a).tolist():
            pi = Poly.from_code(field, pi_code + q**a)
            composite[digit_codes(q, monics @ mulmod_matrix(pi, t_d, b + 1) % q)] = True
    out = np.flatnonzero(~composite).astype(np.int64)
    out.flags.writeable = False
    return out


def _check_enum_cap(q: PrimeModulus, d: int, cap: int) -> None:
    if d < 1:
        raise ValueError(f"degree must be >= 1, got {d}")
    if q.q**d > cap:
        raise ValueError(f"enumeration cap exceeded: {q.q}^{d} > {cap}")


def irreducible_codes(q: PrimeModulus, d: int, cap: int = DEFAULT_ENUM_CAP) -> np.ndarray:
    """Codes of all monic irreducibles of degree d, ascending (the cached,
    read-only sieve), refused when q^d exceeds cap."""
    _check_enum_cap(q, d, cap)
    return _irreducible_codes(q.q, d)


def enumerate_irreducibles(q: PrimeModulus, d: int, cap: int = DEFAULT_ENUM_CAP) -> list[Poly]:
    """All monic irreducibles of degree d, ascending code order."""
    digits = code_digits(q.q, irreducible_codes(q, d, cap) + q.q**d, d + 1)
    return [Poly(q, tuple(row)) for row in digits.tolist()]


def smallest_irreducible(q: PrimeModulus, d: int) -> Poly:
    """enumerate_irreducibles(q, d)[0]: the first monic of degree d, in
    ascending code order, that passes the distinct-degree test. About
    one monic in d is irreducible, so the scan stops after a few tests,
    where the sieve would cover all q^d codes."""
    _check_enum_cap(q, d, DEFAULT_ENUM_CAP)
    for u in range(q.q**d, 2 * q.q**d):
        f = Poly.from_code(q, u)
        if is_irreducible(f):
            return f
    # unreachable: every degree has a monic irreducible
    raise ArithmeticError(f"no monic irreducible of degree {d}")


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


def poly_to_string(f: Poly) -> str:
    """Text format "c0+c1*t+c2*t^2+..." with zero terms omitted, e.g. "1+t^2"."""
    if f.is_zero():
        return "0"
    parts = []
    for i, c in enumerate(f.coeffs):
        if c == 0:
            continue
        if i == 0:
            parts.append(str(c))
        elif i == 1:
            parts.append("t" if c == 1 else f"{c}*t")
        else:
            parts.append(f"t^{i}" if c == 1 else f"{c}*t^{i}")
    return "+".join(parts)


def poly_from_string(q: PrimeModulus, s: str) -> Poly:
    """Inverse of poly_to_string; rejects coefficients outside [0, q)."""
    s = s.strip()
    if not s:
        raise ValueError("empty polynomial string")
    if s == "0":
        return Poly.zero(q)
    coeffs: dict[int, int] = {}
    for term in s.split("+"):
        term = term.strip()
        if not term:
            raise ValueError(f"empty term in {s!r}")
        if "*" in term:
            cpart, tpart = term.split("*", 1)
            c = int(cpart)
        elif term.startswith("t"):
            c, tpart = 1, term
        else:
            c, tpart = int(term), ""
        if tpart == "":
            i = 0
        elif tpart == "t":
            i = 1
        elif tpart.startswith("t^"):
            i = int(tpart[2:])
            if i < 2:
                raise ValueError(f"bad exponent in term {term!r}")
        else:
            raise ValueError(f"cannot parse term {term!r}")
        if not 0 <= c < q.q:
            raise ValueError(f"coefficient {c} out of range for F_{q.q}")
        if i in coeffs:
            raise ValueError(f"repeated degree {i} in {s!r}")
        coeffs[i] = c
    n = max(coeffs) + 1
    return Poly(q, tuple(coeffs.get(i, 0) for i in range(n)))
