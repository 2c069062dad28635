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
package's one vectorized form of codes and of the maps x -> a x mod g;
mulmod_matrix forms its rows a t^j mod g by shift and subtract on plain
integer lists, with one poly_mod for row 0 and no Poly per row.

map_codes applies such maps to many codes a block at a time: each block's
digit matrix is formed once and serves every map, and no array of a block
holds more than _BLOCK_DIGITS int64 digits, so its transients stay near
1 MB however many codes go through (the whole digit matrix of q^d codes
and its product would cost about 24 d bytes per code for an 8-byte
output). The irreducible sieve, the e digits, the exponent coordinates
and, through block_rows, the log tables all work this way.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import primes

MINUS_INFINITY = float("-inf")

ENUM_CAP = 1 << 20

# largest exponent poly_from_string reads: every polynomial the package
# reads from text (members, moduli, equidist's g) has q^degree within
# ENUM_CAP, so degree at most 20
EXPONENT_CAP = 64

# int64 digits per block array of map_codes and of the log-table build
_BLOCK_DIGITS = 1 << 16


@dataclass(frozen=True, order=True)
class PrimeModulus:
    q: int

    def __post_init__(self):
        # no member table, modulus or log table exists above ENUM_CAP
        if not 2 <= self.q <= ENUM_CAP:
            raise ValueError(f"modulus {self.q} outside [2, ENUM_CAP = {ENUM_CAP}]")
        if not primes.is_prime(self.q):
            raise ValueError(f"modulus {self.q} is not prime")


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
    a t^j mod g, so x @ M % q is the coefficient vector of a x mod g.

    Row 0 is a mod g, the one poly_mod. Each later row is the one before
    shifted up one place, its top coefficient c carried out through
    t^deg g = -lc(g)^-1 g_low mod g:

        row_{j+1} = shift(row_j) - c lc(g)^-1 g_low  (mod q),

    on lists of integers, with no Poly formed."""
    qv = g.q.q
    d = g.degree
    row = list(poly_mod(a, g).coeffs)
    row += [0] * (d - len(row))
    inv_lead = pow(g.coeffs[-1], -1, qv)
    carry = [-c * inv_lead % qv for c in g.coeffs[:-1]]  # t^d mod g
    rows = []
    for _ in range(width):
        rows.append(row)
        if row:  # deg g = 0 leaves every row empty
            top = row[-1]
            row = [0, *row[:-1]]
            if top:
                row = [(r + top * c) % qv for r, c in zip(row, carry)]
    return np.array(rows, dtype=np.int64).reshape(width, d)


def block_rows(width: int) -> int:
    """Rows of width int64 digits that one block array holds: at least 1,
    at most _BLOCK_DIGITS digits when width <= _BLOCK_DIGITS."""
    return max(1, _BLOCK_DIGITS // width)


def map_codes(q: int, codes, width: int, matrices: list[np.ndarray]):
    """Apply F_q-linear maps to codes, one block of codes at a time.

    codes (a 1-D array or a range) must lie in [0, q^width), and each
    matrix has width rows. Yields (rows, i, images) for each block and
    each matrix i in turn: images[j] is the code of the digit vector
    code_digits(q, codes[rows][j], width) @ matrices[i] % q. A block holds
    block_rows(c) codes, c the widest row involved (width, or a matrix's
    column count), so the block's digits, each product and its codes are
    the only arrays formed; the caller consumes each images before the
    next is made."""
    cols = max([width, *(m.shape[1] for m in matrices)])
    step = block_rows(cols)
    for lo in range(0, len(codes), step):
        rows = slice(lo, min(lo + step, len(codes)))
        block = codes[rows]
        if isinstance(block, range):
            block = np.arange(block.start, block.stop, block.step, dtype=np.int64)
        digits = code_digits(q, block, width)
        for i, matrix in enumerate(matrices):
            images = digits @ matrix
            images %= q
            yield rows, i, digit_codes(q, images)


@functools.lru_cache(maxsize=None)
def _irreducible_codes(q: int, d: int) -> np.ndarray:
    """Codes (lower-coefficient values in [0, q^d)) of all monic irreducibles
    of degree d, ascending. Product sieve: every composite monic of degree d
    is pi * m for some irreducible pi with deg pi <= d/2 and m monic of
    degree d - deg pi; reduced mod t^d, the product keeps exactly the
    coefficients below its leading 1. The monics m go through map_codes,
    so one digit block serves every pi of a degree."""
    field = PrimeModulus(q)
    t_d = Poly(field, (0,) * d + (1,))
    composite = np.zeros(q**d, dtype=bool)
    for a in range(1, d // 2 + 1):
        b = d - a
        matrices = [
            mulmod_matrix(Poly.from_code(field, pi_code + q**a), t_d, b + 1)
            for pi_code in _irreducible_codes(q, a).tolist()
        ]
        for _, _, images in map_codes(q, range(q**b, 2 * q**b), b + 1, matrices):
            composite[images] = True
    out = np.flatnonzero(~composite).astype(np.int64)
    out.flags.writeable = False
    return out


def _check_enum_cap(q: PrimeModulus, d: int) -> None:
    if d < 1:
        raise ValueError(f"degree must be >= 1, got {d}")
    if q.q**d > ENUM_CAP:
        raise ValueError(f"enumeration cap exceeded: {q.q}^{d} > ENUM_CAP = {ENUM_CAP}")


def irreducible_codes(q: PrimeModulus, d: int) -> np.ndarray:
    """Codes of all monic irreducibles of degree d, ascending (the cached,
    read-only sieve), refused when q^d exceeds ENUM_CAP."""
    _check_enum_cap(q, d)
    return _irreducible_codes(q.q, d)


def enumerate_irreducibles(q: PrimeModulus, d: int) -> list[Poly]:
    """All monic irreducibles of degree d, ascending code order."""
    digits = code_digits(q.q, irreducible_codes(q, d) + q.q**d, d + 1)
    return [Poly(q, tuple(row)) for row in digits.tolist()]


def smallest_irreducible(q: PrimeModulus, d: int) -> Poly:
    """enumerate_irreducibles(q, d)[0]: the first monic of degree d, in
    ascending code order, that passes the distinct-degree test. About
    one monic in d is irreducible, so the scan stops after a few tests,
    where the sieve would cover all q^d codes."""
    _check_enum_cap(q, d)
    for u in range(q.q**d, 2 * q.q**d):
        f = Poly.from_code(q, u)
        if is_irreducible(f):
            return f
    # unreachable: every degree has a monic irreducible
    raise ArithmeticError(f"no monic irreducible of degree {d}")


def _term(c: int, i: int) -> str:
    """The text of the nonzero term c t^i: "c", "t", "c*t", "t^i" or "c*t^i"."""
    if i == 0:
        return str(c)
    power = "t" if i == 1 else f"t^{i}"
    return power if c == 1 else f"{c}*{power}"


def poly_to_string(f: Poly) -> str:
    """Text format "c0+c1*t+c2*t^2+..." with zero terms omitted, e.g. "1+t^2"."""
    return "+".join(_term(c, i) for i, c in enumerate(f.coeffs) if c) or "0"


def _name_table(q: int, start: int, width: int) -> list[str]:
    """The names of the q^width sums of c_i t^(start+i), i < width, in code
    order, "" for 0: their digit matrix picks each term from one table of
    the q - 1 nonzero terms per position."""
    terms = np.array([["", *(_term(c, i) for c in range(1, q))] for i in range(start, start + width)], dtype=object)
    rows = terms[np.arange(width), code_digits(q, np.arange(q**width), width)].tolist()
    return ["+".join(filter(None, row)) for row in rows]


@functools.lru_cache(maxsize=None)
def _half_names(q: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    """code_names' two read-only tables for width, built once per (q,
    width): the low half's names, each followed by "+", then each again
    as the name of a code whose high half is 0 ("0" for 0); and the high
    half's names."""
    half = width // 2
    low_names = _name_table(q, 0, half)
    left = np.array([name and name + "+" for name in low_names] + [name or "0" for name in low_names], dtype=object)
    right = np.array(_name_table(q, half, width - half), dtype=object)
    left.flags.writeable = right.flags.writeable = False
    return left, right


def code_names(q: int, codes, width: int) -> list[str]:
    """poly_to_string(Poly.from_code(q, c)) for each of the codes, which
    must lie in [0, q^width). A code splits into its low width // 2
    digits and its high rest, and its name is one join of two table
    entries: the low half's name, followed by "+" when neither half is 0
    (or "0" when both are), and the high half's name."""
    left, right = _half_names(q, width)
    high, low = np.divmod(np.asarray(codes, dtype=np.int64), q ** (width // 2))
    low[high == 0] += q ** (width // 2)
    return (left[low] + right[high]).tolist()


def poly_from_string(q: PrimeModulus, s: str) -> Poly:
    """Inverse of poly_to_string; rejects coefficients outside [0, q) and
    exponents above EXPONENT_CAP, before it builds the coefficients."""
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
            if i > EXPONENT_CAP:
                raise ValueError(f"exponent {i} in term {term!r} exceeds EXPONENT_CAP = {EXPONENT_CAP}")
        else:
            raise ValueError(f"cannot parse term {term!r}")
        if not 0 <= c < q.q:
            raise ValueError(f"coefficient {c} out of range for F_{q.q}")
        if i in coeffs:
            raise ValueError(f"repeated degree {i} in {s!r}")
        coeffs[i] = c
    n = max(coeffs) + 1
    return Poly(q, tuple(coeffs.get(i, 0) for i in range(n)))
