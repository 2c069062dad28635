"""Independent references that only the tests call.

Each function here recomputes, by the textbook method and one element at
a time, something the package computes another way:

- dlog by Pohlig-Hellman with baby-step giant-step per prime power, with
  its helpers poly_ext_gcd, poly_invmod and crt_int, against the package's
  one discrete-log path, unitgroup.dlog_table;
- crt, the polynomial CRT, by which the tests' reference decode
  rebuilds f from its e digits, against builder.decode_entry's lookup;
- unit_codes, the units mod g, from equidist's exponent coordinates,
  and euler_phi_poly, their number from the factors of g, against
  equidist's len(units);
- find_representations, the exact three-element sums by two pointers,
  against the pair-sum engine of analyzer;
- build_Fk and level_e_digits, a level's members as Poly objects and
  their e digits;
- _pack, n from one digit vector <s r_k e_k ... r_1 e_1> by its weights,
  against builder._encode;
- radix, encode and decode, the alternating mixed radix (q^i - 1 | p)
  written out digit by digit from q and p, against builder.digit_weights;
- peel, the decomposition of one m written out as a loop, against
  analyzer.decompose_many;
- from_entries, a sequence from entry records made by hand;
- entry_fault and aux_fault, the loaders' checks of one sequence-file
  entry and of one aux block written out check by check, against
  builder.seq_from_json and auxset.aux_from_json: the fuzz oracles.

The test files import this module by name: tests/ has no __init__.py,
so pytest puts the directory on sys.path.
"""

from __future__ import annotations

import math

import numpy as np

from sidonbasis.auxset import AUX_P_CAP, json_field, json_value
from sidonbasis.builder import (
    Params,
    SequenceLevel,
    SidonSequence,
    _code_e_digits,
    digit_weights,
    fk_degrees,
    level_tables,
)
from sidonbasis.equidist import _exponent_coordinates
from sidonbasis.ffpoly import (
    Poly,
    _check_same_modulus,
    is_irreducible,
    poly_divmod,
    poly_gcd,
    poly_mod,
    poly_from_string,
    poly_mul,
    poly_powmod,
    poly_sub,
)
from sidonbasis.primes import factorize
from sidonbasis.unitgroup import DLOG_SCAN_LIMIT, Generator, dlog_table, factor_squarefree_poly

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
    scale = Poly(q, (inv,))
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
    _, coords = _exponent_coordinates(g)
    return np.flatnonzero((coords >= 0).all(axis=1)).tolist()


def euler_phi_poly(g: Poly) -> int:
    """|units of F_q[t]/(g)| for monic squarefree g: the product of
    q^deg - 1 over the irreducible factors."""
    if g.degree == 0:
        return 1
    out = 1
    for pi in factor_squarefree_poly(g):
        out *= g.q.q**pi.degree - 1
    return out


# -- the mixed radix ----------------------------------------------------


def radix(q: int, p: int, i: int) -> int:
    """b_i of the alternating mixed radix, for 1-indexed position i:
    q^i - 1 for odd i, p for even i."""
    return q**i - 1 if i % 2 else p


def encode(q: int, p: int, digits) -> int:
    """x_1 + x_2 b_1 + x_3 b_1 b_2 + ... of the digits x_1, x_2, ...
    (least significant first; they need not be canonical)."""
    total = 0
    weight = 1
    for i, x in enumerate(digits, start=1):
        total += x * weight
        weight *= radix(q, p, i)
    return total


def decode(q: int, p: int, n: int, num_digits: int) -> tuple[int, ...]:
    """The num_digits digits of n >= 0, least significant first: digits
    1..num_digits-1 canonical, 0 <= x_i < b_i, and the top one absorbing
    whatever quotient remains."""
    if n < 0:
        raise ValueError(f"expected a natural number, got {n}")
    if num_digits < 1:
        raise ValueError(f"need at least one digit, got {num_digits}")
    digits = []
    for i in range(1, num_digits):
        n, x = divmod(n, radix(q, p, i))
        digits.append(x)
    digits.append(n)
    return tuple(digits)


def peel(m: int, params: Params, table) -> tuple[list[int], list[int], int]:
    """The decomposition of one m written out: (x digits, y digits, z).
    While the value exceeds 6 p q^{2l-1}, level l takes x_l, the value
    mod q^{2l-1} - 1, then y_l, the table entry of the quotient's class
    mod p."""
    q, p = params.q.q, params.aux.p
    xs, ys, cur, power = [], [], m, q
    while cur > 6 * p * power:
        xs.append(cur % (power - 1))
        cur //= power - 1
        ys.append(table.entries[cur % p])
        cur = (cur - ys[-1]) // p
        power *= q * q
    return xs, ys, cur


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


def from_entries(params: Params, moduli, entries, warnings=()) -> SidonSequence:
    """The sequence of entries given in ascending n, each an object with
    f, k, e, r, s and n (a SequenceEntry, or a record made by hand)."""
    entries = list(entries)
    by_level: dict[int, list[int]] = {}
    for pos, ent in enumerate(entries):
        by_level.setdefault(ent.k, []).append(pos)
    levels = []
    for k in sorted(by_level):
        rows = [entries[pos] for pos in by_level[k]]
        if any(len(ent.e) != k or len(ent.r) != k for ent in rows):
            raise ValueError(f"an entry at level k = {k} has not k digits e and r")
        levels.append(
            SequenceLevel(
                params.q,
                k,
                np.array([ent.f.code for ent in rows], dtype=np.int64),
                np.array([ent.e for ent in rows], dtype=np.int64).reshape(-1, k),
                np.array([ent.r for ent in rows], dtype=np.int64).reshape(-1, k),
                np.array([ent.s for ent in rows], dtype=object),
                np.array([ent.n for ent in rows], dtype=object),
                np.array(by_level[k], dtype=np.intp),
            )
        )
    return SidonSequence(params, moduli, tuple(levels), tuple(warnings))


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


# -- untrusted files ----------------------------------------------------


def _json_ints(value, what: str) -> tuple[int, ...]:
    digits = tuple(json_value(value, list, what))
    if not set(map(type, digits)) <= {int}:
        raise ValueError(f"{what} must be a list of integers, got {value!r}")
    return digits


def _json_decimal(value, what: str) -> int:
    text = json_value(value, str, what)
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"{what} must be a decimal integer, got {text!r}")
    return int(text)


def _entry_fault(idx: int, ent, params: Params) -> Exception | None:
    """The first fault of entry idx that the checks of one entry alone
    find (type, level, digits that fit int64, digit count, spelling of
    f), None when it has none."""
    try:
        json_value(ent, dict, f"entry {idx}")
        k = json_value(json_field(ent, "k", f"entry {idx}"), int, f"entry {idx}: k")
        if not params.k_min <= k <= params.k_max:
            raise ValueError(f"entry {idx}: level k = {k} outside [k_min, k_max]")
        e = _json_ints(json_field(ent, "e", f"entry {idx}"), f"entry {idx}: e")
        if not all(-(2**63) <= d < 2**63 for d in e):
            raise ValueError(f"entry {idx}: e digits differ from the table logs of f")
        r = _json_ints(json_field(ent, "r", f"entry {idx}"), f"entry {idx}: r")
        if not all(-(2**63) <= d < 2**63 for d in r):
            raise ValueError(f"entry {idx}: r digits outside A")
        _json_decimal(json_field(ent, "s", f"entry {idx}"), f"entry {idx}: s")
        _json_decimal(json_field(ent, "n", f"entry {idx}"), f"entry {idx}: n")
        if len(e) != k or len(r) != k:
            raise ValueError(f"entry {idx}: digit count differs from k = {k}")
        name = json_value(json_field(ent, "f", f"entry {idx}"), str, f"entry {idx}: f")
        try:
            poly_from_string(params.q, name)
        except ValueError as exc:
            raise ValueError(f"entry {idx}: f does not parse: {exc}") from None
    except ValueError as exc:
        return exc
    return None


def entry_fault(idx: int, ent, params: Params, moduli, seen: dict[int, int]) -> str | None:
    """The message by which seq_from_json refuses entry idx of a sequence
    file, with every check written out for this entry alone and in the
    loader's order, or None when the entry passes; seen maps the code of
    each earlier entry's f to that entry and takes this one's when it
    passes. The logs are oracle dlogs, membership is is_irreducible and
    the re-encoding _pack."""
    exc = _entry_fault(idx, ent, params)
    if exc is not None:
        return str(exc)
    q, k, e, r = params.q.q, ent["k"], ent["e"], ent["r"]
    s, n = int(ent["s"]), int(ent["n"])
    f = poly_from_string(params.q, ent["f"])
    if not all(0 <= e_i < q ** (2 * i - 1) - 1 for i, e_i in enumerate(e, start=1)):
        return f"entry {idx}: e digits differ from the table logs of f"
    if not set(r) <= set(params.aux.A):
        return f"entry {idx}: r digits outside A"
    if _pack(digit_weights(params), e, r, s) != n:
        return f"entry {idx}: n does not re-encode from its e, r, s digits"
    if f.degree not in fk_degrees(params, k):
        return f"entry {idx}: deg f outside the level k = {k} window"
    if not (f.is_monic() and is_irreducible(f)):
        return f"entry {idx}: f is not a monic irreducible"
    if not 1 <= s <= q ** (3 * k):
        return f"entry {idx}: s outside [1, q^(3k)] = [1, {q ** (3 * k)}] at level k = {k}"
    if [dlog(gen, f) for gen in moduli.generators[:k]] != list(e):
        return f"entry {idx}: e digits differ from the table logs of f"
    if f.code in seen:
        return f"entry {idx}: f repeats entry {seen[f.code]}"
    seen[f.code] = idx
    return None


def aux_fault(obj) -> str | None:
    """The message by which aux_from_json refuses the aux block obj, with
    the sumsets A+A+{0,1} and A+A+A formed as Python sets, or None when
    it loads."""
    try:
        json_value(obj, dict, "aux")
        p = json_value(json_field(obj, "p", "aux"), int, "aux p")
        if p > AUX_P_CAP:
            return f"aux p = {p} exceeds AUX_P_CAP = {AUX_P_CAP}"
        if p < 2 or any(p % d == 0 for d in range(2, math.isqrt(p) + 1)):
            return f"aux p = {p} is not prime"
        elems = json_field(obj, "A", "aux")
        if type(elems) is not list or not elems:
            return "aux A must be a nonempty list"
        for a in elems:
            json_value(a, int, "aux element")
        outside = [a for a in elems if not 0 <= a < p]
        if outside:
            return f"aux A has elements outside [0, {p}): {outside}"
        if len(set(elems)) != len(elems):
            return "aux A has repeated elements"
        window_start = json_value(json_field(obj, "window_start", "aux"), int, "aux window_start")
    except ValueError as exc:
        return str(exc)
    a_set = sorted(elems)
    if not 1 <= a_set[0] <= a_set[-1] <= p // 2 - 1:
        return "A must lie inside {1..floor(p/2)-1}"
    for a in a_set:
        for a1 in a_set:
            for delta in (0, 1):
                if a - a1 - delta in elems:
                    return "aux A meets A+A+{0,1}: %d = %d + %d + %d" % (a, a1, a - a1 - delta, delta)
    triples = {a + b + c for a in a_set for b in a_set for c in a_set}
    start = next((y for y in sorted(triples) if all(y + i in triples for i in range(p + 2))), None)
    if start is None:
        return f"aux A+A+A holds no run of p+2 = {p + 2} consecutive integers"
    if window_start != start:
        return f"aux window_start = {window_start} differs from the run start {start} in A+A+A"
    for key, kind, default in (("seed", int, 0), ("attempt", int, 0), ("method", str, "random")):
        try:
            json_value(obj.get(key, default), kind, f"aux {key}")
        except ValueError as exc:
            return str(exc)
    return None
