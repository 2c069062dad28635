"""Distribution of triple products of same-degree irreducibles in the
residue classes of F_q[t]/(g).

For a squarefree modulus g and the set I_d of monic irreducibles of
degree d, every unordered 3-subset is reduced to its product class mod
g. If the classes were perfectly uniform each unit would receive
C(N, 3) / phi(g) triples; the report normalizes the observed deviations
by q^{(3d - deg g)/2}, the square-root scale the count fluctuations are
expected to live at. The normalized ratios are a regression tripwire
(they should stay small and shrink as d grows), not a sharp constant.

Counting works in exponent coordinates. The units of F_q[t]/(g) are the
product of the cyclic groups Z/n_j, n_j = q^deg(pi_j) - 1, over the
irreducible factors pi_j of g, one discrete log per factor; a residue
divisible by pi_j takes the extra coordinate n_j there, so by the CRT
these coordinates name all q^deg g = prod(n_j + 1) residues. The triples
of unit members are one FFT convolution (_distinct_triples). A non-unit
member is one of the degree-d factors of g, and the triples holding one
are its products with the pairs of the rest of the pool, binned
_PAIR_BLOCK pairs at a time. The cost is O(N + q^deg g log q^deg g) for
a pool of N plus, per non-unit member, O(N^2) products and one
q^deg g-long bincount per block, against O(N^3) products for the
triples one by one.

The one size limit is ffpoly.ENUM_CAP on q^deg g and on q^d, checked
before allocating (see triple_histogram); no function takes a limit.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .ffpoly import (
    ENUM_CAP,
    MINUS_INFINITY,
    PrimeModulus,
    Poly,
    code_names,
    irreducible_codes,
    map_codes,
    mulmod_matrix,
    poly_derivative,
    poly_gcd,
)
from .unitgroup import dlog_table, factor_squarefree_poly, find_generator


def _validate_modulus(g: Poly) -> None:
    if g.degree is MINUS_INFINITY or g.degree < 2:
        raise ValueError("modulus must have degree >= 2")
    if not g.is_monic():
        raise ValueError("modulus must be monic")
    if poly_gcd(g, poly_derivative(g)).degree != 0:
        raise ValueError("modulus must be squarefree")


def _exponent_coordinates(g: Poly) -> tuple[tuple[int, ...], np.ndarray]:
    """The unit group's shape (n = q^deg(pi) - 1 per irreducible factor
    pi, in factor_squarefree_poly order) and an array C of shape
    (q^deg g, factors) with C[code(x)] the discrete logs of x mod each
    factor, n where the factor divides x. Raises ValueError when
    q^deg g exceeds ENUM_CAP, before allocating anything."""
    qv = g.q.q
    if qv**g.degree > ENUM_CAP:
        raise ValueError(f"{qv}^{g.degree} residues mod g exceed ENUM_CAP = {ENUM_CAP}")
    factors = factor_squarefree_poly(g)
    shape = tuple(qv**pi.degree - 1 for pi in factors)
    tables = [dlog_table(find_generator(pi)) for pi in factors]
    matrices = [mulmod_matrix(Poly.one(g.q), pi, g.degree) for pi in factors]
    coords = np.empty((qv**g.degree, len(factors)), dtype=np.int64)
    for rows, i, residues in map_codes(qv, range(qv**g.degree), g.degree, matrices):
        logs = tables[i][residues]
        coords[rows, i] = np.where(logs < 0, shape[i], logs)
    return shape, coords


def _distinct_triples(points: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Unordered triples of distinct rows of points (exponent tuples in
    the product of Z/shape[i]) per sum class, as an int64 array of that
    shape: (h*h*h - 3 h_2*h + 2 h_3) / 6 for the histograms h, h_2, h_3
    of the points, their doubles and their triples.

    r = h*h*h - 3 h_2*h is one rfftn/irfftn pass, rounded; 2 h_3 is added
    exactly. With N = len(points), M = prod(shape), u = 2^-53 and
    L = max(1, log2 M), each entry of the float r is within
    200 u L (N^3 + 3 N^2) of the exact one. AssertionError is raised
    before any transform runs when this bound reaches 1/2.

    Assumption: each one-dimensional pocketfft pass of length n errs by
    at most 30 u log2(n) |y|_2 in 2-norm, y the exact DFT. Cooley-Tukey
    passes take about 7 u per radix level (Higham, Accuracy and Stability
    of Numerical Algorithms, 2nd ed., Thm. 24.2, twiddles accurate to u).
    A Bluestein pass, taken only for n >= 50 with a large prime factor,
    is two passes of a smooth length below 4n and two chirp products of
    modulus 1: about 14 u (log2 n + 2) + 2 u <= 30 u log2 n.

    Derivation, to first order in u. Passes along the axes add, so each
    transform errs by delta = 30 u L relative, sqrt(2) delta over the
    Hermitian extension of rfftn's half spectrum. h, h_2 >= 0 sum to N,
    so their transforms H, H_2 have modulus <= N and 2-norm <= sqrt(M) N.
    The input errors e_1, e_2 move H^3 - 3 H_2 H by at most
    3 N^2 |e_1| + 3 N (|e_1| + |e_2|), in 2-norm sqrt(2) delta sqrt(M)
    (3 N^3 + 6 N^2); its five complex operations add 7 u (N^3 + 3 N^2)
    per entry. irfftn divides 2-norms by sqrt(M) and adds
    sqrt(2) delta |r|_2 <= sqrt(2) delta (N^3 + 3 N^2), as h*h*h and
    h_2*h sum to N^3 and N^2. An entry is at most the 2-norm, so it errs
    by at most (120 sqrt(2) L + 7) u (N^3 + 3 N^2) < 177 u L (N^3 + 3 N^2).
    Below 1/2 the bound keeps N^3 far inside int64.
    """
    n = len(points)
    size = math.prod(shape)
    bound = 200 * 2.0**-53 * max(1.0, math.log2(size)) * (n**3 + 3 * n**2)
    if bound >= 0.5:
        raise AssertionError(
            f"FFT round-off bound {bound:.3g} reaches 1/2 for {n} points in {size} classes"
        )
    mods = np.array(shape, dtype=np.int64)

    def hist(k: int) -> np.ndarray:
        flat = np.ravel_multi_index(tuple((k * points % mods).T), shape)
        return np.bincount(flat, minlength=size).reshape(shape)

    axes = tuple(range(len(shape)))
    h = np.fft.rfftn(hist(1), axes=axes)
    r = np.fft.irfftn(h * h * h - 3 * np.fft.rfftn(hist(2), axes=axes) * h, s=shape, axes=axes)
    six = np.rint(r).astype(np.int64) + 2 * hist(3)
    if (six % 6).any():
        raise AssertionError("ordered triple counts not divisible by 6")
    return six // 6


# (member, partner, partner) products per block of the non-unit pass
_PAIR_BLOCK = 1 << 17


def _add_nonunit_triples(total: np.ndarray, member: np.ndarray, shape: tuple[int, ...]) -> None:
    """Add to total, the flat counts over the extended shape (n_j + 1 per
    factor), the triples of rows of member (exponent coordinates, n_j
    where pi_j divides) that hold a non-unit row. Each such triple is
    counted at its first non-unit member z: z times each pair a < b of
    the members left once z and the non-units before it are taken out,
    binned _PAIR_BLOCK pairs at a time.

    Coordinates are added in a code where a sum names its product: the
    coordinate c of factor j stays c on a unit and becomes S_j = 2 n_j - 1
    where pi_j divides, so the sum s of two codes is at most 2 n_j - 2
    exactly when both are units, with product coordinate s mod n_j, and
    at least S_j otherwise, with product coordinate n_j. recode[j][s] is
    that coordinate in the same code and place[j][s] it times the stride
    of factor j in total, s in [0, 2 S_j]: a product is one add and one
    gather per factor."""
    mods = np.array(shape)
    nonunits = np.flatnonzero((member >= mods).any(axis=1))
    if not len(nonunits):
        return
    strides = [math.prod(m + 1 for m in shape[j + 1 :]) for j in range(len(shape))]
    place, recode = [], []
    for nj, stride in zip(shape, strides):
        coord = np.arange(4 * nj - 1) % nj
        coord[2 * nj - 1 :] = nj
        recode.append(np.where(coord < nj, coord, 2 * nj - 1))
        coord *= stride
        place.append(coord)
    coded = np.where(member < mods, member, 2 * mods - 1).T.copy()  # one row per factor
    rest = np.ones(len(member), dtype=bool)
    for z in nonunits:
        rest[z] = False
        others = coded[:, rest]
        left = [table[col[z] + row] for table, col, row in zip(recode, coded, others)]
        m = others.shape[1]
        row_pairs = m - 1 - np.arange(m)
        before = np.concatenate(([0], np.cumsum(row_pairs)))  # pairs in the rows above a
        a0 = 0
        while a0 < m - 1:
            a1 = max(a0 + 1, int(np.searchsorted(before, before[a0] + _PAIR_BLOCK, side="right")) - 1)
            pairs = row_pairs[a0:a1]
            b = np.arange(before[a1] - before[a0])
            b -= np.repeat(before[a0:a1] - before[a0] - np.arange(a0, a1) - 1, pairs)
            flat = np.zeros(len(b), dtype=np.intp)
            for table, lj, oj in zip(place, left, others):
                s = np.repeat(lj[a0:a1], pairs)
                s += oj[b]
                flat += table[s]
            total += np.bincount(flat, minlength=total.size)
            a0 = a1


@dataclass(frozen=True)
class TripleCountReport:
    q: PrimeModulus
    d: int
    g: Poly
    pool_size: int  # |I_d|, the full pool
    counts: dict[int, int]  # residue code -> triples; complete over units
    units: tuple[int, ...]  # codes of the residues coprime to g, ascending


def triple_histogram(q: PrimeModulus, d: int, g: Poly) -> TripleCountReport:
    """Count, for every residue class mod g, the unordered 3-subsets of
    I_d whose product lands there. Every unit class is present in the
    result (zero-filled); non-unit classes appear when hit, which happens
    exactly when a subset shares an irreducible factor with g, so the
    totals always partition C(|I_d|, 3).

    The pool has no cap of its own: irreducible_codes refuses q^d above
    ENUM_CAP, and _distinct_triples refuses, before any transform, a pool
    whose round-off bound reaches 1/2. q^deg g above ENUM_CAP is refused
    by _exponent_coordinates."""
    if g.q != q:
        raise ValueError("modulus field differs from q")
    if d < 1:
        raise ValueError("need d >= 1")
    _validate_modulus(g)
    codes = irreducible_codes(q, d)
    n = len(codes)
    shape, coords = _exponent_coordinates(g)
    qv = q.q
    member = np.empty((n, len(shape)), dtype=np.int64)
    for rows, _, residues in map_codes(qv, codes + qv**d, d + 1, [mulmod_matrix(Poly.one(q), g, d + 1)]):
        member[rows] = coords[residues]
    mods = np.array(shape)
    is_unit = (member < mods).all(axis=1)
    ext_shape = tuple(m + 1 for m in shape)
    total = np.zeros(ext_shape, dtype=np.int64)
    total[tuple(slice(m) for m in shape)] = _distinct_triples(member[is_unit], shape)
    total = total.reshape(-1)
    _add_nonunit_triples(total, member, shape)
    per_code = total[np.ravel_multi_index(tuple(coords.T), ext_shape)]
    unit = (coords < mods).all(axis=1)
    hit = np.flatnonzero(unit | (per_code > 0))
    counts = dict(zip(hit.tolist(), per_code[hit].tolist()))
    return TripleCountReport(q, d, g, n, counts, tuple(np.flatnonzero(unit).tolist()))


@dataclass(frozen=True)
class DeviationReport:
    q: PrimeModulus
    d: int
    g: Poly
    theta: Fraction  # deg g / (3d)
    phi_g: int
    binom: int  # C(|I_d|, 3), the conserved total
    expected: Fraction  # binom / phi_g, the per-unit main term
    normalizer: float  # q^{(3d - deg g)/2}
    nonunit_total: int  # triples sharing a factor with g
    conservation_ok: bool
    max_ratio: float
    mean_ratio: float
    chi2: float  # sum of squared deviations over expected, unit classes
    # one column entry per unit class, in code order
    codes: tuple[int, ...]
    residues: tuple[str, ...]  # poly_to_string of the class's residue
    counts: tuple[int, ...]
    deviations: tuple[float, ...]  # count - expected, correctly rounded
    ratios: tuple[float, ...]  # |deviation| / normalizer


def check_theta(d: int, g: Poly) -> Fraction:
    """theta = deg g / (3d), refused by ValueError unless it lies in
    (0, 1), where the deviation report's normalization applies."""
    if d < 1:
        raise ValueError("need d >= 1")
    _validate_modulus(g)
    theta = Fraction(g.degree, 3 * d)
    if not 0 < theta < 1:
        raise ValueError(f"deg g / (3d) = {theta} outside (0, 1)")
    return theta


def deviation_report(report: TripleCountReport) -> DeviationReport:
    """Deviations c - B / phi of the unit-class counts, B = C(|I_d|, 3)
    and phi = phi(g) = len(report.units), each the correctly rounded
    (c phi - B) / phi. A deviation and its ratio depend on the count
    alone, so each is computed once per distinct count. chi2, the sum of (c - B / phi)^2 / (B / phi), is
    phi sum(c^2) / B - 2 sum(c) + B, with the sums exact in Python
    integers (sum(c^2) passes 2^63 by d = 12)."""
    q, d, g = report.q, report.d, report.g
    theta = check_theta(d, g)
    phi_g = len(report.units)
    binom = math.comb(report.pool_size, 3)
    normalizer = math.sqrt(q.q ** (3 * d - g.degree))
    counts = tuple(map(report.counts.__getitem__, report.units))
    multiplicity = Counter(counts)
    unit_sum = sum(c * m for c, m in multiplicity.items())
    square_sum = sum(c * c * m for c, m in multiplicity.items())
    nonunit_total = sum(report.counts.values()) - unit_sum
    deviation = {c: (c * phi_g - binom) / phi_g for c in multiplicity}
    ratio = {c: abs(dev) / normalizer for c, dev in deviation.items()}
    ratios = tuple(map(ratio.__getitem__, counts))
    chi2 = Fraction(phi_g * square_sum, binom) - 2 * unit_sum + binom if binom else 0
    return DeviationReport(
        q=q,
        d=d,
        g=g,
        theta=theta,
        phi_g=phi_g,
        binom=binom,
        expected=Fraction(binom, phi_g),
        normalizer=normalizer,
        nonunit_total=nonunit_total,
        conservation_ok=unit_sum + nonunit_total == binom,
        max_ratio=max(ratios) if ratios else 0.0,
        mean_ratio=sum(ratios) / len(ratios) if ratios else 0.0,
        chi2=float(chi2),
        codes=report.units,
        residues=tuple(code_names(q.q, report.units, g.degree)),
        counts=counts,
        deviations=tuple(map(deviation.__getitem__, counts)),
        ratios=ratios,
    )


def deviation_csv_lines(report: DeviationReport) -> Iterator[str]:
    """An iterator over the CSV line "a,count,expected,deviation,
    normalized_ratio" of each unit class, newline-terminated, with every
    value as str() prints it. The part after a is formatted once per
    distinct count, when this is called; each line is joined when it is
    read, so that a writer need not hold them all."""
    expected = float(report.expected)
    row_of = dict(zip(report.counts, range(len(report.counts))))  # one row per distinct count
    tail = {c: f",{c},{expected},{report.deviations[i]},{report.ratios[i]}\n" for c, i in row_of.items()}
    return map(str.__add__, report.residues, map(tail.__getitem__, report.counts))


def deviation_summary(report: DeviationReport) -> dict:
    """The JSON-ready summary block."""
    return {
        "q": report.q.q,
        "d": report.d,
        "g": str(report.g),
        "theta": float(report.theta),
        "phi_g": report.phi_g,
        "binom": report.binom,
        "max_ratio": report.max_ratio,
        "mean_ratio": report.mean_ratio,
        "chi2": report.chi2,
        "nonunit_total": report.nonunit_total,
    }
