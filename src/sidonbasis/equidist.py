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
take one array pass per (non-unit, first partner). The cost is
O(N + q^deg g log q^deg g) for a pool of N plus O(N^2) per non-unit
member, against O(N^3) products for the triples one by one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .ffpoly import (
    MINUS_INFINITY,
    PrimeModulus,
    Poly,
    code_digits,
    digit_codes,
    irreducible_codes,
    mulmod_matrix,
    poly_derivative,
    poly_gcd,
)
from .unitgroup import dlog_table, euler_phi_poly, factor_squarefree_poly, find_generator


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
    factor, n where the factor divides x."""
    qv = g.q.q
    digits = code_digits(qv, np.arange(qv**g.degree), g.degree)
    shape = []
    columns = []
    for pi in factor_squarefree_poly(g):
        residues = digit_codes(qv, digits @ mulmod_matrix(Poly.one(g.q), pi, g.degree) % qv)
        shape.append(qv**pi.degree - 1)
        logs = dlog_table(find_generator(pi))[residues]
        columns.append(np.where(logs < 0, shape[-1], logs))
    return tuple(shape), np.stack(columns, axis=1)


def unit_codes(g: Poly) -> list[int]:
    """Codes of the residues coprime to g, ascending."""
    shape, coords = _exponent_coordinates(g)
    return np.flatnonzero((coords < shape).all(axis=1)).tolist()


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


@dataclass(frozen=True)
class TripleCountReport:
    q: PrimeModulus
    d: int
    g: Poly
    pool_size: int  # |I_d|, the full pool
    counts: dict[int, int]  # residue code -> triples; complete over units
    units: tuple[int, ...]  # codes of the residues coprime to g, ascending


def triple_histogram(q: PrimeModulus, d: int, g: Poly, cap: int = 1000) -> TripleCountReport:
    """Count, for every residue class mod g, the unordered 3-subsets of
    I_d whose product lands there. Every unit class is present in the
    result (zero-filled); non-unit classes appear when hit, which happens
    exactly when a subset shares an irreducible factor with g, so the
    totals always partition C(|I_d|, 3)."""
    if g.q != q:
        raise ValueError("modulus field differs from q")
    if d < 1:
        raise ValueError("need d >= 1")
    _validate_modulus(g)
    codes = irreducible_codes(q, d)
    n = len(codes)
    if n > cap:
        raise ValueError(f"pool of {n} irreducibles exceeds cap {cap}")
    shape, coords = _exponent_coordinates(g)
    qv = q.q
    digits = code_digits(qv, codes + qv**d, d + 1)
    member = coords[digit_codes(qv, digits @ mulmod_matrix(Poly.one(q), g, d + 1) % qv)]
    mods = np.array(shape)
    is_unit = (member < mods).all(axis=1)
    ext_shape = tuple(m + 1 for m in shape)
    total = np.zeros(ext_shape, dtype=np.int64)
    total[tuple(slice(m) for m in shape)] = _distinct_triples(member[is_unit], shape)
    total = total.reshape(-1)

    def times(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.where((a == mods) | (b == mods), mods, (a + b) % mods)

    # each triple holding a non-unit member, counted at its first such member
    rest = np.ones(n, dtype=bool)
    for z in np.flatnonzero(~is_unit):
        rest[z] = False
        others = member[rest]
        for a in range(len(others) - 1):
            prods = times(times(member[z], others[a]), others[a + 1 :])
            total += np.bincount(np.ravel_multi_index(tuple(prods.T), ext_shape), minlength=total.size)
    per_code = total[np.ravel_multi_index(tuple(coords.T), ext_shape)]
    unit = (coords < mods).all(axis=1)
    hit = np.flatnonzero(unit | (per_code > 0))
    counts = dict(zip(hit.tolist(), per_code[hit].tolist()))
    return TripleCountReport(q, d, g, n, counts, tuple(np.flatnonzero(unit).tolist()))


@dataclass(frozen=True)
class DeviationRow:
    code: int
    residue: Poly
    count: int
    deviation: float  # count - expected, correctly rounded
    ratio: float  # |deviation| / normalizer


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
    rows: tuple[DeviationRow, ...]  # unit classes only


def deviation_report(report: TripleCountReport) -> DeviationReport:
    """Deviations c - B / phi of the unit-class counts, B = C(|I_d|, 3),
    each the correctly rounded (c phi - B) / phi. chi2, the sum of
    (c - B / phi)^2 / (B / phi), is phi sum(c^2) / B - 2 sum(c) + B."""
    q, d, g = report.q, report.d, report.g
    theta = Fraction(g.degree, 3 * d)
    if not 0 < theta < 1:
        raise ValueError(f"deg g / (3d) = {theta} outside (0, 1)")
    phi_g = euler_phi_poly(g)
    binom = math.comb(report.pool_size, 3)
    normalizer = math.sqrt(q.q ** (3 * d - g.degree))
    unit_set = set(report.units)
    rows = []
    nonunit_total = unit_sum = square_sum = 0
    for u, c in sorted(report.counts.items()):
        if u not in unit_set:
            nonunit_total += c
            continue
        unit_sum += c
        square_sum += c * c
        dev = (c * phi_g - binom) / phi_g
        rows.append(DeviationRow(u, Poly.from_code(q, u), c, dev, abs(dev) / normalizer))
    ratios = [row.ratio for row in rows]
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
        rows=tuple(rows),
    )


def deviation_csv_rows(report: DeviationReport):
    """(a, count, expected, deviation, normalized_ratio) per unit class."""
    expected = float(report.expected)
    for row in report.rows:
        yield (str(row.residue), row.count, expected, row.deviation, row.ratio)


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
