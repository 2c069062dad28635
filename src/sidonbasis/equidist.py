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
irreducible factors pi_j of g, one discrete log per factor, and by the
CRT these coordinates name each unit once; unitgroup.log_coordinates
gives them for every residue and every pool member. The triples of unit
members are one FFT convolution (_distinct_triples), O(N + phi(g) log
phi(g)) for a pool of N against O(N^3) products for the triples one by
one. Only the unit classes are reported. A member that is no unit is
one of the degree-d factors of g, and every triple that holds one lands
off the units: those are C(N, 3) - C(N_u, 3), N_u the unit members,
counted as one total.

The one size limit is ffpoly.ENUM_CAP on q^deg g and on q^d, checked
before allocating (see triple_histogram); no function takes a limit.
"""

from __future__ import annotations

import math
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
    poly_derivative,
    poly_gcd,
)
from .unitgroup import Generator, factor_squarefree_poly, find_generator, log_coordinates


def _validate_modulus(g: Poly) -> None:
    if g.degree is MINUS_INFINITY or g.degree < 2:
        raise ValueError("modulus must have degree >= 2")
    if not g.is_monic():
        raise ValueError("modulus must be monic")
    if poly_gcd(g, poly_derivative(g)).degree != 0:
        raise ValueError("modulus must be squarefree")


def _exponent_coordinates(g: Poly) -> tuple[tuple[Generator, ...], np.ndarray]:
    """The generators of the irreducible factors of g (find_generator, in
    factor_squarefree_poly order) and their log_coordinates C over all
    residues: shape (q^deg g, factors), C[code(x)] the discrete logs of x
    mod each factor, -1 where the factor divides x. Raises ValueError
    when q^deg g exceeds ENUM_CAP, before allocating anything."""
    qv = g.q.q
    if qv**g.degree > ENUM_CAP:
        raise ValueError(f"{qv}^{g.degree} residues mod g exceed ENUM_CAP = {ENUM_CAP}")
    generators = tuple(find_generator(pi) for pi in factor_squarefree_poly(g))
    return generators, log_coordinates(generators, range(qv**g.degree), g.degree)


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
    pool_size: int  # N = |I_d|, the full pool
    units: np.ndarray  # int64 codes of the residues coprime to g, ascending
    counts: np.ndarray  # int64 triples per unit class, aligned with units
    nonunit_total: int  # C(N, 3) - C(N_u, 3): the triples that hold a factor of g


def triple_histogram(q: PrimeModulus, d: int, g: Poly) -> TripleCountReport:
    """Count, for every unit class mod g, the unordered 3-subsets of I_d
    whose product lands there, and the subsets that land off the units:
    those that hold one of the N - N_u members that share a factor with
    g, C(N, 3) - C(N_u, 3) in all.

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
    generators, coords = _exponent_coordinates(g)
    shape = tuple(gen.order for gen in generators)
    member = log_coordinates(generators, codes + q.q**d, d + 1)
    member = member[(member >= 0).all(axis=1)]
    units = np.flatnonzero((coords >= 0).all(axis=1))
    counts = _distinct_triples(member, shape)[tuple(coords[units].T)]
    return TripleCountReport(q, d, g, n, units, counts, math.comb(n, 3) - math.comb(len(member), 3))


@dataclass(frozen=True)
class DeviationReport:
    q: PrimeModulus
    d: int
    g: Poly
    theta: Fraction  # deg g / (3d)
    phi_g: int
    binom: int  # C(|I_d|, 3), the conserved total
    expected: Fraction  # binom / phi_g, the per-unit main term
    nonunit_total: int  # triples sharing a factor with g
    conservation_ok: bool  # the unit counts sum to binom - nonunit_total
    max_ratio: float
    mean_ratio: float
    chi2: float  # sum of squared deviations over expected, unit classes
    # one row per unit class, in code order
    codes: np.ndarray  # int64, the histogram's units
    count_row: np.ndarray  # intp, the row of the class's count in the columns below
    # one row per distinct count, ascending
    distinct_counts: np.ndarray  # int64
    count_deviations: np.ndarray  # float64 count - expected, correctly rounded
    count_ratios: np.ndarray  # float64 |deviation| / q^{(3d - deg g)/2}


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
    alone, so each is computed once per distinct count (np.unique).
    chi2, the sum of (c - B / phi)^2 / (B / phi), is
    phi sum(c^2) / B - 2 sum(c) + B, with the sums exact in Python
    integers (sum(c^2) passes 2^63 by d = 12). mean_ratio is the float
    sum of the ratios one class at a time, in code order."""
    q, d, g = report.q, report.d, report.g
    theta = check_theta(d, g)
    phi_g = len(report.units)
    binom = math.comb(report.pool_size, 3)
    normalizer = math.sqrt(q.q ** (3 * d - g.degree))
    distinct, count_row = np.unique(report.counts, return_inverse=True)
    counts = distinct.tolist()
    multiplicity = np.bincount(count_row).tolist()
    unit_sum = sum(c * m for c, m in zip(counts, multiplicity))
    square_sum = sum(c * c * m for c, m in zip(counts, multiplicity))
    deviations = [(c * phi_g - binom) / phi_g for c in counts]
    ratios = np.array([abs(dev) / normalizer for dev in deviations])
    chi2 = Fraction(phi_g * square_sum, binom) - 2 * unit_sum + binom if binom else 0
    return DeviationReport(
        q=q,
        d=d,
        g=g,
        theta=theta,
        phi_g=phi_g,
        binom=binom,
        expected=Fraction(binom, phi_g),
        nonunit_total=report.nonunit_total,
        conservation_ok=unit_sum + report.nonunit_total == binom,
        max_ratio=float(ratios.max()),
        mean_ratio=sum(ratios[count_row].tolist()) / phi_g,
        chi2=float(chi2),
        codes=report.units,
        count_row=count_row,
        distinct_counts=distinct,
        count_deviations=np.array(deviations),
        count_ratios=ratios,
    )


# lines per block of CSV text: at 128, writing the d = 6, g = 2+t^2+t^8
# report (553 KB) peaks at about 48 KB traced
_CSV_BLOCK = 128


def deviation_csv_lines(report: DeviationReport) -> Iterator[str]:
    """The CSV lines "a,count,expected,deviation,normalized_ratio" of the
    unit classes, newline-terminated, with every value as str() prints
    it, yielded as one string per block of _CSV_BLOCK lines, so that a
    writer holds one block at a time. The part after a is formatted once
    per distinct count, and the names a one block at a time
    (ffpoly.code_names)."""
    expected = float(report.expected)
    columns = zip(report.distinct_counts.tolist(), report.count_deviations.tolist(), report.count_ratios.tolist())
    tails = np.array([f",{c},{expected},{dev},{ratio}\n" for c, dev, ratio in columns], dtype=object)
    for lo in range(0, len(report.codes), _CSV_BLOCK):
        block = slice(lo, lo + _CSV_BLOCK)
        names = code_names(report.q.q, report.codes[block], report.g.degree)
        parts = np.empty((len(names), 2), dtype=object)  # name, tail per row
        parts[:, 0] = names
        parts[:, 1] = tails[report.count_row[block]]
        yield "".join(parts.ravel().tolist())


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
