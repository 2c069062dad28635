"""Distribution of triple products of same-degree irreducibles in the
residue classes of F_q[t]/(g).

For a squarefree modulus g and the set I_d of monic irreducibles of
degree d, every unordered 3-subset is reduced to its product class mod
g. If the classes were perfectly uniform each unit would receive
C(N, 3) / phi(g) triples; the report normalizes the observed deviations
by q^{(3d - deg g)/2}, the square-root scale the count fluctuations are
expected to live at. The normalized ratios are a regression tripwire
(they should stay small and shrink as d grows), not a sharp constant.

Counting works in exponent coordinates. The units of F_q[t]/(g) are
isomorphic to the product of the cyclic groups Z/(q^deg(pi) - 1) over
the irreducible factors pi of g, with one discrete log per factor.
Reduction mod pi is F_q-linear on coefficient vectors, so one matrix
product mod q and one log-table gather per factor give the coordinates
of every residue at once; a residue divisible by pi has no log there and
is a non-unit. Let h be the histogram of the pool's unit members in
these coordinates and h_2, h_3 the histograms of their doubles and
triples. The unordered triples of distinct members per unit class are

    (h * h * h - 3 h_2 * h + 2 h_3) / 6,

a convolution over the group, computed exactly in int64 by adding one
shifted copy per occupied pool position. A pool member is a non-unit
exactly when it is one of the degree-d factors of g, so at most
deg g / d members are; the few triples that contain one are multiplied
out directly and land on non-unit classes. The cost is
O(N phi(g) + q^{deg g}) for a pool of N, against O(N^3) products for
the triples one by one.
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
    enumerate_irreducibles,
    mulmod_matrix,
    poly_gcd,
    poly_mod,
    poly_mul,
)
from .unitgroup import dlog_table, euler_phi_poly, factor_squarefree_poly, find_generator


def _validate_modulus(g: Poly) -> None:
    if g.degree is MINUS_INFINITY or g.degree < 2:
        raise ValueError("modulus must have degree >= 2")
    if not g.is_monic():
        raise ValueError("modulus must be monic")
    from .ffpoly import poly_derivative

    if poly_gcd(g, poly_derivative(g)).degree != 0:
        raise ValueError("modulus must be squarefree")


def _exponent_coordinates(g: Poly) -> tuple[tuple[int, ...], np.ndarray]:
    """The unit group's shape (q^deg(pi) - 1 per irreducible factor pi,
    in factor_squarefree_poly order) and an array C of shape
    (q^deg g, factors) with C[code(x)] the discrete logs of x mod each
    factor, -1 where the factor divides x."""
    qv = g.q.q
    digits = code_digits(qv, np.arange(qv**g.degree), g.degree)
    shape = []
    columns = []
    for pi in factor_squarefree_poly(g):
        residues = digit_codes(qv, digits @ mulmod_matrix(Poly.one(g.q), pi, g.degree) % qv)
        columns.append(dlog_table(find_generator(pi))[residues])
        shape.append(qv**pi.degree - 1)
    return tuple(shape), np.stack(columns, axis=1)


def unit_codes(g: Poly) -> list[int]:
    """Codes of the residues coprime to g, ascending."""
    _, coords = _exponent_coordinates(g)
    return np.flatnonzero((coords >= 0).all(axis=1)).tolist()


def _distinct_triples(points: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Unordered triples of distinct rows of points (exponent tuples in
    the product of Z/shape[i]) per sum class, as an array of that shape."""
    n = len(points)
    # every intermediate is at most |h*h*h| + |3 h_2*h| <= 4 n^3
    if 4 * n**3 >= 2**63:
        raise AssertionError(f"pool of {n} overflows int64 triple counts")
    size = math.prod(shape)
    mods = np.array(shape, dtype=np.int64)

    def hist(k: int) -> np.ndarray:
        flat = np.ravel_multi_index(tuple((k * points % mods).T), shape)
        return np.bincount(flat, minlength=size).reshape(shape)

    h = hist(1)
    axes = tuple(range(len(shape)))
    occupied = [(tuple(int(c) for c in p), int(h[tuple(p)])) for p in np.argwhere(h)]

    def convolve_h(a: np.ndarray) -> np.ndarray:
        out = np.zeros(shape, dtype=np.int64)
        for shift, weight in occupied:
            out += weight * np.roll(a, shift, axis=axes)
        return out

    six = convolve_h(convolve_h(h) - 3 * hist(2)) + 2 * hist(3)
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

    def histogram(self) -> dict[Poly, int]:
        return {Poly.from_code(self.q, u): c for u, c in self.counts.items()}


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
    pool = enumerate_irreducibles(q, d)
    if len(pool) > cap:
        raise ValueError(f"pool of {len(pool)} irreducibles exceeds cap {cap}")
    n = len(pool)
    res = [poly_mod(f, g) for f in pool]
    shape, coords = _exponent_coordinates(g)
    units = np.flatnonzero((coords >= 0).all(axis=1))
    member = coords[[r.code for r in res]]
    is_unit = (member >= 0).all(axis=1)
    per_class = _distinct_triples(member[is_unit], shape)
    unit_list = units.tolist()
    counts = dict(zip(unit_list, per_class[tuple(coords[units].T)].tolist()))
    # each triple holding a non-unit member, counted at its first such member
    nonunits = np.flatnonzero(~is_unit).tolist()
    for k, z in enumerate(nonunits):
        rest = [res[i] for i in range(n) if i != z and i not in nonunits[:k]]
        for a in range(len(rest) - 1):
            za = poly_mod(poly_mul(res[z], rest[a]), g)
            for b in range(a + 1, len(rest)):
                c = poly_mod(poly_mul(za, rest[b]), g).code
                counts[c] = counts.get(c, 0) + 1
    return TripleCountReport(
        q=q, d=d, g=g, pool_size=n, counts=dict(sorted(counts.items())), units=tuple(unit_list)
    )


@dataclass(frozen=True)
class DeviationRow:
    code: int
    residue: Poly
    count: int
    deviation: Fraction  # count - expected
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
    q, d, g = report.q, report.d, report.g
    theta = Fraction(g.degree, 3 * d)
    if not 0 < theta < 1:
        raise ValueError(f"deg g / (3d) = {theta} outside (0, 1)")
    phi_g = euler_phi_poly(g)
    binom = math.comb(report.pool_size, 3)
    expected = Fraction(binom, phi_g)
    normalizer = math.sqrt(q.q ** (3 * d - g.degree))
    unit_set = set(report.units)
    rows = []
    total = 0
    nonunit_total = 0
    ratios = []
    chi2 = Fraction(0)
    for u in sorted(report.counts):
        c = report.counts[u]
        total += c
        if u not in unit_set:
            nonunit_total += c
            continue
        dev = c - expected
        ratio = abs(float(dev)) / normalizer
        ratios.append(ratio)
        if expected:
            chi2 += dev * dev / expected
        rows.append(
            DeviationRow(
                code=u,
                residue=Poly.from_code(q, u),
                count=c,
                deviation=dev,
                ratio=ratio,
            )
        )
    return DeviationReport(
        q=q,
        d=d,
        g=g,
        theta=theta,
        phi_g=phi_g,
        binom=binom,
        expected=expected,
        normalizer=normalizer,
        nonunit_total=nonunit_total,
        conservation_ok=total == binom,
        max_ratio=max(ratios) if ratios else 0.0,
        mean_ratio=sum(ratios) / len(ratios) if ratios else 0.0,
        chi2=float(chi2),
        rows=tuple(rows),
    )


def deviation_csv_rows(report: DeviationReport):
    """(a, count, expected, deviation, normalized_ratio) per unit class."""
    for row in report.rows:
        yield (
            str(row.residue),
            row.count,
            float(report.expected),
            float(row.deviation),
            row.ratio,
        )


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
