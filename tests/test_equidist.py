"""Product-distribution tests: triple histograms and deviation reports."""

import itertools
import math
from fractions import Fraction

import pytest

from sidonbasis.equidist import (
    deviation_csv_rows,
    deviation_report,
    deviation_summary,
    triple_histogram,
    unit_codes,
)
from sidonbasis.ffpoly import (
    Poly,
    PrimeModulus,
    enumerate_irreducibles,
    poly_gcd,
    poly_mod,
    poly_mul,
)
from sidonbasis.unitgroup import euler_phi_poly

Q3 = PrimeModulus(3)
Q5 = PrimeModulus(5)
Q7 = PrimeModulus(7)
G_QUAD = Poly(Q3, (1, 0, 1))
G_CUBIC = Poly(Q3, (0, 2, 0, 1))  # t(t+1)(t+2), squarefree product
G_MIXED = Poly(Q3, (0, 1, 1, 1, 1))  # t(t+1)(t^2+1), factors of degree 1, 1, 2


def brute_histogram(q, d, g):
    counts = {}
    for trio in itertools.combinations(enumerate_irreducibles(q, d), 3):
        prod = poly_mod(poly_mul(poly_mul(trio[0], trio[1]), trio[2]), g)
        counts[prod.code] = counts.get(prod.code, 0) + 1
    return counts


def test_unit_codes():
    assert unit_codes(G_QUAD) == list(range(1, 9))
    cubic_units = unit_codes(G_CUBIC)
    assert len(cubic_units) == euler_phi_poly(G_CUBIC) == 8
    assert 0 not in cubic_units and 3 not in cubic_units  # t divides g


def test_modulus_validation():
    with pytest.raises(ValueError):
        triple_histogram(Q3, 3, Poly(Q3, (0, 1)))  # degree 1
    with pytest.raises(ValueError):
        triple_histogram(Q3, 3, Poly(Q3, (0, 0, 2)))  # non-monic
    with pytest.raises(ValueError):
        triple_histogram(Q3, 3, Poly(Q3, (0, 0, 1)))  # t^2 not squarefree
    with pytest.raises(ValueError):
        triple_histogram(Q3, 8, G_QUAD, cap=10)  # pool larger than cap


def test_histogram_quadratic_modulus_d3():
    rep = triple_histogram(Q3, 3, G_QUAD)
    assert rep.pool_size == 8
    assert sum(rep.counts.values()) == math.comb(8, 3) == 56
    assert rep.counts == {1: 7, 2: 7, 3: 6, 4: 7, 5: 7, 6: 8, 7: 7, 8: 7}
    assert rep.counts == brute_histogram(Q3, 3, G_QUAD)


def test_histogram_modulus_inside_pool():
    # I_2 contains g itself; the one triple includes it, so the product
    # lands on the zero class and every unit class stays empty
    rep = triple_histogram(Q3, 2, G_QUAD)
    assert rep.pool_size == 3
    assert rep.counts[0] == 1
    assert all(rep.counts.get(u, 0) == 0 for u in range(1, 9))
    dev = deviation_report(rep)
    assert dev.nonunit_total == 1
    assert dev.conservation_ok
    assert dev.binom == 1


def test_histogram_matches_brute_force():
    for d, g in ((2, G_CUBIC), (3, G_CUBIC), (3, G_QUAD), (4, G_QUAD)):
        rep = triple_histogram(Q3, d, g)
        brute = brute_histogram(Q3, d, g)
        for code, count in rep.counts.items():
            assert count == brute.get(code, 0), (d, code)
        assert sum(rep.counts.values()) == sum(brute.values())


def test_histogram_order_independent():
    # recounting from a reversed pool enumeration gives the same histogram
    pool = enumerate_irreducibles(Q3, 3)
    counts = {}
    for trio in itertools.combinations(list(reversed(pool)), 3):
        prod = poly_mod(poly_mul(poly_mul(trio[0], trio[1]), trio[2]), G_QUAD)
        counts[prod.code] = counts.get(prod.code, 0) + 1
    assert counts == {c: n for c, n in triple_histogram(Q3, 3, G_QUAD).counts.items() if n}


def gcd_units(g):
    return [u for u in range(g.q.q**g.degree) if poly_gcd(Poly.from_code(g.q, u), g).degree == 0]


def brute_counts(q, d, g):
    """The full counts dict by brute force: every unit class zero-filled,
    plus the non-unit classes that are hit."""
    return {u: 0 for u in gcd_units(g)} | brute_histogram(q, d, g)


def test_histogram_matches_brute_force_large_modulus():
    # 3^8 = 6561 residue classes, one irreducible factor of degree 8
    g = Poly(Q3, (2, 0, 1, 0, 0, 0, 0, 0, 1))  # 2+t^2+t^8
    rep = triple_histogram(Q3, 3, g)
    assert sum(rep.counts.values()) == 56
    assert rep.counts == brute_counts(Q3, 3, g)
    assert list(rep.counts) == sorted(rep.counts)
    assert list(rep.units) == gcd_units(g)


def test_unit_codes_match_gcd_scan():
    for g in (G_QUAD, G_CUBIC, G_MIXED, Poly(Q5, (1, 0, 0, 0, 1)), Poly(Q7, (0, 1, 0, 1))):
        assert unit_codes(g) == gcd_units(g), g


@pytest.mark.parametrize(
    "q, d, g, nonunit_members",
    [
        # t(t+1)(t^2+1): factors of degrees 1, 1, 2, coordinates in Z/2 x Z/2 x Z/8
        (Q3, 2, G_MIXED, 1),
        (Q3, 3, G_MIXED, 0),
        (Q3, 4, G_MIXED, 0),
        # 1+t^4 = (t^2+2)(t^2+3) over F_5, both in the pool of quadratics
        (Q5, 2, Poly(Q5, (1, 0, 0, 0, 1)), 2),
        # t(t^2+1) over F_7
        (Q7, 2, Poly(Q7, (0, 1, 0, 1)), 1),
    ],
    ids=["mixed-d2", "mixed-d3", "mixed-d4", "two-factors-q5", "q7"],
)
def test_histogram_full_counts_match_brute_force(q, d, g, nonunit_members):
    assert sum(poly_mod(g, f).is_zero() for f in enumerate_irreducibles(q, d)) == nonunit_members
    assert triple_histogram(q, d, g).counts == brute_counts(q, d, g)


def test_deviation_report_quadratic_d3():
    dev = deviation_report(triple_histogram(Q3, 3, G_QUAD))
    assert dev.theta == Fraction(2, 9)
    assert dev.phi_g == 8
    assert dev.binom == 56
    assert dev.expected == Fraction(56, 8) == Fraction(7)
    assert dev.normalizer == 3 ** Fraction(9 - 2, 2)
    assert dev.conservation_ok and dev.nonunit_total == 0
    assert len(dev.rows) == 8
    for row in dev.rows:
        assert row.deviation == row.count - 7
        assert row.ratio == pytest.approx(abs(row.deviation) / dev.normalizer)
    assert dev.max_ratio == pytest.approx(1 / dev.normalizer)  # counts hit 6 and 8
    assert dev.max_ratio == pytest.approx(0.0214, abs=2e-4)
    assert dev.chi2 == pytest.approx(2 / 7, abs=1e-9)
    assert dev.mean_ratio <= dev.max_ratio


def test_deviation_report_rejects_theta_one():
    rep = triple_histogram(Q3, 1, G_CUBIC)
    assert rep.counts[0] == 1  # the single triple multiplies to g itself
    with pytest.raises(ValueError):
        deviation_report(rep)  # theta = 3/3 is outside (0, 1)


def test_deviation_trend_is_bounded():
    ratios = []
    for d in (2, 3, 4):
        dev = deviation_report(triple_histogram(Q3, d, G_QUAD))
        assert dev.conservation_ok
        ratios.append(dev.max_ratio)
    assert all(r < 1 for r in ratios)  # far under the alarm threshold of 10


def test_deviation_csv_and_summary():
    dev = deviation_report(triple_histogram(Q3, 3, G_QUAD))
    rows = list(deviation_csv_rows(dev))
    assert len(rows) == 8
    for a, count, expected, deviation, ratio in rows:
        assert isinstance(count, int)
        assert expected == pytest.approx(7.0)
        assert deviation == pytest.approx(count - 7)
        assert ratio >= 0.0
    summary = deviation_summary(dev)
    for key in ("q", "d", "g", "theta", "phi_g", "binom", "max_ratio", "mean_ratio", "chi2", "nonunit_total"):
        assert key in summary
    assert summary["binom"] == 56


def test_histogram_reports_nonunit_classes_for_reducible_modulus():
    # cubic modulus, cubic pool: the linear factors of g are not in the
    # pool, so everything stays on unit classes, and the unit/non-unit
    # bookkeeping must still conserve the full binomial total
    rep = triple_histogram(Q3, 3, G_CUBIC)
    dev = deviation_report(rep)
    assert dev.conservation_ok
    assert sum(rep.counts.values()) == math.comb(rep.pool_size, 3)
    total_units = sum(row.count for row in dev.rows)
    assert total_units + dev.nonunit_total == dev.binom
