"""Product-distribution tests: triple histograms and deviation reports."""

import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from sidonbasis import cli, equidist
from sidonbasis.cli import EXIT_INTERNAL_ERROR, main
from sidonbasis.equidist import (
    _distinct_triples,
    _exponent_coordinates,
    deviation_csv_lines,
    deviation_report,
    deviation_summary,
    triple_histogram,
)
from sidonbasis.ffpoly import (
    Poly,
    PrimeModulus,
    enumerate_irreducibles,
    poly_from_string,
    poly_gcd,
    poly_mod,
    poly_mul,
    poly_to_string,
)

from oracles import euler_phi_poly, unit_codes

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
    with pytest.raises(ValueError, match="ENUM_CAP"):
        triple_histogram(Q3, 13, G_QUAD)  # 3^13 > ENUM_CAP monics to sieve


def test_residue_table_refused_before_allocating(monkeypatch, capsys):
    # g = (degree 6)(degree 7), the smallest irreducibles over F_3: a pool
    # of 48 at d = 5, but 3^13 > ENUM_CAP residues mod g
    g = "1+2*t+2*t^2+t^3+2*t^6+2*t^7+2*t^8+t^13"

    def no_map(*args, **kwargs):
        raise RuntimeError("map_codes ran")

    monkeypatch.setattr(equidist, "map_codes", no_map)
    with pytest.raises(ValueError, match="ENUM_CAP"):
        triple_histogram(Q3, 5, poly_from_string(Q3, g))
    assert main(["equidist", "--q", "3", "--d", "5", "--g", g, "--out", "-"]) == 2
    assert "ENUM_CAP" in capsys.readouterr().err


def test_pool_past_the_old_cap(capsys):
    # 2,184 irreducibles of degree 9
    assert main(["equidist", "--q", "3", "--d", "9", "--g", "1+t^2", "--out", "-"]) == 0
    summary = json.loads(capsys.readouterr().err)
    assert summary["conservation_ok"] and summary["binom"] == math.comb(2184, 3)


def test_theta_checked_before_counting(monkeypatch, capsys):
    def no_count(*args, **kwargs):
        raise RuntimeError("triple_histogram ran")

    monkeypatch.setattr(cli, "triple_histogram", no_count)
    assert main(["equidist", "--q", "3", "--d", "4", "--g", "2+t+t^12", "--out", "-"]) == 2
    assert "outside (0, 1)" in capsys.readouterr().err


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


def shifted_copy_triples(points, shape):
    """Oracle for _distinct_triples: the same formula, with each
    convolution by h exact in int64, one shifted copy per occupied
    position of h."""
    size = math.prod(shape)
    mods = np.array(shape, dtype=np.int64)

    def hist(k):
        flat = np.ravel_multi_index(tuple((k * points % mods).T), shape)
        return np.bincount(flat, minlength=size).reshape(shape)

    h = hist(1)
    axes = tuple(range(len(shape)))
    occupied = [(tuple(int(c) for c in p), int(h[tuple(p)])) for p in np.argwhere(h)]

    def convolve_h(a):
        out = np.zeros(shape, dtype=np.int64)
        for shift, weight in occupied:
            out += weight * np.roll(a, shift, axis=axes)
        return out

    six = convolve_h(convolve_h(h) - 3 * hist(2)) + 2 * hist(3)
    assert not (six % 6).any()
    return six // 6


@pytest.mark.parametrize(
    "d, g, units",
    [(8, "1+t^2", 810), (6, "2+t+t^6", 115), (6, "2+t^2+t^8", 116), (7, "2+t^2+t^8", 312)],
)
def test_fft_triples_match_shifted_copies(d, g, units):
    g = poly_from_string(Q3, g)
    shape, coords = _exponent_coordinates(g)
    member = coords[[poly_mod(f, g).code for f in enumerate_irreducibles(Q3, d)]]
    points = member[(member < shape).all(axis=1)]
    assert len(points) == units
    assert np.array_equal(_distinct_triples(points, shape), shifted_copy_triples(points, shape))


def test_roundoff_bound_refuses_before_transforms(monkeypatch, tmp_path, capsys):
    # 44,220 irreducibles of degree 12: 200 u log2(8) N^3 is about 5.8
    def no_transform(*args, **kwargs):
        raise RuntimeError("a transform ran")

    monkeypatch.setattr(np.fft, "rfftn", no_transform)
    monkeypatch.setattr(np.fft, "irfftn", no_transform)
    with pytest.raises(AssertionError, match="round-off bound"):
        triple_histogram(Q3, 12, G_QUAD)
    out = tmp_path / "eq.csv"
    argv = ["equidist", "--q", "3", "--d", "12", "--g", "1+t^2", "--out", str(out)]
    assert main(argv) == EXIT_INTERNAL_ERROR == 3
    assert "round-off bound" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "q, d, g",
    [(Q3, 3, Poly(Q3, (2, 0, 1, 0, 0, 0, 0, 0, 1))), (Q3, 2, G_MIXED), (Q3, 5, Poly(Q3, (2, 1, 0, 0, 0, 0, 1)))],
    ids=["d3-deg8", "mixed-d2", "d5-deg6"],
)
def test_deviation_report_equals_fraction_formulas(q, d, g):
    # at d = 5, mod 2+t+t^6, c - float(B / phi) misses the correctly
    # rounded deviation on 704 of the 728 classes
    rep = triple_histogram(q, d, g)
    dev = deviation_report(rep)
    expected = Fraction(math.comb(rep.pool_size, 3), euler_phi_poly(g))
    normalizer = math.sqrt(q.q ** (3 * d - g.degree))
    units = set(rep.units)
    deviations = [rep.counts[u] - expected for u in sorted(rep.counts) if u in units]
    ratios = [abs(float(x)) / normalizer for x in deviations]
    assert dev.phi_g == euler_phi_poly(g) == len(rep.units)
    assert dev.expected == expected
    assert dev.codes == rep.units
    assert dev.counts == tuple(rep.counts[u] for u in rep.units)
    assert dev.residues == tuple(poly_to_string(Poly.from_code(q, u)) for u in rep.units)
    assert list(dev.deviations) == [float(x) for x in deviations]
    assert list(dev.ratios) == ratios
    assert dev.max_ratio == max(ratios)
    assert dev.mean_ratio == sum(ratios) / len(ratios)
    assert dev.chi2 == float(sum(x * x / expected for x in deviations))


def test_deviation_report_quadratic_d3():
    dev = deviation_report(triple_histogram(Q3, 3, G_QUAD))
    assert dev.theta == Fraction(2, 9)
    assert dev.phi_g == 8
    assert dev.binom == 56
    assert dev.expected == Fraction(56, 8) == Fraction(7)
    assert dev.normalizer == 3 ** Fraction(9 - 2, 2)
    assert dev.conservation_ok and dev.nonunit_total == 0
    assert dev.codes == tuple(range(1, 9))
    assert len(dev.residues) == len(dev.counts) == len(dev.deviations) == len(dev.ratios) == 8
    for count, deviation, ratio in zip(dev.counts, dev.deviations, dev.ratios):
        assert deviation == count - 7
        assert ratio == pytest.approx(abs(deviation) / dev.normalizer)
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
    lines = deviation_csv_lines(dev)
    assert iter(lines) is lines  # an iterator, read once by the writer
    lines = list(lines)
    assert len(lines) == 8
    assert all(line.endswith("\n") and line.count("\n") == 1 for line in lines)
    for line, residue, count in zip(lines, dev.residues, dev.counts):
        a, count_text, expected, deviation, ratio = line.split(",")
        assert a == residue and int(count_text) == count
        assert float(expected) == pytest.approx(7.0)
        assert float(deviation) == pytest.approx(count - 7)
        assert float(ratio) >= 0.0
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
    total_units = sum(dev.counts)
    assert total_units + dev.nonunit_total == dev.binom


def str_join_lines(q, d, g):
    """The unit-class CSV lines as the writer formatted them row by row:
    each row from the counts and exact fractions, joined with str."""
    rep = triple_histogram(q, d, g)
    expected = Fraction(math.comb(rep.pool_size, 3), euler_phi_poly(g))
    normalizer = math.sqrt(q.q ** (3 * d - g.degree))
    lines = []
    for u in rep.units:
        c = rep.counts[u]
        deviation = float(c - expected)
        name = poly_to_string(Poly.from_code(q, u))
        row = (name, c, float(expected), deviation, abs(deviation) / normalizer)
        lines.append(",".join(str(x) for x in row) + "\n")
    return lines


@pytest.mark.parametrize(
    "q, d, g, nonunits",
    [(Q3, 6, "1+t^5", False), (Q5, 2, "1+t^4", True), (Q3, 2, "t+t^2+t^3+t^4", True), (Q3, 6, "2+t+t^6", True)],
    ids=["exponent-ratio", "two-nonunits-q5", "mixed-d2", "nonunit-d6"],
)
def test_csv_lines_match_str_join(q, d, g, nonunits, tmp_path):
    g = poly_from_string(q, g)
    rep = triple_histogram(q, d, g)
    dev = deviation_report(rep)
    expected_lines = str_join_lines(q, d, g)
    assert list(deviation_csv_lines(dev)) == expected_lines
    assert any(x < 0 for x in dev.deviations)
    if nonunits:  # non-unit classes are hit, and stay out of the lines
        assert dev.nonunit_total > 0 and len(rep.counts) > len(rep.units)
    else:  # some ratio prints in exponent form
        assert any("e-" in line.rsplit(",", 1)[1] for line in expected_lines)
    out = tmp_path / "eq.csv"
    assert main(["equidist", "--q", str(q.q), "--d", str(d), "--g", str(g), "--out", str(out)]) == 0
    header = "# manifest: eq.csv.manifest.json\na,count,expected,deviation,normalized_ratio\n"
    assert out.read_text() == header + "".join(expected_lines)


def product_of_first(q, d, k):
    g = Poly.one(q)
    for f in enumerate_irreducibles(q, d)[:k]:
        g = poly_mul(g, f)
    return g


@pytest.mark.parametrize("block", [1, 7, equidist._PAIR_BLOCK])
@pytest.mark.parametrize(
    "q, d, k",
    # (the first k irreducibles of degree d) as g: k members of the pool
    # are not units, and each of their triples is counted once
    [(Q3, 3, 2), (Q5, 2, 3), (Q3, 2, 2)],
    ids=["q3-d3-two", "q5-d2-three", "q3-d2-two"],
)
def test_nonunit_blocks_match_brute_force(monkeypatch, q, d, k, block):
    monkeypatch.setattr(equidist, "_PAIR_BLOCK", block)
    g = product_of_first(q, d, k)
    assert sum(poly_mod(g, f).is_zero() for f in enumerate_irreducibles(q, d)) == k
    assert triple_histogram(q, d, g).counts == brute_counts(q, d, g)
