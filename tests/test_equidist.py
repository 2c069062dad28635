"""Product-distribution tests: triple histograms and deviation reports."""

import dataclasses
import hashlib
import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from sidonbasis import cli, equidist, unitgroup
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

    monkeypatch.setattr(unitgroup, "map_codes", no_map)
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


def unit_counts(rep):
    """The histogram's columns as a dict: unit code -> triples."""
    return dict(zip(rep.units.tolist(), rep.counts.tolist()))


def test_histogram_quadratic_modulus_d3():
    rep = triple_histogram(Q3, 3, G_QUAD)
    assert rep.pool_size == 8
    assert rep.counts.sum() == math.comb(8, 3) == 56 and rep.nonunit_total == 0
    assert unit_counts(rep) == {1: 7, 2: 7, 3: 6, 4: 7, 5: 7, 6: 8, 7: 7, 8: 7}
    assert unit_counts(rep) == brute_histogram(Q3, 3, G_QUAD)


def test_histogram_modulus_inside_pool():
    # I_2 contains g itself; the one triple includes it, so the product
    # lands on the zero class and every unit class stays empty
    rep = triple_histogram(Q3, 2, G_QUAD)
    assert rep.pool_size == 3
    assert rep.nonunit_total == 1 == brute_histogram(Q3, 2, G_QUAD)[0]
    assert unit_counts(rep) == {u: 0 for u in range(1, 9)}
    dev = deviation_report(rep)
    assert dev.nonunit_total == 1
    assert dev.conservation_ok
    assert dev.binom == 1


def test_histogram_matches_brute_force():
    for d, g in ((2, G_CUBIC), (3, G_CUBIC), (3, G_QUAD), (4, G_QUAD)):
        assert split_counts(triple_histogram(Q3, d, g)) == brute_counts(Q3, d, g), d


def test_histogram_order_independent():
    # recounting from a reversed pool enumeration gives the same histogram
    pool = enumerate_irreducibles(Q3, 3)
    counts = {}
    for trio in itertools.combinations(list(reversed(pool)), 3):
        prod = poly_mod(poly_mul(poly_mul(trio[0], trio[1]), trio[2]), G_QUAD)
        counts[prod.code] = counts.get(prod.code, 0) + 1
    assert counts == {c: n for c, n in unit_counts(triple_histogram(Q3, 3, G_QUAD)).items() if n}


def gcd_units(g):
    return [u for u in range(g.q.q**g.degree) if poly_gcd(Poly.from_code(g.q, u), g).degree == 0]


def split_counts(rep):
    """(unit code -> triples, the triples off the units) of a histogram."""
    return unit_counts(rep), rep.nonunit_total


def brute_counts(q, d, g):
    """split_counts by brute force: every unit class zero-filled, and the
    triples whose product is no unit summed over their classes."""
    hist = brute_histogram(q, d, g)
    units = {u: hist.pop(u, 0) for u in gcd_units(g)}
    return units, sum(hist.values())


def test_histogram_matches_brute_force_large_modulus():
    # 3^8 = 6561 residue classes, one irreducible factor of degree 8
    g = Poly(Q3, (2, 0, 1, 0, 0, 0, 0, 0, 1))  # 2+t^2+t^8
    rep = triple_histogram(Q3, 3, g)
    assert rep.counts.sum() == 56
    assert split_counts(rep) == brute_counts(Q3, 3, g)
    assert rep.units.tolist() == gcd_units(g)


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
    assert split_counts(triple_histogram(q, d, g)) == brute_counts(q, d, g)


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
    generators, coords = _exponent_coordinates(g)
    shape = tuple(gen.order for gen in generators)
    member = coords[[poly_mod(f, g).code for f in enumerate_irreducibles(Q3, d)]]
    points = member[(member >= 0).all(axis=1)]
    assert len(points) == units
    assert np.array_equal(_distinct_triples(points, shape), shifted_copy_triples(points, shape))


def test_tower_e_digits_are_equidist_coordinates(seq307):
    # the desk build's level 3 e digits are the exponent coordinates of
    # its 18 members mod G_3 = g_1 g_2 g_3: factor_squarefree_poly returns
    # g_1..g_3 in order and find_generator picks the same omega_i, so the
    # tower's triple count is triple_histogram's, class by class
    moduli = seq307.moduli
    g3 = poly_mul(poly_mul(moduli.g(1), moduli.g(2)), moduli.g(3))
    assert poly_to_string(g3) == "t+t^2+t^3+t^4+2*t^5+t^6+2*t^7+t^9"
    generators, coords = _exponent_coordinates(g3)
    assert generators == moduli.generators[:3]
    (level,) = [level for level in seq307.levels if level.k == 3]
    report = triple_histogram(Q3, 4, g3)
    assert len(report.units) == 12584 and report.nonunit_total == 0
    assert report.counts.sum() == math.comb(len(level), 3) == 816
    tower = _distinct_triples(level.e, (2, 26, 242))
    assert np.array_equal(tower[tuple(coords[report.units].T)], report.counts)


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
    deviations = [c - expected for c in rep.counts.tolist()]
    ratios = [abs(float(x)) / normalizer for x in deviations]
    assert dev.phi_g == euler_phi_poly(g) == len(rep.units)
    assert dev.expected == expected
    assert dev.codes is rep.units
    assert dev.distinct_counts[dev.count_row].tolist() == rep.counts.tolist()
    assert dev.count_deviations[dev.count_row].tolist() == [float(x) for x in deviations]
    assert dev.count_ratios[dev.count_row].tolist() == ratios
    assert dev.max_ratio == max(ratios)
    assert dev.mean_ratio == sum(ratios) / len(ratios)
    assert dev.chi2 == float(sum(x * x / expected for x in deviations))


def test_deviation_report_quadratic_d3():
    dev = deviation_report(triple_histogram(Q3, 3, G_QUAD))
    assert dev.theta == Fraction(2, 9)
    assert dev.phi_g == 8
    assert dev.binom == 56
    assert dev.expected == Fraction(56, 8) == Fraction(7)
    normalizer = math.sqrt(3 ** (3 * 3 - 2))  # q^{(3d - deg g)/2}
    assert dev.conservation_ok and dev.nonunit_total == 0
    assert dev.codes.tolist() == list(range(1, 9)) and len(dev.count_row) == 8
    assert dev.distinct_counts.tolist() == [6, 7, 8]
    for count, deviation, ratio in zip(dev.distinct_counts, dev.count_deviations, dev.count_ratios):
        assert deviation == count - 7
        assert ratio == pytest.approx(abs(deviation) / normalizer)
    assert dev.max_ratio == pytest.approx(1 / normalizer)  # counts hit 6 and 8
    assert dev.max_ratio == pytest.approx(0.0214, abs=2e-4)
    assert dev.chi2 == pytest.approx(2 / 7, abs=1e-9)
    assert dev.mean_ratio <= dev.max_ratio


def test_deviation_report_rejects_theta_one():
    rep = triple_histogram(Q3, 1, G_CUBIC)
    assert rep.nonunit_total == 1  # the single triple multiplies to g itself
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
    blocks = deviation_csv_lines(dev)
    assert iter(blocks) is blocks  # an iterator, read once by the writer
    lines = "".join(blocks).splitlines(keepends=True)
    assert len(lines) == 8
    assert all(line.endswith("\n") for line in lines)
    for line, code, count in zip(lines, dev.codes.tolist(), dev.distinct_counts[dev.count_row].tolist()):
        a, count_text, expected, deviation, ratio = line.split(",")
        assert a == poly_to_string(Poly.from_code(Q3, code)) and int(count_text) == count
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
    assert rep.counts.sum() + rep.nonunit_total == math.comb(rep.pool_size, 3) == dev.binom
    # conservation tests the counted columns: one triple moved off a class is caught
    counts = rep.counts.copy()
    counts[0] -= 1
    assert not deviation_report(dataclasses.replace(rep, counts=counts)).conservation_ok


def str_join_lines(q, d, g):
    """The unit-class CSV lines as the writer formatted them row by row:
    each row from the counts and exact fractions, joined with str."""
    rep = triple_histogram(q, d, g)
    expected = Fraction(math.comb(rep.pool_size, 3), euler_phi_poly(g))
    normalizer = math.sqrt(q.q ** (3 * d - g.degree))
    lines = []
    for u, c in zip(rep.units.tolist(), rep.counts.tolist()):
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
    assert "".join(deviation_csv_lines(dev)) == "".join(expected_lines)
    assert (dev.count_deviations < 0).any()
    if nonunits:  # triples land off the units, and stay out of the lines
        assert dev.nonunit_total > 0
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


@pytest.mark.parametrize("block", [1, 7, 1 << 17])
@pytest.mark.parametrize(
    "q, d, k",
    # (the first k irreducibles of degree d) as g: k members of the pool
    # are not units, and their triples are counted off the units
    [(Q3, 3, 2), (Q5, 2, 3), (Q3, 2, 2)],
    ids=["q3-d3-two", "q5-d2-three", "q3-d2-two"],
)
def test_nonunit_blocks_match_brute_force(monkeypatch, q, d, k, block):
    # block: CSV lines per block; 1 << 17 puts each report here in one
    monkeypatch.setattr(equidist, "_CSV_BLOCK", block)
    g = product_of_first(q, d, k)
    assert sum(poly_mod(g, f).is_zero() for f in enumerate_irreducibles(q, d)) == k
    rep = triple_histogram(q, d, g)
    assert split_counts(rep) == brute_counts(q, d, g)
    if g.degree == 3 * d:  # q5-d2-three: theta = 1 has no deviation report
        return
    assert "".join(deviation_csv_lines(deviation_report(rep))) == "".join(str_join_lines(q, d, g))


# q, d, g, then the sha256 of eq.csv and of eq.csv.summary.json, recorded
# with the per-class non-unit pass that counted each non-unit class
# (with --out named eq.csv); g = 1+2*t^2+...+t^11 is the first degree-9
# irreducible over F_3 times 1+t^2
PINNED_NONUNIT_REPORTS = [
    (5, 2, "1+t^4", "fb5bf6b4c67d5fc117d1f766019228773adec1ed856480abb7becf80540ac52f",
     "807c10e081a64f3431fa9898240438d24a43f01397e60b7c948bef427c4c2799"),
    (3, 2, "t+t^2+t^3+t^4", "5336ba193d5630071371cc81e796826f7c6318c0f7c431fc5b2d65b183cc28ee",
     "03c57c2f8447dcf35eb3db177f53c13fe3c37d0b97fa46192766a9c12f9aea43"),
    (3, 6, "2+t+t^6", "70f24aa1c21747dc2ab622337718a95995afc6fa862f05e12d0df39e58a25f35",
     "3d2430d6545fb9d9e2b8ff16f713b4ea2ed6f35b83b2ee9efcba366cf7bd1062"),
    (3, 9, "1+2*t^2+2*t^3+t^4+2*t^5+t^9+t^11", "16f4f80ec54d11257b055f5a525458e0f8f6fc8ce9e289bb28bb2752c779052c",
     "58a94a8bfeb765457cfe4a42b1d6910b3bc7547940d0e46bb6b5b69c084b86f2"),
]


@pytest.mark.parametrize("q, d, g, csv_sha, summary_sha", PINNED_NONUNIT_REPORTS, ids=["q5-d2", "q3-d2", "q3-d6", "q3-d9"])
def test_nonunit_reports_keep_their_bytes(q, d, g, csv_sha, summary_sha, tmp_path):
    pool = enumerate_irreducibles(PrimeModulus(q), d)
    assert any(poly_mod(poly_from_string(PrimeModulus(q), g), f).is_zero() for f in pool)
    out = tmp_path / "eq.csv"
    assert main(["equidist", "--q", str(q), "--d", str(d), "--g", g, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == csv_sha
    assert hashlib.sha256((tmp_path / "eq.csv.summary.json").read_bytes()).hexdigest() == summary_sha
