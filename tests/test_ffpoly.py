"""Polynomial arithmetic over F_q against naive convolution oracles."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sidonbasis import ffpoly
from sidonbasis.ffpoly import (
    MINUS_INFINITY,
    Poly,
    PrimeModulus,
    code_digits,
    count_irreducibles,
    code_names,
    digit_codes,
    enumerate_irreducibles,
    is_irreducible,
    map_codes,
    mulmod_matrix,
    poly_divmod,
    poly_from_string,
    poly_gcd,
    poly_mod,
    poly_mul,
    poly_powmod,
    poly_sub,
    poly_to_string,
    smallest_irreducible,
)

from oracles import crt, poly_add, poly_invmod

Q2 = PrimeModulus(2)
Q3 = PrimeModulus(3)
Q5 = PrimeModulus(5)


def naive_mul(a: Poly, b: Poly) -> Poly:
    if a.is_zero() or b.is_zero():
        return Poly.zero(a.q)
    out = [0] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, ca in enumerate(a.coeffs):
        for j, cb in enumerate(b.coeffs):
            out[i + j] += ca * cb
    return Poly(a.q, tuple(c % a.q.q for c in out))


def polys(q: PrimeModulus, max_degree: int = 6):
    return st.lists(
        st.integers(min_value=0, max_value=q.q - 1), min_size=0, max_size=max_degree + 1
    ).map(lambda cs: Poly(q, tuple(cs)))


def test_prime_modulus_validation():
    with pytest.raises(ValueError):
        PrimeModulus(4)
    with pytest.raises(ValueError):
        PrimeModulus(1)
    assert PrimeModulus(7).q == 7
    # the largest prime within ENUM_CAP loads; above the cap q is refused
    # before its primality test, so a huge prime costs nothing
    assert PrimeModulus(1_048_573).q == 1_048_573
    for q in (1_048_583, 2**89 - 1):
        with pytest.raises(ValueError, match="ENUM_CAP"):
            PrimeModulus(q)


def test_canonical_form():
    f = Poly(Q3, (4, 0, 3, 0, 0))
    assert f.coeffs == (1,)
    assert f.degree == 0
    zero = Poly(Q3, (0, 0))
    assert zero.is_zero()
    assert zero.degree == MINUS_INFINITY
    assert Poly(Q3, (0, 0, 1)).is_monic()
    assert not Poly(Q3, (0, 0, 2)).is_monic()


def test_code_roundtrip():
    for code in range(100):
        f = Poly.from_code(Q3, code)
        assert f.code == code


def test_mul_example():
    a = Poly(Q3, (1, 1))
    b = Poly(Q3, (2, 1))
    assert poly_mul(a, b) == Poly(Q3, (2, 0, 1))


@given(st.sampled_from([Q2, Q3, Q5]).flatmap(lambda q: st.tuples(polys(q), polys(q))))
@settings(max_examples=200)
def test_mul_matches_naive(ab):
    a, b = ab
    assert poly_mul(a, b) == naive_mul(a, b)


@given(st.sampled_from([Q2, Q3, Q5]).flatmap(lambda q: st.tuples(polys(q), polys(q))))
@settings(max_examples=200)
def test_add_sub_inverse(ab):
    a, b = ab
    assert poly_sub(poly_add(a, b), b) == a
    assert poly_add(a, Poly.zero(a.q)) == a


def test_divmod_examples():
    g = Poly(Q3, (1, 0, 1))
    assert poly_mod(Poly(Q3, (2, 0, 1)), g) == Poly(Q3, (1,))
    quot, rem = poly_divmod(Poly(Q3, (2, 0, 1)), g)
    assert quot == Poly(Q3, (1,)) and rem == Poly(Q3, (1,))
    with pytest.raises(ZeroDivisionError):
        poly_divmod(g, Poly.zero(Q3))


@given(
    st.sampled_from([Q2, Q3, Q5]).flatmap(
        lambda q: st.tuples(polys(q, 8), polys(q, 4).filter(lambda f: not f.is_zero()))
    )
)
@settings(max_examples=200)
def test_divmod_identity(fg):
    f, g = fg
    quot, rem = poly_divmod(f, g)
    assert poly_add(poly_mul(quot, g), rem) == f
    assert rem.is_zero() or rem.degree < g.degree


def test_powmod_examples():
    g = Poly(Q3, (1, 0, 1))
    f = Poly(Q3, (1, 1))
    assert poly_powmod(f, 0, g) == Poly(Q3, (1,))
    assert poly_powmod(f, 2, g) == Poly(Q3, (0, 2))
    assert poly_powmod(f, 8, g) == Poly(Q3, (1,))


@given(polys(Q3, 3).filter(lambda f: not f.is_zero()), st.integers(min_value=0, max_value=40))
@settings(max_examples=100)
def test_powmod_matches_repeated_mul(f, e):
    g = Poly(Q3, (1, 2, 0, 1))  # squarefree cubic modulus
    acc = poly_mod(Poly(Q3, (1,)), g)
    for _ in range(e):
        acc = poly_mod(poly_mul(acc, f), g)
    assert poly_powmod(f, e, g) == acc


def brute_irreducible(f: Poly) -> bool:
    if f.degree < 1:
        return False
    if f.degree == 1:
        return True
    q = f.q
    for d in range(1, f.degree // 2 + 1):
        for code in range(q.q**d, q.q ** (d + 1)):
            g = Poly.from_code(q, code)
            if g.is_monic() and poly_mod(f, g).is_zero():
                return False
    return True


def test_irreducible_examples():
    assert is_irreducible(Poly(Q3, (1, 0, 1)))
    assert not is_irreducible(Poly(Q2, (1, 0, 1)))  # (t+1)^2 over F_2
    assert not is_irreducible(Poly(Q2, (0, 0, 1)))
    with pytest.raises(ValueError):
        is_irreducible(Poly(Q3, (1, 0, 2)))  # non-monic


@given(
    st.sampled_from([Q2, Q3, Q5]).flatmap(
        lambda q: polys(q, 5).map(lambda f: poly_add(f, Poly(q, (0,) * 6 + (1,))))
    )
)
@settings(max_examples=150)
def test_irreducible_matches_trial_division(f):
    # f is monic of degree 6 by construction
    assert is_irreducible(f) == brute_irreducible(f)


def test_enumerate_examples():
    assert enumerate_irreducibles(Q2, 1) == [Poly(Q2, (0, 1)), Poly(Q2, (1, 1))]
    assert len(enumerate_irreducibles(Q3, 2)) == 3
    assert len(enumerate_irreducibles(Q2, 4)) == 3


def test_enumerate_order_and_contents():
    for q, d in ((Q2, 5), (Q3, 3), (Q5, 2)):
        polys_list = enumerate_irreducibles(q, d)
        codes = [f.code for f in polys_list]
        assert codes == sorted(codes)
        for f in polys_list:
            assert f.is_monic() and f.degree == d
            assert brute_irreducible(f)
        assert len(polys_list) == count_irreducibles(q, d)


def test_enumerate_cap():
    with pytest.raises(ValueError):
        enumerate_irreducibles(Q2, 21)  # 2^21 > ENUM_CAP


def test_count_examples():
    assert count_irreducibles(Q3, 2) == 3
    assert count_irreducibles(Q5, 1) == 5
    assert count_irreducibles(Q3, 3) == 8


def test_crt_example():
    out = crt([Poly(Q3, (1,)), Poly(Q3, (2,))], [Poly(Q3, (0, 1)), Poly(Q3, (1, 1))])
    assert out == Poly(Q3, (1, 2))


def test_crt_validation():
    with pytest.raises(ValueError):
        crt([Poly(Q3, (1,))], [Poly(Q3, (0, 1)), Poly(Q3, (1, 1))])
    with pytest.raises(ValueError):
        # moduli share the factor t
        crt(
            [Poly(Q3, (1,)), Poly(Q3, (1,))],
            [Poly(Q3, (0, 1)), Poly(Q3, (0, 0, 1))],
        )


@given(st.randoms())
@settings(max_examples=100)
def test_crt_reduces_back(rng):
    pool = enumerate_irreducibles(Q3, 1) + enumerate_irreducibles(Q3, 2) + enumerate_irreducibles(Q3, 3)
    moduli = rng.sample(pool, rng.randint(1, 4))
    residues = [Poly.from_code(Q3, rng.randrange(Q3.q**m.degree)) for m in moduli]
    out = crt(residues, moduli)
    total_deg = sum(m.degree for m in moduli)
    assert out.is_zero() or out.degree < total_deg
    for r, m in zip(residues, moduli):
        assert poly_mod(out, m) == r


def test_gcd_and_invmod():
    g = Poly(Q3, (1, 0, 1))
    f = Poly(Q3, (1, 1))
    inv = poly_invmod(f, g)
    assert poly_mod(poly_mul(f, inv), g) == Poly(Q3, (1,))
    assert poly_gcd(Poly(Q3, (0, 1)), Poly(Q3, (0, 0, 1))).degree == 1
    with pytest.raises(ValueError):
        poly_invmod(Poly(Q3, (0, 1)), Poly(Q3, (0, 0, 1)))


def test_string_roundtrip_examples():
    assert poly_to_string(Poly(Q3, (1, 0, 1))) == "1+t^2"
    assert poly_to_string(Poly.zero(Q3)) == "0"
    assert poly_to_string(Poly(Q3, (0, 2, 1))) == "2*t+t^2"
    assert poly_from_string(Q3, "1+t^2") == Poly(Q3, (1, 0, 1))
    assert poly_from_string(Q3, "0") == Poly.zero(Q3)
    assert poly_from_string(Q3, " 2*t + t^2 ") == Poly(Q3, (0, 2, 1))
    assert poly_from_string(Q3, "t^64").degree == ffpoly.EXPONENT_CAP


def test_string_rejects_malformed():
    for bad in ("", "t^1", "t^0", "3+t", "t+t", "1+1", "x^2", "t^-1", "t^65"):
        with pytest.raises(ValueError):
            poly_from_string(Q3, bad)


@pytest.mark.parametrize("qv, width", [(2, 7), (3, 5), (5, 3), (11, 2)])
def test_code_names_match_poly_to_string(qv, width):
    codes = list(range(qv**width))
    names = [poly_to_string(Poly.from_code(PrimeModulus(qv), u)) for u in codes]
    assert code_names(qv, codes, width) == names
    assert code_names(qv, codes[::-3], width) == names[::-3]
    assert code_names(qv, [], width) == []


def joined_names(qv, codes, width):
    """code_names one row at a time: the nonzero terms of each code's
    digits, joined by "+"."""
    names = []
    for code in codes:
        terms = []
        for i in range(width):
            code, c = divmod(code, qv)
            if c:
                power = "" if i == 0 else "t" if i == 1 else f"t^{i}"
                terms.append(power if c == 1 and power else f"{c}*{power}" if power else str(c))
        names.append("+".join(terms) or "0")
    return names


@pytest.mark.parametrize("qv, g", [(3, "1+t^2"), (3, "2+t+t^6"), (2, "1+t+t^7"), (5, "2+t^3"), (7, "3+t+t^4")])
def test_code_names_match_the_per_row_join(qv, g):
    # the residues coprime to g, as equidist names its rows; among them
    # are codes whose low half is 0 (t^j, j >= deg g // 2, unless t | g)
    # and codes whose high half is 0 (the constants)
    q = PrimeModulus(qv)
    g = poly_from_string(q, g)
    half = qv ** (g.degree // 2)
    units = [u for u in range(qv**g.degree) if poly_gcd(Poly.from_code(q, u), g).degree == 0]
    assert any(u % half == 0 for u in units) and any(u < half for u in units)
    assert code_names(qv, units, g.degree) == joined_names(qv, units, g.degree)


@given(st.sampled_from([Q2, Q3, Q5]).flatmap(polys))
@settings(max_examples=200)
def test_string_roundtrip_property(f):
    assert poly_from_string(f.q, poly_to_string(f)) == f


HELPER_FIELDS = st.sampled_from([2, 3, 5, 7, 11])


@given(st.data())
@settings(max_examples=100)
def test_code_digits_match_poly_codes(data):
    qv = data.draw(HELPER_FIELDS)
    width = data.draw(st.integers(1, 6))
    codes = data.draw(st.lists(st.integers(0, qv**width - 1), min_size=1, max_size=20))
    digits = code_digits(qv, codes, width)
    assert digits.shape == (len(codes), width)
    for u, row in zip(codes, digits.tolist()):
        coeffs = list(Poly.from_code(PrimeModulus(qv), u).coeffs)
        assert row == coeffs + [0] * (width - len(coeffs))
        assert Poly(PrimeModulus(qv), tuple(row)).code == u
    assert digit_codes(qv, digits).tolist() == codes
    assert code_digits(qv, codes[0], width).tolist() == digits[0].tolist()


@st.composite
def mulmod_cases(draw):
    """(a, g, width, xs): g of degree 1..9, at times c t^d (its low
    coefficients all 0, as the irreducible sieve's modulus), a of any
    degree up to deg g + 5, width 0..2 deg g + 2, and vectors xs."""
    qv = draw(HELPER_FIELDS)
    q = PrimeModulus(qv)
    coeff = st.integers(0, qv - 1)
    deg_g = draw(st.integers(1, 9))
    low = draw(st.just([0] * deg_g) | st.lists(coeff, min_size=deg_g, max_size=deg_g))
    g = Poly(q, tuple(low) + (draw(st.integers(1, qv - 1)),))
    a = Poly(q, tuple(draw(st.lists(coeff, max_size=deg_g + 6))))
    width = draw(st.integers(0, 2 * deg_g + 2))
    xs = draw(st.lists(st.lists(coeff, min_size=width, max_size=width), min_size=1, max_size=8))
    return a, g, width, xs


@given(mulmod_cases())
@example((Poly(Q3, (1, 2)), Poly(Q3, (1, 0, 1)), 0, [[]]))  # width 0
@example((Poly(Q5, (1, 2, 3, 4, 1, 2, 3)), Poly(Q5, (2, 0, 3)), 5, [[1, 2, 3, 4, 0], [4, 4, 4, 4, 4]]))  # deg a > deg g
@example((Poly(Q3, (2, 1, 0, 1)), Poly(Q3, (1, 2, 0, 2)), 4, [[0, 0, 0, 1], [2, 2, 1, 0]]))  # deg a = deg g
@example((Poly(Q2, (1, 0, 0, 1)), Poly(Q2, (1, 1) + (0,) * 7 + (1,)), 12, [[1] * 12, [0, 1] * 6]))  # deg g 9
@example((Poly(Q3, (2, 1, 0, 1, 2, 1, 1)), Poly(Q3, (0,) * 6 + (1,)), 6, [[1, 2, 0, 1, 2, 2]]))  # t^d
@example((Poly(Q5, (3, 1, 4, 1, 2)), Poly(Q5, (0, 0, 0, 0, 2)), 9, [[4] * 9]))  # 2 t^4
@settings(max_examples=100)
def test_mulmod_matrix_matches_poly_arithmetic(case):
    a, g, width, xs = case
    qv, deg_g = g.q.q, g.degree
    matrix = mulmod_matrix(a, g, width)
    assert matrix.shape == (width, deg_g) and matrix.dtype == np.int64
    images = np.array(xs, dtype=np.int64).reshape(len(xs), width) @ matrix % qv
    for x, row in zip(xs, images.tolist()):
        expected = list(poly_mod(poly_mul(a, Poly(g.q, tuple(x))), g).coeffs)
        assert row == expected + [0] * (deg_g - len(expected))


def test_mulmod_matrix_makes_no_poly_per_row(monkeypatch):
    # the rows come from one poly_mod and integer lists; a loop of Poly
    # arithmetic per row (t, a t^j, its quotient and remainder) makes 235
    # here
    made = []
    post_init = Poly.__post_init__

    def counted(self):
        made.append(1)
        post_init(self)

    a = Poly(Q3, (2, 1, 0, 1, 2, 1, 1, 2, 0, 1))
    g = Poly(Q3, (1, 2, 0, 1, 0, 2, 1))
    monkeypatch.setattr(Poly, "__post_init__", counted)
    matrix = mulmod_matrix(a, g, 64)
    assert matrix.shape == (64, 6)
    assert len(made) <= 2


def gather_map(q, codes, width, matrices):
    """map_codes's images as one (matrices, codes) array, after checking
    that its blocks tile codes in order, each block going through every
    matrix in turn."""
    step = ffpoly.block_rows(max(width, *(m.shape[1] for m in matrices)))
    out = np.full((len(matrices), len(codes)), -1, dtype=np.int64)
    seen = []
    for rows, i, images in map_codes(q, codes, width, matrices):
        seen.append((rows.start, rows.stop, i))
        out[i, rows] = images
    starts = range(0, len(codes), step)
    assert seen == [(lo, min(lo + step, len(codes)), i) for lo in starts for i in range(len(matrices))]
    return out


@pytest.mark.parametrize("qv, width", [(2, 20), (3, 7), (13, 3)])
@pytest.mark.parametrize("block", [1, 7, None])
def test_map_codes_matches_the_one_shot_form(monkeypatch, qv, width, block):
    # the blocked map against digit_codes(code_digits(...) @ M % q) over
    # all codes at once, for maps into fewer, as many and more digits
    # than width; the codes end in a partial block
    if block is not None:
        monkeypatch.setattr(ffpoly, "_BLOCK_DIGITS", block)
    q = PrimeModulus(qv)
    rng = np.random.default_rng(qv * 100 + width)
    moduli = [Poly(q, tuple(rng.integers(0, qv, d).tolist()) + (1,)) for d in (2, width, width + 3)]
    matrices = [mulmod_matrix(Poly(q, tuple(rng.integers(0, qv, 6).tolist())), g, width) for g in moduli]
    rows = ffpoly.block_rows(width + 3)
    count = 3 * rows + rows // 2 if block is None else 500
    codes = rng.integers(0, qv**width, count)
    expected = np.stack([digit_codes(qv, code_digits(qv, codes, width) @ m % qv) for m in matrices])
    assert np.array_equal(gather_map(qv, codes, width, matrices), expected)
    span = range(qv**width - count, qv**width)
    expected = np.stack([digit_codes(qv, code_digits(qv, np.array(span), width) @ m % qv) for m in matrices])
    assert np.array_equal(gather_map(qv, span, width, matrices), expected)
    for empty in (np.zeros(0, dtype=np.int64), range(0)):
        assert list(map_codes(qv, empty, width, matrices)) == []


@pytest.mark.parametrize("qv, d", [(2, 12), (3, 7), (5, 4), (13, 3)])
def test_blocked_sieve_matches_irreducibility_filter(monkeypatch, qv, d):
    # one sieve per block size, built from a cleared cache, against the
    # distinct-degree test of every monic of degree d
    q = PrimeModulus(qv)
    expected = [u for u in range(qv**d) if is_irreducible(Poly.from_code(q, u + qv**d))]
    for rows in (1, 5, None):
        if rows is not None:
            monkeypatch.setattr(ffpoly, "_BLOCK_DIGITS", rows * d)
        ffpoly._irreducible_codes.cache_clear()
        codes = ffpoly._irreducible_codes(qv, d)
        assert codes.dtype == np.int64 and codes.tolist() == expected
        monkeypatch.undo()
    ffpoly._irreducible_codes.cache_clear()


def test_smallest_irreducible():
    cases = [(Q2, 1), (Q2, 6)] + [(PrimeModulus(q), d) for q in (3, 5, 11, 13) for d in range(1, 6)]
    for q, d in cases:
        assert smallest_irreducible(q, d) == enumerate_irreducibles(q, d)[0]
    with pytest.raises(ValueError):
        smallest_irreducible(Q3, 13)  # 3^13 > ENUM_CAP
