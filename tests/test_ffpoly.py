"""Polynomial arithmetic over F_q against naive convolution oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sidonbasis.ffpoly import (
    MINUS_INFINITY,
    Poly,
    PrimeModulus,
    code_digits,
    count_irreducibles,
    crt,
    digit_codes,
    enumerate_irreducibles,
    is_irreducible,
    mulmod_matrix,
    poly_add,
    poly_divmod,
    poly_from_string,
    poly_gcd,
    poly_invmod,
    poly_mod,
    poly_mul,
    poly_powmod,
    poly_sub,
    poly_to_string,
    smallest_irreducible,
)

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
        enumerate_irreducibles(Q2, 8, cap=10)


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


def test_string_rejects_malformed():
    for bad in ("", "t^1", "t^0", "3+t", "t+t", "1+1", "x^2", "t^-1"):
        with pytest.raises(ValueError):
            poly_from_string(Q3, bad)


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


@given(st.data())
@settings(max_examples=100)
def test_mulmod_matrix_matches_poly_arithmetic(data):
    qv = data.draw(HELPER_FIELDS)
    q = PrimeModulus(qv)
    coeff = st.integers(0, qv - 1)
    deg_g = data.draw(st.integers(1, 6))
    lead = data.draw(st.integers(1, qv - 1))
    g = Poly(q, tuple(data.draw(st.lists(coeff, min_size=deg_g, max_size=deg_g))) + (lead,))
    a = Poly(q, tuple(data.draw(st.lists(coeff, max_size=8))))
    width = data.draw(st.integers(1, 9))
    vector = st.lists(coeff, min_size=width, max_size=width)
    xs = data.draw(st.lists(vector, min_size=1, max_size=8))
    matrix = mulmod_matrix(a, g, width)
    assert matrix.shape == (width, deg_g)
    for x, row in zip(xs, (np.array(xs) @ matrix % qv).tolist()):
        expected = list(poly_mod(poly_mul(a, Poly(q, tuple(x))), g).coeffs)
        assert row == expected + [0] * (deg_g - len(expected))


def test_smallest_irreducible():
    cases = [(Q2, 1), (Q2, 6)] + [(PrimeModulus(q), d) for q in (3, 5, 11, 13) for d in range(1, 6)]
    for q, d in cases:
        assert smallest_irreducible(q, d) == enumerate_irreducibles(q, d)[0]
    with pytest.raises(ValueError):
        smallest_irreducible(Q3, 13)  # 3^13 > DEFAULT_ENUM_CAP
