"""Unit group tests: generators, discrete logs on both paths, phi."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sidonbasis.ffpoly import (
    Poly,
    PrimeModulus,
    enumerate_irreducibles,
    poly_mod,
    poly_mul,
    poly_powmod,
)
from sidonbasis.unitgroup import (
    DLOG_SCAN_LIMIT,
    Generator,
    dlog,
    dlog_table,
    euler_phi_poly,
    factor_integer,
    factor_squarefree_poly,
    find_generator,
    group_order,
)

Q2 = PrimeModulus(2)
Q3 = PrimeModulus(3)

G_QUAD = Poly(Q3, (1, 0, 1))  # irreducible, unit group of order 8
G_QUINT = Poly(Q3, (1, 2, 0, 0, 0, 1))  # irreducible quintic, order 242


def test_factor_integer_examples():
    assert factor_integer(8) == (2, 2, 2)
    assert factor_integer(242) == (2, 11, 11)
    assert factor_integer(1) == ()
    with pytest.raises(ValueError):
        factor_integer(0)
    with pytest.raises(ValueError):
        factor_integer(10**19)


def test_group_order():
    assert group_order(Poly(Q3, (0, 1))) == 2
    assert group_order(G_QUAD) == 8
    assert group_order(G_QUINT) == 242


def test_find_generator_examples():
    assert find_generator(Poly(Q3, (0, 1))).omega == Poly(Q3, (2,))
    gen = find_generator(G_QUAD)
    # t itself has order 4 (t^2 = -1), so the scan lands on t+1
    assert gen.omega == Poly(Q3, (1, 1))
    assert poly_powmod(gen.omega, 8, G_QUAD) == Poly(Q3, (1,))
    assert poly_powmod(gen.omega, 4, G_QUAD) != Poly(Q3, (1,))
    # trivial group: 1 generates vacuously
    assert find_generator(Poly(Q2, (1, 1))).omega == Poly(Q2, (1,))


def test_find_generator_rejects_reducible():
    with pytest.raises(ValueError):
        find_generator(Poly(Q3, (0, 0, 1)))
    with pytest.raises(ValueError):
        find_generator(Poly(Q3, (2, 0, 2)))  # non-monic


def test_generator_validates_order():
    with pytest.raises(ValueError):
        Generator(G_QUAD, Poly(Q3, (2,)))  # 2 has order 2, not 8
    with pytest.raises(ValueError):
        Generator(G_QUAD, Poly(Q3, (0, 1)))  # t has order 4


def test_dlog_examples():
    gen = find_generator(G_QUAD)
    assert dlog(gen, Poly(Q3, (1,))) == 0
    assert dlog(gen, Poly(Q3, (2,))) == 4
    assert dlog(gen, gen.omega) == 1
    with pytest.raises(ValueError):
        dlog(gen, Poly.zero(Q3))
    with pytest.raises(ValueError):
        dlog(gen, poly_mul(G_QUAD, Poly(Q3, (0, 1))))


def test_dlog_full_orbit_both_paths():
    gen = find_generator(G_QUAD)
    for e in range(8):
        f = poly_powmod(gen.omega, e, G_QUAD)
        assert dlog(gen, f) == e
        assert dlog(gen, f, scan_limit=1) == e  # force Pohlig-Hellman


@given(st.integers(min_value=0, max_value=241), st.integers(min_value=0, max_value=241))
@settings(max_examples=60, deadline=None)
def test_dlog_homomorphism(e1, e2):
    gen = find_generator(G_QUINT)
    a = poly_powmod(gen.omega, e1, G_QUINT)
    b = poly_powmod(gen.omega, e2, G_QUINT)
    ab = poly_mod(poly_mul(a, b), G_QUINT)
    assert dlog(gen, ab) == (e1 + e2) % 242
    assert dlog(gen, ab, scan_limit=1) == (e1 + e2) % 242


@given(st.integers(min_value=1, max_value=3**5 - 1))
@settings(max_examples=60, deadline=None)
def test_dlog_roundtrip_quintic(code):
    gen = find_generator(G_QUINT)
    f = Poly.from_code(Q3, code)
    e = dlog(gen, f)
    assert 0 <= e < 242
    assert poly_powmod(gen.omega, e, G_QUINT) == poly_mod(f, G_QUINT)
    assert dlog(gen, f, scan_limit=1) == e


def _generators():
    yield find_generator(Poly(Q2, (1, 1)))  # trivial group
    yield find_generator(G_QUAD)
    yield find_generator(G_QUINT)
    yield find_generator(enumerate_irreducibles(PrimeModulus(5), 3)[0])
    yield find_generator(enumerate_irreducibles(PrimeModulus(11), 2)[-1])
    yield find_generator(enumerate_irreducibles(PrimeModulus(7), 4)[3])


def test_dlog_table_inverts_the_power_map():
    # the units go one to one onto [0, order), 1 to 0 and omega to 1
    for gen in _generators():
        logs = dlog_table(gen)
        size = gen.g.q.q ** gen.g.degree
        assert logs.shape == (size,)
        assert logs[0] == -1
        assert np.array_equal(np.sort(logs[1:]), np.arange(gen.order))
        assert logs[1] == 0
        assert logs[poly_mod(gen.omega, gen.g).code] == 1 % gen.order


def test_antilog_matches_powmod():
    # the antilog e -> omega^e by poly_powmod, read back through the table
    rng = random.Random(3)
    for gen in _generators():
        n = gen.order
        logs = dlog_table(gen)
        for e in [0, n // 2, n - 1] + [rng.randrange(n) for _ in range(20)]:
            power = poly_powmod(gen.omega, e, gen.g)
            assert logs[power.code] == e
            assert dlog(gen, power) == e


def test_tables_refuse_orders_above_the_limit():
    # t^21 + t^2 + 1 over F_2: order 2^21 - 1 > DLOG_SCAN_LIMIT = 2^20
    gen = find_generator(Poly(Q2, (1, 0, 1) + (0,) * 18 + (1,)))
    assert gen.order == 2**21 - 1 > DLOG_SCAN_LIMIT
    with pytest.raises(ValueError, match="DLOG_SCAN_LIMIT"):
        dlog_table(gen)


def test_dlog_table_matches_pohlig_hellman_above_old_limit():
    # q = 11, deg g = 5: order 161050 lies between 2^16 and 2^20, so the
    # default dlog reads the table; scan_limit=1 forces Pohlig-Hellman
    q11 = PrimeModulus(11)
    gen = find_generator(enumerate_irreducibles(q11, 5)[0])
    assert 1 << 16 < gen.order <= DLOG_SCAN_LIMIT
    rng = random.Random(7)
    for _ in range(100):
        f = Poly.from_code(q11, rng.randrange(1, 11**5))
        e = dlog(gen, f)
        assert dlog(gen, f, scan_limit=1) == e
        assert poly_powmod(gen.omega, e, gen.g) == f


@pytest.mark.parametrize("q, d", [(11, 5), (3, 7)])
def test_dlog_table_by_doubling_matches_pohlig_hellman(q, d):
    # the doubled power table, scattered into logs, against dlog forced
    # onto Pohlig-Hellman, on the last irreducible of the degree (the
    # test above takes the first one at q = 11)
    field = PrimeModulus(q)
    gen = find_generator(enumerate_irreducibles(field, d)[-1])
    logs = dlog_table(gen)
    assert np.array_equal(np.sort(logs[1:]), np.arange(gen.order))
    rng = random.Random(q * 100 + d)
    for code in [1, q**d - 1] + [rng.randrange(1, q**d) for _ in range(60)]:
        f = Poly.from_code(field, code)
        assert int(logs[code]) == dlog(gen, f, scan_limit=1)


def test_euler_phi_examples():
    assert euler_phi_poly(Poly(Q3, (0, 1, 1))) == 4  # t(t+1)
    assert euler_phi_poly(G_QUAD) == 8
    assert euler_phi_poly(G_QUINT) == 242
    assert euler_phi_poly(Poly(Q2, (0, 1))) == 1
    assert euler_phi_poly(Poly(Q3, (0, 2, 0, 1))) == 8  # t(t+1)(t+2)
    with pytest.raises(ValueError):
        euler_phi_poly(Poly(Q3, (0, 0, 1)))  # t^2 not squarefree
    with pytest.raises(ValueError):
        euler_phi_poly(Poly(Q3, (0, 2)))  # non-monic


def test_factor_squarefree_poly():
    factors = factor_squarefree_poly(Poly(Q3, (0, 2, 0, 1)))
    assert factors == (Poly(Q3, (0, 1)), Poly(Q3, (1, 1)), Poly(Q3, (2, 1)))
    prod = Poly(Q3, (1,))
    for pi in factors:
        prod = poly_mul(prod, pi)
    assert prod == Poly(Q3, (0, 2, 0, 1))
    # an irreducible factors as itself
    assert factor_squarefree_poly(G_QUAD) == (G_QUAD,)
    with pytest.raises(ValueError):
        factor_squarefree_poly(Poly(Q3, (0, 0, 1)))
