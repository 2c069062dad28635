"""Sequence assembly tests: member windows, digits, injectivity, decode."""

import dataclasses
import hashlib
import json
import math
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from sidonbasis import builder
from sidonbasis.auxset import AuxSet
from sidonbasis.builder import (
    SCALED_MODE_WARNING,
    DecodeError,
    Params,
    _decode_index,
    _decode_levels,
    audit_preconditions,
    build_moduli,
    build_sequence,
    decode_entry,
    digit_weights,
    fk_degrees,
    level_tables,
    level_value_range,
    member_table,
    params_from_json,
    params_to_json,
    seq_from_json,
    seq_json_chunks,
    seq_to_json,
)
from sidonbasis.ffpoly import (
    Poly,
    PrimeModulus,
    enumerate_irreducibles,
    is_irreducible,
    poly_mod,
    poly_mul,
    poly_powmod,
    poly_to_string,
)
from sidonbasis.unitgroup import find_generator

import oracles
from oracles import _pack, build_Fk, crt, decode, dlog, encode, from_entries, level_e_digits, radix

Q3 = PrimeModulus(3)


@pytest.fixture(scope="module")
def seq11(aux307):
    # q = 11, k = 3: 3,630 members of degree 4, all in the level's decode
    # index, and g_3 has 161,050 units
    return build_sequence(Params(q=PrimeModulus(11), aux=aux307, k_min=3, k_max=3, seed=3))


def reference_decode(n, params, moduli):
    """decode_entry by Poly arithmetic alone: k poly_powmod, one crt and
    one distinct-degree irreducibility test per bracket-compatible level."""
    for k in range(1, params.k_max + 1):
        lo, hi = level_value_range(params, k)
        if not lo <= n < hi:
            continue
        digits = decode(params.q.q, params.aux.p, n, 2 * k + 1)
        e, r, s = digits[0 : 2 * k : 2], digits[1 : 2 * k : 2], digits[2 * k]
        if not 1 <= s <= params.q.q ** (3 * k) or any(x not in params.aux.A for x in r):
            continue
        residues = [poly_powmod(moduli.omega(i), e[i - 1], moduli.g(i)) for i in range(1, k + 1)]
        f = crt(residues, [moduli.g(i) for i in range(1, k + 1)])
        if f.is_monic() and f.degree in fk_degrees(params, k) and is_irreducible(f):
            return f, k
    raise DecodeError(n)


def decode_outcome(fn, n, params, moduli):
    try:
        return fn(n, params, moduli)
    except DecodeError:
        return None


def with_c(params, c, k_min=None, k_max=None):
    return Params(
        q=params.q,
        aux=params.aux,
        c=Fraction(c),
        k_min=k_min if k_min is not None else params.k_min,
        k_max=k_max if k_max is not None else params.k_max,
        seed=params.seed,
    )


def test_params_validation(aux307):
    with pytest.raises(ValueError):
        Params(q=PrimeModulus(2), aux=aux307)
    with pytest.raises(ValueError):
        Params(q=Q3, aux=aux307, k_min=4, k_max=3)
    with pytest.raises(ValueError):
        Params(q=Q3, aux=aux307, k_min=0, k_max=3)


def test_params_hash_cached_and_pickled(aux307):
    # equal Params built apart hash equal, the caches keyed by Params hit
    # on either, and a pickle re-hashes rather than carrying the hash over
    a = Params(q=Q3, aux=aux307, c=Fraction(7, 20), seed=11)
    b = Params(q=PrimeModulus(3), aux=AuxSet(**vars(aux307)), c=Fraction(14, 40), seed=11)
    assert a == b and a is not b and hash(a) == hash(b)
    assert hash(Params(q=Q3, aux=aux307, seed=12)) != hash(a)
    assert hash(pickle.loads(pickle.dumps(a))) == hash(a)
    digit_weights(a)
    hits = digit_weights.cache_info().hits
    assert digit_weights(b) is digit_weights(a)
    assert digit_weights.cache_info().hits == hits + 2
    # AuxSet.method is a str, whose hash differs between processes: a
    # Params pickled under another hash seed still hashes as one built here
    code = (
        "import pickle, sys; "
        "from sidonbasis.auxset import AuxSet; from sidonbasis.builder import Params; "
        "from sidonbasis.ffpoly import PrimeModulus; "
        f"aux = AuxSet(p={aux307.p}, A={aux307.A!r}, method='deterministic'); "
        "sys.stdout.buffer.write(pickle.dumps(Params(q=PrimeModulus(3), aux=aux, seed=11)))"
    )
    env = {**os.environ, "PYTHONHASHSEED": "1", "PYTHONPATH": os.pathsep.join(sys.path)}
    blob = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, check=True).stdout
    here = Params(q=Q3, aux=AuxSet(p=aux307.p, A=aux307.A, method="deterministic"), seed=11)
    assert hash(pickle.loads(blob)) == hash(here)


def test_strict_mode_rejects_desk_scale(aux307):
    with pytest.raises(ValueError):
        Params(q=Q3, aux=aux307, strict=True)
    with pytest.raises(ValueError):
        Params(q=Q3, aux=aux307, c=Fraction(1, 2), strict=True)


def test_build_moduli(params307):
    moduli = build_moduli(params307)
    assert build_moduli(with_c(params307, "9/25")) is moduli  # cached per (q, k_max)
    assert moduli.g(1) == Poly(Q3, (0, 1))
    assert moduli.omega(1) == Poly(Q3, (2,))
    for i in range(1, params307.k_max + 1):
        assert moduli.g(i).degree == 2 * i - 1
        assert moduli.g(i).is_monic() and is_irreducible(moduli.g(i))
    assert len(moduli) == params307.k_max


def test_fk_degrees(params307):
    assert fk_degrees(params307, 3) == (4,)
    assert fk_degrees(params307, 4) == (6, 8)
    assert fk_degrees(with_c(params307, "1/100"), 3) == ()
    # window is [c k^2, c (k+1)^2): even, inside, maximal
    for c in ("7/20", "9/25", "2/5"):
        p = with_c(params307, c)
        for k in range(1, 7):
            degs = fk_degrees(p, k)
            lo, hi = p.c * k * k, p.c * (k + 1) * (k + 1)
            for m in degs:
                assert m % 2 == 0 and lo <= m < hi
            if degs:
                assert degs[0] - 2 < lo and degs[-1] + 2 >= hi


def test_build_fk_counts(params307):
    f3 = build_Fk(params307, 3)
    f4 = build_Fk(params307, 4)
    assert len(f3) == 18
    assert len(f4) == 926
    assert all(f.degree == 4 for f in f3)
    assert sorted({f.degree for f in f4}) == [6, 8]
    for f in f3 + f4[:20]:
        assert f.is_monic() and is_irreducible(f)


def test_level_e_digits_first_digit(params307):
    gens = build_moduli(params307).generators[:1]
    e = level_e_digits(gens, [Poly(Q3, (1, 0, 1)), Poly(Q3, (2, 1, 1))])
    # f = 1 mod t, and dlog(2, 1) = 0; f = 2 mod t, and dlog(2, 2) = 1
    assert e.tolist() == [[0], [1]]


def test_level_e_digits_match_pohlig_hellman(params307, seq7):
    # every q = 3, k = 3 member, and samples at q = 3, k = 4 and q = 7, k = 3,
    # against Pohlig-Hellman
    rng = random.Random(31)
    for params, k, sample in ((params307, 3, None), (params307, 4, 40), (seq7.params, 3, 60)):
        gens = build_moduli(params).generators[:k]
        members = build_Fk(params, k)
        if sample is not None:
            members = rng.sample(members, sample)
        e = level_e_digits(gens, members).tolist()
        assert e == [[oracles._pohlig_hellman(gen, poly_mod(f, gen.g)) for gen in gens] for f in members]
    with pytest.raises(ValueError, match="divisible"):
        level_e_digits(build_moduli(params307).generators[:2], [Poly(Q3, (0, 1, 1))])  # t(t+1)


def test_digit_weights_and_pack_match_encode(params307, seq7):
    rng = random.Random(29)
    for params in (params307, seq7.params):
        q, p = params.q.q, params.aux.p
        weights = digit_weights(params)
        assert len(weights) == 2 * params.k_max + 2
        products = [math.prod(radix(q, p, j) for j in range(1, i + 1)) for i in range(25)]
        assert weights == tuple(products[: len(weights)])
        assert digit_weights(params, 25) == tuple(products)
        for k in range(params.k_max + 1):
            for _ in range(50):
                e = [rng.randrange(-5, 10**6) for _ in range(k)]
                r = [rng.randrange(-5, 10**6) for _ in range(k)]
                s = rng.randrange(-5, 10**9)
                digits = [d for pair in zip(e, r) for d in pair] + [s]
                assert _pack(weights, e, r, s) == encode(q, p, digits)


def test_entry_digit_ranges(params307, seq307):
    q = params307.q.q
    a_members = set(params307.aux.A)
    for ent in seq307.entries:
        for i, ei in enumerate(ent.e, start=1):
            assert 0 <= ei < q ** (2 * i - 1) - 1
        assert all(r in a_members for r in ent.r)
        assert 1 <= ent.s <= q ** (3 * ent.k)
        digits = []
        for ei, ri in zip(ent.e, ent.r):
            digits.extend((ei, ri))
        digits.append(ent.s)
        assert encode(q, params307.aux.p, digits) == ent.n


def test_built_digits_are_python_ints(seq307, seq7):
    # the level-wide draw leaves plain Python integers in every digit
    for seq in (seq307, seq7):
        assert all(type(x) is int for ent in seq.entries for x in (*ent.e, *ent.r, ent.s, ent.n))


def test_sequence_counts_and_injectivity(seq307):
    assert len(seq307.entries) == 944
    values = seq307.values
    assert len(set(values)) == 944
    assert list(values) == sorted(values)
    assert {ent.k for ent in seq307.entries} == {3, 4}


def test_level_brackets_partition(params307, seq307):
    lo3, hi3 = level_value_range(params307, 3)
    lo4, hi4 = level_value_range(params307, 4)
    assert hi3 <= lo4  # levels cannot collide at these parameters
    for ent in seq307.entries:
        lo, hi = level_value_range(params307, ent.k)
        assert lo <= ent.n < hi


def test_values_exceed_lower_exponent_bound(params307, seq307):
    # every n clears q^{k^2}
    q = params307.q.q
    for ent in seq307.entries:
        assert ent.n > q ** (ent.k * ent.k)


def test_values_below_upper_exponent_bound(params307, seq307):
    # the claimed ceiling q^{(k+2)^2} would need the radix weight
    # p^k prod(q^{2i-1} - 1) * q^{3k} to fit under q^{(k+2)^2 - k^2};
    # at p = 307 the even positions contribute ~5.2 base-q digits per
    # level too many, so this fails for every entry. Kept faithful and
    # red deliberately; see the README findings section.
    q = params307.q.q
    violations = sum(1 for ent in seq307.entries if ent.n >= q ** ((ent.k + 2) ** 2))
    assert violations == 0, (
        f"{violations} of {len(seq307.entries)} entries exceed the "
        f"q^(k+2)^2 ceiling (smallest prime the aux search certifies is "
        f"p = 307, but the ceiling needs p <= 15 at k = 3)"
    )


def test_decode_roundtrip_exhaustive(seq307, seq7):
    # every entry at q = 3 and q = 7, against the Poly reference decode too
    for seq in (seq307, seq7):
        for ent in seq.entries:
            assert decode_entry(ent.n, seq.params, seq.moduli) == (ent.f, ent.k)
            assert reference_decode(ent.n, seq.params, seq.moduli) == (ent.f, ent.k)


def test_decode_rejects_foreign_values(params307, seq307):
    for bad in (1, 2, 10**6):
        with pytest.raises(DecodeError):
            decode_entry(bad, params307, seq307.moduli)
    with pytest.raises(DecodeError):
        decode_entry(seq307.values[-1] * 7919 + 1, params307, seq307.moduli)


def test_decode_detects_tampering(params307, seq307):
    rng = random.Random(5)
    for ent in rng.sample(seq307.entries, 12):
        flipped = 1 - ent.e[0]  # e_1 lives in {0, 1} for q = 3
        n2 = ent.n + (flipped - ent.e[0]) * digit_weights(params307)[0]
        try:
            decoded = decode_entry(n2, params307, seq307.moduli)
        except DecodeError:
            continue
        assert decoded != (ent.f, ent.k)


def test_decode_q11_matches_reference(seq11):
    # every q = 11 entry decodes by its tables; a sample also by the Poly
    # arithmetic oracle
    for ent in seq11.entries:
        assert decode_entry(ent.n, seq11.params, seq11.moduli) == (ent.f, ent.k)
    for ent in random.Random(19).sample(seq11.entries, 150):
        assert reference_decode(ent.n, seq11.params, seq11.moduli) == (ent.f, ent.k)


def test_decode_matches_reference_on_foreign_digits(params307, seq307, seq7, seq11):
    # tampered entries (one digit changed: r to another element of A or
    # outside it, e_i by +-1, s to and past its edges), random digit
    # vectors at every level, below k_min too, and random integers
    rng = random.Random(17)
    seen = {"accepted": 0, "rejected": 0}
    for seq in (seq307, seq7, seq11):
        params, moduli = seq.params, seq.moduli
        weights = digit_weights(params)
        q, a_elems = params.q.q, params.aux.A
        candidates = []
        for ent in rng.sample(seq.entries, 60):
            e, r, k = list(ent.e), list(ent.r), ent.k
            i = rng.randrange(k)
            r_other = r[:i] + [rng.choice(a_elems)] + r[i + 1 :]
            r_foreign = r[:i] + [rng.choice([0, 1, 2, params.aux.p - 1])] + r[i + 1 :]
            e_up = e[:i] + [(e[i] + 1) % (q ** (2 * i + 1) - 1)] + e[i + 1 :]
            e_down = e[:i] + [(e[i] - 1) % (q ** (2 * i + 1) - 1)] + e[i + 1 :]
            candidates += [
                _pack(weights, e, r_other, ent.s),
                _pack(weights, e, r_foreign, ent.s),
                _pack(weights, e_up, r, ent.s),
                _pack(weights, e_down, r, ent.s),
                _pack(weights, e, r, 0),
                _pack(weights, e, r, 1),
                _pack(weights, e, r, q ** (3 * k)),
                _pack(weights, e, r, q ** (3 * k) + 1),
            ]
        for k in range(1, params.k_max + 1):
            for _ in range(100):
                e = [rng.randrange(q ** (2 * i - 1) - 1) for i in range(1, k + 1)]
                r = [rng.choice(a_elems) for _ in range(k)]
                candidates.append(_pack(weights, e, r, rng.randrange(1, q ** (3 * k) + 1)))
        top = level_value_range(params, params.k_max)[1]
        candidates += [rng.randrange(top + 100) for _ in range(100)]
        for n in candidates:
            expected = decode_outcome(reference_decode, n, params, moduli)
            assert decode_outcome(decode_entry, n, params, moduli) == expected
            seen["rejected" if expected is None else "accepted"] += 1
    assert seen["accepted"] >= 100 and seen["rejected"] >= 500


def test_decode_where_margin_b_fails(aux307):
    # q = 3, c = 1/2: level 2 has degrees (2, 4) and k^2 = 4, so the e
    # digits need not tell its members apart (the audit's "(b) fail"). A
    # member of degree < k^2 round-trips; one of degree >= k^2 raises or
    # decodes to the member of degree < k^2 with its e digits. The e
    # digits do not depend on the seed, so neither do the counts.
    params = Params(q=Q3, aux=aux307, c=Fraction(1, 2), k_min=2, k_max=3, seed=4)
    seq = build_sequence(params)
    moduli = seq.moduli
    assert fk_degrees(params, 2) == (2, 4)
    assert any(w.startswith("k=2:") and "(b) 4 < 4 fail" in w for w in seq.warnings)
    below = {ent.e: ent.f for ent in seq.entries if ent.f.degree < ent.k**2}
    outcomes = {"raises": 0, "another member": 0}
    for ent in seq.entries:
        got = decode_outcome(decode_entry, ent.n, params, moduli)
        assert got == decode_outcome(reference_decode, ent.n, params, moduli)
        if ent.f.degree < ent.k**2:
            assert got == (ent.f, ent.k)
        elif got is None:
            outcomes["raises"] += 1
        else:
            assert got == (below[ent.e], ent.k) and got[0].degree == 2
            outcomes["another member"] += 1
    assert outcomes == {"raises": 17, "another member": 1}
    # foreign digits: every e at level 2 (3 of its 52 vectors name a
    # member of degree 2), random e at level 3, r inside and outside A
    # and s at and past its edges
    rng = random.Random(41)
    weights = digit_weights(params)
    a_elems = params.aux.A
    candidates = [
        _pack(weights, (e1, e2), (rng.choice(a_elems), rng.choice(a_elems)), 5)
        for e1 in range(2)
        for e2 in range(26)
    ]
    assert sum(decode_outcome(decode_entry, n, params, moduli) is not None for n in candidates) == 3
    for _ in range(300):
        e = [rng.randrange(2), rng.randrange(26), rng.randrange(242)]
        r = [rng.choice(a_elems + (0, 1, params.aux.p - 1)) for _ in range(3)]
        s = rng.choice([0, 1, rng.randrange(1, 3**9), 3**9, 3**9 + 1])
        candidates.append(_pack(weights, e, r, s))
    for n in candidates:
        expected = decode_outcome(reference_decode, n, params, moduli)
        assert decode_outcome(decode_entry, n, params, moduli) == expected


def test_decode_rejects_reducible_crt_result(params307, seq307):
    # digits of a reducible monic quartic (two irreducible quadratics): CRT
    # gives it back, monic and in the k = 3 degree window, so only a test
    # of irreducibility can reject it; no member has its e digits
    moduli = seq307.moduli
    quads = enumerate_irreducibles(Q3, 2)
    rejected = 0
    for a in quads:
        for b in quads:
            f = poly_mul(a, b)
            e = [dlog(moduli.generators[i - 1], f) for i in range(1, 4)]
            n = _pack(digit_weights(params307), e, params307.aux.A[:3], 5)
            residues = [poly_powmod(moduli.omega(i), e[i - 1], moduli.g(i)) for i in range(1, 4)]
            assert crt(residues, [moduli.g(i) for i in range(1, 4)]) == f
            assert f.degree in fk_degrees(params307, 3) and not is_irreducible(f)
            with pytest.raises(DecodeError):
                reference_decode(n, params307, moduli)
            with pytest.raises(DecodeError):
                decode_entry(n, params307, moduli)
            rejected += 1
    assert rejected == len(quads) ** 2


def test_tables_shared_across_seeds(params307, aux307):
    # the member tables are keyed by (q, degree) and the decode indexes by
    # the moduli, q and the window, so builds that differ only in their
    # digit seed share them
    other = Params(q=params307.q, aux=aux307, c=params307.c, k_min=3, k_max=4, seed=99)
    for k in (3, 4):
        ours, theirs = level_tables(params307, k), level_tables(other, k)
        assert len(ours) == len(theirs) and all(a is b for a, b in zip(ours, theirs))
        index = _decode_index(build_moduli(params307).generators[:k], params307.q, fk_degrees(params307, k))
        assert index is _decode_index(build_moduli(other).generators[:k], other.q, fk_degrees(other, k))
        assert len(index) == sum(len(table.polys) for table in ours)
    # decode_entry reads each index through its set-up per (params,
    # moduli), which it makes once
    ours, theirs = _decode_levels(params307, build_moduli(params307)), _decode_levels(other, build_moduli(other))
    assert all(a[-1] is b[-1] for a, b in zip(ours[0], theirs[0]))  # the levels' indexes
    decode_entry(build_sequence(other).values[0], other, build_moduli(other))
    hits = _decode_levels.cache_info().hits
    decode_entry(build_sequence(params307).values[0], params307, build_moduli(params307))
    assert _decode_levels.cache_info().hits == hits + 1


def test_decode_index_keys_members_by_one_integer(params307, seq11):
    # the index against one keyed by the tuple of e digits, read in the
    # mixed radix R_1, R_2, ... of the unit-group orders q^(2i-1) - 1
    for params, k in ((params307, 3), (params307, 4), (seq11.params, 3)):
        generators = build_moduli(params).generators[:k]
        members = [
            f for m in fk_degrees(params, k) if m < k * k for f in member_table(params.q, m).polys
        ]
        by_tuple = dict(zip(map(tuple, level_e_digits(generators, members).tolist()), members))
        assert len(by_tuple) == len(members) > 0
        radices = [params.q.q ** (2 * i - 1) - 1 for i in range(1, k + 1)]
        expected = {
            sum(e_i * math.prod(radices[:i]) for i, e_i in enumerate(e)): f for e, f in by_tuple.items()
        }
        index = _decode_index(generators, params.q, fk_degrees(params, k))
        assert index == expected and all(type(key) is int for key in index)


def test_homomorphic_digit_law(params307, seq307):
    q = params307.q.q
    moduli = seq307.moduli
    k3 = [ent for ent in seq307.entries if ent.k == 3]
    rng = random.Random(11)
    for _ in range(30):
        a, b = rng.sample(k3, 2)
        prod = poly_mul(a.f, b.f)
        for i in range(1, 4):
            expected = dlog(moduli.generators[i - 1], poly_mod(prod, moduli.g(i)))
            assert (a.e[i - 1] + b.e[i - 1]) % (q ** (2 * i - 1) - 1) == expected


def test_audit_margins(params307):
    report = audit_preconditions(params307)
    assert report.c_ok  # (3 - 7/10)^2 = 5.29 > 5
    k3, k4 = report.classes
    assert (k3.k, k3.max_degree, k3.injectivity_margin_ok, k3.pair_margin_ok) == (3, 4, True, True)
    assert (k4.k, k4.max_degree, k4.injectivity_margin_ok, k4.pair_margin_ok) == (4, 8, True, False)
    assert not all(cls.injectivity_margin_ok and cls.pair_margin_ok for cls in report.classes)
    assert any("fail" in line for line in report.lines)


@pytest.mark.parametrize(
    "qv, k, degrees, margin",
    [
        (3, 2, (2,), "(c') one degree 2: 4 <= 4"),
        (3, 3, (4,), "(c) 8 < 9"),
        (11, 3, (4,), "(c) 8 < 9"),
        (13, 3, (4,), "(c) 8 < 9"),
        (3, 4, (6, 8), None),
        (3, 5, (10, 12), "(c) 24 < 25"),
    ],
)
def test_sharpened_pair_margin(aux307, qv, k, degrees, margin):
    # c = 7/20: the one-degree form passes k = 2, where (c) fails
    # (4 < 4); k = 4 has two degrees and fails both (16 < 16)
    (level,) = audit_preconditions(Params(q=PrimeModulus(qv), aux=aux307, k_min=k, k_max=k)).classes
    assert level.degrees == degrees
    assert level.one_degree_margin_ok is (len(degrees) == 1)  # every one-degree window here has 2d <= k^2
    assert level.sharpened_pair_margin() == margin


def test_audit_c_boundaries(params307):
    assert not audit_preconditions(with_c(params307, "1/2")).c_ok
    assert not audit_preconditions(with_c(params307, "1/3")).c_ok
    assert audit_preconditions(with_c(params307, "9/25")).c_ok


def test_empty_level_warning(params307):
    seq = build_sequence(with_c(params307, "1/100", k_min=3, k_max=3))
    assert seq.entries == ()
    assert any("empty" in w for w in seq.warnings)


def test_build_warnings(seq307):
    assert SCALED_MODE_WARNING in seq307.warnings
    assert any("k=4" in w and "fail" in w for w in seq307.warnings)


def test_build_determinism(params307, seq307):
    again = build_sequence(params307)
    assert again.entries == seq307.entries
    other = build_sequence(
        Params(q=params307.q, aux=params307.aux, c=params307.c, k_min=3, k_max=3, seed=1)
    )
    k3 = [ent for ent in seq307.entries if ent.k == 3]
    assert [ent.f for ent in sorted(other.entries, key=lambda e: e.f.code)] == [
        ent.f for ent in sorted(k3, key=lambda e: e.f.code)
    ]
    assert {ent.n for ent in other.entries} != {ent.n for ent in k3}


def test_json_roundtrip(params307, seq307):
    assert params_from_json(params_to_json(params307)) == params307
    obj = seq_to_json(seq307, manifest_ref="x.manifest.json")
    assert obj["manifest"] == "x.manifest.json"
    assert isinstance(obj["entries"][0]["n"], str)  # big ints go as strings
    assert seq_from_json(obj) == seq307
    obj["entries"][3]["e"].append(0)
    with pytest.raises(ValueError, match="digit count"):
        seq_from_json(obj)
    for k in (params307.k_min - 1, params307.k_max + 1):
        obj = seq_to_json(seq307)
        obj["entries"][5]["k"] = k
        with pytest.raises(ValueError, match="outside"):
            seq_from_json(obj)
    weights = digit_weights(params307)
    obj = seq_to_json(seq307)
    gen2 = seq307.moduli.generators[1]
    # omega^5 also generates the 26 units mod g_2: a valid foreign generator
    obj["moduli"][1]["omega"] = str(poly_powmod(gen2.omega, 5, gen2.g))
    with pytest.raises(ValueError, match="moduli differ"):
        seq_from_json(obj)
    obj = seq_to_json(seq307)
    other = enumerate_irreducibles(Q3, 3)[1]
    obj["moduli"][1] = {"g": str(other), "omega": str(find_generator(other).omega)}
    with pytest.raises(ValueError, match="moduli differ"):
        seq_from_json(obj)
    # e_1 and n changed together: n still re-encodes, only the log check sees it
    obj = seq_to_json(seq307)
    ent = seq307.entries[9]
    e = (1 - ent.e[0],) + ent.e[1:]  # e_1 lives in {0, 1} for q = 3
    obj["entries"][9]["e"] = list(e)
    obj["entries"][9]["n"] = str(_pack(weights, e, ent.r, ent.s))
    with pytest.raises(ValueError, match="entry 9: e digits differ"):
        seq_from_json(obj)
    obj = seq_to_json(seq307)
    obj["entries"][2]["f"] = "1+t^2"  # irreducible, but below the k = 3 window
    with pytest.raises(ValueError, match="entry 2: deg f outside"):
        seq_from_json(obj)


@pytest.mark.parametrize("manifest_ref", [None, "seq.json.manifest.json"])
def test_seq_json_text_matches_indented_dumps(seq307, manifest_ref):
    # the template writer against json.dumps(indent=2): a built desk
    # sequence, no warnings, and an f outside the member tables (t^4 is
    # reducible), which is named by poly_to_string
    foreign = Poly(Q3, (0, 0, 0, 0, 1))
    assert not is_irreducible(foreign)
    odd = list(seq307.entries)
    ent = odd[7]
    odd[7] = SimpleNamespace(f=foreign, k=ent.k, e=ent.e, r=ent.r, s=ent.s, n=ent.n)
    cases = [
        seq307,
        dataclasses.replace(seq307, warnings=()),
        from_entries(seq307.params, seq307.moduli, odd, seq307.warnings),
        from_entries(seq307.params, seq307.moduli, (), seq307.warnings),
    ]
    assert seq307.warnings
    for seq in cases:
        obj = seq_to_json(seq, manifest_ref)
        assert "".join(seq_json_chunks(seq, manifest_ref)) == json.dumps(obj, indent=2) + "\n"
    assert obj.get("manifest") == manifest_ref
    assert seq_to_json(cases[2])["entries"][7]["f"] == "t^4"


@pytest.mark.parametrize("block", [1, 7])
def test_seq_json_chunks_cut_across_levels(seq307, monkeypatch, block):
    # blocks of 1 and 7 entries: the 18 k = 3 entries of the desk build
    # end inside the third block of 7, so a block holds rows of both
    # levels; one chunk per block, with the head and the tail
    monkeypatch.setattr(builder, "_ENTRY_BLOCK", block)
    chunks = list(seq_json_chunks(seq307, "seq.json.manifest.json"))
    assert len(chunks) == 2 + -(-len(seq307.values) // block)
    assert [level.k for level in seq307.levels] == [3, 4] and len(seq307.levels[0]) == 18
    obj = seq_to_json(seq307, "seq.json.manifest.json")
    assert "".join(chunks) == json.dumps(obj, indent=2) + "\n"


def test_json_roundtrip_q11_and_spellings(seq11):
    assert seq_from_json(seq_to_json(seq11)) == seq11
    # a member spelled other than canonically loads as that member
    obj = seq_to_json(seq11)
    name = obj["entries"][4]["f"]
    assert "+" in name
    obj["entries"][4]["f"] = " + ".join(reversed(name.split("+")))
    assert seq_from_json(obj) == seq11


def test_seq_from_json_rejects_reducible_member(params307, seq307):
    # 2+2t+2t^3+t^4 is the product of two irreducible quadratics: monic,
    # of degree 4 in the k = 3 window, with e digits and n made consistent
    f = Poly(Q3, (2, 2, 0, 2, 1))
    assert not is_irreducible(f)
    obj = seq_to_json(seq307)
    idx = next(i for i, ent in enumerate(seq307.entries) if ent.k == 3)
    ent = seq307.entries[idx]
    e = tuple(level_e_digits(seq307.moduli.generators[:3], [f])[0].tolist())
    n = _pack(digit_weights(params307), e, ent.r, ent.s)
    obj["entries"][idx].update(f=str(f), e=list(e), n=str(n))
    with pytest.raises(ValueError, match=f"entry {idx}: f is not a monic irreducible"):
        seq_from_json(obj)
    obj["entries"][idx]["f"] = "2+2*t+2*t^3+2*t^4"  # not monic
    with pytest.raises(ValueError, match=f"entry {idx}: f is not a monic irreducible"):
        seq_from_json(obj)


def test_seq_from_json_rejects_repeated_member(params307, seq307):
    # a later k = 3 entry takes the f, e digits and n of an earlier one
    # but keeps its r and s digits, so n re-encodes and the logs match
    obj = seq_to_json(seq307)
    first, later = [i for i, ent in enumerate(seq307.entries) if ent.k == 3][2:4]
    src, ent = seq307.entries[first], seq307.entries[later]
    n = _pack(digit_weights(params307), src.e, ent.r, ent.s)
    obj["entries"][later].update(f=str(src.f), e=list(src.e), n=str(n))
    with pytest.raises(ValueError, match=f"entry {later}: f repeats entry {first}"):
        seq_from_json(obj)


def test_seq_from_json_rejects_s_outside_its_range(params307, seq307):
    # s = 0 and s = q^{3k} + 1 with n re-encoded from the digits, so that
    # only the range check fires; the bounds themselves load, on the
    # lowest and the highest level-4 entry, which keep their places
    weights = digit_weights(params307)
    first = next(i for i, ent in enumerate(seq307.entries) if ent.k == 4)
    last = len(seq307.entries) - 1
    top = 3 ** (3 * 4)
    for idx, s, ok in ((first, 0, False), (first, 1, True), (last, top, True), (last, top + 1, False)):
        ent = seq307.entries[idx]
        assert ent.k == 4
        obj = seq_to_json(seq307)
        obj["entries"][idx].update(s=str(s), n=str(_pack(weights, ent.e, ent.r, s)))
        if ok:
            assert seq_from_json(obj).entries[idx].s == s
        else:
            with pytest.raises(ValueError, match=rf"entry {idx}: s outside \[1, q\^\(3k\)\] = \[1, {top}\]"):
                seq_from_json(obj)


def test_seq_from_json_names_lowest_failing_entry(params307, seq307):
    # faults found by the per-entry pass and by the level-wide checks are
    # reported by the lowest entry index, whichever check finds them
    weights = digit_weights(params307)

    def flip_e1(obj, idx):
        ent = seq307.entries[idx]
        e = (1 - ent.e[0],) + ent.e[1:]  # e_1 lives in {0, 1} for q = 3
        obj["entries"][idx].update(e=list(e), n=str(_pack(weights, e, ent.r, ent.s)))

    def bump_n(obj, idx):
        obj["entries"][idx]["n"] = str(seq307.entries[idx].n + 1)

    def bad_k(obj, idx):
        obj["entries"][idx]["k"] = params307.k_max + 1

    def s_zero(obj, idx):
        ent = seq307.entries[idx]
        obj["entries"][idx].update(s="0", n=str(_pack(weights, ent.e, ent.r, 0)))

    def r_out(obj, idx):
        # r_1 one above max A, with n re-encoded: only the r check fires
        ent = seq307.entries[idx]
        r = (max(params307.aux.A) + 1,) + ent.r[1:]
        obj["entries"][idx].update(r=list(r), n=str(_pack(weights, ent.e, r, ent.s)))

    cases = [
        ((s_zero, 30), (flip_e1, 12), "entry 12: e digits"),
        ((flip_e1, 30), (s_zero, 12), "entry 12: s outside"),
        ((bump_n, 12), (s_zero, 30), "entry 12: n does not re-encode"),
        ((s_zero, 12), (bump_n, 30), "entry 12: s outside"),
        ((bump_n, 30), (flip_e1, 12), "entry 12: e digits"),
        ((flip_e1, 30), (bump_n, 12), "entry 12: n does not re-encode"),
        ((bad_k, 30), (flip_e1, 12), "entry 12: e digits"),
        ((flip_e1, 30), (bad_k, 12), "entry 12: level k"),
        ((bump_n, 12), (bump_n, 30), "entry 12: n does not re-encode"),
        ((r_out, 30), (flip_e1, 12), "entry 12: e digits"),
        ((flip_e1, 30), (r_out, 12), "entry 12: r digits outside A"),
        ((r_out, 12), (bad_k, 30), "entry 12: r digits outside A"),
        ((bad_k, 12), (r_out, 30), "entry 12: level k"),
        ((r_out, 12), (s_zero, 12), "entry 12: r digits outside A"),
        ((r_out, 300), (r_out, 900), "entry 300: r digits outside A"),
    ]
    for (fault_a, at_a), (fault_b, at_b), message in cases:
        obj = seq_to_json(seq307)
        fault_a(obj, at_a)
        fault_b(obj, at_b)
        with pytest.raises(ValueError, match=message):
            seq_from_json(obj)


def test_seq_from_json_rejects_non_string_warnings(seq307):
    # the list is type-checked, and so is each of its entries
    n = len(seq307.warnings)
    cases = [
        ([7, {"x": 1}, None], "warnings entry 0 must be a string, got 7"),
        ([*seq307.warnings, None], f"warnings entry {n} must be a string, got None"),
        ("x", "warnings must be a list"),
    ]
    for warnings, message in cases:
        obj = seq_to_json(seq307)
        obj["warnings"] = warnings
        with pytest.raises(ValueError, match=message):
            seq_from_json(obj)
    assert seq_from_json(seq_to_json(seq307)).warnings == seq307.warnings


# sha256 prefixes of the joined seq_json_chunks(seq, "x.manifest.json")
# for the builds of test_columns_round_trip_and_views, pinned so that a
# change to the draw, the encoding or the writer that moves a byte of a
# sequence file fails
COLUMN_BUILD_DIGESTS = {
    (3, 3, 4, 0): "0146fb28b43b9b8d",
    (3, 3, 4, 5): "0affbb153a45b813",
    (3, 2, 4, 0): "be756f915a5c6194",
    (3, 2, 4, 5): "9fdaf5baac237881",
    (7, 3, 3, 0): "2b100fb0054fca2c",
    (7, 3, 3, 5): "34d61c0542489ae0",
    (11, 3, 3, 0): "baa0a033ad46b5bc",
    (11, 3, 3, 5): "4ff5e367ff7e76cc",
    (13, 2, 3, 0): "6d3fd3ffb4c0b388",
    (13, 2, 3, 5): "598356f299bc8972",
}


@pytest.mark.parametrize("q, k_min, k_max, seed", sorted(COLUMN_BUILD_DIGESTS))
def test_columns_round_trip_and_views(aux307, q, k_min, k_max, seed):
    # the file reloads to the same columns, dtypes included; the template
    # writer matches json.dumps; every entry view re-encodes by _pack,
    # names the member the file names and carries its table logs
    params = Params(q=PrimeModulus(q), aux=aux307, k_min=k_min, k_max=k_max, seed=seed)
    seq = build_sequence(params)
    text = "".join(seq_json_chunks(seq, "x.manifest.json"))
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == COLUMN_BUILD_DIGESTS[q, k_min, k_max, seed]
    obj = seq_to_json(seq, "x.manifest.json")
    assert text == json.dumps(obj, indent=2) + "\n"
    again = seq_from_json(json.loads(text))
    assert again == seq
    assert [level.k for level in again.levels] == list(range(k_min, k_max + 1))
    for ours, built in zip(again.levels, seq.levels):
        assert [col.dtype for col in ours.columns()] == [col.dtype for col in built.columns()]
        assert ours.e.dtype == ours.r.dtype == ours.codes.dtype == np.int64
        assert all(type(x) is int for x in (*ours.s, *ours.n))
        # the digits a build writes: r inside A and 0 <= e_i < q^(2i-1) - 1
        orders = [q ** (2 * i - 1) - 1 for i in range(1, ours.k + 1)]
        for level in (ours, built):
            assert np.isin(level.r, params.aux.A).all()
            assert ((level.e >= 0) & (level.e < orders)).all()
    weights = digit_weights(params)
    entries = list(again.entries)
    assert [ent.n for ent in entries] == list(again.values) == sorted(again.values)
    for ent, written in zip(entries, obj["entries"]):
        assert _pack(weights, ent.e, ent.r, ent.s) == ent.n
        assert ent.f == Poly.from_code(params.q, int(ent.level.codes[ent.row]))
        assert (poly_to_string(ent.f), ent.k, list(ent.e), list(ent.r)) == (
            written["f"],
            written["k"],
            written["e"],
            written["r"],
        )
    for level in again.levels:
        members = [Poly.from_code(params.q, code) for code in level.codes.tolist()]
        assert (level_e_digits(seq.moduli.generators[: level.k], members) == level.e).all()


def test_entry_views(seq307):
    # entries is a read-only sequence of views: indexing from either end,
    # slices as tuples, equality by value, and one view per entry
    entries = seq307.entries
    assert len(entries) == 944
    assert entries[-1] == entries[943] and entries[0] != entries[1]
    assert entries[2:5] == tuple(entries)[2:5] and isinstance(entries[2:5], tuple)
    assert entries.index(entries[600]) == 600 and entries[600] in entries
    assert {entries[7], entries[7]} == {entries[7]}
    with pytest.raises(IndexError):
        entries[944]
    assert [ent.k for ent in entries] == [3] * 18 + [4] * 926


def test_from_entries_orders_and_validates(params307, seq307):
    # from_entries takes entries in ascending n; a view or a
    # record made by hand serves alike, and the levels come out as built
    hand = [SimpleNamespace(f=ent.f, k=ent.k, e=ent.e, r=ent.r, s=ent.s, n=ent.n) for ent in seq307.entries]
    assert from_entries(params307, seq307.moduli, hand, seq307.warnings) == seq307
    assert from_entries(params307, seq307.moduli, seq307.entries, seq307.warnings) == seq307
    for bad in (hand[:5] + hand[6:7] + hand[5:6], hand[:5] + hand[4:5]):
        with pytest.raises(ValueError, match="entries must be sorted by n with no duplicates"):
            from_entries(params307, seq307.moduli, bad)
    short = hand[:3] + [SimpleNamespace(**{**vars(hand[3]), "r": hand[3].r[:-1]})]
    with pytest.raises(ValueError, match="has not k digits"):
        from_entries(params307, seq307.moduli, short)


def test_seq_from_json_refuses_digits_a_build_cannot_write(params307, seq307):
    # r_1 + 2^70 (outside A and int64), e_1 = -1 and e_1 = R_1 = 2, each
    # with n re-encoded from the digits, so that only the digit check can
    # refuse them; the message names the entry
    weights = digit_weights(params307)
    for idx, e_1, r_1, message in (
        (943, None, 2**70, "r digits outside A"),
        (5, -1, None, "e digits differ from the table logs of f"),
        (600, 2, None, "e digits differ from the table logs of f"),
    ):
        ent = seq307.entries[idx]
        e = (ent.e[0] if e_1 is None else e_1,) + ent.e[1:]
        r = (ent.r[0] if r_1 is None else ent.r[0] + r_1,) + ent.r[1:]
        obj = seq_to_json(seq307)
        obj["entries"][idx].update(e=list(e), r=list(r), n=str(_pack(weights, e, r, ent.s)))
        with pytest.raises(ValueError, match=f"^entry {idx}: {message}$"):
            seq_from_json(obj)


def test_seq_from_json_checks_entries_whole_list_first(params307, seq307, monkeypatch):
    # a clean file takes one whole-list pass; a file whose only fault is at
    # entry i takes at most i + 3 (the whole list, entries 0..i alone, and
    # the entries below i), so an entry-by-entry clean path shows here
    calls = []
    whole_list = builder._entry_columns

    def counted(entries, params, first=0):
        calls.append(first)
        return whole_list(entries, params, first)

    monkeypatch.setattr(builder, "_entry_columns", counted)
    assert seq_from_json(seq_to_json(seq307)) == seq307
    assert len(calls) == 1
    for idx in (0, 17, 500, 943):
        calls.clear()
        obj = seq_to_json(seq307)
        obj["entries"][idx]["s"] = "x"
        with pytest.raises(ValueError, match=f"^entry {idx}: s must be a decimal integer"):
            seq_from_json(obj)
        assert len(calls) <= idx + 3


def peel_decode(n, params, moduli):
    """decode_entry written out: per bracket-compatible level every digit
    is peeled off by digit_weights, then s, the r digits and the index by
    the e digits' key are checked."""
    weights = digit_weights(params)
    q = params.q.q
    for k in range(1, params.k_max + 1):
        lo, hi = level_value_range(params, k)
        if not lo <= n < hi:
            continue
        digits = [0] * (2 * k + 1)
        rest = n
        for j in range(2 * k, 0, -1):
            digits[j], rest = divmod(rest, weights[j])
        digits[0] = rest
        e, r, s = digits[0 : 2 * k : 2], digits[1 : 2 * k : 2], digits[2 * k]
        if not 1 <= s <= q ** (3 * k) or any(x not in params.aux.A for x in r):
            continue
        key = sum(e_i * math.prod(q ** (2 * j - 1) - 1 for j in range(1, i)) for i, e_i in enumerate(e, start=1))
        f = _decode_index(moduli.generators[:k], params.q, fk_degrees(params, k)).get(key)
        if f is not None:
            return f, k
    raise DecodeError(f"{n} does not decode")


def test_decode_matches_written_out_peel(seq307, seq7, seq11):
    # every entry, n +- 1, s = 0, r_1 outside A and the values just
    # outside each level's bracket
    for seq in (seq307, seq7, seq11):
        params, moduli = seq.params, seq.moduli
        weights = digit_weights(params)
        outside = max(params.aux.A) + 1
        values = []
        for ent in seq.entries:
            values += [ent.n, ent.n - 1, ent.n + 1, ent.n - ent.s * weights[2 * ent.k]]
            values.append(_pack(weights, ent.e, (outside,) + ent.r[1:], ent.s))
        for k in range(1, params.k_max + 1):
            lo, hi = level_value_range(params, k)
            values += [lo - 1, lo, hi - 1, hi]
        outcomes = [decode_outcome(decode_entry, n, params, moduli) for n in values]
        assert outcomes == [decode_outcome(peel_decode, n, params, moduli) for n in values]
        assert outcomes[: 5 * len(seq.entries) : 5] == [(ent.f, ent.k) for ent in seq.entries]
