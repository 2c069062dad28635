"""Analyzer tests: collision search and attribution, decomposition,
representation enumeration, Monte Carlo coverage."""

import hashlib
import random
import tracemalloc
from collections import namedtuple
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sidonbasis import analyzer
from sidonbasis.analyzer import (
    CollisionWitness,
    _bucket_budget,
    _bucket_edges,
    _coarse_keys,
    _key_directory,
    _pair_blocks,
    _reaching_ranges,
    _tie_sums,
    _tie_values,
    _trial_covered,
    _trial_seed,
    _window_triples,
    attribute_collision,
    decompose_many,
    monte_carlo_coverage,
    verify_sidon,
)
from sidonbasis.auxset import AuxSet, YTable, triple_sumset_bits
from sidonbasis.builder import (
    Params,
    _digit_hasher,
    _draw_digits,
    _residues,
    build_moduli,
    build_sequence,
    digit_weights,
    draw_bounds,
    draw_plan,
)
from sidonbasis.ffpoly import Poly, PrimeModulus, poly_to_string

from oracles import _pack, decode, encode, find_representations, from_entries, peel

Q3 = PrimeModulus(3)


def test_verify_sidon_refuses_before_allocating():
    # 50,100 values, as many as the q = 3, k = 5 build has entries, in an
    # arithmetic progression: nearly every one of the 1,255,030,050 pair
    # sums ties, so the witness list would grow with N^2. The first bucket
    # passes the candidate limit, and memory stays within the bucket budget
    n = 50_100
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"50100 values have at least [\d,]+ candidate pairs") as err:
            verify_sidon(range(n))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    count = int(err.value.args[0].split("at least ")[1].split(" ")[0].replace(",", ""))
    assert analyzer._CANDIDATE_LIMIT < count <= analyzer._BUCKET_PAIRS
    assert peak < 8 * analyzer._BUCKET_PAIRS + 256 * n


def test_verify_sidon_examples():
    assert verify_sidon([1, 2, 5, 11]) == []
    assert verify_sidon([7]) == []
    assert verify_sidon([]) == []
    wits = verify_sidon([1, 2, 3, 4])
    pairs = {(frozenset((w.n1, w.n2)), frozenset((w.n3, w.n4))) for w in wits}
    assert (frozenset((1, 4)), frozenset((2, 3))) in {
        (frozenset(a), frozenset(b)) for a, b in ((p2, p1) for p1, p2 in pairs)
    } | pairs
    with pytest.raises(ValueError):
        verify_sidon([3, 3, 5])


def brute_witnesses(vals):
    """The dict walk verify_sidon must reproduce: j outer, i <= j inner,
    each collision against the first pair holding its sum."""
    seen = {}
    out = []
    for j in range(len(vals)):
        for i in range(j + 1):
            pair = (vals[i], vals[j])
            prior = seen.setdefault(pair[0] + pair[1], pair)
            if prior != pair:
                out.append(prior + pair)
    return out


def witness_tuples(vals):
    return [(w.n1, w.n2, w.n3, w.n4) for w in verify_sidon(vals)]


def planted_set(rng, scale):
    """Distinct values around +-scale with a few planted equal pair sums,
    in random order."""
    vals = {rng.randrange(-scale, scale) for _ in range(rng.randint(0, 30))}
    for _ in range(rng.randint(0, 4)):
        if len(vals) < 3:
            break
        a, b, c = rng.sample(sorted(vals), 3)
        vals.add(a + b - c)
    vals = list(vals)
    rng.shuffle(vals)
    return vals


@given(st.integers(min_value=0, max_value=10**9), st.sampled_from([500, 2**40, 2**70, 2**130]))
@settings(max_examples=300)
def test_verify_sidon_matches_brute(seed, scale):
    # the full witness list and its order, with keys shifted and not
    vals = planted_set(random.Random(seed), scale)
    assert witness_tuples(vals) == brute_witnesses(vals)


@pytest.mark.parametrize("block", [1, 2, 7, None])
def test_verify_sidon_across_difference_blocks(monkeypatch, block):
    # the sorted sums are differenced in blocks; small blocks put many
    # block edges among the planted collisions, and None keeps the
    # default blocks over a set of more than 20,000 pairs
    from sidonbasis import analyzer

    if block is not None:
        monkeypatch.setattr(analyzer, "_PAIR_BLOCK", block)
    rng = random.Random(block or 0)
    for scale in (500, 2**70):
        for _ in range(5 if block else 1):
            size, planted = (200, 30) if block is None else (20, 4)
            vals = sorted({rng.randrange(-scale, scale) for _ in range(size)})
            for a, b, c in (rng.sample(vals, 3) for _ in range(planted)):
                if a + b - c not in vals:
                    vals.append(a + b - c)
            rng.shuffle(vals)
            got = witness_tuples(vals)
            assert got == brute_witnesses(vals)
            assert got


def test_verify_sidon_key_carry_collisions():
    # with 2^76 in the set the shift is 16; each planted pair sum equals
    # one whose keys sum to one less, a carry across a 2^16 boundary
    shift, _ = _coarse_keys([2**76], 2)
    assert shift == 16
    unit = 2**shift
    x, y, z = 5 * 2**70, 3 * 2**70, 2**71
    # (x + unit - 1) + (y + 1) = (x + unit) + y, and a doubled element:
    # 2 (z + 1) = (z + unit - 1) + (z - unit + 3)
    vals = [2**76, x + unit - 1, y + 1, x + unit, y, z + unit - 1, z + 1, z - unit + 3, -(2**75)]
    _, keys = _coarse_keys(vals, 2)
    key = dict(zip(vals, keys.tolist()))
    assert key[x + unit] + key[y] == key[x + unit - 1] + key[y + 1] + 1
    assert 2 * key[z + 1] == key[z + unit - 1] + key[z - unit + 3] + 1
    got = witness_tuples(vals)
    assert got == brute_witnesses(vals)
    assert {x + y + unit, 2 * (z + 1)} <= {a + b for a, b, _, _ in got}
    assert witness_tuples([2**80]) == [] and witness_tuples([]) == []


@pytest.mark.parametrize("block", [1, 2, 7])
def test_tie_values_at_block_edges(monkeypatch, block):
    # one near tie at every position of the sorted sums in turn, so that
    # it falls inside a difference block and across every block edge
    from sidonbasis import analyzer

    monkeypatch.setattr(analyzer, "_PAIR_BLOCK", block)
    for tol in (0, 1):
        for p in range(19):
            sums = np.arange(0, 60, 3, dtype=np.int64)  # gaps of 3 > tol
            sums[p + 1 :] -= 3 - tol
            expected = sorted({int(sums[p]), int(sums[p + 1])})
            assert _tie_values(sums, tol).tolist() == expected
        assert _tie_values(np.arange(0, 60, 3, dtype=np.int64), tol).tolist() == []
        assert _tie_values(np.zeros(1, dtype=np.int64), tol).tolist() == []


# pair-sum scales with every value within one key of the 62-bit limit:
# 2 |v| just below 2^62 (shift 0) and 2^(62 + 10) (shift 10)
PAIR_EDGE = [(2**62 - 1) // 2, (2**72 - 1) // 2]


@pytest.mark.parametrize("scale", PAIR_EDGE)
def test_verify_sidon_at_edge_scales(scale):
    # collisions among the extremes of both signs: -s + s equals
    # (-s + 1) + (s - 1), and -s + (-s + 2) equals 2 (-s + 1)
    rng = random.Random(scale % 1009)
    for _ in range(20):
        vals = {rng.randrange(-scale, scale) for _ in range(rng.randint(0, 20))}
        vals |= set(rng.sample([-scale, scale, -scale + 1, scale - 1, -scale + 2], rng.randint(3, 5)))
        vals = list(vals)
        rng.shuffle(vals)
        assert _coarse_keys(vals, 2)[0] == PAIR_EDGE.index(scale) * 10
        assert witness_tuples(vals) == brute_witnesses(vals)
    assert witness_tuples([-scale, scale, -scale + 1, scale - 1]) == [(-scale, scale, -scale + 1, scale - 1)]


@pytest.mark.parametrize("start, step", [(0, 1), (-500, 7), (-(2**79), 2**70 + 3)])
def test_verify_sidon_arithmetic_progression(start, step):
    # 40 terms have 820 pair sums but only 79 distinct ones, so nearly
    # every sum ties; in walk order and shuffled
    vals = [start + step * i for i in range(40)]
    got = witness_tuples(vals)
    assert got == brute_witnesses(vals) and len(got) == 820 - 79
    random.Random(step).shuffle(vals)
    assert witness_tuples(vals) == brute_witnesses(vals)


def test_verify_sidon_rejects_near_ties():
    # at shift 16, x + (y + 1) and (x + 2^16) + (y - 2^16 + 2) have equal
    # keys and z + (y + 1), (z - 3) + (y + 2^16 + 5) keys 1 apart, but no two
    # exact sums agree: the candidates are all rejected
    unit = 2**16
    x, y, z = 5 * 2**70, 3 * 2**70, 7 * 2**70 + unit // 2
    vals = [2**76, x, y + 1, x + unit, y - unit + 2, z, z - 3, y + unit + 5]
    shift, keys = _coarse_keys(vals, 2)
    assert shift == 16
    ties = _tie_sums(keys, 1).tolist()
    key = dict(zip(vals, keys.tolist()))
    assert key[x] + key[y + 1] in ties and key[z] + key[y + 1] in ties
    assert brute_witnesses(vals) == [] and verify_sidon(vals) == []


def test_verify_sidon_memory():
    # the key sums of one bucket at a time: a buffer of _BUCKET_PAIRS
    # int64 plus O(N) per-j ranges, where one array of all 4.5 M key sums
    # would take 36 MB
    rng = random.Random(5)
    vals = list({rng.getrandbits(80) for _ in range(3000)})
    n = len(vals)
    assert n * (n + 1) // 2 > 8 * analyzer._BUCKET_PAIRS
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        assert verify_sidon(vals) == []
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak < 8 * analyzer._BUCKET_PAIRS + 256 * n


@pytest.mark.parametrize("budget", [1, 2, 7, 64])
def test_verify_sidon_across_buckets(monkeypatch, budget):
    # tiny budgets cut the key sums into many buckets, down to one key
    # sum wide where sums tie; the witnesses and their order hold
    monkeypatch.setattr(analyzer, "_BUCKET_PAIRS", budget)
    for seed in range(25):
        for scale in (500, 2**70, 2**130):
            vals = planted_set(random.Random(seed), scale)
            assert witness_tuples(vals) == brute_witnesses(vals)
    vals = [-500 + 7 * i for i in range(40)]
    assert witness_tuples(vals) == brute_witnesses(vals)


def test_verify_sidon_one_key_sum_past_the_budget(monkeypatch):
    # at shift 40 the 40 values 2^100 + i share one key, so all 820 pair
    # sums share one key sum: a bucket one key sum wide, never cut, holds
    # them all past the budget of 64 (an arithmetic progression, 741
    # witnesses). Under a candidate limit of 100 it is refused before its
    # sums are formed: 820 sums in 3 values put 273 on one of them
    monkeypatch.setattr(analyzer, "_BUCKET_PAIRS", 64)
    vals = [2**100 + i for i in range(40)]
    assert len(set(_coarse_keys(vals, 2)[1].tolist())) == 1
    got = witness_tuples(vals)
    assert got == brute_witnesses(vals) and len(got) == 820 - 79
    monkeypatch.setattr(analyzer, "_CANDIDATE_LIMIT", 100)
    monkeypatch.setattr(analyzer, "_tie_values", None)  # nothing is formed or differenced
    with pytest.raises(ValueError, match=r"40 values have at least 273 candidate pairs"):
        verify_sidon(vals)


def edge_at(monkeypatch, edge):
    """Make edge one of the bucket edges verify_sidon starts from."""
    real = analyzer._bucket_edges
    monkeypatch.setattr(analyzer, "_bucket_edges", lambda sk: sorted({*real(sk), edge}))


@pytest.mark.parametrize("budget", [2, 64])
@pytest.mark.parametrize("offset", [-1, 0, 1, 2])
def test_verify_sidon_collisions_on_bucket_edges(monkeypatch, budget, offset):
    # exact keys (shift 0): two pairs with the sum e, planted with a bucket
    # edge at e + offset, so the tied sums sit on the edge, just above it
    # and just below it
    monkeypatch.setattr(analyzer, "_BUCKET_PAIRS", budget)
    rng = random.Random(budget + offset)
    for _ in range(10):
        vals = list({rng.randrange(-500, 500) for _ in range(20)})
        a, b, c = rng.sample(vals, 3)
        if a + b - c not in vals:
            vals.append(a + b - c)
        rng.shuffle(vals)
        with monkeypatch.context() as mp:
            edge_at(mp, a + b + offset)
            assert _coarse_keys(vals, 2)[0] == 0
            got = witness_tuples(vals)
        assert got == brute_witnesses(vals) and got


def straddling_pairs(rng, unit, carry):
    """Two pairs of values v = K unit + r (key K at shift log2 unit) in
    general position whose key sums are U and U + 1: with carry, their
    exact sums agree ((A unit + unit - 1) + (B unit + 1) = C unit + D unit
    with C + D = A + B + 1); without, they differ."""
    a, b, d = (rng.randrange(2**57, 2**58) for _ in range(3))
    if carry:
        return [a * unit + unit - 1, b * unit + 1, (a + 1 + d) * unit, (b - d) * unit]
    low = [rng.randrange(unit // 2) for _ in range(4)]
    return [a * unit + low[0], b * unit + low[1], (a + 1 + d) * unit + low[2], (b - d) * unit + low[3]]


@pytest.mark.parametrize("budget", [1, 2, 64])
@pytest.mark.parametrize("offset", [-1, 0, 1, 2])
def test_verify_sidon_near_ties_on_bucket_edges(monkeypatch, budget, offset):
    # coarse keys (shift 16, tol 1): a collision whose key sums are U and
    # U + 1 (a carry) and a near tie with key sums V and V + 1 whose exact
    # sums differ, with a bucket edge at U + offset or V + offset: the
    # pairs straddle the edge or share a bucket on either side of it
    monkeypatch.setattr(analyzer, "_BUCKET_PAIRS", budget)
    unit = 2**16
    rng = random.Random(10 * budget + offset)
    for _ in range(5):
        collide, near = straddling_pairs(rng, unit, True), straddling_pairs(rng, unit, False)
        vals = [2**76, -(2**75), *collide, *near, *(rng.randrange(2**75) for _ in range(6))]
        rng.shuffle(vals)
        shift, keys = _coarse_keys(vals, 2)
        assert shift == 16
        u, v = (sum(w >> shift for w in pair[:2]) for pair in (collide, near))
        assert sum(w >> shift for w in collide[2:]) == u + 1 and sum(w >> shift for w in near[2:]) == v + 1
        for edge in (u + offset, v + offset):
            with monkeypatch.context() as mp:
                edge_at(mp, edge)
                assert _tie_sums(keys, 1).tolist() == sorted({u, u + 1, v, v + 1})
                got = witness_tuples(vals)
            assert got == brute_witnesses(vals) and len(got) == 1
            assert sum(got[0][:2]) == sum(collide[:2])


def test_bucket_edges_cut_the_pair_sums():
    # ascending integer edges from the least key sum to one past the
    # largest; one bucket when every pair sum fits the budget
    rng = random.Random(3)
    sk = np.sort(np.array([rng.randrange(-(2**60), 2**60) for _ in range(3000)], dtype=np.int64))
    edges = _bucket_edges(sk)
    budget = _bucket_budget(3000)
    assert edges[0] == 2 * int(sk[0]) and edges[-1] == 2 * int(sk[-1]) + 1
    assert edges == sorted(set(edges))
    assert len(edges) - 1 == -(-8 * 3000 * 3001 // 2 // (7 * budget))
    # on evenly spread keys the sampled quantiles keep every bucket in budget
    sums = np.add.outer(sk, sk)[np.triu_indices(len(sk))]
    sizes = np.diff(np.searchsorted(np.sort(sums), edges))
    assert sizes.sum() == len(sums) and sizes.max() <= budget
    assert _bucket_edges(sk[:500]) == [2 * int(sk[0]), 2 * int(sk[499]) + 1]


def test_bucket_budget_follows_n(monkeypatch):
    # 32 N between 2^17 and the cap: the desk build's 944 values take
    # 2^17, and from 16,384 values on the budget is the cap; a low cap
    # still forces small buckets
    assert _bucket_budget(944) == _bucket_budget(1) == 1 << 17
    assert _bucket_budget(8000) == 256_000
    assert _bucket_budget(16_384) == _bucket_budget(50_100) == analyzer._BUCKET_PAIRS == 1 << 19
    sk = np.arange(944, dtype=np.int64) * 1000
    assert len(_bucket_edges(sk)) - 1 == 4  # 446,040 sums
    monkeypatch.setattr(analyzer, "_BUCKET_PAIRS", 64)
    assert _bucket_budget(944) == 64


def brute_pairs(start, stop):
    return [(i, j) for j in range(len(start)) for i in range(start[j], stop[j])]


@pytest.mark.parametrize("block", [1, 3, 7, 1 << 13])
def test_pair_blocks_match_brute(monkeypatch, block):
    # random ranges, among them empty and reversed ones and ranges longer
    # than a block: the blocks, joined, are every pair in walk order, and
    # none holds more than _PAIR_BLOCK pairs
    monkeypatch.setattr(analyzer, "_PAIR_BLOCK", block)
    rng = random.Random(block)
    for _ in range(40):
        n = rng.randint(0, 30)
        start = [rng.randint(0, 20) for _ in range(n)]
        stop = [a + rng.randint(-3, 25) if rng.random() < 0.8 else a for a in start]
        got = []
        for i, j in _pair_blocks(np.array(start, dtype=np.int64), np.array(stop, dtype=np.int64)):
            assert 0 < len(i) == len(j) <= block
            got.extend(zip(i.tolist(), j.tolist()))
        assert got == brute_pairs(start, stop)


def test_verify_sidon_on_built_prefix(seq307):
    assert verify_sidon(seq307.values[:300]) == []


def test_collision_witness_validation():
    with pytest.raises(ValueError):
        CollisionWitness(1, 2, 3, 5)
    with pytest.raises(ValueError):
        CollisionWitness(1, 4, 4, 1)


# an entry made by hand; from_entries takes a list of them
Entry = namedtuple("Entry", "f k e r s n")


def mock_entry(params, f, k, e, r, s):
    digits = []
    for ei, ri in zip(e, r):
        digits.extend((ei, ri))
    digits.append(s)
    n = encode(params.q.q, params.aux.p, digits)
    return Entry(f=f, k=k, e=tuple(e), r=tuple(r), s=s, n=n)


@pytest.fixture(scope="module")
def mock_params(aux307):
    return Params(q=Q3, aux=aux307, c=Fraction(7, 20), k_min=1, k_max=2, seed=0)


def test_attribute_equal_k_collision(mock_params):
    # two different factorizations of (t+1)^2 (t+2) with balanced digits:
    # e-digit sums and r/s sums agree, so the encoded sums collide
    params = mock_params
    a = params.aux.A[0]
    e1 = mock_entry(params, Poly(Q3, (2, 0, 1)), 1, (1,), (a,), 5)  # (t+1)(t+2)
    e2 = mock_entry(params, Poly(Q3, (1, 1)), 1, (0,), (a,), 5)  # t+1
    e3 = mock_entry(params, Poly(Q3, (1, 2, 1)), 1, (0,), (a,), 4)  # (t+1)^2
    e4 = mock_entry(params, Poly(Q3, (2, 1)), 1, (1,), (a,), 6)  # t+2
    assert e1.n + e2.n == e3.n + e4.n
    seq = from_entries(params, build_moduli(params), sorted((e1, e2, e3, e4), key=lambda x: x.n))
    audit = attribute_collision(seq, CollisionWitness(e1.n, e2.n, e3.n, e4.n))
    # the y digit of the equal sums, a + a: a shifted pair sum, not in A
    y = decode(3, params.aux.p, e1.n + e2.n, 3)[1]
    assert y == 2 * a and y not in params.aux.A
    assert audit.boundary_index == 1
    assert audit.shared_levels == 1
    assert audit.products_congruent
    assert audit.failed_margin.startswith("none")


def test_attribute_detects_product_mismatch(mock_params):
    params = mock_params
    a = params.aux.A[0]
    e1 = mock_entry(params, Poly(Q3, (2, 0, 1)), 1, (1,), (a,), 5)
    e2 = mock_entry(params, Poly(Q3, (1, 1)), 1, (0,), (a,), 5)
    e3 = mock_entry(params, Poly(Q3, (1, 2, 1)), 1, (0,), (a,), 4)
    # claims the digits of t+2 but carries the polynomial t+1
    e4 = mock_entry(params, Poly(Q3, (1, 1)), 1, (1,), (a,), 6)
    seq = from_entries(params, build_moduli(params), sorted((e1, e2, e3, e4), key=lambda x: x.n))
    audit = attribute_collision(seq, CollisionWitness(e1.n, e2.n, e3.n, e4.n))
    assert not audit.products_congruent


def test_attribute_mixed_k_collision(mock_params):
    # a level-2 and a level-1 entry on each side; the lower entry's top
    # digit bleeds into positions k+1..k+2, so the y digit of level 2 is
    # a member of A, no shifted pair sum, and the boundary scan stops at
    # the shared level
    params = mock_params
    a = params.aux.A[0]
    fa = Poly(Q3, (1, 1, 1))  # 1 mod t
    fb = Poly(Q3, (1, 1))
    a2 = mock_entry(params, fa, 2, (0, 2), (a, a), 9)
    b1 = mock_entry(params, fb, 1, (0,), (a,), 5)
    c2 = mock_entry(params, fa, 2, (0, 1), (a, a), 9)
    d1 = mock_entry(params, fb, 1, (0,), (a,), 6)
    assert a2.n + b1.n == c2.n + d1.n
    seq = from_entries(params, build_moduli(params), sorted((a2, b1, c2, d1), key=lambda x: x.n))
    # pass the right pair in ascending-k order to exercise the swap
    audit = attribute_collision(seq, CollisionWitness(a2.n, b1.n, d1.n, c2.n))
    assert audit.shared_levels == 1
    # both pairs ascending: unswapped, the lower entries would be a2 and
    # c2, and the shared levels min(2, 2)
    assert attribute_collision(seq, CollisionWitness(b1.n, a2.n, d1.n, c2.n)).shared_levels == 1
    digits = decode(3, params.aux.p, a2.n + b1.n, 5)
    assert digits[1] == 2 * a and digits[3] == a
    assert audit.boundary_index == 1
    assert audit.products_congruent


def test_attribute_carry_digit_is_shifted_pair_sum():
    # A = {1}: the low digits 1 + 1 carry, so the y digit of the sum is
    # 1 + 1 + 1 = 3, which lies in A+A+{0,1} but not in A+A
    aux = AuxSet(p=11, A=(1,), seed=0, attempt=0, window_start=None, method="random")
    params = Params(q=Q3, aux=aux, k_min=1, k_max=1)
    e1 = mock_entry(params, Poly(Q3, (1, 1)), 1, (1,), (1,), 5)
    e3 = mock_entry(params, Poly(Q3, (2, 1)), 1, (0,), (1,), 5)
    e4 = mock_entry(params, Poly(Q3, (0, 1)), 1, (0,), (2,), 5)
    entries = tuple(sorted((e1, e3, e4), key=lambda x: x.n))
    seq = from_entries(params, build_moduli(params), entries)
    audit = attribute_collision(seq, CollisionWitness(e1.n, e1.n, e3.n, e4.n))
    assert decode(3, 11, 2 * e1.n, 3)[1] == 3
    # A+A = {2} alone would stop the scan before level 1
    assert audit.boundary_index == 1


def test_attribute_resolves_entries_from_sequence(mock_params):
    # witness without embedded entries: the sequence lookup recovers all
    # four
    params = mock_params
    a = params.aux.A[0]
    e1 = mock_entry(params, Poly(Q3, (2, 0, 1)), 1, (1,), (a,), 5)
    e2 = mock_entry(params, Poly(Q3, (1, 1)), 1, (0,), (a,), 5)
    e3 = mock_entry(params, Poly(Q3, (1, 2, 1)), 1, (0,), (a,), 4)
    e4 = mock_entry(params, Poly(Q3, (2, 1)), 1, (1,), (a,), 6)
    seq = from_entries(params, build_moduli(params), sorted((e1, e2, e3, e4), key=lambda x: x.n))
    audit = attribute_collision(seq, CollisionWitness(e1.n, e2.n, e3.n, e4.n))
    assert audit.products_congruent


def test_attribute_refuses_witness_outside_sequence(mock_params):
    # verify_sidon only reports values of the sequence; any other value
    # is refused by name, not decoded
    params = mock_params
    a = params.aux.A[0]
    e1 = mock_entry(params, Poly(Q3, (2, 0, 1)), 1, (1,), (a,), 5)
    e2 = mock_entry(params, Poly(Q3, (1, 1)), 1, (0,), (a,), 5)
    e3 = mock_entry(params, Poly(Q3, (1, 2, 1)), 1, (0,), (a,), 4)
    e4 = mock_entry(params, Poly(Q3, (2, 1)), 1, (1,), (a,), 6)
    seq = from_entries(params, build_moduli(params), sorted((e1, e2, e3), key=lambda x: x.n))
    with pytest.raises(ValueError, match=f"witness value {e4.n} is not a value of the sequence"):
        attribute_collision(seq, CollisionWitness(e1.n, e2.n, e3.n, e4.n))


def decompose_one(m, params, table):
    """(k, x digits, y digits, z) of m from a one-sample decompose_many
    peel, as the decompose subcommand reads it."""
    got = decompose_many([m], params, table)
    x = [xs[0] for _, xs, _ in got.levels]
    y = [int(ys[0]) for _, _, ys in got.levels]
    assert got.k.tolist() == [len(x)]
    return len(x), x, y, got.z[0]


def test_decompose_small_value_stays_whole():
    aux = AuxSet(p=11, A=(1,), seed=0, attempt=0, window_start=None, method="random")
    params = Params(q=Q3, aux=aux, k_min=1, k_max=1)
    table = YTable(11, tuple(range(11)))
    assert decompose_one(5, params, table) == (0, [], [], 5)
    assert encode(3, 11, [5]) == 5


def test_decompose_validation(params307, ytable307):
    with pytest.raises(ValueError, match="need m >= 3, got 2"):
        decompose_many([2], params307, ytable307)
    with pytest.raises(ValueError):
        decompose_many([10**6], params307, YTable(11, tuple(range(11))))


@given(st.integers(min_value=3, max_value=3**100))
@settings(max_examples=300)
def test_decompose_roundtrip(params307, ytable307, m):
    q = params307.q.q
    p = params307.aux.p
    bits = triple_sumset_bits(set(params307.aux.A))
    k, xs, ys, z = decompose_one(m, params307, ytable307)
    assert len(xs) == k == len(ys)
    for level, (x, y) in enumerate(zip(xs, ys), start=1):
        assert 0 <= x < q ** (2 * level - 1) - 1
        assert 2 <= y < 2 * p
        assert all(bits >> (y - d) & 1 for d in (0, 1, 2))
    assert 3 <= z <= 6 * p * q ** (2 * k + 1)
    assert encode(q, p, [d for pair in zip(xs, ys) for d in pair] + [z]) == m


def test_decompose_peels_large_values(params307, ytable307):
    k, _, ys, _ = decompose_one(3**100, params307, ytable307)
    assert k >= 1
    assert set(ys) <= set(ytable307.entries)


def test_decompose_many_matches_loop(params307, ytable307):
    # the stopping thresholds 6 p q^{2l-1} and their neighbours, where a
    # sample leaves the array peel one level earlier or later
    q, p = params307.q.q, params307.aux.p
    ms = [3, 3**120]
    for level in range(1, 9):
        edge = 6 * p * q ** (2 * level - 1)
        ms += [edge - 1, edge, edge + 1]
    got = decompose_many(ms, params307, ytable307)
    assert len(got.levels) == max(got.k.tolist())
    for u, m in enumerate(ms):
        xs, ys, z = peel(m, params307, ytable307)
        assert got.k[u] == len(xs) and got.z[u] == z
        rows = [(x[idx == u], y[idx == u]) for idx, x, y in got.levels if (idx == u).any()]
        assert [int(x[0]) for x, _ in rows] == xs and [int(y[0]) for _, y in rows] == ys
        one = decompose_one(m, params307, ytable307)
        assert one == (len(xs), xs, ys, z)
        assert all(type(d) is int for d in (*one[1], *one[2], one[3]))
    # the threshold itself stays whole at its level, one above it peels
    first = 6 * p * q
    assert decompose_one(first, params307, ytable307)[0] == 0
    assert decompose_one(first + 1, params307, ytable307)[0] >= 1


def test_find_representations_examples():
    vals = [1, 2, 3, 4, 5]
    assert find_representations(6, vals, order=3) == [(0, 0, 3), (0, 1, 2), (1, 1, 1)]
    assert find_representations(3, vals, order=3) == [(0, 0, 0)]
    assert find_representations(2, vals, order=3) == []
    assert find_representations(100, vals, order=3) == []
    assert find_representations(6, vals, order=2) == [(0, 4), (1, 3), (2, 2)]
    assert find_representations(4, vals, order=2) == [(0, 2), (1, 1)]
    with pytest.raises(ValueError):
        find_representations(6, [3, 1, 2], order=3)
    with pytest.raises(ValueError):
        find_representations(6, vals, order=4)


def brute_triples(m, vals):
    out = []
    for i in range(len(vals)):
        for j in range(i, len(vals)):
            for l in range(j, len(vals)):
                if vals[i] + vals[j] + vals[l] == m:
                    out.append((i, j, l))
    return out


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=200)
def test_find_representations_matches_brute(seed):
    rng = random.Random(seed)
    vals = sorted(rng.sample(range(1, 120), rng.randint(1, 18)))
    m = rng.randint(1, 360)
    got = find_representations(m, vals, order=3)
    assert got == brute_triples(m, vals)
    for i, j, l in got:
        assert vals[i] + vals[j] + vals[l] == m


def brute_window(vals, lo, hi):
    n = len(vals)
    return [
        (i, j, c)
        for i in range(n)
        for j in range(i, n)
        for c in range(j, n)
        if lo <= vals[i] + vals[j] + vals[c] <= hi
    ]


def window_cases(rng, vals):
    """(lo, hi) windows with hits: at 3 v_0, at a random v_i + v_j + v_l,
    of length 0, 1 and more, plus a few random ones."""
    spread = max(1, (vals[-1] - vals[0]) // 50)
    m = sum(rng.choice(vals) for _ in range(3))
    cases = [(3 * vals[0], 3 * vals[0]), (m, m), (m, m - 1), (m - spread, m + spread)]
    cases.append((3 * vals[0], 3 * vals[-1]))
    cases.append((3 * vals[0] - spread, 3 * vals[0] + spread))
    # at either end of the range most j reach the window with no i at all
    cases.append((3 * vals[-1], 3 * vals[-1]))
    cases.append((3 * vals[-1] - spread, 3 * vals[-1] + spread))
    for _ in range(3):
        lo = rng.randint(3 * vals[0] - spread, 3 * vals[-1])
        cases.append((lo, lo + rng.randint(0, 4 * spread)))
    return cases


def walk_order(t):
    i, j, c = t
    return j, i, c


def check_reaching_pairs(vals, lo, hi):
    """_reaching_ranges of the clamped window, expanded by _pair_blocks,
    is exactly the pairs its two key bounds admit, in walk order, and
    holds every pair of a triple in the window."""
    lo, hi = max(lo, 3 * vals[0]), min(hi, 3 * vals[-1])
    if lo > hi:
        return
    shift, keys = _coarse_keys(vals, 3)
    klo, khi = (lo >> shift) - (2 if shift else 0), hi >> shift
    ks = [int(x) for x in keys]
    expected = [
        (i, j)
        for j in range(len(ks))
        for i in range(j + 1)
        if ks[i] + 2 * ks[j] <= khi and ks[i] + ks[j] + ks[-1] >= klo
    ]
    for block in (1, 5, 1 << 13):
        got = reaching_pairs(keys, klo, khi, block)
        assert got == expected
    assert {(i, j) for i, j, _ in brute_window(vals, lo, hi)} <= set(got)


def reaching_pairs(keys, klo, khi, block):
    """The blocks of _pair_blocks over _reaching_ranges under _PAIR_BLOCK
    = block, joined into one (i, j) list; no block holds more than block
    pairs."""
    from sidonbasis import analyzer

    out = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analyzer, "_PAIR_BLOCK", block)
        for ii, jj in _pair_blocks(*_reaching_ranges(keys, klo, khi)):
            assert len(ii) <= block
            out.extend(zip(ii.tolist(), jj.tolist()))
    return out


# scales, and values within one key of the 62-bit limit: 3 |v| just
# below 2^62 (shift 0) and 2^(62 + 10) (shift 10)
EDGE = [(2**62 - 1) // 3, (2**72 - 1) // 3]


@given(
    st.integers(min_value=0, max_value=10**9),
    st.sampled_from([120, 2**40, 2**70, 2**130] + EDGE),
)
@settings(max_examples=250)
def test_window_triples_match_brute(seed, scale):
    rng = random.Random(seed)
    vals = {rng.randrange(-scale, scale) for _ in range(rng.randint(1, 18))}
    if scale in EDGE:
        vals |= set(rng.sample([-scale, scale, -scale + 1, scale - 1], rng.randint(1, 4)))
    vals = sorted(vals)
    if scale in EDGE:
        assert _coarse_keys(vals, 3)[0] == EDGE.index(scale) * 10
    for lo, hi in window_cases(rng, vals):
        got = _window_triples(vals, lo, hi)
        assert got == sorted(got, key=walk_order)
        assert sorted(got) == brute_window(vals, lo, hi)
        check_reaching_pairs(vals, lo, hi)
    assert _window_triples([], 0, 10) == []


def directory_bits(keys, width=1):
    """t with 2^t the bucket width of _key_directory(keys, width)."""
    span = int(keys[-1]) - int(keys[0])
    return max((width - 1).bit_length(), (span // (64 * len(keys))).bit_length())


def holds_key(ks, a, b):
    return any(a <= k <= b for k in ks)


@pytest.mark.parametrize("scale", [10**6, 2**70, *EDGE])
def test_key_directory_never_misses(scale):
    # every interval [x, x + width - 1] that holds a key tests True, among
    # them ones across each bucket edge, ones over two buckets and ones
    # starting below the least key; some empty ones test False
    rng = random.Random(scale % 1013)
    vals = sorted({rng.randrange(-scale, scale) for _ in range(40)} | {-scale, scale})
    _, keys = _coarse_keys(vals, 3)
    ks = keys.tolist()
    t = directory_bits(keys)
    assert 32 * len(ks) <= (ks[-1] - ks[0]) >> t <= 64 * len(ks)
    for width in (1, 2, 5, 3 << t, 1 << t, (1 << t) + 1):
        has_key = _key_directory(keys, width)
        u = 1 << directory_bits(keys, width)
        assert u >= width
        edges = range(ks[0] + u, ks[-1] + 1, u)
        starts = [k - d for k in ks for d in {0, width - 1, rng.randrange(width)}]
        starts += [e - d for e in edges for d in (1, width - 1)]
        starts += [rng.randint(ks[0], ks[-1]) for _ in range(200)]
        x = [min(max(v, ks[0] - width + 1), ks[-1]) for v in starts]
        got = has_key(np.array(x, dtype=np.int64)).tolist()
        for lo, hit in zip(x, got):
            assert hit or not holds_key(ks, lo, lo + width - 1)
        if width < 1 << t:
            assert not all(got)
    # the widest key window, [3 min - 2, 3 max], from the least start a
    # reaching pair can ask for: one bucket, so every test passes
    span = ks[-1] - ks[0]
    xs = np.array([ks[0] - 2 * span - 2, ks[0], ks[-1]], dtype=np.int64)
    assert _key_directory(keys, 3 * span + 3)(xs).tolist() == [True] * 3
    assert _key_directory(keys[:1], 1)(keys[:1]).tolist() == [True]
    assert _key_directory(keys[:1], 3)(keys[:1] - 2).tolist() == [True]


def values_at_bucket_edges(rng, scale, n_random, n_edges):
    """Sorted values in [-scale, scale], both ends included, with
    n_random random ones and n_edges whose triple keys sit just at or
    just below a bucket edge of the window search's key directory."""
    shift = _coarse_keys([scale], 3)[0]
    base = {rng.randrange(-scale, scale) for _ in range(n_random)} | {-scale, scale}
    lo_key, span = -scale >> shift, (scale >> shift) - (-scale >> shift)
    t = (span // (64 * (len(base) + n_edges))).bit_length()
    extra = set()
    while len(extra) < n_edges:
        edge = lo_key + (rng.randrange(1, span >> t) << t)
        v = (edge - rng.randint(0, 1) << shift) + rng.randrange(1 << shift)
        if v not in base:
            extra.add(v)
    return sorted(base | extra), sorted(extra)


@pytest.mark.parametrize("scale", EDGE)
def test_window_triples_across_bucket_edges(scale):
    # windows whose third-element key range straddles a bucket edge, with
    # the third element on either side of it
    rng = random.Random(scale % 1019)
    vals, at_edges = values_at_bucket_edges(rng, scale, 24, 6)
    shift, keys = _coarse_keys(vals, 3)
    t = directory_bits(keys)
    assert {((v >> shift) - int(keys[0]) + 1) % (1 << t) for v in at_edges} <= {0, 1}
    for v in at_edges:
        c = vals.index(v)
        for _ in range(3):
            i, j = sorted(rng.sample(range(c + 1), 2)) if c else (0, 0)
            m = vals[i] + vals[j] + v
            for lo, hi in [(m, m), (m - 1, m), (m - 2**11, m + 2**11)]:
                got = _window_triples(vals, lo, hi)
                assert got == sorted(brute_window(vals, lo, hi), key=walk_order)
                assert (i, j, c) in got


def test_reaching_pairs_at_range_ends():
    # windows at 3 v_0 and 3 v_max: the pruned i-ranges are empty for
    # most j, and every pair on a bound's edge is kept
    rng = random.Random(41)
    for scale in [10**6, 2**70, *EDGE]:
        vals = sorted({rng.randrange(-scale, scale) for _ in range(60)})
        n = len(vals)
        for lo, hi in [(3 * vals[0], 3 * vals[0] + 2), (3 * vals[-1] - 2, 3 * vals[-1])]:
            shift, keys = _coarse_keys(vals, 3)
            pairs = reaching_pairs(keys, (lo >> shift) - (2 if shift else 0), hi >> shift, 1 << 13)
            assert len({j for _, j in pairs}) < n // 2
            check_reaching_pairs(vals, lo, hi)
            assert _window_triples(vals, lo, hi) == sorted(brute_window(vals, lo, hi), key=walk_order)


def test_window_triples_key_carry():
    # at scale 2^76 the triple shift is 16; values whose low 16 bits are
    # all ones have triple sums two above their key sums, the widest slack
    unit = 2**16
    vals = sorted([2**76 + unit - 1, 2**75 + unit - 1, 2**74 + unit - 1, 2**73 + 3, -5])
    shift, keys = _coarse_keys(vals, 3)
    assert shift == 16
    slack = set()
    for t in brute_window(vals, 3 * vals[0], 3 * vals[-1]):
        m = sum(vals[x] for x in t)
        slack.add((m >> shift) - sum(keys[x] for x in t))
        assert _window_triples(vals, m, m) == brute_window(vals, m, m)
    assert slack == {0, 1, 2}


@pytest.mark.parametrize("scale", [500, 2**70, *EDGE])
def test_window_triples_in_any_order(scale):
    # a coverage trial passes its lower bounds unsorted; at shift > 0,
    # values that share a key keep their input order, so the larger may
    # come first, also at the least and the largest key. Every multiset
    # of positions in the window is found once, windows at 3 min and
    # 3 max included
    rng = random.Random(scale % 1021)
    for _ in range(30):
        vals = {rng.randrange(-scale, scale) for _ in range(rng.randint(1, 14))}
        shift = _coarse_keys(list(vals), 3)[0]
        # a second value in the key of the least and of the largest
        vals |= {(v >> shift << shift) + rng.randrange(1 << shift) for v in (min(vals), max(vals))}
        vals = sorted(vals)
        shuffled = vals[:]
        rng.shuffle(shuffled)
        cases = window_cases(rng, vals) + [(3 * vals[0], 3 * vals[0]), (3 * vals[-1], 3 * vals[-1])]
        for lo, hi in cases:
            got = [tuple(sorted(t)) for t in _window_triples(shuffled, lo, hi)]
            # brute_window's triples i <= j <= c of positions are the multisets
            assert sorted(got) == brute_window(shuffled, lo, hi)
            assert len(set(got)) == len(got)


def brute_counts(vals, w_start, w_len):
    return [len(brute_window(vals, m, m)) for m in range(w_start, w_start + w_len)]


def reference_digits(params, entries, trial_seed):
    """Per entry, the digits (r, s) of a re-draw written out from the
    build's definition: blake2b keyed by the seed's low 64 bits over
    "name|r<i>" and "name|s", r_i = A[h mod |A|], s = 1 + h mod q^{3k}."""
    key = (trial_seed % 2**64).to_bytes(8, "little")
    a_elems = params.aux.A

    def h(name, tag):
        msg = f"{name}|{tag}".encode()
        return int.from_bytes(hashlib.blake2b(msg, key=key, digest_size=16).digest(), "little")

    out = []
    for ent in entries:
        name = poly_to_string(ent.f)
        r = tuple(a_elems[h(name, f"r{i}") % len(a_elems)] for i in range(1, ent.k + 1))
        out.append((r, 1 + h(name, "s") % params.q.q ** (3 * ent.k)))
    return out


def reference_values(params, entries, trial_seed):
    """The re-draw of reference_digits, packed by oracles.encode."""
    out = []
    for ent, (r, s) in zip(entries, reference_digits(params, entries, trial_seed)):
        digits = [d for pair in zip(ent.e, r) for d in pair] + [s]
        out.append(encode(params.q.q, params.aux.p, digits))
    return out


def redrawn_values(plan, seed):
    """n per entry of a draw plan with every r and s digit drawn under
    seed through builder._draw_digits, as build_sequence draws, packed by
    oracles._pack: the full re-draw that the two stages of a coverage
    trial replace."""
    params, levels = plan
    a_elems = np.array(params.aux.A, dtype=object)
    weights = digit_weights(params)
    hasher = _digit_hasher(seed)
    out = [None] * sum(len(positions) for positions, _, _ in levels)
    for positions, e, msgs in levels:
        k = e.shape[1]
        digits = _draw_digits(a_elems, k, params.q.q ** (3 * k), hasher, msgs, slice(None), slice(None))
        for pos, e_row, row in zip(positions.tolist(), e.tolist(), digits.tolist()):
            out[pos] = _pack(weights, e_row, row[:k], row[k])
    return out


def three_level_build(aux307):
    return build_sequence(Params(q=Q3, aux=aux307, k_min=2, k_max=4, seed=7))


def test_draw_plan_matches_build(seq307, seq7, aux307):
    # under the build's own seed the plan redraws every stored n; under
    # other seeds it agrees with the written-out draw entry by entry. The
    # three-level build (k = 2, 3, 4) puts level boundaries inside the
    # plan, so a message or digest misaligned at one fails
    levels = three_level_build(aux307)
    assert len({ent.k for ent in levels.entries}) == 3
    for seq in (seq307, seq7, levels):
        plan = draw_plan(seq)
        stored = [ent.n for ent in seq.entries]
        assert redrawn_values(plan, seq.params.seed) == stored
        assert reference_values(seq.params, seq.entries, seq.params.seed) == stored
        for seed in (0, 1, 987654321, 2**64 - 1, 2**64 + 5):
            expected = reference_values(seq.params, seq.entries, seed)
            assert redrawn_values(plan, seed) == expected
            assert (expected == stored) == (seed % 2**64 == seq.params.seed)


@pytest.mark.parametrize("m", [2**32 - 1, 2**32, 2**32 + 1, 13**9, 2**61 - 1, 5, 1])
def test_residues_exact(m):
    # 128-bit digests reduced from their uint64 halves, against Python
    # integers; the extremes set every bit of one or both halves
    rng = random.Random(m)
    digests = [bytes(16), b"\xff" * 16, b"\xff" * 8 + bytes(8), bytes(8) + b"\xff" * 8]
    digests += [rng.randbytes(16) for _ in range(200)]
    words = np.frombuffer(b"".join(digests), dtype="<u8").reshape(-1, 2)
    got = _residues(words, m).tolist()
    assert got == [int.from_bytes(d, "little") % m for d in digests]


def q13_levels(aux307):
    """(params, entries) at q = 13, levels 1..3 interleaved in entry
    order, with made-up f and e digits."""
    q13 = PrimeModulus(13)
    params = Params(q=q13, aux=aux307, k_min=1, k_max=3, seed=11)
    rng = random.Random(13)
    entries = []
    for u, k in enumerate([3, 1, 3, 2, 1, 3, 2, 3, 3, 1]):
        f = Poly(q13, tuple(rng.randrange(13) for _ in range(2 * k)) + (u + 1, 1))
        e = tuple(rng.randrange(13 ** (2 * i - 1) - 1) for i in range(1, k + 1))
        entries.append(Entry(f=f, k=k, e=e, r=(0,) * k, s=0, n=u))
    return params, entries


def test_draw_plan_q13_levels(aux307):
    # q = 13: s ranges over 13^3, 13^6 and 13^9 > 2^32, so level 3 takes
    # the Python-integer reduction; levels interleave in entry order, so
    # a plan that grouped or ordered them wrongly misplaces values
    params, entries = q13_levels(aux307)
    plan = draw_plan(from_entries(params, build_moduli(params), entries))
    for seed in (0, 11, 2**63 + 7):
        assert redrawn_values(plan, seed) == reference_values(params, entries, seed)


def full_redraw_covered(plan, trial_seed, w_start, w_len):
    """_trial_covered by the full re-draw and the exact window search."""
    vals = sorted(redrawn_values(plan, trial_seed))
    hit = {sum(vals[x] for x in t) for t in _window_triples(vals, w_start, w_start + w_len - 1)}
    return [w_start + off in hit for off in range(w_len)]


def trial_case(aux307, which):
    """(params, entries, seq) of the three-level q = 3 build or of the
    q = 13 levels."""
    if which == "q13":
        params, entries = q13_levels(aux307)
        return params, entries, from_entries(params, build_moduli(params), entries)
    seq = three_level_build(aux307)
    return seq.params, seq.entries, seq


@pytest.mark.parametrize("which", ["three-level", "q13"])
def test_draw_bounds_exact(aux307, which):
    # each low is the entry's n with r_1..r_{k-1} at min A and the drawn
    # r_k and s; a low off by one would still pass the interval check of
    # test_trial_matches_full_redraw
    params, entries, seq = trial_case(aux307, which)
    plan = draw_plan(seq)
    weights = digit_weights(params)
    a_min = min(params.aux.A)
    for tau in range(3):
        trial_seed = _trial_seed(params.seed, tau)
        low, _ = draw_bounds(plan, trial_seed)
        drawn = reference_digits(params, entries, trial_seed)
        expected = [_pack(weights, ent.e, (a_min,) * (ent.k - 1) + r[-1:], s) for ent, (r, s) in zip(entries, drawn)]
        assert low == expected


@pytest.mark.parametrize("which", ["three-level", "q13"])
def test_trial_matches_full_redraw(aux307, which):
    # windows centred on exact triple sums of a trial's full draw (hit),
    # one past them (the bounds admit the triple, the exact check must
    # not), at 3 min and 3 max, and of length 1
    params, entries, seq = trial_case(aux307, which)
    plan = draw_plan(seq)
    rng = random.Random(which)
    for tau in range(3):
        trial_seed = _trial_seed(params.seed, tau)
        vals = redrawn_values(plan, trial_seed)
        low, width = draw_bounds(plan, trial_seed)
        # S_k = W_1 + W_3 + ... + W_{2k-3}
        spread = max(params.aux.A) - min(params.aux.A)
        widths = {ent.k: spread * sum(digit_weights(params)[1 : 2 * ent.k - 2 : 2]) for ent in entries}
        assert width == max(widths.values())
        assert all(lo <= v <= lo + widths[ent.k] for lo, v, ent in zip(low, vals, entries))
        tv = sorted(vals)
        windows = [(3 * tv[0], 1), (3 * tv[0], 4), (3 * tv[-1] - 3, 4), (3 * tv[-1], 1)]
        for _ in range(4):
            m = sum(sorted(rng.sample(tv, 3)))
            windows += [(m - 5, 11), (m, 1), (m + 1, 1), (m - 1, 1)]
        for w_start, w_len in windows:
            got = _trial_covered(plan, trial_seed, w_start, w_len)
            assert got == full_redraw_covered(plan, trial_seed, w_start, w_len)
        assert _trial_covered(plan, trial_seed, m - 5, 11)[5]


class CountingHasher:
    """A keyed blake2b state that logs every message hashed on its copies."""

    def __init__(self, inner, log):
        self.inner, self.log = inner, log

    def copy(self):
        return CountingHasher(self.inner.copy(), self.log)

    def update(self, msg):
        self.log.append(msg)
        self.inner.update(msg)

    def digest(self):
        return self.inner.digest()


def test_trial_hashes_only_reaching_digits(seq307, monkeypatch):
    # a trial hashes r_k and s of every entry, and the other r digits of
    # the entries of candidate triples only
    from sidonbasis import builder

    log = []
    monkeypatch.setattr(builder, "_digit_hasher", lambda seed: CountingHasher(_digit_hasher(seed), log))
    plan = draw_plan(seq307)
    trial_seed = _trial_seed(seq307.params.seed, 0)
    vals = seq307.values
    centre = (3 * vals[0] + 3 * vals[-1]) // 2
    covered = _trial_covered(plan, trial_seed, centre - 100, 200)
    assert not any(covered)
    expected = [f"{poly_to_string(ent.f)}|{tag}".encode() for ent in seq307.entries for tag in (f"r{ent.k}", "s")]
    assert sorted(log) == sorted(expected)
    # a window on a triple sum hashes, besides, r_1..r_{k-1} of every
    # entry of a triple whose lower bounds reach the window
    tv = sorted(redrawn_values(plan, trial_seed))
    m = tv[10] + tv[500] + tv[900]
    low, width = draw_bounds(plan, trial_seed)
    order = sorted(range(len(low)), key=low.__getitem__)
    near = _window_triples([low[u] for u in order], m - 3 * width, m)
    wanted = {order[x] for t in near for x in t}
    assert len(wanted) >= 3
    log.clear()
    assert _trial_covered(plan, trial_seed, m, 1) == [True]
    assert len(log) == 2 * len(seq307.entries) + sum(seq307.entries[u].k - 1 for u in wanted)


def brute_frequencies(params, entries, window, trials):
    """Per m, the fraction of re-randomized builds covering it."""
    hits = [0] * window[1]
    for tau in range(trials):
        tv = sorted(reference_values(params, entries, _trial_seed(params.seed, tau)))
        for off, c in enumerate(brute_counts(tv, *window)):
            hits[off] += c > 0
    return [h / trials for h in hits]


@pytest.mark.parametrize("which", ["3v0", "mid", "single", "empty"])
def test_coverage_matches_brute(params307, seq307, which):
    # 20 entries from each end keep the brute force small; the top ones
    # are above 2^70, so the coarse keys are shifted
    seq = from_entries(params307, seq307.moduli, seq307.entries[:20] + seq307.entries[-20:])
    vals = list(seq.values)
    assert _coarse_keys(vals, 3)[0] > 0
    tv = sorted(reference_values(params307, seq.entries, _trial_seed(params307.seed, 1)))
    hit_in_trial = tv[5] + tv[20] + tv[33]
    window = {
        "3v0": (3 * vals[0], 3),
        "mid": (vals[2] + vals[17] + vals[39] - 2, 6),
        "single": (hit_in_trial, 1),
        "empty": (vals[0] + vals[1] + vals[2], 0),
    }[which]
    rep = monte_carlo_coverage(seq, window, trials=3)
    counts = brute_counts(vals, *window)
    assert list(rep.counts) == counts
    assert list(rep.uncovered) == [window[0] + off for off, c in enumerate(counts) if c == 0]
    assert list(rep.frequencies) == brute_frequencies(params307, seq.entries, window, 3)
    if which == "single":
        assert rep.frequencies[0] > 0
    elif which != "empty":
        assert sum(counts) > 0


def test_coverage_counts_repeated_sums(mock_params):
    # the s digits 1..8 put the values in an arithmetic progression, so
    # several triples share a sum and the counts must add them up
    params = mock_params
    a = params.aux.A[0]
    entries = sorted(
        (mock_entry(params, Poly(Q3, (s % 3, s // 3, 1)), 1, (0,), (a,), s) for s in range(1, 9)),
        key=lambda ent: ent.n,
    )
    seq = from_entries(params, build_moduli(params), entries)
    vals = list(seq.values)
    window = (3 * vals[0], 3 * (vals[1] - vals[0]) + 1)
    rep = monte_carlo_coverage(seq, window, trials=2)
    counts = brute_counts(vals, *window)
    assert max(counts) == 3
    assert list(rep.counts) == counts
    assert list(rep.frequencies) == brute_frequencies(params, seq.entries, window, 2)


def coverage_args(seq):
    vals = seq.values
    start = 3 * vals[0] + 1
    return start, 25


def test_coverage_report_shape(seq307):
    start, length = coverage_args(seq307)
    rep = monte_carlo_coverage(seq307, (start, length), trials=3)
    assert rep.window_start == start and rep.window_length == length
    assert rep.trials == 3
    assert len(rep.trial_seeds) == 3 and len(set(rep.trial_seeds)) == 3
    rows = list(rep.rows())
    assert len(rows) == length
    for m, count, freq in rows:
        assert start <= m < start + length
        assert 0 <= count <= 3
        assert freq == count / 3
        assert 0.0 <= freq <= 1.0
    assert set(rep.uncovered) == {m for m, c, _ in rows if c == 0}


def test_coverage_deterministic_and_parallel(seq307):
    start, length = coverage_args(seq307)
    a = monte_carlo_coverage(seq307, (start, length), trials=2)
    b = monte_carlo_coverage(seq307, (start, length), trials=2)
    c = monte_carlo_coverage(seq307, (start, length), trials=2, threads=2)
    assert a == b == c


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records its max_workers in
    `made` and runs the initializer and the jobs in this process, so no
    process starts."""

    made: list = []

    def __init__(self, max_workers, initializer, initargs):
        self.made.append(max_workers)
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs):
        return map(fn, jobs)


def test_coverage_workers_capped_at_trials(monkeypatch, seq307):
    # the pool forks every worker at its first job, so 64 threads for 3
    # trials must ask for 3 workers; one trial or none needs no pool
    import concurrent.futures

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    # and a name bound at import, so no process starts however it is imported
    monkeypatch.setattr(analyzer, "ProcessPoolExecutor", RecordingPool, raising=False)
    monkeypatch.setattr(RecordingPool, "made", [])
    monkeypatch.setattr(analyzer, "_worker_task", None)
    window = coverage_args(seq307)
    serial = monte_carlo_coverage(seq307, window, trials=3)
    assert monte_carlo_coverage(seq307, window, trials=3, threads=64) == serial
    assert RecordingPool.made == [3]
    for trials in (1, 0):
        rep = monte_carlo_coverage(seq307, window, trials=trials, threads=64)
        assert rep == monte_carlo_coverage(seq307, window, trials=trials)
    assert RecordingPool.made == [3]


def test_coverage_empty_window(seq307):
    rep = monte_carlo_coverage(seq307, (0, 0), trials=5)
    assert rep.window_length == 0
    assert rep.counts == {} or len(rep.counts) == 0
    assert list(rep.rows()) == []


def test_coverage_window_validation(seq307):
    with pytest.raises(ValueError):
        monte_carlo_coverage(seq307, (0, 5), trials=1)
    with pytest.raises(ValueError):
        monte_carlo_coverage(seq307, (3 * seq307.values[-1], 2), trials=1)
    with pytest.raises(ValueError):
        monte_carlo_coverage(seq307, (0, -1), trials=1)
    with pytest.raises(ValueError, match="trials must be >= 0"):
        monte_carlo_coverage(seq307, coverage_args(seq307), trials=-3)
