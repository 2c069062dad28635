"""Auxiliary-set tests: verifiers, y-table, search, and the randomized
sampler of scripts/find_aux_experiments.py."""

import functools
import importlib.util
import math
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sidonbasis.auxset import (
    CLASS_DESIGN,
    CLASS_MODULUS,
    AuxSet,
    SearchExhausted,
    _first_run_start,
    _y_table_entries,
    aux_from_json,
    aux_to_json,
    build_y_table,
    default_aux,
    deterministic_aux,
    search,
    triple_sumset_bits,
    verify_coverage,
    verify_disjoint,
)


@functools.cache
def load_experiments_script():
    path = Path(__file__).resolve().parents[1] / "scripts" / "find_aux_experiments.py"
    spec = importlib.util.spec_from_file_location("find_aux_experiments", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_sample_candidate_validation():
    sample_candidate = load_experiments_script().sample_candidate
    with pytest.raises(ValueError):
        sample_candidate(7, 0)  # below the p >= 11 precondition
    with pytest.raises(ValueError):
        sample_candidate(12, 0)


def test_sample_candidate_deterministic_and_in_range():
    sample_candidate = load_experiments_script().sample_candidate
    for seed in range(20):
        r1 = sample_candidate(101, seed)
        r2 = sample_candidate(101, seed)
        assert r1 == r2
        assert all(1 <= x <= 101 // 2 - 1 for x in r1)


def test_sample_candidate_frequency():
    # inclusion probability at p=11 is ceil(ln 11) * 11^(-2/3) = 0.6066...;
    # 10^4 draws of the 4-element interval gives a binomial with
    # mean 24261 and sigma 97.7, so a 3-sigma band is [23968, 24554]
    sample_candidate = load_experiments_script().sample_candidate
    p = 11
    prob = 3 * p ** (-2 / 3)
    draws = 10**4
    total = sum(len(sample_candidate(p, seed)) for seed in range(draws))
    mean = draws * 4 * prob
    sigma = (draws * 4 * prob * (1 - prob)) ** 0.5
    assert abs(total - mean) <= 3 * sigma, (total, mean, sigma)


def test_sample_candidate_probability_never_clamps():
    # ceil(ln p) * p^(-2/3) peaks at p=11 (0.607) over valid primes, so the
    # full-interval clamp branch is unreachable; document that here
    import math

    for p in (11, 13, 17, 19, 23, 101, 1009, 99991):
        assert math.ceil(math.log(p)) * p ** (-2 / 3) < 1


def test_alteration_examples():
    alteration = load_experiments_script().alteration
    assert alteration({1, 2}) == ({2}, {1})
    assert alteration(set()) == (set(), set())
    assert alteration({5}) == (set(), {5})


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=300)
def test_alteration_always_disjoint(seed):
    rng = random.Random(seed)
    r_set = {rng.randint(1, 200) for _ in range(rng.randint(0, 40))}
    x_set, a_set = load_experiments_script().alteration(r_set)
    assert x_set | a_set == r_set and not (x_set & a_set)
    ok, wit = verify_disjoint(a_set)
    assert ok and wit is None


def test_verify_disjoint_examples():
    assert verify_disjoint({1}) == (True, None)
    ok, wit = verify_disjoint({1, 2})
    assert not ok and wit == (2, 1, 1, 0)
    assert verify_disjoint({3, 4}) == (True, None)
    assert verify_disjoint(set()) == (True, None)


def test_verify_disjoint_witness_is_valid():
    for bad in ({1, 2}, {2, 5}, {3, 7}, {4, 9}):
        ok, wit = verify_disjoint(bad)
        if ok:
            continue
        a, a1, a2, delta = wit
        assert a in bad and a1 in bad and a2 in bad and delta in (0, 1)
        assert a == a1 + a2 + delta


def test_verify_coverage_examples():
    assert verify_coverage({1}, 11) == (False, None)
    assert verify_coverage(set(), 11) == (False, None)
    with pytest.raises(ValueError):
        verify_coverage({10}, 11)  # outside {1..4}


def naive_coverage(a_set, p):
    sums = sorted({a + b + c for a in a_set for b in a_set for c in a_set})
    run = 0
    prev = None
    for s in sums:
        run = run + 1 if prev is not None and s == prev + 1 else 1
        if run >= p + 2:
            return True, s - (p + 2) + 1
        prev = s
    return False, None


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=200)
def test_verify_coverage_matches_naive(seed):
    rng = random.Random(seed)
    p = rng.choice([11, 13, 17, 23, 31, 41])
    hi = p // 2 - 1
    a_set = {rng.randint(1, hi) for _ in range(rng.randint(0, hi))}
    got_ok, got_start = verify_coverage(a_set, p)
    want_ok, _ = naive_coverage(a_set, p)
    assert got_ok == want_ok
    if got_ok:
        bits = triple_sumset_bits(a_set)
        for y in range(got_start, got_start + p + 2):
            assert bits >> y & 1
        # and it is the first such window
        if got_start > 0:
            assert naive_coverage(a_set, p)[1] == got_start


def test_pair_sum_supnorm():
    pair_sum_supnorm = load_experiments_script().pair_sum_supnorm
    assert pair_sum_supnorm(set()) == 0
    assert pair_sum_supnorm({3}) == 1
    # 1+4 = 2+3 gives an ordered multiplicity of 4 at sum 5
    assert pair_sum_supnorm({1, 2, 3, 4}) == 4


def test_y_table_properties(aux307, ytable307):
    p = aux307.p
    bits = triple_sumset_bits(aux307.A)
    assert ytable307.p == p
    assert len(ytable307.entries) == p
    for rho, y in enumerate(ytable307.entries):
        assert y % p == rho
        assert 2 <= y < 2 * p
        assert all(bits >> (y - d) & 1 for d in (0, 1, 2))
        # minimality within {rho, rho + p}
        if y == rho + p and rho >= 2:
            assert bits >> (rho - 2) & 7 != 7


def test_y_table_window_class(aux307, ytable307):
    # the third element of the first covered window is admissible, so its
    # class entry can be no larger than window_start + 2 + p
    w = aux307.window_start
    assert ytable307.entries[(w + 2) % aux307.p] <= w + 2 + aux307.p


def test_y_table_rejects_thin_set():
    with pytest.raises(ValueError):
        build_y_table(AuxSet(p=11, A=(1,), seed=0, attempt=0, window_start=None, method="random"))


def _y_table_complete(p: int, a_set) -> bool:
    """The oracle: every residue class mod p has an admissible y."""
    return None not in _y_table_entries(p, triple_sumset_bits(a_set))


@given(st.sampled_from([11, 13, 17, 19, 23, 29, 31, 37, 41, 43]), st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_coverage_completes_the_y_table(p, seed):
    # aux_from_json, search and deterministic_aux check coverage but not
    # the y-table: a run of p+2 in A+A+A, which lies below 3p/2, gives
    # every class an admissible y < 2p
    rng = random.Random(seed)
    a_set = {a for a in range(1, p // 2) if rng.random() < 0.6}
    if verify_coverage(a_set, p)[0]:
        assert _y_table_complete(p, a_set)


def test_search_finds_307_deterministically():
    a1 = search(300, 320, seed=0)
    a2 = search(300, 320, seed=0)
    assert a1 == a2
    assert a1.p == 307
    assert a1.method == "residue-class"
    ok, _ = verify_disjoint(set(a1.A))
    assert ok
    ok, start = verify_coverage(set(a1.A), a1.p)
    assert ok and start == a1.window_start
    build_y_table(a1)


def test_search_exhaustion_and_empty_range():
    with pytest.raises(SearchExhausted):
        search(11, 13, seed=0)
    with pytest.raises(ValueError):
        search(20, 10, seed=0)


def test_search_collects_attempt_records():
    records = []
    with pytest.raises(SearchExhausted):
        load_experiments_script().random_search(11, 13, 0, 3, collect=records)
    assert len(records) == 6  # two primes, three attempts each
    for rec in records:
        assert rec.p in (11, 13)
        assert rec.disjoint_ok
        assert rec.a_size <= rec.r_size
        assert rec.supnorm >= (1 if rec.r_size else 0)


def test_deterministic_aux_small_primes_fail():
    # lifting the class design needs room; small primes give nothing usable
    for p in (11, 13, 17, 101, 293):
        assert deterministic_aux(p) is None


def test_deterministic_aux_at_307():
    aux = deterministic_aux(307)
    assert aux is not None
    assert all(a % CLASS_MODULUS in set(CLASS_DESIGN) for a in aux.A)
    assert verify_disjoint(set(aux.A))[0]
    assert verify_coverage(set(aux.A), 307)[0]


def test_design_kernel():
    check_design = load_experiments_script().check_design
    assert check_design(CLASS_MODULUS, CLASS_DESIGN)
    assert not check_design(CLASS_MODULUS, tuple(list(CLASS_DESIGN[:-1]) + [38]))
    assert not check_design(10, (1, 2))


def test_aux_json_roundtrip(aux307):
    obj = aux_to_json(aux307)
    assert obj["log_convention"] == "natural"
    assert obj["method"] == "residue-class"
    assert aux_from_json(obj) == aux307
    with pytest.raises(ValueError):
        aux_to_json(AuxSet(p=11, A=(1,), seed=0, attempt=0, window_start=None, method="random"))


def test_default_aux_verifies(aux307):
    assert aux307.p == 307
    assert verify_disjoint(set(aux307.A))[0]
    ok, start = verify_coverage(set(aux307.A), 307)
    assert ok and start == aux307.window_start


def test_coverage_bound_agrees_with_bitmask_check():
    # verify_coverage answers (False, None) without the sumset when
    # C(|A|+2, 3) < p + 2; on random small A it agrees with the bitmask
    # scan of A+A+A written out, on both sides of the bound
    rng = random.Random(2)
    taken = covered = 0
    for _ in range(600):
        p = rng.choice([11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47])
        a_set = set(rng.sample(range(1, p // 2), rng.randint(1, p // 2 - 1)))
        start = _first_run_start(triple_sumset_bits(a_set), p + 2)
        assert verify_coverage(a_set, p) == (start is not None, start)
        taken += math.comb(len(a_set) + 2, 3) < p + 2
        covered += start is not None
    assert taken > 50 and covered > 50
    assert verify_coverage(set(), 11) == (False, None)


def test_search_draws_as_sample_candidate():
    # random_search keeps the per-prime constants and one Random across
    # its attempts, re-seeded per attempt; each attempt still draws the
    # set that sample_candidate draws under the attempt's seed
    experiments = load_experiments_script()
    sample_candidate, alteration, pair_sum_supnorm = (
        experiments.sample_candidate,
        experiments.alteration,
        experiments.pair_sum_supnorm,
    )
    records = []
    with pytest.raises(SearchExhausted):
        experiments.random_search(11, 200, 3, 5, collect=records)
    assert len(records) == 5 * 42
    for rec in records:
        r_set = sample_candidate(rec.p, experiments._derive_seed("attempt", 3, rec.p, rec.attempt))
        x_set, a_set = alteration(r_set)
        assert (rec.r_size, rec.x_size, rec.a_size, rec.supnorm) == (
            len(r_set),
            len(x_set),
            len(a_set),
            pair_sum_supnorm(r_set),
        )


def test_random_grid_smoke(monkeypatch, capsys):
    # the sampler runs only in the script now; its table still prints,
    # and at these sizes no attempt covers a long enough window
    argv = ["find_aux_experiments.py", "--random-grid", "--p-max", "30", "--attempts", "2"]
    monkeypatch.setattr(sys, "argv", argv)
    load_experiments_script().main()
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "randomized path, 2 attempts per prime, seed 0"
    assert lines[1].split() == ["p", "prob", "E|R|", "|R|", "|A|", "sup", "cover", "run", "need"]
    assert [line.split()[0] for line in lines[2:]] == ["11", "29"]
    assert not any("FOUND" in line for line in lines)
