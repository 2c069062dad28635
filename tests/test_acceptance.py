"""Acceptance suite: nine go/no-go checks for the whole artifact.

Each test records one PASS/FAIL line (printed in the terminal summary) and
then asserts. Criterion 5 is expected to fail at these parameters: the
upper size bound cannot hold for any usable auxiliary prime, see the
README findings section. The red test is kept faithful on purpose.
"""

import json
import math
import random
import time

import numpy as np
from conftest import record_acceptance

from sidonbasis.analyzer import monte_carlo_coverage, verify_sidon, attribute_collision, decompose_many
from sidonbasis.auxset import aux_from_json, build_y_table, triple_sumset_bits, verify_coverage, verify_disjoint
from sidonbasis.builder import audit_preconditions, decode_entry, digit_weights
from sidonbasis.cli import main as cli_main
from sidonbasis.equidist import deviation_report, triple_histogram
from sidonbasis.ffpoly import (
    Poly,
    PrimeModulus,
    count_irreducibles,
    enumerate_irreducibles,
    poly_from_string,
    poly_mod,
    poly_mul,
    poly_powmod,
)
from sidonbasis.unitgroup import dlog_table, find_generator

import oracles
from oracles import decode, dlog, encode, find_representations, radix

Q3 = PrimeModulus(3)


def test_acceptance_1_count_formula_vs_enumeration():
    t0 = time.perf_counter()
    pairs = 0
    mismatches = []
    for qv in (2, 3, 5):
        q = PrimeModulus(qv)
        d = 1
        while qv**d <= 10**5:
            if len(enumerate_irreducibles(q, d)) != count_irreducibles(q, d):
                mismatches.append((qv, d))
            pairs += 1
            d += 1
    elapsed = time.perf_counter() - t0
    ok = not mismatches and elapsed < 10.0
    record_acceptance(
        1,
        "irreducible counts: formula vs enumeration",
        ok,
        f"{pairs} (q, d) pairs, {elapsed:.2f}s" + (f", mismatches {mismatches}" if mismatches else ""),
    )
    assert ok


def test_acceptance_2_dlog_roundtrip_every_unit():
    t0 = time.perf_counter()
    rng = random.Random(2)
    moduli_checked = 0
    for d in range(1, 9):  # 3^8 - 1 = 6560 is the last group order <= 10^4
        mods = enumerate_irreducibles(Q3, d)
        gens = [find_generator(g) for g in mods]
        n = 3**d - 1
        size = 3**d
        # independent multiply-by-omega maps assembled from raw arithmetic
        lins = np.zeros((len(mods), d, d), dtype=np.int64)
        for mi, gen in enumerate(gens):
            for j in range(d):
                col = poly_mod(poly_mul(gen.omega, Poly(Q3, (0,) * j + (1,))), gen.g)
                for ci, c in enumerate(col.coeffs):
                    lins[mi, j, ci] = c
        powers = 3 ** np.arange(d, dtype=np.int64)
        coeffs = np.zeros((len(mods), d), dtype=np.int64)
        coeffs[:, 0] = 1
        codes = np.empty((n, len(mods)), dtype=np.int64)
        for e in range(n):
            codes[e] = coeffs @ powers
            coeffs = np.einsum("md,mde->me", coeffs, lins) % 3
        # the orbit closes and visits every unit exactly once
        assert (coeffs @ powers == 1).all()
        assert (np.sort(codes, axis=0) == np.arange(1, size)[:, None]).all()
        # dlog answers e for omega^e, for every e and every modulus
        tables = np.stack([dlog_table(gen) for gen in gens])
        assert (tables[np.arange(len(mods))[None, :], codes] == np.arange(n)[:, None]).all()
        # spot checks: the table's log, the power it names and the
        # Pohlig-Hellman oracle agree
        for gen in rng.sample(gens, min(3, len(gens))):
            for _ in range(2):
                f = Poly.from_code(Q3, rng.randrange(1, size))
                e = dlog(gen, f)
                assert poly_powmod(gen.omega, e, gen.g) == f
                assert oracles._pohlig_hellman(gen, poly_mod(f, gen.g)) == e
        moduli_checked += len(mods)
    elapsed = time.perf_counter() - t0
    ok = moduli_checked == 1318 and elapsed < 30.0
    record_acceptance(
        2,
        "discrete-log roundtrip over every unit, 1318 moduli",
        ok,
        f"{moduli_checked} moduli, all units exact, {elapsed:.1f}s",
    )
    assert ok


def test_acceptance_3_auxiliary_search(tmp_path):
    t0 = time.perf_counter()
    out = tmp_path / "aux.json"
    rc = cli_main(["find-aux", "--p-min", "2", "--p-max", "100000", "--seed", "0", "--out", str(out)])
    elapsed = time.perf_counter() - t0
    aux = aux_from_json(json.loads(out.read_text()))
    disjoint_ok, _ = verify_disjoint(set(aux.A))
    coverage_ok, start = verify_coverage(set(aux.A), aux.p)
    table = build_y_table(aux)  # raises if any residue class is missing
    ok = (
        rc == 0
        and disjoint_ok
        and coverage_ok
        and start == aux.window_start
        and len(table.entries) == aux.p
        and elapsed < 300.0
    )
    record_acceptance(
        3,
        "auxiliary-set search over p <= 100000",
        ok,
        f"found p = {aux.p}, |A| = {len(aux.A)}, window at {aux.window_start}, {elapsed:.1f}s",
    )
    assert ok
    assert aux.p == 307  # the recorded project finding


def test_acceptance_4_mixed_radix_roundtrip(params307):
    # the oracle's digit-by-digit decode against builder.digit_weights
    q, p = params307.q.q, params307.aux.p
    weights = digit_weights(params307, 12)
    rng = random.Random(4)
    for _ in range(10**4):
        length = rng.randint(1, 9)
        digits = tuple(
            rng.randrange(radix(q, p, i)) for i in range(1, length)
        ) + (rng.randint(0, 10**9),)
        n = sum(x * w for x, w in zip(digits, weights))
        assert decode(q, p, n, length) == digits
    for _ in range(10**4):
        n = rng.randint(0, 3**400)
        k = rng.randint(1, 12)
        assert sum(x * w for x, w in zip(decode(q, p, n, k), weights)) == n
    record_acceptance(
        4,
        "mixed-radix roundtrip, 10^4 vectors + 10^4 naturals",
        True,
        "all exact up to 3^400",
    )


def test_acceptance_5_injectivity_decode_and_bracket(params307, seq307):
    t0 = time.perf_counter()
    q = params307.q.q
    entries = seq307.entries
    distinct_ok = len({ent.n for ent in entries}) == len(entries) == 944
    decoded = sum(
        1 for ent in entries if decode_entry(ent.n, params307, seq307.moduli) == (ent.f, ent.k)
    )
    decode_ok = decoded == len(entries)
    lower_ok = all(ent.n > q ** (ent.k**2) for ent in entries)
    upper_hits = sum(1 for ent in entries if ent.n < q ** ((ent.k + 2) ** 2))
    upper_ok = upper_hits == len(entries)
    elapsed = time.perf_counter() - t0
    ok = distinct_ok and decode_ok and lower_ok and upper_ok and elapsed < 60.0
    record_acceptance(
        5,
        "injectivity, decode, and size bracket on the 944-entry build",
        ok,
        f"distinct: {distinct_ok}; decode: {decoded}/944; lower bound: {lower_ok}; "
        f"upper bound: {upper_hits}/944 under the q^(k+2)^2 ceiling ({elapsed:.1f}s). "
        "The ceiling needs an auxiliary prime p <= 15; exhaustive search shows no "
        "valid set exists for any p <= 89, and the smallest certified prime is 307, "
        "so this sub-check cannot pass for any usable configuration.",
    )
    assert ok, "size-bracket upper bound fails for every entry at p = 307 (documented finding)"


def test_acceptance_6_pairwise_sum_uniqueness(seq307):
    t0 = time.perf_counter()
    witnesses = verify_sidon(seq307.values)
    audits = [attribute_collision(seq307, w) for w in witnesses]
    elapsed = time.perf_counter() - t0
    n = len(seq307.values)
    audit = audit_preconditions(seq307.params)
    margin_note = "pair margin holds at k=3, fails at k=4 (16 < 16 is false)"
    ok = not witnesses and elapsed < 60.0
    detail = f"{n * (n + 1) // 2} pair sums, {len(witnesses)} collisions; {margin_note}; {elapsed:.1f}s"
    if audits:
        detail += "; attributed margins: " + ", ".join(a.failed_margin for a in audits)
    record_acceptance(6, "pairwise-sum uniqueness over the full build", ok, detail)
    assert not audit.all_ok  # the k=4 pair margin is genuinely at the boundary
    assert ok


def test_acceptance_7_decomposition_digits(params307, ytable307):
    t0 = time.perf_counter()
    q = params307.q.q
    p = params307.aux.p
    bits = triple_sumset_bits(set(params307.aux.A))
    rng = random.Random(7)
    ms = [rng.randint(3, 3**120) for _ in range(10**4)]
    peel = decompose_many(ms, params307, ytable307)
    xs, ys = [[] for _ in ms], [[] for _ in ms]
    for idx, x, y in peel.levels:
        for u, xu, yu in zip(idx.tolist(), x.tolist(), y.tolist()):
            xs[u].append(xu)
            ys[u].append(yu)
    failures = 0
    for m, k, x, y, z in zip(ms, peel.k.tolist(), xs, ys, peel.z.tolist()):
        good = k == len(x) and all(0 <= xi < q ** (2 * i - 1) - 1 for i, xi in enumerate(x, start=1))
        good = good and all(
            2 <= yi < 2 * p and bits >> (yi - 2) & 7 == 7 for yi in y
        )
        good = good and 3 <= z <= 6 * p * q ** (2 * k + 1)
        # re-encoded digit by digit, independently of digit_weights
        good = good and encode(q, p, [d for pair in zip(x, y) for d in pair] + [z]) == m
        if not good:
            failures += 1
    elapsed = time.perf_counter() - t0
    ok = failures == 0 and elapsed < 60.0
    record_acceptance(
        7,
        "decomposition digit constraints, 10^4 samples",
        ok,
        f"{failures} failures over m in [3, 3^120], {elapsed:.1f}s",
    )
    assert ok


def test_acceptance_8_triple_product_distribution():
    t0 = time.perf_counter()
    combos = [
        (3, "1+t^2"),
        (3, "2*t+t^3"),
        (4, "1+t^2"),
        (4, "2*t+t^3"),
    ]
    results = []
    ok = True
    for d, g_text in combos:
        g = poly_from_string(Q3, g_text)
        hist = triple_histogram(Q3, d, g)
        dev = deviation_report(hist)
        conserved = dev.conservation_ok and hist.counts.sum() + hist.nonunit_total == math.comb(hist.pool_size, 3)
        ok = ok and conserved and dev.max_ratio < 10.0
        results.append(f"d={d} g={g_text}: binom={dev.binom} max_ratio={dev.max_ratio:.4f}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 300.0
    record_acceptance(
        8,
        "triple-product distribution: conservation and alarm threshold",
        ok,
        "; ".join(results) + f"; {elapsed:.1f}s",
    )
    assert ok


def test_acceptance_9_coverage_re_randomization(params307, seq307):
    vals = seq307.values
    length = 10**3
    center = (3 * vals[0] + 3 * vals[-1]) // 2
    window = (center - length // 2, length)
    t0 = time.perf_counter()
    rep = monte_carlo_coverage(params307, window, trials=100, threads=4, seq=seq307)
    elapsed = time.perf_counter() - t0
    rows = list(rep.rows())
    freq_ok = all(0.0 <= f <= 1.0 and c <= 100 for _, c, f in rows) and len(rows) == length
    # base-sequence representations over a sample of the window re-sum exactly
    resum_ok = True
    for m in range(window[0], window[0] + length, 97):
        for i, j, l in find_representations(m, vals):
            resum_ok = resum_ok and vals[i] + vals[j] + vals[l] == m
    # deterministic per seed: a reduced rerun reproduces itself exactly
    small_a = monte_carlo_coverage(params307, (window[0], 50), trials=5, seq=seq307)
    small_b = monte_carlo_coverage(params307, (window[0], 50), trials=5, threads=2, seq=seq307)
    det_ok = small_a == small_b and len(set(rep.trial_seeds)) == 100
    ok = freq_ok and resum_ok and det_ok
    record_acceptance(
        9,
        "coverage re-randomization: bounds, re-sums, determinism",
        ok,
        f"window {length} at {window[0]}, 100 trials, {len(rep.uncovered)} uncovered, {elapsed:.1f}s",
    )
    assert ok
