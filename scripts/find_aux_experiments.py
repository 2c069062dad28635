"""Experiments around the auxiliary-set search.

Three modes:

  --random-grid    run the paper's randomized candidate path (sample each
                   element, delete the collisions) on a grid of primes
                   and tabulate why it falls short at desk scale (tiny
                   samples, coverage gaps after alteration); the package
                   runs only the residue-class construction
  --scan           scan primes ascending with the deterministic
                   residue-class construction and report the first
                   successes (the project's minimal-p finding)
  --design-search  reproduce the pinned residue-class kernel (M=44)

Examples:
  python3 scripts/find_aux_experiments.py --random-grid --p-max 20000
  python3 scripts/find_aux_experiments.py --scan --p-max 2000
  python3 scripts/find_aux_experiments.py --design-search --m-max 50
"""

from __future__ import annotations

import argparse
import hashlib
import math
import random
from typing import NamedTuple

from sidonbasis import primes
from sidonbasis.auxset import (
    CLASS_DESIGN,
    CLASS_MODULUS,
    AuxSet,
    SearchExhausted,
    _bits_of,
    _shift_sumset,
    build_y_table,
    deterministic_aux,
    triple_sumset_bits,
    verify_coverage,
    verify_disjoint,
)


class AttemptRecord(NamedTuple):
    p: int
    attempt: int
    r_size: int
    x_size: int
    a_size: int
    supnorm: int
    disjoint_ok: bool
    coverage_ok: bool
    window_start: int | None


def _derive_seed(*parts) -> int:
    h = hashlib.blake2b("|".join(str(p) for p in parts).encode(), digest_size=8).digest()
    return int.from_bytes(h, "little") >> 1


def sample_candidate(p: int, seed: int) -> set[int]:
    """Random subset of {1..floor(p/2)-1}, each element included
    independently with probability min(1, ceil(ln p) * p^(-2/3)).

    Geometric skip-sampling, so the cost is proportional to the output
    size; deterministic given (p, seed).
    """
    if p < 11 or not primes.is_prime(p):
        raise ValueError(f"need a prime p >= 11, got {p}")
    return _draw_candidate(_sample_law(p), random.Random(_derive_seed("sample", p, seed)))


def _sample_law(p: int) -> tuple[int, float, float]:
    """The per-prime constants of sample_candidate: the top element
    floor(p/2) - 1, the inclusion probability and log1p(-probability)."""
    prob = min(1.0, math.ceil(math.log(p)) * p ** (-2 / 3))
    return p // 2 - 1, prob, math.log1p(-prob) if prob < 1.0 else 0.0


def _draw_candidate(law: tuple[int, float, float], rnd: random.Random) -> set[int]:
    """The draw of sample_candidate under law = _sample_law(p), from rnd
    seeded by _derive_seed("sample", p, seed); random_search re-seeds one
    Random per attempt."""
    hi, prob, log_q = law
    if prob >= 1.0:
        return set(range(1, hi + 1))
    out: set[int] = set()
    x = 0
    while True:
        u = rnd.random()
        x += 1 + int(math.log(u) / log_q)
        if x > hi:
            return out
        out.add(x)


def alteration(r_set: set[int]) -> tuple[set[int], set[int]]:
    """X = R cap (R+R+{0,1}), A = R minus X; re-verifies disjointness."""
    elems = sorted(r_set)
    bits_r = _bits_of(elems)
    bits_rr = _shift_sumset(bits_r, elems)
    bits_bad = bits_rr | (bits_rr << 1)
    bits_x = bits_r & bits_bad
    x_set = {e for e in elems if bits_x >> e & 1}
    a_set = r_set - x_set
    ok, wit = verify_disjoint(a_set)
    if not ok:
        raise AssertionError(f"alteration left a violation: {wit}")
    return x_set, a_set


def pair_sum_supnorm(r_set) -> int:
    """Largest multiplicity in the pair-sum multiset of R (the sup-norm
    of the convolution 1_R * 1_R); 0 for empty R."""
    elems = sorted(r_set)
    counts: dict[int, int] = {}
    for i, a in enumerate(elems):
        for b in elems[i:]:
            s = a + b
            counts[s] = counts.get(s, 0) + (1 if a == b else 2)
    return max(counts.values(), default=0)


def random_search(
    p_min: int, p_max: int, seed: int, max_attempts_per_p: int, collect: list | None = None
) -> AuxSet:
    """First (p, A) from sample-and-alter, scanning primes >= 11 ascending
    with max_attempts_per_p draws each; attempt a at p draws
    sample_candidate(p, _derive_seed("attempt", seed, p, a)). Appends an
    AttemptRecord per attempt to collect when given; raises
    SearchExhausted when the whole range fails."""
    if p_min > p_max:
        raise ValueError(f"empty prime range [{p_min}, {p_max}]")
    rnd = random.Random()
    for p in primes.primes_in_range(max(p_min, 11), p_max):
        law = _sample_law(p)
        for attempt in range(1, max_attempts_per_p + 1):
            rnd.seed(_derive_seed("sample", p, _derive_seed("attempt", seed, p, attempt)))
            r_set = _draw_candidate(law, rnd)
            x_set, a_set = alteration(r_set)
            ok_c, start = verify_coverage(a_set, p)
            if collect is not None:
                collect.append(
                    AttemptRecord(
                        p=p,
                        attempt=attempt,
                        r_size=len(r_set),
                        x_size=len(x_set),
                        a_size=len(a_set),
                        supnorm=pair_sum_supnorm(r_set),
                        disjoint_ok=True,
                        coverage_ok=ok_c,
                        window_start=start,
                    )
                )
            if ok_c:
                return AuxSet(
                    p=p, A=tuple(sorted(a_set)), seed=seed, attempt=attempt, window_start=start, method="random"
                )
    raise SearchExhausted(
        f"no auxiliary set found for primes in [{p_min}, {p_max}] "
        f"with {max_attempts_per_p} attempts per prime"
    )


def longest_run(a_set: set[int]) -> int:
    """Length of the longest run of consecutive integers in A+A+A."""
    if not a_set:
        return 0
    bits = triple_sumset_bits(a_set)
    best = cur = 0
    for pos in range(3 * max(a_set) + 2):
        if bits >> pos & 1:
            cur += 1
            best = max(best, cur)
        else:
            cur = 0
    return best


def random_grid(p_max: int, attempts: int, seed: int) -> None:
    grid = []
    p = 11
    while p <= p_max:
        grid.append(p)
        p = primes.next_prime(max(p + 1, int(p * 2.1)))
    print(f"randomized path, {attempts} attempts per prime, seed {seed}")
    print(f"{'p':>8} {'prob':>9} {'E|R|':>7} {'|R|':>5} {'|A|':>5} {'sup':>4} "
          f"{'cover':>6} {'run':>5} {'need':>5}")
    for p in grid:
        records: list[AttemptRecord] = []
        try:
            random_search(p, p, seed, attempts, collect=records)
            note = "FOUND"
        except SearchExhausted:
            note = ""
        if not records:
            continue
        rec = max(records, key=lambda r: r.a_size)
        r_set = sample_candidate(p, rec_seed(seed, rec))
        _, a_set = alteration(r_set)
        hi, prob, _ = _sample_law(p)
        exp_r = prob * hi
        covers = sum(1 for r in records if r.coverage_ok)
        print(f"{p:>8} {prob:>9.5f} {exp_r:>7.1f} {rec.r_size:>5} {rec.a_size:>5} "
              f"{rec.supnorm:>4} {covers:>4}/{len(records):<2} "
              f"{longest_run(a_set):>5} {p + 2:>5} {note}")


def rec_seed(seed: int, rec: AttemptRecord) -> int:
    # recover the derived per-attempt seed for the chosen record
    return _derive_seed("attempt", seed, rec.p, rec.attempt)


def scan(p_max: int, show_all: bool) -> None:
    print(f"deterministic residue-class construction over primes <= {p_max}")
    hits = 0
    for p in primes.primes_in_range(3, p_max):
        aux = deterministic_aux(p)
        if aux is None:
            h = p // 2 - 1
            a_set = {x for x in range(1, h + 1) if x % CLASS_MODULUS in CLASS_DESIGN}
            if show_all:
                print(f"p={p:>7}  fail  |A|={len(a_set):>5}  "
                      f"longest run {longest_run(a_set)} < {p + 2}")
            continue
        yt = build_y_table(aux)
        hits += 1
        if hits <= 12 or show_all:
            print(f"p={p:>7}  OK    |A|={len(aux.A):>5}  window starts {aux.window_start}, "
                  f"max y {max(yt.entries)} < {2 * p}")
        if hits == 1:
            print(f"  -> minimal successful p = {p}")
    print(f"total successes: {hits}")


def design_search(
    modulus_range, set_sizes, node_budget: int = 4_000_000
) -> list[tuple[int, tuple[int, ...]]]:
    """Exhaustive DFS for residue-class designs: subsets P of Z/M with the
    shifted-sum disjointness and full triple-sum coverage. Returns all
    (M, P) hits, one per modulus, scanning set sizes ascending. Used to
    reproduce the pinned CLASS_MODULUS/CLASS_DESIGN kernel."""
    hits = []
    for m in modulus_range:
        found = None
        for k in set_sizes:
            if k * (k + 1) * (k + 2) // 6 < m:
                continue  # fewer triple sums than classes to cover
            found = _design_dfs(m, k, node_budget)
            if found:
                break
        if found:
            hits.append((m, found))
    return hits


def check_design(m: int, design) -> bool:
    """Exact check of both design properties."""
    pset = set(design)
    for a in pset:
        for b in pset:
            if (a + b) % m in pset or (a + b + 1) % m in pset:
                return False
    cover = {(a + b + c) % m for a in pset for b in pset for c in pset}
    return len(cover) == m


def _design_dfs(m: int, k: int, node_budget: int) -> tuple[int, ...] | None:
    in_p = bytearray(m)
    blocked = [0] * m
    chosen: list[int] = []
    nodes = 0

    def covers() -> bool:
        seen = bytearray(m)
        cnt = 0
        n = len(chosen)
        for i in range(n):
            for j in range(i, n):
                pij = chosen[i] + chosen[j]
                for l in range(j, n):
                    v = (pij + chosen[l]) % m
                    if not seen[v]:
                        seen[v] = 1
                        cnt += 1
        return cnt == m

    def dfs(start: int) -> tuple[int, ...] | None:
        nonlocal nodes
        if len(chosen) == k:
            return tuple(chosen) if covers() else None
        if m - start < k - len(chosen) or nodes > node_budget:
            return None
        for r in range(start, m):
            if blocked[r] or in_p[r]:
                continue
            nodes += 1
            news = []
            bad = False
            for a in chosen + [r]:
                for v in ((a + r) % m, (a + r + 1) % m):
                    if in_p[v] or v == r:
                        bad = True
                        break
                    news.append(v)
                if bad:
                    break
            if bad:
                continue
            chosen.append(r)
            in_p[r] = 1
            for v in news:
                blocked[v] += 1
            hit = dfs(r + 1)
            for v in news:
                blocked[v] -= 1
            in_p[r] = 0
            chosen.pop()
            if hit:
                return hit
        return None

    return dfs(1)


def run_design_search(m_max: int, k_max: int, budget: int) -> None:
    print(f"design search over moduli 3..{m_max}, set sizes 3..{k_max}, budget {budget}")
    hits = design_search(range(3, m_max + 1), range(3, k_max + 1), node_budget=budget)
    for m, design in hits:
        assert check_design(m, design)
        print(f"M={m:>3}  |P|={len(design):>2}  P={design}")
    if not hits:
        print("no designs found in range")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--random-grid", action="store_true")
    mode.add_argument("--scan", action="store_true")
    mode.add_argument("--design-search", action="store_true")
    ap.add_argument("--p-max", type=int, default=20000)
    ap.add_argument("--attempts", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--all", action="store_true", help="scan: print failures too")
    ap.add_argument("--m-max", type=int, default=50)
    ap.add_argument("--k-max", type=int, default=9)
    ap.add_argument("--budget", type=int, default=4_000_000)
    args = ap.parse_args()
    if args.random_grid:
        random_grid(args.p_max, args.attempts, args.seed)
    elif args.scan:
        scan(args.p_max, args.all)
    else:
        run_design_search(args.m_max, args.k_max, args.budget)


if __name__ == "__main__":
    main()
