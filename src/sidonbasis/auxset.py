"""Auxiliary additive sets: a prime p and A inside {1..floor(p/2)-1} with

  (i)  A and A+A+{0,1} are disjoint, and
  (ii) A+A+A contains p+2 consecutive integers,

plus the per-residue lookup table used by the decomposition algorithm.

Two construction paths. The randomized path samples each element with
probability min(1, ceil(ln p) * p^(-2/3)) and repairs collisions by
deleting X = R cap (R+R+{0,1}); it is kept faithful to its source and its
attempt diagnostics are observable, but at the prime sizes this package
runs it essentially never covers a long enough window (triple-sum
intensity peaks near 2 while a (p+2)-run needs intensity around ln p).
The deterministic path lifts a fixed residue-class design (CLASS_MODULUS,
CLASS_DESIGN) to an interval and is the one that actually succeeds; both
verifiers re-check every candidate either way.

All sumset work is exact boolean convolution on Python-int bitmasks.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass

from . import primes

# Residue-class design: CLASS_DESIGN is a subset P of Z/CLASS_MODULUS with
# (a+b) mod M and (a+b+1) mod M outside P for all a, b in P, while triple
# sums P+P+P cover every class. Found by exhaustive search (reproducible
# via design_search / scripts/find_aux_experiments.py --design-search;
# no design with smaller modulus exists for set sizes up to 9).
CLASS_MODULUS = 44
CLASS_DESIGN = (3, 4, 5, 14, 15, 16, 27, 39, 40)


class SearchExhausted(RuntimeError):
    """No (p, A) found in the requested range within the attempt budget."""


@dataclass(frozen=True)
class AuxSet:
    p: int
    A: tuple[int, ...]
    seed: int = 0
    attempt: int = 0
    window_start: int | None = None
    method: str = "random"

    def __post_init__(self):
        object.__setattr__(self, "A", tuple(sorted(self.A)))


@dataclass(frozen=True)
class YTable:
    """entries[rho] = smallest y in [0, 2p) with y == rho (mod p) and
    y-2, y-1, y all members of A+A+A."""

    p: int
    entries: tuple[int, ...]


@dataclass(frozen=True)
class AttemptRecord:
    p: int
    attempt: int
    r_size: int
    x_size: int
    a_size: int
    supnorm: int
    disjoint_ok: bool
    coverage_ok: bool
    window_start: int | None


def _bits_of(elems) -> int:
    bits = 0
    for e in elems:
        bits |= 1 << e
    return bits


def _shift_sumset(bits: int, elems) -> int:
    """Bitmask of {x + e : bit x set, e in elems}."""
    out = 0
    for e in elems:
        out |= bits << e
    return out


def _first_run_start(bits: int, run_len: int) -> int | None:
    """Start of the lowest run of >= run_len consecutive set bits."""
    if run_len < 1:
        raise ValueError("run length must be >= 1")
    g = bits
    have = 1
    while have < run_len and g:
        step = min(have, run_len - have)
        g &= g >> step
        have += step
    if not g:
        return None
    return (g & -g).bit_length() - 1


def _derive_seed(*parts) -> int:
    h = hashlib.blake2b(
        "|".join(str(p) for p in parts).encode(), digest_size=8
    ).digest()
    return int.from_bytes(h, "little") >> 1


def sample_candidate(p: int, seed: int) -> set[int]:
    """Random subset of {1..floor(p/2)-1}, each element included
    independently with probability min(1, ceil(ln p) * p^(-2/3)).

    Geometric skip-sampling, so the cost is proportional to the output
    size; deterministic given (p, seed).
    """
    if p < 11 or not primes.is_prime(p):
        raise ValueError(f"need a prime p >= 11, got {p}")
    k = math.ceil(math.log(p))
    prob = min(1.0, k * p ** (-2 / 3))
    hi = p // 2 - 1
    if prob >= 1.0:
        return set(range(1, hi + 1))
    rnd = random.Random(_derive_seed("sample", p, seed))
    out: set[int] = set()
    log_q = math.log1p(-prob)
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


def verify_disjoint(a_set) -> tuple[bool, tuple[int, int, int, int] | None]:
    """Checks A cap (A+A+{0,1}) is empty; witness (a, a1, a2, delta)
    with a = a1 + a2 + delta on failure."""
    elems = sorted(a_set)
    bits_a = _bits_of(elems)
    bits_aa = _shift_sumset(bits_a, elems)
    viol = bits_a & (bits_aa | (bits_aa << 1))
    if not viol:
        return True, None
    a = (viol & -viol).bit_length() - 1
    members = set(elems)
    for a1 in elems:
        for delta in (0, 1):
            a2 = a - a1 - delta
            if a2 in members:
                return False, (a, a1, a2, delta)
    raise AssertionError("violation bit without a witness")


def verify_coverage(a_set, p: int) -> tuple[bool, int | None]:
    """Scans A+A+A for a run of >= p+2 consecutive members; returns the
    first run start. Boolean convolution on bitmasks, exact."""
    elems = sorted(a_set)
    if elems and not (1 <= elems[0] and elems[-1] <= p // 2 - 1):
        raise ValueError("A must lie inside {1..floor(p/2)-1}")
    if not elems:
        return False, None
    bits_a = _bits_of(elems)
    bits_aa = _shift_sumset(bits_a, elems)
    bits_aaa = _shift_sumset(bits_aa, elems)
    start = _first_run_start(bits_aaa, p + 2)
    return (start is not None), start


def triple_sumset_bits(a_set) -> int:
    """Bitmask of A+A+A (membership only)."""
    elems = sorted(a_set)
    bits_a = _bits_of(elems)
    return _shift_sumset(_shift_sumset(bits_a, elems), elems)


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


def _y_table_entries(p: int, bits_aaa: int) -> list[int | None]:
    out: list[int | None] = []
    for rho in range(p):
        found = None
        for y in (rho, rho + p):
            if y >= 2 and bits_aaa >> (y - 2) & 7 == 7:
                found = y
                break
        out.append(found)
    return out


def build_y_table(aux: AuxSet) -> YTable:
    """Per-residue smallest admissible y; raises if any class has none
    (which would mean the coverage property does not actually hold where
    the decomposition needs it)."""
    bits_aaa = triple_sumset_bits(aux.A)
    entries = _y_table_entries(aux.p, bits_aaa)
    missing = [rho for rho, y in enumerate(entries) if y is None]
    if missing:
        raise ValueError(
            f"aux set for p={aux.p} has no admissible y for residue classes "
            f"{missing[:8]}{'...' if len(missing) > 8 else ''}"
        )
    return YTable(aux.p, tuple(entries))


def _y_table_complete(p: int, a_set) -> bool:
    bits_aaa = triple_sumset_bits(a_set)
    return all(y is not None for y in _y_table_entries(p, bits_aaa))


def deterministic_aux(p: int, seed: int = 0) -> AuxSet | None:
    """Lift the residue-class design to the top of {1..floor(p/2)-1}.

    A = {x in [L, H] : x mod M in CLASS_DESIGN} with H = floor(p/2)-1 and
    L chosen so the guaranteed coverage window [3L+6M, 3H-6M] has length
    at least p+2. Disjointness is automatic: any a+a'+delta falls in a
    residue class outside the design. Returns None when the interval is
    degenerate; verifiers still decide acceptance either way.
    """
    m = CLASS_MODULUS
    design = set(CLASS_DESIGN)
    h = p // 2 - 1
    lo = max(1, h - math.ceil((p + 2 + 12 * m) / 3))
    if h < lo:
        return None
    a_set = {x for x in range(lo, h + 1) if x % m in design}
    if not a_set:
        return None
    ok_d, wit = verify_disjoint(a_set)
    if not ok_d:
        raise AssertionError(f"class design produced a violation: {wit}")
    ok_c, start = verify_coverage(a_set, p)
    if not ok_c or not _y_table_complete(p, a_set):
        return None
    return AuxSet(
        p=p,
        A=tuple(sorted(a_set)),
        seed=seed,
        attempt=0,
        window_start=start,
        method="residue-class",
    )


def search(
    p_min: int,
    p_max: int,
    seed: int,
    max_attempts_per_p: int,
    method: str = "both",
    collect: list | None = None,
) -> AuxSet:
    """First (p, A) passing both verifiers with a complete y-table,
    scanning primes ascending. For each p the randomized path gets
    max_attempts_per_p tries, then the deterministic construction is
    tried once (method: "random" | "deterministic" | "both").

    Raises SearchExhausted when the whole range fails.
    """
    if method not in ("random", "deterministic", "both"):
        raise ValueError(f"unknown method {method!r}")
    if p_min > p_max:
        raise ValueError(f"empty prime range [{p_min}, {p_max}]")
    for p in primes.primes_in_range(p_min, p_max):
        if method in ("random", "both") and p >= 11:
            for attempt in range(1, max_attempts_per_p + 1):
                r_set = sample_candidate(p, _derive_seed("attempt", seed, p, attempt))
                x_set, a_set = alteration(r_set)
                ok_c, start = verify_coverage(a_set, p)
                ok = ok_c and _y_table_complete(p, a_set)
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
                if ok:
                    return AuxSet(
                        p=p,
                        A=tuple(sorted(a_set)),
                        seed=seed,
                        attempt=attempt,
                        window_start=start,
                        method="random",
                    )
        if method in ("deterministic", "both"):
            aux = deterministic_aux(p, seed)
            if aux is not None:
                return aux
    raise SearchExhausted(
        f"no auxiliary set found for primes in [{p_min}, {p_max}] "
        f"with {max_attempts_per_p} attempts per prime (method={method})"
    )


def aux_to_json(aux: AuxSet) -> dict:
    if aux.window_start is None:
        raise ValueError("refusing to serialize an unverified aux set")
    return {
        "p": aux.p,
        "A": list(aux.A),
        "seed": aux.seed,
        "attempt": aux.attempt,
        "window_start": aux.window_start,
        "log_convention": "natural",
        "method": aux.method,
    }


def _json_int(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"aux {what} must be an integer, got {value!r}")
    return value


def aux_from_json(obj: dict) -> AuxSet:
    """Load an aux file as untrusted input: ValueError unless p is a prime,
    A a nonempty list of distinct integers in [0, p) and window_start an
    integer."""
    p = _json_int(obj["p"], "p")
    if not primes.is_prime(p):
        raise ValueError(f"aux p = {p} is not prime")
    if not isinstance(obj["A"], list) or not obj["A"]:
        raise ValueError("aux A must be a nonempty list")
    elems = [_json_int(a, "element") for a in obj["A"]]
    outside = [a for a in elems if not 0 <= a < p]
    if outside:
        raise ValueError(f"aux A has elements outside [0, {p}): {outside}")
    if len(set(elems)) != len(elems):
        raise ValueError("aux A has repeated elements")
    return AuxSet(
        p=p,
        A=tuple(elems),
        seed=int(obj.get("seed", 0)),
        attempt=int(obj.get("attempt", 0)),
        window_start=_json_int(obj["window_start"], "window_start"),
        method=str(obj.get("method", "random")),
    )


def default_aux() -> AuxSet:
    """The packaged p=307 auxiliary set (the smallest prime the search
    certifies), for callers that just want a working configuration."""
    import importlib.resources
    import json

    text = importlib.resources.files("sidonbasis").joinpath("data/default_aux.json").read_text()
    return aux_from_json(json.loads(text))


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
