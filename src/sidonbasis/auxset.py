"""Auxiliary additive sets: a prime p and A inside {1..floor(p/2)-1} with

  (i)  A and A+A+{0,1} are disjoint, and
  (ii) A+A+A contains p+2 consecutive integers,

plus the per-residue lookup table used by the decomposition algorithm.

One construction path. The paper's A comes from a random sample with
collisions deleted; at the prime sizes this package runs, that sample
essentially never covers a long enough window (triple-sum intensity
peaks near 2 while a (p+2)-run needs intensity around ln p), so the
sampler lives in scripts/find_aux_experiments.py (--random-grid), which
tabulates why. The package lifts a fixed residue-class design
(CLASS_MODULUS, CLASS_DESIGN) to an interval instead, and both verifiers
re-check the result.

All sumset work is exact boolean convolution on Python-int bitmasks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import primes

# Residue-class design: CLASS_DESIGN is a subset P of Z/CLASS_MODULUS with
# (a+b) mod M and (a+b+1) mod M outside P for all a, b in P, while triple
# sums P+P+P cover every class. Found by exhaustive search (reproducible
# by scripts/find_aux_experiments.py --design-search, which holds the
# search; no design with smaller modulus exists for set sizes up to 9).
CLASS_MODULUS = 44
CLASS_DESIGN = (3, 4, 5, 14, 15, 16, 27, 39, 40)

# largest auxiliary prime searched or loaded, checked before any sumset:
# the sumset bitmasks are 3p/2 bits long and each element of A shifts
# them once, so a loaded A costs O(|A| p) bit operations
AUX_P_CAP = 1 << 16


class SearchExhausted(RuntimeError):
    """No (p, A) found for any prime in the requested range."""


@dataclass(frozen=True)
class AuxSet:
    """An auxiliary set with what aux.json records of how it was found:
    search gives attempt 0 and method "residue-class"; aux_from_json also
    loads sets found by sample-and-alter, whose method is "random"."""

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
    # A+A+A has at most C(|A|+2, 3) elements, too few for a run of p+2
    if math.comb(len(elems) + 2, 3) < p + 2:
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
    if not ok_c:
        return None
    return AuxSet(
        p=p,
        A=tuple(sorted(a_set)),
        seed=seed,
        attempt=0,
        window_start=start,
        method="residue-class",
    )


def search(p_min: int, p_max: int, seed: int) -> AuxSet:
    """First (p, A) passing both verifiers, walking the primes ascending
    from p_min with the residue-class construction and stopping at
    AUX_P_CAP, so that aux_from_json loads every result; its coverage run
    completes the y-table (see aux_from_json). seed is recorded in the
    result only.

    Raises SearchExhausted when the whole range fails.
    """
    p_top = min(p_max, AUX_P_CAP)
    if p_min > p_top:
        raise ValueError(f"empty prime range [{p_min}, {p_max}] below AUX_P_CAP = {AUX_P_CAP}")
    p = primes.next_prime(p_min - 1)
    while p <= p_top:
        aux = deterministic_aux(p, seed)
        if aux is not None:
            return aux
        p = primes.next_prime(p)
    raise SearchExhausted(f"no auxiliary set found for primes in [{p_min}, {p_top}]")


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


_JSON_KINDS = {int: "an integer", str: "a string", list: "a list", dict: "an object", bool: "a boolean"}


def json_value(value, kind: type, what: str):
    """value when its type is exactly kind, one of the types json.load
    returns (so a boolean is no integer); otherwise ValueError naming what.
    The loaders of untrusted files check each field with it before using
    it."""
    if type(value) is not kind:
        raise ValueError(f"{what} must be {_JSON_KINDS[kind]}, got {value!r}")
    return value


def json_field(obj: dict, key: str, place: str):
    """obj[key] of a JSON object obj; ValueError naming place and key when
    obj has no such field (a bare KeyError would name the key alone)."""
    try:
        return obj[key]
    except KeyError:
        raise ValueError(f"{place}: missing field {key!r}") from None


def aux_from_json(obj: dict) -> AuxSet:
    """Load an aux file as untrusted input. ValueError, naming the field or
    the property, unless p is a prime at most AUX_P_CAP (checked first),
    A a nonempty list of distinct integers in [0, p), window_start, seed
    and attempt integers, method a string, and A has what the
    construction rests on: A inside {1..floor(p/2)-1}, A cap (A+A+{0,1})
    empty, and a run of p+2 in A+A+A that starts at window_start. That
    run completes the y-table: A+A+A lies in [3, 3p/2), so its p values y
    with y-2, y-1, y in the run lie below 2p, one in each residue class
    mod p."""
    json_value(obj, dict, "aux")
    p = json_value(json_field(obj, "p", "aux"), int, "aux p")
    if p > AUX_P_CAP:
        raise ValueError(f"aux p = {p} exceeds AUX_P_CAP = {AUX_P_CAP}")
    if not primes.is_prime(p):
        raise ValueError(f"aux p = {p} is not prime")
    elems = json_field(obj, "A", "aux")
    if not isinstance(elems, list) or not elems:
        raise ValueError("aux A must be a nonempty list")
    elems = [json_value(a, int, "aux element") for a in elems]
    outside = [a for a in elems if not 0 <= a < p]
    if outside:
        raise ValueError(f"aux A has elements outside [0, {p}): {outside}")
    if len(set(elems)) != len(elems):
        raise ValueError("aux A has repeated elements")
    window_start = json_value(json_field(obj, "window_start", "aux"), int, "aux window_start")
    covered, start = verify_coverage(elems, p)  # ValueError outside {1..floor(p/2)-1}
    disjoint, witness = verify_disjoint(elems)
    if not disjoint:
        raise ValueError("aux A meets A+A+{0,1}: %d = %d + %d + %d" % witness)
    if not covered:
        raise ValueError(f"aux A+A+A holds no run of p+2 = {p + 2} consecutive integers")
    if window_start != start:
        raise ValueError(f"aux window_start = {window_start} differs from the run start {start} in A+A+A")
    return AuxSet(
        p=p,
        A=tuple(elems),
        seed=json_value(obj.get("seed", 0), int, "aux seed"),
        attempt=json_value(obj.get("attempt", 0), int, "aux attempt"),
        window_start=window_start,
        method=json_value(obj.get("method", "random"), str, "aux method"),
    )


def default_aux() -> AuxSet:
    """The packaged p=307 auxiliary set (the smallest prime the search
    certifies), for callers that just want a working configuration."""
    import importlib.resources
    import json

    text = importlib.resources.files("sidonbasis").joinpath("data/default_aux.json").read_text()
    return aux_from_json(json.loads(text))

