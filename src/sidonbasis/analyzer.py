"""Verification surface over built sequences.

verify_sidon reports colliding pairwise sums. attribute_collision
explains a collision digit by digit: it recovers the four entries,
reconstructs the mixed-radix digits of the equal sums, compares each
digit against the additive laws the construction imposes (odd positions
add discrete logs mod their radix, even positions add the two auxiliary
digits plus a possible carry), checks the product congruence modulo the
shared moduli, and names the first precondition margin that does not
hold at the configured parameters.

decompose_many peels an array of large integers into the same digit
shape (driven by the auxiliary y-table) in one array pass per level: the
values stay Python integers in numpy object arrays, so every % and // is
exact, and level l works only on the samples still above 6 p q^{2l-1}.
decompose is that peel for one integer. The decompose check of the
command line (verify --mode decompose) runs the peel in blocks of 1,024
samples and does not trust it: per block it re-checks the level count,
every x and z range, the admissibility of every y against the bits of
A+A+A, and that the digits re-encode to m. find_representations
enumerates exact three-element sums, and monte_carlo_coverage measures
how often a window of integers stays representable when the random
digits are redrawn.

verify_sidon and monte_carlo_coverage share one pair-sum engine, exact
without Python sets of pair sums. Each value v gets the coarse key
v >> S, with S the least shift that keeps every sum of two (Sidon) or
three (coverage) keys below 2^62 in magnitude, so keys and their sums
fit int64. Shifting floors, so keys keep the order of the values, the
keys of two equal pair sums differ by at most 1, and a triple summing
into [lo, hi] has its key sum in [(lo >> S) - 2, hi >> S] (S = 0 makes
the keys exact and both slacks 0). verify_sidon forms the key sums of
all N(N+1)/2 pairs in numpy, sorts them in place and takes neighbour
differences in blocks, keeping only the key values at most 1 from a
neighbour. A Sidon set has none, so the check ends there: O(N^2 log N)
time and one int64 array of N(N+1)/2 entries. Otherwise the sums are
formed again in walk order, and a searchsorted per block into the small
sorted array of tie values locates the candidate pairs, in walk order.

The coverage window search keeps only the pairs i <= j that some
c >= j can complete into the window. The least such sum is
v_i + 2 v_j and the largest v_i + v_j + v_max, so with klo =
(lo >> S) - slack and khi = hi >> S a pair is kept when
keys[i] + 2 keys[j] <= khi and keys[i] + keys[j] + keys[-1] >= klo.
Floor keys make both bounds necessary: the key of a sum is at least the
sum of the keys and at most 2 above it, so no pair that reaches the
window is dropped. Per j each bound is one searchsorted over the
ascending keys, and the kept i-ranges expand with np.repeat in walk
order. Every |key| is below 2^62 / 3 + 1 and |klo|, |khi| at most
2^62 + 2, so klo - keys[-1] - keys and khi - 2 keys stay within about
(5/3) 2^62 in magnitude, well inside int64. Most kept pairs have no
third element, so a directory of prefix counts over 4N to 8N buckets of
the keys first tests whether any key lies in a pair's third-element
range [klo - pair, khi - pair], clipped to [keys[j], keys[-1]] so that
no offset from keys[0] overflows; only the pairs that pass run the two
searchsorteds that find the admissible third elements. Every candidate
the keys admit is re-checked with Python integers, so no answer rests
on a key.

A coverage trial re-draws the r and s digits of every entry from a draw
plan built once per run (builder.draw_plan): the e-digit part of n, the
hash messages and the digit weights do not change between trials. It
draws in two stages. builder.draw_bounds hashes only r_k and s of each
entry, two digests instead of k + 1, and bounds n exactly: the r_i with
i < k add between (min A) S_k and (max A) S_k, S_k = sum_{i<k}
W_{2i-1}. A triple whose exact sum lies in [lo, hi] has lower bounds
summing to at most hi and at least lo - 3 w, w the largest bound width,
so _window_triples over the sorted lower bounds and [lo - 3 w, hi] finds
every hitting triple among its candidates. builder.complete_draw then
hashes r_1..r_{k-1} of the candidates' entries only, and each candidate
sum is checked against [lo, hi] in Python integers. With threads > 1
each worker process receives the plan once.
"""

from __future__ import annotations

import hashlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .auxset import YTable, _bits_of, _shift_sumset
from .builder import (
    Params,
    SequenceEntry,
    SidonSequence,
    audit_preconditions,
    build_sequence,
    complete_draw,
    decode_entry,
    draw_bounds,
    draw_plan,
    mixed_radix,
)
from .ffpoly import poly_mod, poly_mul
from .gbase import DigitVector, decode, fmod

# after the package modules, so that numpy first loads through ffpoly:
# loading it ahead of them leaves the resident set about 0.3 MB larger
import numpy as np  # noqa: E402


@dataclass(frozen=True)
class CollisionWitness:
    n1: int
    n2: int
    n3: int
    n4: int
    entries: tuple[SequenceEntry, SequenceEntry, SequenceEntry, SequenceEntry] | None = None

    def __post_init__(self):
        if self.n1 + self.n2 != self.n3 + self.n4:
            raise ValueError("witness sums differ")
        if {self.n1, self.n2} == {self.n3, self.n4}:
            raise ValueError("witness pairs coincide")


def _coarse_keys(vals: list[int], mult: int) -> tuple[int, np.ndarray]:
    """(S, keys) with keys[i] = vals[i] >> S and S the least shift that
    keeps every sum of `mult` keys below 2^62 in magnitude."""
    top = max((abs(v) for v in vals), default=0)
    shift = max(0, (mult * top).bit_length() - 62)
    return shift, np.array([v >> shift for v in vals], dtype=np.int64)


# the most pair sums verify_sidon forms: one int64 array of this many
# entries is 1 GiB. q = 13, k = 3 (25,194,351 sums) fits; q = 3, k = 5
# (1,255,030,050 sums, 10 GB) is refused before anything is allocated
SIDON_PAIR_LIMIT = 1 << 27

# pairs per block where the engine works in blocks. Freed heap memory
# below the allocator's trim threshold stays resident, so temporaries of
# all pairs at once would raise the resident set of every later stage.
_PAIR_BLOCK = 1 << 13


def _pair_key_sums(keys: np.ndarray) -> np.ndarray:
    """keys[i] + keys[j] for every i <= j in walk order (j outer, i
    inner), so pair (i, j) sits at position j (j + 1) / 2 + i."""
    n = len(keys)
    out = np.empty(n * (n + 1) // 2, dtype=np.int64)
    start = 0
    for j in range(n):
        np.add(keys[: j + 1], keys[j], out=out[start : start + j + 1])
        start += j + 1
    return out


def _pairs_at(pos: np.ndarray, n: int) -> tuple[list[int], list[int]]:
    """(i, j) of the pairs at walk positions pos, as two lists."""
    starts = np.arange(n, dtype=np.int64) * np.arange(1, n + 1) // 2
    j = np.searchsorted(starts, pos, side="right") - 1
    return (pos - starts[j]).tolist(), j.tolist()


def _tie_values(sums: np.ndarray, tol: int) -> np.ndarray:
    """The sorted distinct values of the ascending sums that lie at most
    tol from a neighbour, from neighbour differences taken in blocks."""
    found = []
    for k in range(0, len(sums) - 1, _PAIR_BLOCK):
        block = sums[k : k + _PAIR_BLOCK + 1]
        # a difference past int64 wraps negative and only adds candidates
        near = np.flatnonzero(np.diff(block) <= tol)
        found += [block[near], block[near + 1]]
    return np.unique(np.concatenate(found)) if found else np.empty(0, dtype=np.int64)


def verify_sidon(values) -> list[CollisionWitness]:
    """Empty iff all pairwise sums (i <= j) are distinct. Each collision is
    reported against the first pair holding that sum in the walk j = 0,
    1, ..., i = 0..j, and the witnesses come in the order of that walk.
    Raises ValueError, before allocating, when there are more than
    SIDON_PAIR_LIMIT pair sums."""
    vals = list(values)
    pairs = len(vals) * (len(vals) + 1) // 2
    if pairs > SIDON_PAIR_LIMIT:
        raise ValueError(
            f"{len(vals)} values have {pairs:,} pair sums, above SIDON_PAIR_LIMIT = "
            f"{SIDON_PAIR_LIMIT:,}: their int64 key sums would need {8 * pairs:,} bytes"
        )
    if len(set(vals)) != len(vals):
        raise ValueError("values must be distinct")
    shift, keys = _coarse_keys(vals, 2)
    sums = _pair_key_sums(keys)
    sums.sort()
    ties = _tie_values(sums, 1 if shift else 0)
    del sums
    if not len(ties):
        return []
    # the candidates are the pairs whose key is a tie value; formed again
    # in walk order, a searchsorted per block finds them in that order
    sums = _pair_key_sums(keys)
    pos = []
    for k in range(0, len(sums), _PAIR_BLOCK):
        block = sums[k : k + _PAIR_BLOCK]
        at = np.minimum(np.searchsorted(ties, block), len(ties) - 1)
        pos.append(k + np.flatnonzero(ties[at] == block))
    del sums
    first: dict[int, tuple[int, int]] = {}
    out = []
    for i, j in zip(*_pairs_at(np.concatenate(pos), len(vals))):
        pair = (vals[i], vals[j])
        prior = first.setdefault(pair[0] + pair[1], pair)
        if prior != pair:
            out.append(CollisionWitness(*prior, *pair))
    return out


@dataclass(frozen=True)
class DigitAuditRow:
    i: int
    x_digit: int
    y_digit: int
    kind_left: str  # "paired" | "unclassified" | "single"
    kind_right: str
    x_expected_left: int | None
    x_match_left: bool | None
    y_expected_left: int | None
    y_match_left: bool | None
    x_expected_right: int | None
    x_match_right: bool | None
    y_expected_right: int | None
    y_match_right: bool | None
    y_in_pair_sums: bool  # y_digit in A+A+{0,1}
    y_in_members: bool  # y_digit in A


@dataclass(frozen=True)
class CollisionAudit:
    witness: CollisionWitness
    left: tuple[SequenceEntry, SequenceEntry]
    right: tuple[SequenceEntry, SequenceEntry]
    rows: tuple[DigitAuditRow, ...]
    boundary_index: int  # last low position whose y digit is a shifted pair sum
    products_congruent: bool
    shared_levels: int
    failed_margin: str


def _resolve_entry(seq: SidonSequence, n: int) -> SequenceEntry:
    for ent in seq.entries:
        if ent.n == n:
            return ent
    f, k = decode_entry(n, seq.params, seq.moduli)
    base = mixed_radix(seq.params)
    digits = decode(base, n, 2 * k + 1).digits
    return SequenceEntry(
        f=f, k=k, e=digits[0 : 2 * k : 2], r=digits[1 : 2 * k : 2], s=digits[2 * k], n=n
    )


def _pair_expectations(
    params: Params, a: SequenceEntry, b: SequenceEntry, i: int
) -> tuple[str, int | None, int | None]:
    """(kind, expected x, expected y) for digit pair i of a+b, k(a) >= k(b)."""
    q = params.q.q
    if i <= b.k:
        radix = q ** (2 * i - 1) - 1
        esum = a.e[i - 1] + b.e[i - 1]
        carry = 1 if esum >= radix else 0
        return "paired", fmod(esum, radix), a.r[i - 1] + b.r[i - 1] + carry
    if i <= b.k + 2:
        return "unclassified", None, None
    return "single", a.e[i - 1], a.r[i - 1]


def attribute_collision(seq: SidonSequence, w: CollisionWitness) -> CollisionAudit:
    """Digit-level audit of one collision; see module docstring."""
    if w.entries is not None:
        e1, e2, e3, e4 = w.entries
    else:
        e1, e2 = _resolve_entry(seq, w.n1), _resolve_entry(seq, w.n2)
        e3, e4 = _resolve_entry(seq, w.n3), _resolve_entry(seq, w.n4)
    if e1.k < e2.k:
        e1, e2 = e2, e1
    if e3.k < e4.k:
        e3, e4 = e4, e3
    params = seq.params
    base = mixed_radix(params)
    total = e1.n + e2.n
    top_k = max(e1.k, e3.k)
    digits = decode(base, total, 2 * top_k + 3).digits
    a_members = set(params.aux.A)
    pair_sums = _shift_sumset(_bits_of(params.aux.A), params.aux.A)
    pair_sums |= pair_sums << 1

    rows = []
    for i in range(1, top_k + 1):
        x_digit = digits[2 * i - 2]
        y_digit = digits[2 * i - 1]
        kind_l, ex_l, ey_l = _pair_expectations(params, e1, e2, i) if i <= e1.k else ("single", None, None)
        kind_r, ex_r, ey_r = _pair_expectations(params, e3, e4, i) if i <= e3.k else ("single", None, None)
        rows.append(
            DigitAuditRow(
                i=i,
                x_digit=x_digit,
                y_digit=y_digit,
                kind_left=kind_l,
                kind_right=kind_r,
                x_expected_left=ex_l,
                x_match_left=None if ex_l is None else ex_l == x_digit,
                y_expected_left=ey_l,
                y_match_left=None if ey_l is None else ey_l == y_digit,
                x_expected_right=ex_r,
                x_match_right=None if ex_r is None else ex_r == x_digit,
                y_expected_right=ey_r,
                y_match_right=None if ey_r is None else ey_r == y_digit,
                y_in_pair_sums=bool(pair_sums >> y_digit & 1),
                y_in_members=y_digit in a_members,
            )
        )

    boundary = 0
    for row in rows:
        if row.y_in_pair_sums:
            boundary = row.i
        else:
            break

    shared = min(e2.k, e4.k)
    left_prod = poly_mul(e1.f, e2.f)
    right_prod = poly_mul(e3.f, e4.f)
    congruent = all(
        poly_mod(left_prod, seq.moduli.g(i)) == poly_mod(right_prod, seq.moduli.g(i))
        for i in range(1, shared + 1)
    )

    audit = audit_preconditions(params)
    failed = "none: every audited margin holds, so this collision is unexplained"
    if not audit.c_ok:
        failed = audit.lines[0]
    else:
        for cls, line in zip(audit.classes, audit.lines[1:]):
            if cls.k in {e1.k, e2.k, e3.k, e4.k} and (
                cls.injectivity_margin_ok is False or cls.pair_margin_ok is False
            ):
                failed = line
                break
    return CollisionAudit(
        witness=w,
        left=(e1, e2),
        right=(e3, e4),
        rows=tuple(rows),
        boundary_index=boundary,
        products_congruent=congruent,
        shared_levels=shared,
        failed_margin=failed,
    )


@dataclass(frozen=True)
class Decomposition:
    m: int
    k: int
    x: tuple[int, ...]
    y: tuple[int, ...]
    z: int

    def digit_vector(self) -> DigitVector:
        digits = []
        for xi, yi in zip(self.x, self.y):
            digits.append(xi)
            digits.append(yi)
        digits.append(self.z)
        return DigitVector(tuple(digits))


@dataclass(frozen=True)
class Peel:
    """decompose over an array of m. levels[l - 1] holds, for level l, the
    indices of the samples peeled at l (ascending, a subset of those of
    level l - 1) with their x_l (Python integers) and y_l (int64) digits;
    k and z give per sample its level count and its top digit."""

    levels: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]
    k: np.ndarray
    z: np.ndarray


def decompose_many(ms, params: Params, y_table: YTable) -> Peel:
    """Peel each m of ms into digits <z y_k x_k ... y_1 x_1>, all at once:
    at level l the samples still above 6 p q^{2l-1} take x_l, the
    remainder mod q^{2l-1}-1, then y_l, the table entry for the residue
    class of the quotient mod p; a sample stops as soon as its remaining
    value drops to at most 6 p q^{2l-1}, which is its top digit z. The
    values stay Python integers in object arrays, so every step is exact.

    Every quotient stays >= 3 (in fact >= 5 past the first round), so
    each result re-encodes to its m exactly with 3 <= z <= 6 p q^{2k+1}.
    """
    cur = np.array(ms, dtype=object).reshape(-1)
    if len(cur) and (cur < 3).any():
        raise ValueError(f"need m >= 3, got {min(cur)}")
    if y_table.p != params.aux.p:
        raise ValueError("y-table prime differs from the aux set prime")
    q = params.q.q
    p = params.aux.p
    entries = np.array(y_table.entries, dtype=np.int64)
    levels = []
    k = np.zeros(len(cur), dtype=np.int64)
    active = np.arange(len(cur))
    power = q  # q^{2 level - 1}
    while True:
        active = active[np.flatnonzero(cur[active] > 6 * p * power)]
        if not len(active):
            break
        radix = power - 1
        # in place where the values allow, so that each step frees the
        # integers it replaces
        val = cur[active]
        x = val % radix
        np.floor_divide(val, radix, out=val)
        y = entries[(val % p).astype(np.int64)]
        np.subtract(val, y, out=val)
        np.floor_divide(val, p, out=val)
        cur[active] = val
        k[active] += 1
        levels.append((active, x, y))
        power *= q * q
    return Peel(tuple(levels), k, cur)


def decompose(m: int, params: Params, y_table: YTable) -> Decomposition:
    """m peeled into digits <z y_k x_k ... y_1 x_1>: decompose_many of
    the one value m."""
    peel = decompose_many([m], params, y_table)
    x = tuple(x[0] for _, x, _ in peel.levels)
    y = tuple(int(y[0]) for _, _, y in peel.levels)
    return Decomposition(m=m, k=len(x), x=x, y=y, z=peel.z[0])


def _sorted_values(seq_or_values) -> list[int]:
    if isinstance(seq_or_values, SidonSequence):
        vals = list(seq_or_values.values)
    else:
        vals = list(seq_or_values)
    if any(a >= b for a, b in zip(vals, vals[1:])):
        raise ValueError("values must be sorted ascending and distinct")
    return vals


def find_representations(m: int, seq_or_values, order: int = 3) -> list[tuple[int, ...]]:
    """All index multisets (ascending) whose values sum to m; two-pointer
    over the sorted tail, so no triple hashing."""
    vals = _sorted_values(seq_or_values)
    if order == 2:
        out2 = []
        lo, hi = 0, len(vals) - 1
        while lo <= hi:
            s = vals[lo] + vals[hi]
            if s == m:
                out2.append((lo, hi))
                lo += 1
                hi -= 1
            elif s < m:
                lo += 1
            else:
                hi -= 1
        return out2
    if order != 3:
        raise ValueError("only orders 2 and 3 are supported")
    out = []
    for i, first in enumerate(vals):
        target = m - first
        if target < 2 * first:
            break
        lo, hi = i, len(vals) - 1
        while lo <= hi:
            s = vals[lo] + vals[hi]
            if s == target:
                out.append((i, lo, hi))
                lo += 1
                hi -= 1
            elif s < target:
                lo += 1
            else:
                hi -= 1
    return out


@dataclass(frozen=True)
class CoverageReport:
    window_start: int
    window_length: int
    trials: int
    counts: tuple[int, ...]  # exact representation counts in the base build
    uncovered: tuple[int, ...]
    frequencies: tuple[float, ...]  # fraction of re-randomized builds covering m
    trial_seeds: tuple[int, ...]

    def rows(self):
        """(m, count, frequency) triples, the tabular report."""
        for off in range(self.window_length):
            yield (
                self.window_start + off,
                self.counts[off],
                self.frequencies[off],
            )


def _trial_seed(seed: int, tau: int) -> int:
    h = hashlib.blake2b(
        f"coverage-trial|{tau}".encode(),
        key=(seed & (2**64 - 1)).to_bytes(8, "little"),
        digest_size=8,
    ).digest()
    return int.from_bytes(h, "little") >> 1


def _reaching_pairs(keys: np.ndarray, klo: int, khi: int):
    """(i, j) arrays of the pairs i <= j with keys[i] + 2 keys[j] <= khi
    and keys[i] + keys[j] + keys[-1] >= klo, in walk order, in blocks of
    whole j with fewer than _PAIR_BLOCK pairs past those of their first j:
    the pairs that some c >= j may complete into a key window [klo, khi]."""
    n = len(keys)
    # per j, both bounds cut a range of i out of the ascending keys
    i_end = np.minimum(np.searchsorted(keys, khi - 2 * keys, side="right"), np.arange(1, n + 1))
    i_start = np.searchsorted(keys, klo - keys[-1] - keys)
    width = np.maximum(i_end - i_start, 0)
    ends = np.cumsum(width)
    marks = np.arange(_PAIR_BLOCK, ends[-1], _PAIR_BLOCK)
    cuts = np.searchsorted(ends, marks, side="right").tolist()
    for j0, j1 in zip([0, *cuts], [*cuts, n]):
        w = width[j0:j1]
        j = np.repeat(np.arange(j0, j1), w)
        i = np.arange(len(j)) - np.repeat(np.cumsum(w) - w - i_start[j0:j1], w)
        yield i, j


def _key_directory(keys: np.ndarray):
    """A test of whether any of the ascending keys lies in [a, b], for
    keys[0] <= a, b <= keys[-1] elementwise: False only when none does.
    The keys' range is cut into buckets of width 2^t, about 4 N to 8 N of
    them (fewer when the range is narrower), and the test counts the keys in the buckets from a's to b's by
    a difference of prefix counts."""
    span = int(keys[-1]) - int(keys[0])
    t = (span // (8 * len(keys))).bit_length()
    # span < 2^63, so no key - keys[0] overflows
    before = np.zeros((span >> t) + 2, dtype=np.int64)
    np.cumsum(np.bincount((keys - keys[0]) >> t), out=before[1:])
    return lambda a, b: before[((b - keys[0]) >> t) + 1] > before[(a - keys[0]) >> t]


def _window_triples(vals: list[int], lo: int, hi: int) -> list[tuple[int, int, int]]:
    """Every index triple i <= j <= c of the ascending vals with
    lo <= vals[i] + vals[j] + vals[c] <= hi, in walk order (j, then i,
    then c)."""
    if not vals:
        return []
    lo, hi = max(lo, 3 * vals[0]), min(hi, 3 * vals[-1])
    if lo > hi:
        return []
    shift, keys = _coarse_keys(vals, 3)
    klo, khi = (lo >> shift) - (2 if shift else 0), hi >> shift
    has_key = _key_directory(keys)
    # the key of the first c >= j in range; past the end it admits nothing
    heads = np.append(keys, np.iinfo(np.int64).max)
    out = []
    for ii, jj in _reaching_pairs(keys, klo, khi):
        pair = keys[ii] + keys[jj]
        # the pairs that may have a third element: a key in [klo - pair,
        # khi - pair], clipped to [keys[j], keys[-1]]
        keep = np.flatnonzero(has_key(np.maximum(klo - pair, keys[jj]), np.minimum(khi - pair, keys[-1])))
        ii, jj, pair = ii[keep], jj[keep], pair[keep]
        first = np.maximum(np.searchsorted(keys, klo - pair), jj)
        room = np.subtract(khi, pair, out=pair)
        pos = np.flatnonzero(heads[first] <= room)
        stop = np.searchsorted(keys, room[pos], side="right")
        for i, j, c0, c1 in zip(ii[pos].tolist(), jj[pos].tolist(), first[pos].tolist(), stop.tolist()):
            ab = vals[i] + vals[j]
            out.extend((i, j, c) for c in range(c0, c1) if lo <= ab + vals[c] <= hi)
    return out


def _trial_covered(plan: tuple, trial_seed: int, w_start: int, w_len: int) -> list[bool]:
    """Which m of the window a re-draw under trial_seed covers. Stage one
    draws only r_k and s of every entry (builder.draw_bounds), so each n
    is known up to its width; the triples of the sorted lower bounds in
    the window widened down by 3 widths are the candidates, and only
    their entries draw the rest of their digits (builder.complete_draw)
    before each candidate sum is checked exactly."""
    w_end = w_start + w_len - 1
    low, width = draw_bounds(plan, trial_seed)
    order = sorted(range(len(low)), key=low.__getitem__)
    near = _window_triples([low[u] for u in order], w_start - 3 * width, w_end)
    wanted = sorted({order[x] for t in near for x in t})
    value = dict(zip(wanted, complete_draw(plan, trial_seed, low, wanted)))
    hit = {m for t in near if w_start <= (m := sum(value[order[x]] for x in t)) <= w_end}
    return [w_start + off in hit for off in range(w_len)]


# a worker process's (plan, w_start, w_len), set once by _init_trial_worker
_worker_task: tuple | None = None


def _init_trial_worker(plan: tuple, w_start: int, w_len: int) -> None:
    global _worker_task
    _worker_task = (plan, w_start, w_len)


def _worker_trial(job: tuple[int, int]) -> tuple[int, list[bool]]:
    tau, trial_seed = job
    plan, w_start, w_len = _worker_task
    return tau, _trial_covered(plan, trial_seed, w_start, w_len)


def monte_carlo_coverage(
    params: Params,
    m_window: tuple[int, int],
    trials: int,
    threads: int = 1,
    seq: SidonSequence | None = None,
) -> CoverageReport:
    """Coverage of [start, start+length) by three-element sums: exact
    counts for the base build, plus the fraction of `trials`
    re-randomizations (fresh r and s digits, same e digits) covering each
    m. Deterministic given params.seed."""
    w_start, w_len = m_window
    if w_len < 0:
        raise ValueError("window length must be >= 0")
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    if seq is None:
        seq = build_sequence(params)
    vals = list(seq.values)
    if w_len and not vals:
        raise ValueError("the sequence is empty: no three-fold sum reaches the window")
    if w_len and not (3 * vals[0] <= w_start and w_start + w_len - 1 <= 3 * vals[-1]):
        raise ValueError("window outside the three-fold sum range of the build")

    # values are distinct, so index triples i <= j <= c are the multisets
    counts = [0] * w_len
    for t in _window_triples(vals, w_start, w_start + w_len - 1):
        counts[sum(vals[x] for x in t) - w_start] += 1
    uncovered = [w_start + off for off, cnt in enumerate(counts) if cnt == 0]

    seeds = tuple(_trial_seed(params.seed, tau) for tau in range(trials))
    freq = [0] * w_len
    jobs = [(tau, seeds[tau]) for tau in range(trials if w_len else 0)]
    plan = draw_plan(params, seq.entries)
    if threads > 1:
        with ProcessPoolExecutor(
            max_workers=threads, initializer=_init_trial_worker, initargs=(plan, w_start, w_len)
        ) as pool:
            results = list(pool.map(_worker_trial, jobs))
    else:
        results = [(tau, _trial_covered(plan, ts, w_start, w_len)) for tau, ts in jobs]
    for _, covered in sorted(results):
        for off, hit in enumerate(covered):
            if hit:
                freq[off] += 1
    frequencies = tuple(c / trials if trials else 0.0 for c in freq)
    return CoverageReport(
        window_start=w_start,
        window_length=w_len,
        trials=trials,
        counts=tuple(counts),
        uncovered=tuple(uncovered),
        frequencies=frequencies,
        trial_seeds=seeds,
    )
