"""Verification surface over built sequences.

verify_sidon reports colliding pairwise sums. sidon_certificate proves a
one-level sequence Sidon from the construction's digit laws, without a
pair-sum scan, when the level passes its sharpened pair margin (every r
digit lies in A, which build_sequence and seq_from_json guarantee); the
command line runs verify_sidon only when it declines. attribute_collision
explains a collision: it recovers the four entries (by binary search on
the values; a witness value outside the sequence is a ValueError), finds
how far up the y digits of the equal sums, total // W_{2i-1} mod p, stay
in A+A+{0,1} (two auxiliary digits plus a possible carry), checks the
product congruence modulo the shared moduli, and names the first
precondition margin that does not hold at the configured parameters.

decompose_many peels an array of large integers into digits <z y_k x_k
... y_1 x_1> of the sequence's mixed radix (driven by the auxiliary
y-table) in one array pass per level: the values stay Python integers in
numpy object arrays, so every % and // is exact, and level l works only
on the samples still above 6 p q^{2l-1}. The decompose subcommand peels
one integer this way. The decompose check of the command line (verify
--mode decompose) runs the peel in blocks of 1,024 samples and does not
trust it: per block it re-checks the level count, every x and z range,
the admissibility of every y against the bits of A+A+A, and that the
digits re-encode to m. monte_carlo_coverage counts
the exact three-element sums in a window and measures how often a window
of integers stays representable when the random digits are redrawn.

verify_sidon and monte_carlo_coverage share one pair-sum engine, exact
without Python sets of pair sums. Each value v gets the coarse key
v >> S, with S the least shift that keeps every sum of two (Sidon) or
three (coverage) keys below 2^62 in magnitude, so keys and their sums
fit int64; the keys come from one shift of the values as an object
array. Shifting floors, so keys keep the order of the values (values
may share a key), the keys of two equal pair sums differ by at most 1,
and a triple summing into [lo, hi] has its key sum in
[(lo >> S) - 2, hi >> S] (S = 0 makes the keys exact and both slacks
0). Every O(N^2) walk of the engine states its pairs as one i-range per
j and expands them with _pair_blocks: np.repeat and np.arange, in walk
order, at most _PAIR_BLOCK pairs at a time.

verify_sidon sorts the keys once and cuts the key sums of the N(N+1)/2
pairs into value buckets of at most _bucket_budget(N) sums (32 N, at
least 2^17 and at most _BUCKET_PAIRS), with edges from the quantiles of
a strided sample of pair sums. Per bucket it counts the sums before
forming any (a searchsorted per bound gives each j its i-range) and
cuts a bucket over budget shorter, then forms the sums block by block
into one reused buffer, sorts them in place and takes neighbour
differences in blocks, keeping only the key values at most 1 from a
neighbour. A bucket also takes the sums within that tolerance of its
range, so no edge separates two sums that may tie. With at most a
budget of pairs there is one bucket, all of them. A Sidon set has no
tie values, so the check ends there: O(N^2 log N) time and
O(N + _bucket_budget(N)) memory for every N. The pairs whose key is a
tie value are the candidates; the scan counts them and refuses more
than _CANDIDATE_LIMIT, which bounds the witness list. Otherwise the
sums are formed again in walk order, i = 0..j per j, and a searchsorted
per block into the sorted tie values locates the candidate pairs in
walk order.

The coverage window search keeps only the pairs i <= j that some
c >= j can complete into the window. The least such sum is
v_i + 2 v_j and the largest v_i + v_j + v_max, so with klo =
(lo >> S) - slack and khi = hi >> S a pair is kept when
keys[i] + 2 keys[j] <= khi and keys[i] + keys[j] + keys[-1] >= klo.
Floor keys make both bounds necessary: the key of a sum is at least the
sum of the keys and at most 2 above it, so no pair that reaches the
window is dropped. Per j each bound is one searchsorted over the
ascending keys (_reaching_ranges). Every |key| is below 2^62 / 3 + 1
and the window is clamped to [3 min, 3 max] of the values, so klo -
keys[-1] - keys and khi - 2 keys stay within about (5/3) 2^62 in
magnitude, well inside int64. Most kept pairs have no third element, so
one gather first tests whether any key may lie in a pair's
third-element range [klo - pair, khi - pair]: the key directory marks
the occupied buckets among about 64 N, each at least as wide as the key
window and OR'ed with its right neighbour, so a range meets only the
bucket of its start and the next. Only the pairs that pass run the two
searchsorteds that find the admissible third elements. Every candidate
the keys admit is re-checked with Python integers, so no answer rests
on a key.

A coverage trial re-draws the r and s digits of every entry from a draw
plan built once per run (builder.draw_plan): the e digits and the hash
messages do not change between trials. It
draws in two stages. builder.draw_bounds hashes only r_k and s of each
entry, two digests instead of k + 1, and bounds n exactly: the r_i with
i < k add between (min A) S_k and (max A) S_k, S_k = sum_{i<k}
W_{2i-1}. A triple whose exact sum lies in [lo, hi] has lower bounds
summing to at most hi and at least lo - 3 w, w the largest bound width,
so _window_triples over the lower bounds and [lo - 3 w, hi] finds
every hitting triple among its candidates; it orders the bounds by an
int64 argsort of their keys. builder.complete_draw then hashes r_1..r_{k-1}
of the candidates' entries only, and each candidate sum is checked
against [lo, hi] in Python integers. With threads > 1 a process pool of
at most one worker per trial runs the trials, and each worker receives
the plan once.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

from .auxset import YTable, _bits_of, _shift_sumset
from .builder import (
    KClassAudit,
    Params,
    SequenceEntry,
    SidonSequence,
    audit_preconditions,
    build_sequence,
    complete_draw,
    draw_bounds,
    digit_weights,
    draw_plan,
)
from .ffpoly import poly_mod, poly_mul

# after the package modules, so that numpy first loads through ffpoly:
# loading it ahead of them leaves the resident set about 0.3 MB larger
import numpy as np  # noqa: E402


@dataclass(frozen=True)
class CollisionWitness:
    n1: int
    n2: int
    n3: int
    n4: int

    def __post_init__(self):
        if self.n1 + self.n2 != self.n3 + self.n4:
            raise ValueError("witness sums differ")
        if {self.n1, self.n2} == {self.n3, self.n4}:
            raise ValueError("witness pairs coincide")


def _coarse_keys(vals, mult: int) -> tuple[int, np.ndarray]:
    """(S, keys) with keys[i] = vals[i] >> S and S the least shift that
    keeps every sum of `mult` keys below 2^62 in magnitude: one shift of
    the values as an object array of Python integers."""
    vals = np.asarray(vals, dtype=object)
    top = max(-vals.min(), vals.max()) if len(vals) else 0
    shift = max(0, (mult * top).bit_length() - 62)
    return shift, (vals >> shift).astype(np.int64)


# the most key sums one bucket of verify_sidon holds, 4 MiB of int64:
# the cap of _bucket_budget. A bucket one key sum wide is never cut, so
# it alone may hold more
_BUCKET_PAIRS = 1 << 19

# the most candidate pairs (pairs whose key sum lies at most the key
# tolerance from another pair's) verify_sidon re-checks: each may become
# a witness, so past this count the report would grow with N^2
_CANDIDATE_LIMIT = 1 << 18

# pairs per block where the engine works in blocks. Freed heap memory
# below the allocator's trim threshold stays resident, so temporaries of
# all pairs at once would raise the resident set of every later stage.
_PAIR_BLOCK = 1 << 13


def _bucket_budget(n: int) -> int:
    """The most key sums one bucket of verify_sidon holds for n values:
    32 n, at least 2^17 and at most _BUCKET_PAIRS. Sums are formed in
    blocks, so a bucket costs little beyond its sums, and a small N needs
    no 4 MiB buffer; from n = 16,384 on it is _BUCKET_PAIRS."""
    return min(_BUCKET_PAIRS, max(1 << 17, 32 * n))


def _pair_blocks(start: np.ndarray, stop: np.ndarray):
    """(i, j) arrays of the pairs start[j] <= i < stop[j], in walk order
    (j ascending, then i), in blocks of at most _PAIR_BLOCK pairs; an
    empty or reversed range has no pairs. A block may cut a j's range,
    and each range is expanded by np.repeat and np.arange."""
    width = np.maximum(stop - start, 0)
    ends = np.cumsum(width)  # pairs up to and including each j
    total = int(ends[-1]) if len(ends) else 0
    for p0 in range(0, total, _PAIR_BLOCK):
        p1 = min(p0 + _PAIR_BLOCK, total)
        # the j whose ranges hold the pairs p0 .. p1 - 1 of the walk
        j0 = int(np.searchsorted(ends, p0, side="right"))
        j1 = int(np.searchsorted(ends, p1 - 1, side="right")) + 1
        end = ends[j0:j1]
        begin = end - width[j0:j1]
        count = np.minimum(end, p1) - np.maximum(begin, p0)
        j = np.repeat(np.arange(j0, j1), count)
        i = np.repeat(start[j0:j1] - begin, count)
        i += np.arange(p0, p1)
        yield i, j


def _tie_values(sums: np.ndarray, tol: int) -> np.ndarray:
    """The sorted distinct values of the ascending sums that lie at most
    tol from a neighbour, from neighbour differences taken in blocks;
    each block keeps its distinct values only, so that sums that nearly
    all tie hold no more than their tie values."""
    found = []
    for k in range(0, len(sums) - 1, _PAIR_BLOCK):
        block = sums[k : k + _PAIR_BLOCK + 1]
        # a difference past int64 wraps negative and only adds candidates
        near = np.flatnonzero(np.diff(block) <= tol)
        if len(near):
            found.append(np.union1d(block[near], block[near + 1]))
    return np.unique(np.concatenate(found)) if found else np.empty(0, dtype=np.int64)


def _bucket_edges(sk: np.ndarray) -> list[int]:
    """Ascending key-sum edges from 2 sk[0] to 2 sk[-1] + 1 that cut the
    pair sums sk[i] + sk[j] (i <= j) of the ascending keys sk into
    buckets [e_b, e_{b+1}) of about 7/8 of the bucket budget (one bucket
    when all fit): the quantiles of the pair sums of a strided sample of
    sk, 256 sample sums per bucket but no more than the budget in all."""
    n = len(sk)
    lo, hi = 2 * int(sk[0]), 2 * int(sk[-1]) + 1
    pairs = n * (n + 1) // 2
    budget = _bucket_budget(n)
    if pairs <= budget:
        return [lo, hi]
    # below the budget, as the quantiles are estimates
    buckets = -(-8 * pairs // (7 * budget))
    size = min(n, 16 * math.isqrt(buckets) + 16, math.isqrt(budget))
    sample = sk[np.linspace(0, n - 1, size).astype(np.int64)]
    sums = np.add.outer(sample, sample).ravel()
    sums.sort()
    inner = sums[np.arange(1, buckets) * len(sums) // buckets].tolist()
    return sorted({lo, hi, *(v for v in inner if lo < v < hi)})


def _candidate_error(n: int, count: int) -> ValueError:
    return ValueError(
        f"{n} values have at least {count:,} candidate pairs, pair sums whose keys lie within the "
        f"key tolerance of another pair's, above the limit of {_CANDIDATE_LIMIT:,}"
    )


def _tie_sums(keys: np.ndarray, tol: int) -> np.ndarray:
    """The sorted distinct key sums keys[i] + keys[j] (i <= j) that lie
    at most tol from another pair's, one bucket of key sums at a time.

    Bucket [lo, hi) also takes the sums within tol of it, so each sum of
    the bucket meets every sum it may tie with, and keeps the tie values
    in [lo, hi). Per j of the ascending keys sk, two searchsorteds give
    the i-range [a_j, b_j), i <= j, of its sums in [lo - tol, hi + tol);
    a bucket with more sums than the budget (_bucket_budget) is cut
    shorter before anything is allocated. _pair_blocks expands the
    ranges, the sums fill one reused buffer a block at a time, and are
    sorted in place and differenced by _tie_values. With at most a
    budget of pair sums there is one bucket, all of them. Raises
    ValueError once more than _CANDIDATE_LIMIT pairs have a tie value."""
    n = len(keys)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    sk = np.sort(keys)
    budget = _bucket_budget(n)
    # |sk| < 2^61 and every edge lies in [2 sk[0], 2 sk[-1] + 1], so no
    # edge -+ tol - sk below overflows int64
    top = np.arange(1, n + 1)
    edges = _bucket_edges(sk)
    buf = np.empty(min(n * (n + 1) // 2, budget), dtype=np.int64)
    found = []
    candidates = 0
    lo, uppers = edges[0], edges[:0:-1]  # the next bucket's upper edge last
    while uppers:
        hi = uppers[-1]
        a = np.searchsorted(sk, lo - tol - sk)
        b = np.minimum(np.searchsorted(sk, hi + tol - sk), top)
        size = int(np.maximum(b - a, 0).sum())
        if size > budget and hi - lo > 1:
            # cut where 7/8 of the budget would lie if the sums were even;
            # the rest joins the next bucket
            cut = lo + max(1, (hi - lo) * 7 * budget // (8 * size))
            if len(uppers) > 1:
                uppers[-1] = cut
            else:
                uppers.append(cut)
            continue
        if size > len(buf):
            # one key sum wide: its sums lie in 2 tol + 1 values, so that
            # many of them are equal and therefore candidates
            if size // (2 * tol + 1) > _CANDIDATE_LIMIT:
                raise _candidate_error(n, size // (2 * tol + 1))
            buf = np.empty(size, dtype=np.int64)
        end = 0
        for i, j in _pair_blocks(a, b):
            part = buf[end : end + len(i)]
            np.take(sk, i, out=part, mode="clip")  # "raise" would buffer the output
            part += sk[j]
            end += len(i)
        sums = buf[:size]
        sums.sort()
        ties = _tie_values(sums, tol)
        ties = ties[(ties >= lo) & (ties < hi)]
        candidates += int((np.searchsorted(sums, ties, side="right") - np.searchsorted(sums, ties)).sum())
        if candidates > _CANDIDATE_LIMIT:
            raise _candidate_error(n, candidates)
        found.append(ties)
        lo = uppers.pop()
    return np.concatenate(found)


def verify_sidon(values) -> list[CollisionWitness]:
    """Empty iff all pairwise sums (i <= j) are distinct. Each collision is
    reported against the first pair holding that sum in the walk j = 0,
    1, ..., i = 0..j, and the witnesses come in the order of that walk.
    Memory is O(N + _bucket_budget(N)) beside the witnesses; raises
    ValueError when more than _CANDIDATE_LIMIT pairs are candidates."""
    vals = list(values)
    if len(set(vals)) != len(vals):
        raise ValueError("values must be distinct")
    shift, keys = _coarse_keys(vals, 2)
    ties = _tie_sums(keys, 1 if shift else 0)
    if not len(ties):
        return []
    # the candidates are the pairs whose key is a tie value; formed again
    # in walk order by _pair_blocks, a searchsorted per block finds them
    # in that order
    n = len(vals)
    first: dict[int, tuple[int, int]] = {}
    out = []
    for ii, jj in _pair_blocks(np.zeros(n, dtype=np.int64), np.arange(1, n + 1)):
        block = keys[ii] + keys[jj]
        at = np.minimum(np.searchsorted(ties, block), len(ties) - 1)
        pos = np.flatnonzero(ties[at] == block)
        for i, j in zip(ii[pos].tolist(), jj[pos].tolist()):
            pair = (vals[i], vals[j])
            prior = first.setdefault(pair[0] + pair[1], pair)
            if prior != pair:
                out.append(CollisionWitness(*prior, *pair))
    return out


def sidon_certificate(seq: SidonSequence) -> KClassAudit | None:
    """The audit of the one level of seq when the construction's digit laws
    prove seq Sidon without a pair-sum scan; None when they do not, and
    verify_sidon must decide. The proof needs three conditions:

    - every entry lies at one level k, so every pair is same-level;
    - the level passes its sharpened pair margin
      (KClassAudit.sharpened_pair_margin): 2 max deg f < k^2, or one
      degree d in the window with 2 d <= k^2;
    - 2 max A + 1 < p with A >= 0 (which aux_from_json enforces through
      A inside {1..floor(p/2)-1}; an AuxSet made otherwise need not).

    It takes five facts from seq_from_json (or build_sequence): the moduli
    are build_moduli(params), so g_1..g_k are coprime of degrees 1, 3,
    ..., 2k-1 and G_k = g_1...g_k has degree k^2; e holds the table logs
    of f, so 0 <= e_i < R_i = q^{2i-1} - 1; every r digit lies in A; n
    re-encodes from its digits <s r_k e_k ... r_1 e_1>; and no f appears
    twice.

    Then the pair sum of two entries has the digits (e_i + e_i') mod R_i,
    r_i + r_i' + carry_i and s + s' on top: e_i + e_i' < 2 R_i carries at
    most 1, and r_i + r_i' + 1 < p carries nothing. Equal pair sums have
    equal digits, so equal logs mod every g_i, so f_1 f_2 = f_3 f_4 mod
    G_k. Both products are monic of degree at most 2 max deg f; under (c)
    that is below k^2, and in the one-degree form both have degree 2d <=
    k^2, so their difference has degree below k^2. Either way the
    products are equal, unique factorization gives {f_1, f_2} = {f_3,
    f_4}, and since no f repeats, the two pairs are one."""
    if len(seq.levels) != 1:
        return None
    (columns,) = seq.levels
    level = next(cls for cls in audit_preconditions(seq.params).classes if cls.k == columns.k)
    if level.sharpened_pair_margin() is None:
        return None
    aux = seq.params.aux
    if min(aux.A) < 0 or 2 * max(aux.A) + 1 >= aux.p:
        return None
    return level


@dataclass(frozen=True)
class CollisionAudit:
    witness: CollisionWitness
    left: tuple[SequenceEntry, SequenceEntry]
    right: tuple[SequenceEntry, SequenceEntry]
    boundary_index: int  # last low position whose y digit is a shifted pair sum
    products_congruent: bool
    shared_levels: int
    failed_margin: str


def _resolve_entry(seq: SidonSequence, n: int) -> SequenceEntry:
    """The entry of seq with value n, found by binary search on its
    values; ValueError when n is no value of seq."""
    at = bisect.bisect_left(seq.values, n)
    if at == len(seq.values) or seq.values[at] != n:
        raise ValueError(f"witness value {n} is not a value of the sequence")
    return seq.entries[at]


def attribute_collision(seq: SidonSequence, w: CollisionWitness) -> CollisionAudit:
    """Audit of one collision; see module docstring. The boundary index
    is the largest i <= max level such that the y digits 1..i of the
    equal sums, total // W_{2j-1} mod p, all lie in A+A+{0,1}."""
    e1, e2 = _resolve_entry(seq, w.n1), _resolve_entry(seq, w.n2)
    e3, e4 = _resolve_entry(seq, w.n3), _resolve_entry(seq, w.n4)
    if e1.k < e2.k:
        e1, e2 = e2, e1
    if e3.k < e4.k:
        e3, e4 = e4, e3
    params = seq.params
    p = params.aux.p
    total = e1.n + e2.n
    top_k = max(e1.k, e3.k)
    weights = digit_weights(params, 2 * top_k)
    pair_sums = _shift_sumset(_bits_of(params.aux.A), params.aux.A)
    pair_sums |= pair_sums << 1
    boundary = 0
    while boundary < top_k and pair_sums >> (total // weights[2 * boundary + 1] % p) & 1:
        boundary += 1

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
        boundary_index=boundary,
        products_congruent=congruent,
        shared_levels=shared,
        failed_margin=failed,
    )


@dataclass(frozen=True)
class Peel:
    """decompose_many's peel of an array of m. levels[l - 1] holds, for
    level l, the indices of the samples peeled at l (ascending, a subset
    of those of level l - 1) with their x_l (Python integers) and y_l
    (int64) digits; k and z give per sample its level count and its top
    digit."""

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
    import hashlib  # here, not at the top: OpenSSL loads with it

    h = hashlib.blake2b(
        f"coverage-trial|{tau}".encode(),
        key=(seed & (2**64 - 1)).to_bytes(8, "little"),
        digest_size=8,
    ).digest()
    return int.from_bytes(h, "little") >> 1


def _reaching_ranges(keys: np.ndarray, klo: int, khi: int) -> tuple[np.ndarray, np.ndarray]:
    """Per j, the i-range [start_j, stop_j) of the pairs i <= j with
    keys[i] + 2 keys[j] <= khi and keys[i] + keys[j] + keys[-1] >= klo:
    the pairs that some c >= j may complete into a key window [klo, khi].
    Each bound cuts its range out of the ascending keys by one
    searchsorted."""
    stop = np.minimum(np.searchsorted(keys, khi - 2 * keys, side="right"), np.arange(1, len(keys) + 1))
    start = np.searchsorted(keys, klo - keys[-1] - keys)
    return start, stop


def _key_directory(keys: np.ndarray, width: int):
    """A test of whether any of the ascending keys lies in [x, x + width
    - 1], for keys[0] - width < x <= keys[-1] elementwise: False only
    when none does. The keys' range is cut into buckets of width 2^t, at
    least width and about span / (64 N), so an interval meets only x's
    bucket and the next, and the test is one gather from the occupancy
    of each bucket OR'ed with that of its right neighbour."""
    k0 = int(keys[0])
    span = int(keys[-1]) - k0
    t = max((width - 1).bit_length(), (span // (64 * len(keys))).bit_length())
    # bucket b + 1 holds the keys in k0 + [b 2^t, (b + 1) 2^t); bucket 0
    # takes the x below k0. span < 2^63, so no key - k0 overflows. A
    # window wider than 2^63 gives t = 64, where numpy's shift, as
    # Python's, yields 0 or -1: one bucket, and every test passes
    occupied = np.zeros((span >> t) + 3, dtype=bool)
    occupied[((keys - k0) >> t) + 1] = True
    near = occupied[:-1] | occupied[1:]
    return lambda x: near[((x - k0) >> t) + 1]


def _window_triples(vals, lo: int, hi: int) -> list[tuple[int, int, int]]:
    """Every triple of positions of vals (Python integers) whose values
    sum into [lo, hi], each multiset of positions once: (o_i, o_j, o_c)
    for i <= j <= c, with o the positions in the order of the coarse
    keys (a stable argsort, the identity for ascending vals), in walk
    order (j, then i, then c) of that order."""
    if not len(vals):
        return []
    vals = np.asarray(vals, dtype=object)
    # in key order, equal keys may put a larger value first, so the
    # window is clamped by the true extremes
    lo, hi = max(lo, 3 * vals.min()), min(hi, 3 * vals.max())
    if lo > hi:
        return []
    shift, keys = _coarse_keys(vals, 3)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    vals, order = vals[order].tolist(), order.tolist()
    klo, khi = (lo >> shift) - (2 if shift else 0), hi >> shift
    has_key = _key_directory(keys, khi - klo + 1)
    # the key of the first c >= j in range; past the end it admits nothing
    heads = np.append(keys, np.iinfo(np.int64).max)
    out = []
    for ii, jj in _pair_blocks(*_reaching_ranges(keys, klo, khi)):
        pair = keys[ii] + keys[jj]
        # the pairs that may have a third element: a key in [klo - pair,
        # khi - pair]. A reaching pair keeps klo - pair in (keys[0] -
        # (khi - klo + 1), keys[-1]], the directory's domain
        keep = np.flatnonzero(has_key(klo - pair))
        ii, jj, pair = ii[keep], jj[keep], pair[keep]
        first = np.maximum(np.searchsorted(keys, klo - pair), jj)
        room = np.subtract(khi, pair, out=pair)
        pos = np.flatnonzero(heads[first] <= room)
        stop = np.searchsorted(keys, room[pos], side="right")
        for i, j, c0, c1 in zip(ii[pos].tolist(), jj[pos].tolist(), first[pos].tolist(), stop.tolist()):
            ab = vals[i] + vals[j]
            out.extend((order[i], order[j], order[c]) for c in range(c0, c1) if lo <= ab + vals[c] <= hi)
    return out


def _trial_covered(plan: tuple, trial_seed: int, w_start: int, w_len: int) -> list[bool]:
    """Which m of the window a re-draw under trial_seed covers. Stage one
    draws only r_k and s of every entry (builder.draw_bounds), so each n
    is known up to its width; the triples of lower bounds in the window
    widened down by 3 widths are the candidates, and only their entries
    draw the rest of their digits (builder.complete_draw) before each
    candidate sum is checked exactly."""
    w_end = w_start + w_len - 1
    low, width = draw_bounds(plan, trial_seed)
    near = _window_triples(low, w_start - 3 * width, w_end)
    wanted = sorted({x for t in near for x in t})
    value = dict(zip(wanted, complete_draw(plan, trial_seed, low, wanted)))
    hit = {m for t in near if w_start <= (m := sum(value[x] for x in t)) <= w_end}
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
    plan = draw_plan(seq)
    # no more workers than trials: the pool forks all of them at once
    workers = min(threads, len(jobs))
    if workers > 1:
        # imported here, as it loads multiprocessing, which no other path
        # of the package needs
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(
            max_workers=workers, initializer=_init_trial_worker, initargs=(plan, w_start, w_len)
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
