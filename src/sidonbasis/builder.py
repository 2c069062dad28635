"""Assembly of the Sidon sequence.

For each level k, the members are the monic irreducibles f of even degree
in a window proportional to k^2 (fk_degrees). Every f is turned into an
integer n_f by packing, least significant first, the digit vector

    <s  r_k e_k  ...  r_1 e_1>

into the alternating mixed radix (q^i - 1, p), whose place weights W_i
are formed in one place, digit_weights: e_i is the discrete log of f
modulo the fixed odd-degree modulus g_i, r_i is drawn from the auxiliary
set A, and the top digit s is drawn from {1, ..., q^{3k}}. The r and s
digits come from a keyed-hash counter RNG so every (f, digit) pair is an
independent, reproducible draw.

A sequence (SidonSequence) is held as columns, one SequenceLevel per
level: the codes of its f (Poly.code), its e and r digit matrices, s and
n as Python integers in object arrays, and the place of each row in one
order by n. No object is kept per entry: SidonSequence.entries makes a
SequenceEntry view of a row when one is read, and a Poly only when its f
is read.

The members of each degree are one cached MemberTable per (q, degree):
sieve codes and canonical names (ffpoly.code_names), with name ->
position; their Poly objects are made on first request, by the decode
indexes. The e digits of a whole level are its members' discrete-log
coordinates mod g_1..g_k, by unitgroup.log_coordinates. No g_i divides a
member, so every e digit is a log: a member is an irreducible of even
degree >= 2 and g_i one of odd degree. The r and s digits are drawn by
one routine, _draw_digits, over chosen rows (members) and
tags (digits) of a level's table of hash messages, which carry the
members' names: one keyed blake2b state, a copy of it per chosen
message, the digests written into one uint64 word array and reduced
exactly. _encode is the one map from digits to n (s W_{2k} plus the
lower digits, summed in int64 while W_{2k} <= 2^62). The
build draws every digit of a level through _draw_digits, forms n by
_encode and stores the arrays it drew as the level's columns. A coverage
trial (draw_plan) draws in two stages through the same routine:
draw_bounds hashes only r_k and s of every entry and forms low by
_encode with r_1..r_{k-1} at min A, which puts n in [low, low + (max A -
min A) S_k] with S_k = W_1 + W_3 + ... + W_{2k-3}, and complete_draw
hashes r_1..r_{k-1} of the entries whose bounds can reach the window
only. seq_from_json admits only digits a build can write (0 <= e_i <
R_i, r inside A), checked a whole list or a level at a time, so every e
and r column is int64, built or loaded. seq_json_chunks writes a sequence
file from the columns by template, byte for byte as
json.dumps(indent=2), as a stream of chunks of _ENTRY_BLOCK entries,
so that the text of a large file is never held whole.

The map f -> n_f is injective and invertible: decode_entry peels the
digits back off, top first, and looks the e digits up in its level's
decode index, the members of the window below degree k^2 keyed by their
e digits, read as one integer in the mixed radix of the unit-group
orders q^(2i-1) - 1 (by CRT, a polynomial of degree < k^2 = sum deg g_i
is determined by its residues mod g_1..g_k). The moduli are cached per
(q, k_max), the decode indexes per (moduli, q, window), decode_entry's
set-up per (params, moduli), the member tables per (q, degree); the
digit weights, level brackets and degree windows per Params.
audit_preconditions reports the concrete degree margins that the
collision-freeness argument needs at the configured parameters.
"""

from __future__ import annotations

import collections.abc
import dataclasses
import functools
import itertools
import json
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .auxset import AuxSet, aux_from_json, aux_to_json, json_field, json_value
from .ffpoly import (
    ENUM_CAP,
    Poly,
    PrimeModulus,
    code_names,
    enumerate_irreducibles,
    exceeds_enum_cap,
    irreducible_codes,
    poly_from_string,
    poly_to_string,
    smallest_irreducible,
)
from .unitgroup import Generator, find_generator, log_coordinates

# after the package modules, so that numpy first loads through ffpoly, as
# in analyzer
import numpy as np  # noqa: E402

SCALED_MODE_WARNING = (
    "scaled parameters: the asymptotic guarantees assume far larger q and k "
    "than any desk-scale run; margins that concretely hold are listed by the "
    "precondition audit"
)


class DecodeError(ValueError):
    """Value does not decode to any valid sequence entry."""


@dataclass(frozen=True)
class Params:
    q: PrimeModulus
    aux: AuxSet
    c: Fraction = Fraction(7, 20)
    k_min: int = 3
    k_max: int = 4
    seed: int = 0
    strict: bool = False

    def __post_init__(self):
        if self.q.q < 3:
            raise ValueError("q must be >= 3")
        if not isinstance(self.c, Fraction):
            try:
                c = Fraction(self.c)
            except (ValueError, ZeroDivisionError):
                raise ValueError(f"c = {self.c!r} is not a fraction") from None
            object.__setattr__(self, "c", c)
        if not 1 <= self.k_min <= self.k_max:
            raise ValueError(f"bad level range [{self.k_min}, {self.k_max}]")
        if self.strict:
            if not (Fraction(1, 3) < self.c and (3 - 2 * self.c) ** 2 > 5):
                raise ValueError(f"strict mode: c = {self.c} outside the open interval")
            if min(self.q.q, self.k_min) <= 100 * self.aux.p:
                raise ValueError(
                    "strict mode requires min(q, k_min) > 100 p; these parameters "
                    "are desk-scale, run with strict=False"
                )
        # the lru_caches keyed by Params hash it on every lookup, and hashing
        # the fields (the Fraction c, all of A) costs microseconds
        object.__setattr__(self, "_hash", hash(self._fields()))

    def _fields(self) -> tuple:
        return tuple(getattr(self, f.name) for f in dataclasses.fields(self))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # rebuilt from the fields, not with the cached hash: str hashes
        # (AuxSet.method) differ from one process to the next
        return Params, self._fields()


@dataclass(frozen=True)
class ModuliTable:
    generators: tuple[Generator, ...]

    def __post_init__(self):
        # decode_entry's lru_cache is keyed by the moduli and hashes them
        # on every value; hashing the generators' Poly fields costs
        # microseconds. Their hash rests on integers only, so it is the
        # same in every process.
        object.__setattr__(self, "_hash", hash(self.generators))

    def __hash__(self) -> int:
        return self._hash

    def g(self, i: int) -> Poly:
        return self.generators[i - 1].g

    def omega(self, i: int) -> Poly:
        return self.generators[i - 1].omega

    def __len__(self) -> int:
        return len(self.generators)


@dataclass(frozen=True, eq=False)
class SequenceLevel:
    """The entries of one level k of a sequence as columns, rows in
    ascending n: codes holds Poly.code of each f (with its leading
    q^deg f, int64), e and r the digits (k columns each, int64, with
    0 <= e_i < R_i = q^(2i-1) - 1 and r_i in A when built or loaded), s
    and n Python integers in object arrays, and positions the place of
    each row in the sequence's order by n."""

    q: PrimeModulus
    k: int
    codes: np.ndarray
    e: np.ndarray
    r: np.ndarray
    s: np.ndarray
    n: np.ndarray
    positions: np.ndarray

    def columns(self) -> tuple[np.ndarray, ...]:
        return self.codes, self.e, self.r, self.s, self.n, self.positions

    def __len__(self) -> int:
        return len(self.n)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SequenceLevel):
            return NotImplemented
        return (self.q, self.k) == (other.q, other.k) and all(
            np.array_equal(a, b) for a, b in zip(self.columns(), other.columns())
        )

    __hash__ = None


class SequenceEntry:
    """One entry of a sequence, read on request from its level's columns:
    f (a Poly made from its code when read), k, e and r (tuples), s and n.
    Two entries are equal when all six are."""

    __slots__ = ("level", "row")

    def __init__(self, level: SequenceLevel, row: int):
        self.level = level
        self.row = row

    @property
    def f(self) -> Poly:
        return Poly.from_code(self.level.q, int(self.level.codes[self.row]))

    @property
    def k(self) -> int:
        return self.level.k

    @property
    def e(self) -> tuple[int, ...]:
        return tuple(self.level.e[self.row].tolist())

    @property
    def r(self) -> tuple[int, ...]:
        return tuple(self.level.r[self.row].tolist())

    @property
    def s(self) -> int:
        return self.level.s[self.row]

    @property
    def n(self) -> int:
        return self.level.n[self.row]

    def _fields(self) -> tuple:
        return self.level.q, self.k, int(self.level.codes[self.row]), self.e, self.r, self.s, self.n

    def __eq__(self, other) -> bool:
        if not isinstance(other, SequenceEntry):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        return f"SequenceEntry(f={self.f}, k={self.k}, e={self.e}, r={self.r}, s={self.s}, n={self.n})"


class SequenceEntries(collections.abc.Sequence):
    """SidonSequence.entries: the entries in ascending n, each a
    SequenceEntry made when it is read. A slice is a tuple of them."""

    __slots__ = ("_seq",)

    def __init__(self, seq: SidonSequence):
        self._seq = seq

    def __len__(self) -> int:
        return len(self._seq.values)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self[j] for j in range(*i.indices(len(self))))
        level_of, row_of = self._seq._where
        return SequenceEntry(self._seq.levels[level_of[i]], int(row_of[i]))

    def __iter__(self):
        level_of, row_of = self._seq._where
        return map(SequenceEntry, map(self._seq.levels.__getitem__, level_of.tolist()), row_of.tolist())

    def __eq__(self, other) -> bool:
        if not isinstance(other, (SequenceEntries, tuple)):
            return NotImplemented
        return tuple(self) == tuple(other)

    __hash__ = None

    def __repr__(self) -> str:
        return f"SequenceEntries({len(self)} entries)"


@dataclass(frozen=True, eq=False)
class SidonSequence:
    """A built or loaded sequence: its levels as columns (SequenceLevel,
    ascending k), which together hold every entry once in one order by
    n. values and entries read them in that order."""

    params: Params
    moduli: ModuliTable
    levels: tuple[SequenceLevel, ...]
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        size = sum(map(len, self.levels))
        level_of = np.full(size, -1, dtype=np.intp)
        row_of = np.empty(size, dtype=np.intp)
        values = np.empty(size, dtype=object)
        for i, level in enumerate(self.levels):
            at = level.positions
            if len(at) and (at.min() < 0 or at.max() >= size or (level_of[at] >= 0).any()):
                raise ValueError("the levels' positions do not place every entry once")
            if (at[1:] <= at[:-1]).any():
                raise ValueError("a level's positions must ascend")
            level_of[at] = i
            row_of[at] = np.arange(len(at))
            values[at] = level.n
        if (values[1:] <= values[:-1]).any():
            raise ValueError("entries must be sorted by n with no duplicates")
        object.__setattr__(self, "values", tuple(values.tolist()))
        object.__setattr__(self, "_where", (level_of, row_of))

    @property
    def entries(self) -> SequenceEntries:
        return SequenceEntries(self)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SidonSequence):
            return NotImplemented
        return (self.params, self.moduli, self.levels, self.warnings) == (
            other.params,
            other.moduli,
            other.levels,
            other.warnings,
        )

    __hash__ = None


def build_moduli(params: Params) -> ModuliTable:
    """g_i = smallest monic irreducible of degree 2i-1, with its smallest
    full-order residue, for i = 1..k_max. Cached per (q, k_max)."""
    return _moduli(params.q, params.k_max)


@functools.lru_cache(maxsize=64)
def _moduli(q: PrimeModulus, k_max: int) -> ModuliTable:
    return ModuliTable(
        tuple(find_generator(smallest_irreducible(q, 2 * i - 1)) for i in range(1, k_max + 1))
    )


@functools.lru_cache(maxsize=256)
def fk_degrees(params: Params, k: int) -> tuple[int, ...]:
    """Even degrees m with c k^2 <= m < c (k+1)^2, exact arithmetic."""
    return tuple(_even_degrees(params.c * k * k, params.c * (k + 1) * (k + 1)))


def _even_degrees(lo: Fraction, hi: Fraction) -> range:
    """The even m with lo <= m < hi, as a range, never listed here."""
    return range(2 * math.ceil(lo / 2), 2 * math.ceil(hi / 2) - 1, 2)


def _check_windows(params: Params) -> None:
    """ValueError, from c, k_min and k_max alone, when q^m exceeds ENUM_CAP
    for the top degree m of the level windows, which tile [c k_min^2,
    c (k_max+1)^2): no member table of m can be built, and a huge c would
    first list millions of degrees (fk_degrees)."""
    top = _even_degrees(params.c * params.k_min**2, params.c * (params.k_max + 1) ** 2)[-1:]
    if top and exceeds_enum_cap(params.q.q, top[0]):
        raise ValueError(
            f"c = {params.c}: the level windows reach degree {top[0]}; q^{top[0]} exceeds ENUM_CAP = {ENUM_CAP}"
        )


@dataclass(frozen=True, eq=False)
class MemberTable:
    """The monic irreducibles of one degree d over F_q in code order: their
    sieve codes (without the leading q^d) and canonical names
    (poly_to_string, by code_names), with name -> position. Their Poly
    objects are made on first request, by the decode indexes."""

    q: PrimeModulus
    degree: int
    codes: np.ndarray
    names: tuple[str, ...]
    index: dict[str, int]

    @functools.cached_property
    def polys(self) -> tuple[Poly, ...]:
        return tuple(enumerate_irreducibles(self.q, self.degree))


@functools.lru_cache(maxsize=64)
def member_table(q: PrimeModulus, d: int) -> MemberTable:
    """The MemberTable of degree d over F_q, built once per process from
    the cached sieve and shared by every Params with this q."""
    codes = irreducible_codes(q, d)
    names = tuple(code_names(q.q, codes + q.q**d, d + 1))
    return MemberTable(q, d, codes, names, {name: i for i, name in enumerate(names)})


def level_tables(params: Params, k: int) -> list[MemberTable]:
    """The member tables of the degrees of the level k window."""
    return [member_table(params.q, m) for m in fk_degrees(params, k)]


def _digit_hasher(seed: int):
    """The keyed blake2b state of the counter RNG under seed (keyed by the
    seed's low 64 bits, 16-byte digests). A draw hashes its message on a
    copy, which gives the one-shot keyed digest without setting up the key
    again."""
    import hashlib  # here, not at the top: OpenSSL loads with it

    return hashlib.blake2b(key=(seed & (2**64 - 1)).to_bytes(8, "little"), digest_size=16)


def _residues(words: np.ndarray, m: int) -> np.ndarray:
    """(hi 2^64 + lo) mod m, exactly, for the little-endian 128-bit
    digests whose (lo, hi) uint64 halves are words[..., 0] and
    words[..., 1]. In uint64 while m < 2^32, where a product of two
    residues still fits; in Python integers otherwise. The Python-integer
    path alone is exact for every m, but it makes one integer object per
    digest, which slows a desk coverage re-draw and raises the resident
    peak of a desk pass."""
    lo, hi = words[..., 0], words[..., 1]
    if m < 2**32:
        m64 = np.uint64(m)
        out = hi % m64
        out *= np.uint64(2**64 % m)
        out %= m64
        out += lo % m64
        out %= m64
        return out
    return (hi.astype(object) << 64 | lo.astype(object)) % m


def _level_messages(names, k: int) -> np.ndarray:
    """The hash messages of the r and s draws of members at level k, given
    their names, as a (members, k + 1) object array: row u holds
    "name|r1", ..., "name|rk" and "name|s" of member u."""
    tags = [f"|r{i}" for i in range(1, k + 1)] + ["|s"]
    msgs = ((name + tag).encode() for name in names for tag in tags)
    return np.fromiter(msgs, dtype=object, count=len(names) * (k + 1)).reshape(-1, k + 1)


def _level_names(level: SequenceLevel) -> list[str]:
    """The canonical names (poly_to_string) of the f of level, by
    code_names from their codes."""
    if not len(level):
        return []
    width = 1
    while level.q.q**width <= level.codes.max():
        width += 1
    return code_names(level.q.q, level.codes, width)


def _draw_digits(
    a_elems: np.ndarray, k: int, s_range: int, hasher, msgs: np.ndarray, rows, tags: slice
) -> np.ndarray:
    """The digits of the members `rows` of a level k whose tags (column
    positions of _level_messages: i - 1 for r_i, k for s) lie in the
    slice tags, drawn by the keyed counter RNG whose state is hasher (see
    _digit_hasher) from their hash messages msgs[rows, tags]: r_i =
    A[h mod |A|] and s = 1 + h mod s_range (that is q^{3k}) for the
    128-bit digest h of each message. One object array of Python
    integers, a row per member and a column per tag. Only the chosen
    messages are hashed."""
    chosen = msgs[rows, tags]
    # the digests go straight into the word array: a buffer grown digest
    # by digest is reallocated as it grows, and the holes it leaves in the
    # heap keep the resident set of the later stages larger
    words = np.empty((*chosen.shape, 2), dtype="<u8")
    view = memoryview(words).cast("B")
    for at, msg in zip(range(0, view.nbytes, 16), chosen.flat, strict=True):
        h = hasher.copy()
        h.update(msg)
        view[at : at + 16] = h.digest()
    # the tags are consecutive, so the r columns come first
    n_r = len(range(k)[tags])
    out = np.empty(chosen.shape, dtype=object)
    out[:, :n_r] = a_elems[_residues(words[:, :n_r], len(a_elems)).astype(np.intp)]
    if n_r < chosen.shape[1]:
        out[:, n_r] = 1 + _residues(words[:, n_r], s_range)
    return out


def _encode(params: Params, k: int, e: np.ndarray, r: np.ndarray, s: np.ndarray) -> np.ndarray:
    """n of rows of digits <s r_k e_k ... r_1 e_1>, the sum of every digit
    times its weight in digit_weights, as Python integers in an object
    array: s W_{2k} plus the digits below it, summed by Horner's rule
    over the digit pairs e_i + r_i R_i (W_{2i-1} = W_{2i-2} R_i, W_{2i} =
    W_{2i-1} p). e and r are int64 with 0 <= e_i < R_i and r_i in A, as
    the build draws them and seq_from_json admits them, so every pair
    lies in [0, R_i p), below 2^35 (DLOG_SCAN_LIMIT, AUX_P_CAP); their
    sum is in int64 when it stays below W_{2k} <= 2^62, and in Python
    integers otherwise."""
    weights = digit_weights(params)
    radices = np.array([weights[2 * i - 1] // weights[2 * i - 2] for i in range(1, k + 1)], dtype=np.int64)
    pairs = e + r * radices
    low = pairs[:, k - 1] if weights[2 * k] <= 2**62 else pairs[:, k - 1].astype(object)
    for i in range(k - 1, 0, -1):
        low = low * (weights[2 * i] // weights[2 * i - 2]) + pairs[:, i - 1]
    return s * weights[2 * k] + low


@functools.lru_cache(maxsize=64)
def digit_weights(params: Params, count: int | None = None) -> tuple[int, ...]:
    """W_0, ..., W_{count - 1} of the alternating mixed radix: W_i = b_1
    b_2 ... b_i with b_i = q^i - 1 for odd i and b_i = p for even i, the
    weight of digit position i + 1. count defaults to 2 k_max + 2: the
    weight of every digit position of a built entry, and of the one
    above."""
    q, p = params.q.q, params.aux.p
    weights = [1]
    for i in range(1, 2 * params.k_max + 2 if count is None else count):
        weights.append(weights[-1] * (q**i - 1 if i % 2 else p))
    return tuple(weights)


def draw_plan(seq: SidonSequence) -> tuple:
    """The seed-invariant part of re-drawing the r and s digits of the
    entries of seq: its params, and per level the positions of its
    entries, their e digits and their hash messages (_level_messages). A
    coverage trial draws from it in two stages, draw_bounds and
    complete_draw."""
    plan = tuple(
        (level.positions, level.e, _level_messages(_level_names(level), level.k)) for level in seq.levels
    )
    return seq.params, plan


def draw_bounds(plan: tuple, seed: int) -> tuple[list[int], int]:
    """(low, width): the first stage of re-drawing the entries of plan
    under seed, as build_sequence draws them. Only r_k and s are hashed;
    with S_k = W_1 + W_3 + ... + W_{2k-3}, the weight of the digits r_1..
    r_{k-1} that are not drawn yet, an entry's n lies in [low, low + (max
    A - min A) S_k], low being _encode of its digits with r_1..r_{k-1}
    set to min A. low is per entry and width the largest (max A - min A)
    S_k of the levels present."""
    params, levels = plan
    a_elems = np.array(params.aux.A, dtype=object)
    a_min, a_max = min(params.aux.A), max(params.aux.A)
    weights = digit_weights(params)
    hasher = _digit_hasher(seed)
    low = np.empty(sum(len(positions) for positions, _, _ in levels), dtype=object)
    width = 0
    for positions, e, msgs in levels:
        k = e.shape[1]
        top = _draw_digits(a_elems, k, params.q.q ** (3 * k), hasher, msgs, slice(None), slice(k - 1, k + 1))
        r = np.full(e.shape, a_min, dtype=np.int64)
        r[:, k - 1] = top[:, 0]
        low[positions] = _encode(params, k, e, r, top[:, 1])
        width = max(width, (a_max - a_min) * sum(weights[1 : 2 * k - 2 : 2]))
    return low.tolist(), width


def complete_draw(plan: tuple, seed: int, low: list[int], wanted: list[int]) -> list[int]:
    """The second stage: n of the entries of plan at the ascending
    positions wanted, from their draw_bounds lows under the same seed,
    with r_1..r_{k-1} hashed for those entries only: n = low +
    sum_{i<k} (r_i - min A) W_{2i-1}."""
    params, levels = plan
    a_elems = np.array(params.aux.A, dtype=object)
    a_min = min(params.aux.A)
    weights = digit_weights(params)
    hasher = _digit_hasher(seed)
    out = np.array([low[pos] for pos in wanted], dtype=object)
    for positions, e, msgs in levels:
        k = e.shape[1]
        rows = np.flatnonzero(np.isin(positions, wanted))
        if k > 1 and rows.size:
            r = _draw_digits(a_elems, k, params.q.q ** (3 * k), hasher, msgs, rows, slice(0, k - 1))
            r_weights = np.array(weights[1 : 2 * k - 2 : 2], dtype=object)
            out[np.searchsorted(wanted, positions[rows])] += (r - a_min) @ r_weights
    return out.tolist()


def build_sequence(params: Params) -> SidonSequence:
    _check_windows(params)
    moduli = build_moduli(params)
    warnings: list[str] = [] if params.strict else [SCALED_MODE_WARNING]
    drawn: list[SequenceLevel] = []  # rows in member order, positions unset
    a_elems = np.array(params.aux.A, dtype=object)
    hasher = _digit_hasher(params.seed)
    for k in range(params.k_min, params.k_max + 1):
        tables = level_tables(params, k)
        if not tables:
            warnings.append(f"level k={k} is empty (no even degree in its window)")
            continue
        names = [name for table in tables for name in table.names]
        codes = np.concatenate([table.codes + params.q.q**table.degree for table in tables])
        e = log_coordinates(moduli.generators[:k], codes, 1 + tables[-1].degree)
        msgs = _level_messages(names, k)
        digits = _draw_digits(a_elems, k, params.q.q ** (3 * k), hasher, msgs, slice(None), slice(None))
        r, s = digits[:, :k].astype(np.int64), digits[:, k]
        n = _encode(params, k, e, r, s)
        drawn.append(SequenceLevel(params.q, k, codes, e, r, s, n, np.empty(len(n), np.intp)))
    # one order by n over the rows of all levels, taken one level after
    # another, and each level's rows follow it. Python sorts it: numpy's
    # sort of an object array touches code that then stays resident, about
    # 0.15 MB of a desk pass
    starts = np.cumsum([0, *map(len, drawn)])
    n_all = [n for level in drawn for n in level.n.tolist()]
    order = sorted(range(len(n_all)), key=n_all.__getitem__)
    for u, v in zip(order, order[1:]):
        if n_all[u] == n_all[v]:
            a, b = _entry_at(drawn, starts, u), _entry_at(drawn, starts, v)
            raise RuntimeError(
                f"duplicate encoded value {a.n} for {a.f} (k={a.k}) and "
                f"{b.f} (k={b.k}); injectivity violated"
            )
    order = np.array(order, dtype=np.intp)
    levels = []
    for level, start, stop in zip(drawn, starts.tolist(), starts[1:].tolist()):
        mine = (order >= start) & (order < stop)
        rows = order[mine] - start
        columns = (col[rows] for col in level.columns()[:-1])
        levels.append(SequenceLevel(level.q, level.k, *columns, np.flatnonzero(mine)))
    audit = audit_preconditions(params)
    warnings.extend(line for line in audit.lines if "fail" in line)
    return SidonSequence(params, moduli, tuple(levels), tuple(warnings))


def _entry_at(levels: list[SequenceLevel], starts: np.ndarray, u: int) -> SequenceEntry:
    """The entry at place u of the rows of levels taken one level after
    another, starts[i] being the place of the first row of levels[i]."""
    i = int(np.searchsorted(starts, u, side="right")) - 1
    return SequenceEntry(levels[i], u - int(starts[i]))


@functools.lru_cache(maxsize=256)
def level_value_range(params: Params, k: int) -> tuple[int, int]:
    """[lo, hi) bracket of encoded values at level k: the top digit s is in
    [1, q^{3k}], everything below contributes less than one s-weight."""
    weight = digit_weights(params)[2 * k]
    return weight, weight * (params.q.q ** (3 * k) + 1)


def _e_weights(generators: tuple[Generator, ...]) -> tuple[int, ...]:
    """R_1 ... R_{i-1} for i = 1..len(generators), R_j = q^(2j-1) - 1 the
    order of g_j's unit group: the weights of the e digits in their own
    mixed radix (_e_key)."""
    return tuple(itertools.accumulate([gen.order for gen in generators[:-1]], operator.mul, initial=1))


def _e_key(e, weights: tuple[int, ...]) -> int:
    """e_1 + e_2 R_1 + ... + e_k R_1 ... R_{k-1}, weights from _e_weights
    (the first k are used): the e digits in their own mixed radix, one
    integer per member. Every e_i of a member, and every e_i that
    decode_entry peels off, lies in [0, R_i), so distinct digit vectors
    have distinct keys."""
    return sum(map(operator.mul, e, weights))


@functools.lru_cache(maxsize=64)
def _decode_index(generators: tuple[Generator, ...], q: PrimeModulus, degrees: tuple[int, ...]) -> dict:
    """_e_key of the e digits -> member, for the members of the degrees in
    the window degrees of level k = len(generators) that lie below k^2 =
    sum deg g_i: their e digits by log_coordinates, as build_sequence
    computes them. By CRT a polynomial of degree < k^2 is determined by
    its residues mod g_1..g_k, so no two of these members share their e
    digits. Cached per (generators, q, degrees), so every Params that
    differs only in its seed shares it."""
    tables = [member_table(q, m) for m in degrees if m < len(generators) ** 2]
    if not tables:
        return {}
    codes = np.concatenate([table.codes + q.q**table.degree for table in tables])
    e = log_coordinates(generators, codes, 1 + tables[-1].degree)
    members = [f for table in tables for f in table.polys]
    weights = _e_weights(generators)
    index = {_e_key(row, weights): f for row, f in zip(e.tolist(), members)}
    if len(index) != len(members):
        raise AssertionError("two members of degree < k^2 share their e digits")
    return index


@functools.lru_cache(maxsize=64)
def _decode_levels(params: Params, moduli: ModuliTable) -> tuple[tuple, frozenset]:
    """decode_entry's set-up, made once per (params, moduli): per level
    k = 1..k_max the tuple (k, lo, hi, W_{2k}, q^{3k}, peel, index) of the
    bracket [lo, hi), the weight of s and its range, per digit pair
    i = k, ..., 1 (top first) the weights W_{2i-1} of r_i and W_{2i-2} of
    e_i with the weight of e_i in _e_key, and the level's _decode_index;
    and A as a frozenset."""
    weights = digit_weights(params)
    e_weights = _e_weights(moduli.generators)
    levels = []
    for k in range(1, params.k_max + 1):
        peel = tuple((weights[2 * i - 1], weights[2 * i - 2], e_weights[i - 1]) for i in range(k, 0, -1))
        index = _decode_index(moduli.generators[:k], params.q, fk_degrees(params, k))
        lo, hi = level_value_range(params, k)
        levels.append((k, lo, hi, weights[2 * k], params.q.q ** (3 * k), peel, index))
    return tuple(levels), frozenset(params.aux.A)


def decode_entry(n: int, params: Params, moduli: ModuliTable) -> tuple[Poly, int]:
    """Inverse of build_sequence's encoding: recover (f, k) from n.

    The level is inferred from the value bracket (adjacent levels do not
    overlap at these parameters, but every bracket-compatible level is
    tried). The digits are peeled off from the top, s first, with the
    weights of _decode_levels, and the _e_key of the e digits is summed
    as they come; f is the member of the level's window with degree < k^2
    whose e digits they are, looked up in _decode_index by that key.
    Foreign values fail digit validation (s outside [1, q^{3k}], some r_i
    outside A) or name no such member, and raise DecodeError. A member of
    degree >= k^2 (margin (b) fails) decodes to the member of degree < k^2
    with its e digits, if there is one.
    """
    levels, a_members = _decode_levels(params, moduli)
    for k, lo, hi, s_weight, s_range, peel, index in levels:
        if not lo <= n < hi:
            continue
        s, rest = divmod(n, s_weight)
        if not 1 <= s <= s_range:
            continue
        key = 0
        for r_weight, e_weight, key_weight in peel:
            r_i, rest = divmod(rest, r_weight)
            if r_i not in a_members:
                break
            e_i, rest = divmod(rest, e_weight)
            key += e_i * key_weight
        else:
            f = index.get(key)
            if f is not None:
                return f, k
    raise DecodeError(f"{n} does not decode to any sequence entry")


@dataclass(frozen=True)
class KClassAudit:
    k: int
    degrees: tuple[int, ...]
    max_degree: int | None
    injectivity_margin_ok: bool | None  # max deg f < k^2
    pair_margin_ok: bool | None  # 2 max deg f < k^2
    one_degree_margin_ok: bool | None  # the window is one degree d, 2 d <= k^2

    def sharpened_pair_margin(self) -> str | None:
        """The form of the pair margin that holds at this level, as a line:
        margin (c), or its one-degree form (the products of two members
        are then monic of degree 2d <= k^2, so two of them that agree mod
        a monic modulus of degree k^2 are equal). None when neither holds
        or the window is empty."""
        k2 = self.k * self.k
        if self.pair_margin_ok:
            return f"(c) {2 * self.max_degree} < {k2}"
        if self.one_degree_margin_ok:
            return f"(c') one degree {self.max_degree}: {2 * self.max_degree} <= {k2}"
        return None


@dataclass(frozen=True)
class AuditReport:
    c_ok: bool
    classes: tuple[KClassAudit, ...]
    lines: tuple[str, ...]


def audit_preconditions(params: Params) -> AuditReport:
    """Concrete margin report: (a) the window constant c sits inside its
    open interval; per level, (b) max deg f < k^2 so distinct members
    stay distinct mod g_1..g_k, and (c) 2 max deg f < k^2 so products of
    two members are still determined mod g_1..g_k. Each level also
    carries the one-degree form of (c), a window of one degree d with
    2 d <= k^2 (KClassAudit.sharpened_pair_margin); the lines report (a),
    (b) and (c) only."""
    c = params.c
    c_ok = Fraction(1, 3) < c and (3 - 2 * c) ** 2 > 5
    lines = [
        f"margin (a): 1/3 < c and (3-2c)^2 > 5 with c = {c}, "
        f"(3-2c)^2 = {(3 - 2 * c) ** 2}: {'pass' if c_ok else 'fail'}"
    ]
    classes = []
    for k in range(params.k_min, params.k_max + 1):
        degs = fk_degrees(params, k)
        if not degs:
            classes.append(KClassAudit(k, degs, None, None, None, None))
            lines.append(f"k={k}: empty degree window")
            continue
        mx = degs[-1]
        ok_b = mx < k * k
        ok_c = 2 * mx < k * k
        classes.append(KClassAudit(k, degs, mx, ok_b, ok_c, len(degs) == 1 and 2 * mx <= k * k))
        lines.append(
            f"k={k}: degrees {degs}, max {mx}: "
            f"(b) {mx} < {k * k} {'pass' if ok_b else 'fail'}; "
            f"(c) {2 * mx} < {k * k} {'pass' if ok_c else 'fail'}"
        )
    return AuditReport(c_ok, tuple(classes), tuple(lines))


def params_to_json(params: Params) -> dict:
    return {
        "q": params.q.q,
        "c": str(params.c),
        "k_min": params.k_min,
        "k_max": params.k_max,
        "seed": params.seed,
        "strict": params.strict,
        "aux": aux_to_json(params.aux),
    }


def params_from_json(obj: dict) -> Params:
    """Inverse of params_to_json; ValueError naming the field when one is
    missing or has the wrong type."""
    json_value(obj, dict, "params")
    return Params(
        q=PrimeModulus(json_value(json_field(obj, "q", "params"), int, "params q")),
        aux=aux_from_json(json_field(obj, "aux", "params")),
        c=json_value(json_field(obj, "c", "params"), str, "params c"),
        k_min=json_value(json_field(obj, "k_min", "params"), int, "params k_min"),
        k_max=json_value(json_field(obj, "k_max", "params"), int, "params k_max"),
        seed=json_value(json_field(obj, "seed", "params"), int, "params seed"),
        strict=json_value(json_field(obj, "strict", "params"), bool, "params strict"),
    )


def seq_to_json(seq: SidonSequence, manifest_ref: str | None = None) -> dict:
    entries = [None] * len(seq.values)
    for level in seq.levels:
        rows = zip(_level_names(level), level.e.tolist(), level.r.tolist(), level.s, level.n)
        for pos, (name, e, r, s, n) in zip(level.positions.tolist(), rows):
            entries[pos] = {"f": name, "k": level.k, "e": e, "r": r, "s": str(s), "n": str(n)}
    out = {
        "params": params_to_json(seq.params),
        "moduli": [
            {"g": poly_to_string(gen.g), "omega": poly_to_string(gen.omega)}
            for gen in seq.moduli.generators
        ],
        "entries": entries,
        "warnings": list(seq.warnings),
    }
    if manifest_ref is not None:
        out["manifest"] = manifest_ref
    return out


_ENTRY_TEXT = (
    '    {\n      "f": %s,\n      "k": %d,\n      "e": %s,\n      "r": %s,\n'
    '      "s": "%d",\n      "n": "%d"\n    }'
)


def _digit_list_text(digits) -> str:
    """json.dumps(list(digits), indent=2) for a non-empty list nested three
    deep (every level k >= 1 has k digits e and r)."""
    return "[\n        " + ",\n        ".join(map(str, digits)) + "\n      ]"


# entries per chunk of seq_json_chunks: a chunk per entry costs a
# generator step and a write each, and a block's pieces (its entry texts,
# digit lists and join) take about 1 KB per entry while it is made
_ENTRY_BLOCK = 256


def seq_json_chunks(seq: SidonSequence, manifest_ref: str | None = None) -> collections.abc.Iterator[str]:
    """json.dumps(seq_to_json(seq, manifest_ref), indent=2) + "\n" as an
    iterator of chunks whose join is that text, byte for byte: the text
    up to the entries, one chunk per _ENTRY_BLOCK entries in ascending n,
    then the rest. The head is the dump of the entry-less object, cut at
    its "entries" key (the one top-level line that starts with it: nested
    keys are indented further, and JSON text has no raw newline inside a
    string). Each entry is filled into _ENTRY_TEXT from its level's
    columns, so the pure-Python encoder that indent selects never sees
    an entry. The head, the tail and the level names are made when this
    is called; the chunks then only format columns."""
    text = json.dumps(seq_to_json(dataclasses.replace(seq, levels=()), manifest_ref), indent=2) + "\n"
    if not seq.values:
        return iter((text,))
    head, tail = text.split('\n  "entries": []', 1)
    names = [_level_names(level) for level in seq.levels]
    size = len(seq.values)
    starts = range(0, size, _ENTRY_BLOCK)
    blocks = (_entry_block(seq, names, start, min(start + _ENTRY_BLOCK, size)) for start in starts)
    return itertools.chain((head + '\n  "entries": [\n',), blocks, ("\n  ]" + tail,))


def _entry_block(seq: SidonSequence, names: list[list[str]], start: int, stop: int) -> str:
    """The text of the entries at positions [start, stop) of seq, joined
    by ",\n" and led by it unless start is 0; names holds the level names
    (_level_names) of seq.levels. A level's rows among them are cut out
    of its positions by one searchsorted. Its own function, so that the
    pieces of a block are freed before the next is made."""
    lead = 1 if start else 0
    texts = [""] * (lead + stop - start)
    for level, level_names in zip(seq.levels, names):
        lo, hi = np.searchsorted(level.positions, (start, stop)).tolist()
        fields = zip(
            map(encode_basestring_ascii, level_names[lo:hi]),
            itertools.repeat(level.k),
            map(_digit_list_text, level.e[lo:hi].tolist()),
            map(_digit_list_text, level.r[lo:hi].tolist()),
            level.s[lo:hi],
            level.n[lo:hi],
        )
        for pos, row in zip((level.positions[lo:hi] - (start - lead)).tolist(), fields):
            texts[pos] = _ENTRY_TEXT % row
    return ",\n".join(texts)


def seq_from_json(obj: dict) -> SidonSequence:
    """Inverse of seq_to_json, for untrusted input: ValueError unless the
    level windows of params fit ENUM_CAP (_check_windows), the moduli are
    build_moduli(params) and every entry holds digits a build can write.
    An entry's checks, in order: its fields (_entry_columns),
    f parses, 0 <= e_i < R_i = q^(2i-1) - 1, r inside A, n re-encodes,
    f is a monic irreducible of the level's window, s lies in [1,
    q^{3k}], e holds the table logs of f, and f repeats no earlier entry.
    A failure names the lowest failing entry, and its first failure.

    _entry_columns runs on the whole list; only when that raises does it
    run on one entry at a time, up to the lowest faulty one. The entries
    below it are checked per level in whole-array passes: f by name in
    the member tables (_level_codes), r by one np.isin, n by _encode,
    the logs by one log_coordinates and repeats by one set of the codes."""
    json_value(obj, dict, "sequence file")
    params = params_from_json(json_field(obj, "params", "sequence file"))
    _check_windows(params)
    q = params.q
    moduli = build_moduli(params)
    stored = []
    for i, m in enumerate(json_value(json_field(obj, "moduli", "sequence file"), list, "moduli")):
        json_value(m, dict, "moduli entry")
        texts = (json_value(json_field(m, key, f"moduli entry {i}"), str, f"moduli {key}") for key in ("g", "omega"))
        stored.append(tuple(poly_from_string(q, text) for text in texts))
    if stored != [(gen.g, gen.omega) for gen in moduli.generators]:
        raise ValueError("moduli differ from the build's g_i and their generators")
    entries = json_value(json_field(obj, "entries", "sequence file"), list, "entries")
    # (entry index, rank of the check within the entry, error)
    failures: list[tuple[int, int, Exception]] = []
    try:
        columns = _entry_columns(entries, params)
    except ValueError:
        for idx, ent in enumerate(entries):
            try:
                _entry_columns([ent], params, idx)
            except ValueError as exc:
                failures.append((idx, 0, exc))
                break
        else:
            raise AssertionError("the entries fail _entry_columns together but none alone") from None
        columns = _entry_columns(entries[:idx], params)
    ks, e_all, r_all, s_all, n_all, names = columns
    ks = np.array(ks, dtype=np.intp)
    starts = np.cumsum(ks) - ks  # of each entry's digits in e_all and r_all
    s_all, n_all = np.array(s_all, dtype=object), np.array(n_all, dtype=object)
    levels = []
    for k in range(params.k_min, params.k_max + 1):
        idxs = np.flatnonzero(ks == k)
        if not idxs.size:
            continue
        digits = starts[idxs, None] + np.arange(k)
        e, r, s, n = e_all[digits], r_all[digits], s_all[idxs], n_all[idxs]
        codes = _level_codes(params, k, names, idxs, failures)
        orders = np.array([gen.order for gen in moduli.generators[:k]])
        s_range = q.q ** (3 * k)
        _note(failures, idxs[((e < 0) | (e >= orders)).any(axis=1)], 1, "e digits differ from the table logs of f")
        _note(failures, idxs[~np.isin(r, params.aux.A).all(axis=1)], 2, "r digits outside A")
        _note(failures, idxs[_encode(params, k, e, r, s) != n], 3, "n does not re-encode from its e, r, s digits")
        _note(failures, idxs[(s < 1) | (s > s_range)], 5, f"s outside [1, q^(3k)] = [1, {s_range}] at level k = {k}")
        member = codes >= 0
        if not member.any():
            continue
        logs = log_coordinates(moduli.generators[:k], codes[member], 1 + fk_degrees(params, k)[-1])
        _note(failures, idxs[member][(logs != e[member]).any(axis=1)], 6, "e digits differ from the table logs of f")
        member_codes = codes[member].tolist()
        if len(set(member_codes)) < len(member_codes):
            first: dict[int, int] = {}
            for idx, code in zip(idxs[member].tolist(), member_codes):
                if first.setdefault(code, idx) != idx:
                    failures.append((idx, 7, ValueError(f"entry {idx}: f repeats entry {first[code]}")))
                    break
        levels.append(SequenceLevel(q, k, codes, e, r, s, n, idxs))
    if failures:
        raise min(failures, key=lambda failure: failure[:2])[2]
    warnings = json_value(obj.get("warnings", []), list, "warnings")
    warnings = tuple(json_value(line, str, f"warnings entry {i}") for i, line in enumerate(warnings))
    return SidonSequence(params, moduli, tuple(levels), warnings)


def _note(failures: list, bad: np.ndarray, rank: int, fault: str) -> None:
    """Adds the fault of the first entry of bad (ascending entry indices),
    ranked rank within it as in seq_from_json, to failures."""
    if bad.size:
        failures.append((int(bad[0]), rank, ValueError(f"entry {bad[0]}: {fault}")))


def _entry_columns(entries: list, params: Params, first: int = 0) -> tuple:
    """The fields of entries, read and checked a whole list at a time: k,
    the e and r digits flattened into one int64 array each, s and n as
    integers, and the names f. The checks run in the order one entry is
    checked: it is an object; its k is an integer in [k_min, k_max]; its
    e, then its r, is a list of integers that fit int64; its s, then its
    n, is a string of ASCII digits; it has k digits e and r; its f is a
    string.
    ValueError at the first check that some entry fails, whose message
    reads entries[0] as entry `first`: it is exact for a one-entry list,
    and seq_from_json calls it so, entry by entry, once a whole-list call
    has raised."""
    what = f"entry {first}"

    def column(key: str, kind: type) -> list:
        try:
            values = [ent[key] for ent in entries]
        except (KeyError, TypeError):  # an entry that is no object, or has no such field
            values = [json_field(json_value(ent, dict, what), key, what) for ent in entries]
        if not set(map(type, values)) <= {kind}:
            for value in values:
                json_value(value, kind, f"{what}: {key}")
        return values

    ks = column("k", int)
    if not set(ks) <= set(range(params.k_min, params.k_max + 1)):
        raise ValueError(f"{what}: level k = {ks[0]} outside [k_min, k_max]")
    lists, digits = [], []
    for key, fault in (("e", "e digits differ from the table logs of f"), ("r", "r digits outside A")):
        lists.append(column(key, list))
        flat = list(itertools.chain.from_iterable(lists[-1]))
        if not set(map(type, flat)) <= {int}:
            raise ValueError(f"{what}: {key} must be a list of integers, got {lists[-1][0]!r}")
        try:
            digits.append(np.fromiter(flat, dtype=np.int64, count=len(flat)))
        except OverflowError:
            raise ValueError(f"{what}: {fault}") from None
    for key in ("s", "n"):
        texts = column(key, str)
        # ASCII digits alone, as the writer prints them: int() would also
        # read a sign, spaces, "_" separators and other scripts' digits
        if not (all(map(str.isascii, texts)) and all(map(str.isdigit, texts))):
            raise ValueError(f"{what}: {key} must be a decimal integer, got {texts[0]!r}")
        digits.append(list(map(int, texts)))
    if not list(map(len, lists[0])) == ks == list(map(len, lists[1])):
        raise ValueError(f"{what}: digit count differs from k = {ks[0]}")
    return ks, *digits, column("f", str)


def _level_codes(params: Params, k: int, names: list[str], idxs: np.ndarray, failures: list) -> np.ndarray:
    """The codes (with the leading q^deg f) of the members of level k
    named names[idx] for idx in idxs, -1 for a name that is none. Each
    table, the largest (top degree) first, looks up the names that no
    table before it holds. A name that is no canonical member name is
    parsed; the fault it makes goes to failures, ranked as in
    seq_from_json: 0 when it does not parse, 4 (after the re-encoding)
    when it is no monic irreducible of the window."""
    tables = level_tables(params, k)
    codes = np.full(len(idxs), -1, dtype=np.int64)
    todo = np.arange(len(idxs))
    for table in reversed(tables):
        looked_up = map(table.index.get, map(names.__getitem__, idxs[todo].tolist()), itertools.repeat(-1))
        pos = np.fromiter(looked_up, dtype=np.intp, count=len(todo))
        hit = pos >= 0
        codes[todo[hit]] = table.codes[pos[hit]] + params.q.q**table.degree
        todo = todo[~hit]
    for at, idx in zip(todo.tolist(), idxs[todo].tolist()):
        try:
            f = poly_from_string(params.q, names[idx])
        except ValueError as exc:
            failures.append((idx, 0, ValueError(f"entry {idx}: f does not parse: {exc}")))
            continue
        name = poly_to_string(f)
        table = next((table for table in tables if name in table.index), None)
        if table is not None:
            codes[at] = table.codes[table.index[name]] + params.q.q**table.degree
        elif f.degree not in fk_degrees(params, k):
            failures.append((idx, 4, ValueError(f"entry {idx}: deg f outside the level k = {k} window")))
        else:
            failures.append((idx, 4, ValueError(f"entry {idx}: f is not a monic irreducible")))
    return codes
