"""Assembly of the Sidon sequence.

For each level k, the members are the monic irreducibles f of even degree
in a window proportional to k^2 (build_Fk). Every f is turned into an
integer n_f by packing, least significant first, the digit vector

    <s  r_k e_k  ...  r_1 e_1>

into the alternating mixed radix (q^i - 1, p): e_i is the discrete log of
f modulo the fixed odd-degree modulus g_i, r_i is drawn from the auxiliary
set A, and the top digit s is drawn from {1, ..., q^{3k}}. The r and s
digits come from a keyed-hash counter RNG so every (f, digit) pair is an
independent, reproducible draw.

The members of each degree are one cached MemberTable per (q, degree):
sieve codes, Poly objects and canonical names, with name -> position.
level_e_digits gives the e digits of a whole level at once: one digit
matrix of the members' codes, one product mod q per g_i (reduction is
F_q-linear) and one dlog_table gather. The r and s digits are drawn by
one routine, _draw_digits, over chosen rows (members) and tags (digits)
of a level's table of hash messages, which carry the members' names
from their tables: one keyed blake2b state, a copy of it per chosen
message, the digests written into one uint64 word array and reduced
exactly. The build draws every digit of a level through it and forms n
in Python-integer array arithmetic. A coverage trial (draw_plan) draws
in two stages through the same routine: draw_bounds hashes only r_k
and s of every entry, which puts n in [low, low + (max A - min A) S_k]
with S_k = W_1 + W_3 + ... + W_{2k-3}, and complete_draw hashes
r_1..r_{k-1} of the entries whose bounds can reach the window only.
seq_from_json looks every f up by name in the same tables and checks a
level at a time, and seq_json_text writes a sequence file by template,
byte for byte as json.dumps(indent=2).

The map f -> n_f is injective and invertible: decode_entry peels the
digits back off and looks the e digits up in its level's decode index,
the members of the window below degree k^2 keyed by their e digits (by
CRT, a polynomial of degree < k^2 = sum deg g_i is determined by its
residues mod g_1..g_k). The moduli are cached per (q, k_max), the decode
indexes per (moduli, q, window), the member tables per (q, degree); the
mixed radix, level brackets and degree windows per Params.
audit_preconditions reports the concrete degree margins that the
collision-freeness argument needs at the configured parameters.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .auxset import AuxSet, aux_from_json, aux_to_json
from .ffpoly import (
    Poly,
    PrimeModulus,
    code_digits,
    digit_codes,
    enumerate_irreducibles,
    irreducible_codes,
    mulmod_matrix,
    poly_from_string,
    poly_to_string,
    smallest_irreducible,
)
from .gbase import MixedRadix
from .unitgroup import Generator, dlog_table, find_generator

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
            object.__setattr__(self, "c", Fraction(self.c))
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

    def g(self, i: int) -> Poly:
        return self.generators[i - 1].g

    def omega(self, i: int) -> Poly:
        return self.generators[i - 1].omega

    def __len__(self) -> int:
        return len(self.generators)


@dataclass(frozen=True)
class SequenceEntry:
    f: Poly
    k: int
    e: tuple[int, ...]
    r: tuple[int, ...]
    s: int
    n: int


@dataclass(frozen=True)
class SidonSequence:
    params: Params
    moduli: ModuliTable
    entries: tuple[SequenceEntry, ...]
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        ns = [ent.n for ent in self.entries]
        if any(a >= b for a, b in zip(ns, ns[1:])):
            raise ValueError("entries must be sorted by n with no duplicates")

    @property
    def values(self) -> tuple[int, ...]:
        return tuple(ent.n for ent in self.entries)


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
    lo = params.c * k * k
    hi = params.c * (k + 1) * (k + 1)
    m = 2 * math.ceil(lo / 2)
    out = []
    while m < hi:
        out.append(m)
        m += 2
    return tuple(out)


@dataclass(frozen=True, eq=False)
class MemberTable:
    """The monic irreducibles of one degree d over F_q in code order: their
    sieve codes (without the leading q^d), Poly objects and canonical
    names (poly_to_string), with name -> position."""

    degree: int
    codes: np.ndarray
    polys: tuple[Poly, ...]
    names: tuple[str, ...]
    index: dict[str, int]


@functools.lru_cache(maxsize=64)
def member_table(q: PrimeModulus, d: int) -> MemberTable:
    """The MemberTable of degree d over F_q, built once per process from
    the cached sieve and shared by every Params with this q."""
    polys = tuple(enumerate_irreducibles(q, d))
    names = tuple(map(poly_to_string, polys))
    return MemberTable(
        d,
        irreducible_codes(q, d),
        polys,
        names,
        {name: i for i, name in enumerate(names)},
    )


def level_tables(params: Params, k: int) -> list[MemberTable]:
    """The member tables of the degrees of the level k window."""
    return [member_table(params.q, m) for m in fk_degrees(params, k)]


def build_Fk(params: Params, k: int) -> list[Poly]:
    """All member polynomials at level k, degree-then-code order."""
    return [f for table in level_tables(params, k) for f in table.polys]


def _digit_hasher(seed: int):
    """The keyed blake2b state of the counter RNG under seed (keyed by the
    seed's low 64 bits, 16-byte digests). A draw hashes its message on a
    copy, which gives the one-shot keyed digest without setting up the key
    again."""
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


@dataclass(frozen=True)
class _LevelDraw:
    """The seed-invariant numbers of drawing the r and s digits of some
    members of one level k: per member the e-digit part of n (sum of
    e_i W_{2i-2}), then the weights W_1, W_3, ..., W_{2k-1} of the r
    digits, the weight W_{2k} of s and q^{3k}, the size of the range of
    s."""

    fixed: np.ndarray  # object
    r_weights: np.ndarray  # object
    s_weight: int
    s_range: int


def _level_draw(params: Params, k: int, e) -> _LevelDraw:
    """The _LevelDraw of members at level k with e digits e, one row of
    k digits per member."""
    weights = np.array(digit_weights(params)[: 2 * k + 1], dtype=object)
    fixed = np.array(e, dtype=object).reshape(-1, k) @ weights[0 : 2 * k : 2]
    return _LevelDraw(fixed, weights[1 : 2 * k : 2], weights[2 * k], params.q.q ** (3 * k))


def _level_messages(names, k: int) -> np.ndarray:
    """The hash messages of the r and s draws of members at level k, given
    their names, as a (members, k + 1) object array: row u holds
    "name|r1", ..., "name|rk" and "name|s" of member u."""
    tags = [f"|r{i}" for i in range(1, k + 1)] + ["|s"]
    msgs = ((name + tag).encode() for name in names for tag in tags)
    return np.fromiter(msgs, dtype=object, count=len(names) * (k + 1)).reshape(-1, k + 1)


def _member_names(params: Params, entries) -> list[str]:
    """The canonical names of the f of entries: read from the member
    tables of their levels, by poly_to_string for an f that is not in
    them."""
    name_of = {}
    for k in {ent.k for ent in entries}:
        for table in level_tables(params, k):
            name_of.update(zip(table.polys, table.names))
    return [name_of.get(ent.f) or poly_to_string(ent.f) for ent in entries]


def _draw_digits(a_elems: np.ndarray, level: _LevelDraw, hasher, msgs: np.ndarray, rows, tags: slice) -> np.ndarray:
    """The digits of the members `rows` of level whose tags (column
    positions of _level_messages: i - 1 for r_i, k for s) lie in the
    slice tags, drawn by the keyed counter RNG whose state is hasher (see
    _digit_hasher) from their hash messages msgs[rows, tags]: r_i =
    A[h mod |A|] and s = 1 + h mod q^{3k} for the 128-bit digest h of
    each message. One object array of Python integers, a row per member
    and a column per tag. Only the chosen messages are hashed."""
    k = len(level.r_weights)
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
        out[:, n_r] = 1 + _residues(words[:, n_r], level.s_range)
    return out


def _pack(weights: tuple[int, ...], e, r, s: int) -> int:
    """n for the digit vector <s r_k e_k ... r_1 e_1>, given a
    digit_weights table that holds at least W_0..W_{2k}."""
    n = 0
    i = 0
    for i, (e_i, r_i) in enumerate(zip(e, r), start=1):
        n += e_i * weights[2 * i - 2] + r_i * weights[2 * i - 1]
    return n + s * weights[2 * i]


@functools.lru_cache(maxsize=64)
def mixed_radix(params: Params) -> MixedRadix:
    return MixedRadix(params.q, params.aux.p)


@functools.lru_cache(maxsize=64)
def digit_weights(params: Params) -> tuple[int, ...]:
    """W_0, ..., W_{2 k_max + 1} of the mixed radix: the weight of every
    digit position of a built entry, and of the one above."""
    return mixed_radix(params).weights(2 * params.k_max + 2)


def level_e_digits(generators: tuple[Generator, ...], members: list[Poly]) -> np.ndarray:
    """The e digits of members at level k = len(generators): row u holds
    e_1..e_k of members[u], the table logs of members[u] mod g_1..g_k.
    Raises ValueError when some g_i divides a member."""
    width = 1 + max(f.degree for f in members)
    return _code_e_digits(generators, np.array([f.code for f in members], dtype=np.int64), width)


def _code_e_digits(generators: tuple[Generator, ...], codes: np.ndarray, width: int) -> np.ndarray:
    """level_e_digits of the polynomials with codes below q^width: one
    digit matrix of the codes, one product mod q per g_i (the reduction
    map mod g_i) and one log-table gather per g_i."""
    q = generators[0].g.q
    digits = code_digits(q.q, codes, width)
    e = np.empty((len(codes), len(generators)), dtype=np.int64)
    for i, gen in enumerate(generators):
        residues = digit_codes(q.q, digits @ mulmod_matrix(Poly.one(q), gen.g, width) % q.q)
        e[:, i] = dlog_table(gen)[residues]
    if (e < 0).any():
        raise ValueError("a member is divisible by one of the moduli g_i")
    return e


def draw_plan(params: Params, entries) -> tuple:
    """The seed-invariant part of re-drawing the r and s digits of
    entries: A as an array, and per level present the positions of its
    entries, their _LevelDraw and their hash messages (_level_messages).
    A coverage trial draws from it in two stages, draw_bounds and
    complete_draw."""
    levels: dict[int, list[int]] = {}
    for pos, ent in enumerate(entries):
        levels.setdefault(ent.k, []).append(pos)
    plan = []
    for k, positions in levels.items():
        members = [entries[pos] for pos in positions]
        draw = _level_draw(params, k, [ent.e for ent in members])
        msgs = _level_messages(_member_names(params, members), k)
        plan.append((np.array(positions, dtype=np.intp), draw, msgs))
    return np.array(params.aux.A, dtype=object), tuple(plan)


def draw_bounds(plan: tuple, seed: int) -> tuple[list[int], int]:
    """(low, width): the first stage of re-drawing the entries of plan
    under seed, as build_sequence draws them. Only r_k and s are hashed;
    with S_k = W_1 + W_3 + ... + W_{2k-3}, the weight of the digits r_1..
    r_{k-1} that are not drawn yet, an entry's n lies in [low, low + (max
    A - min A) S_k] with low = fixed + r_k W_{2k-1} + s W_{2k} + (min A)
    S_k. low is per entry and width the largest (max A - min A) S_k of
    the levels present."""
    a_elems, levels = plan
    hasher = _digit_hasher(seed)
    a_min, a_max = min(a_elems), max(a_elems)
    low = np.empty(sum(len(positions) for positions, _, _ in levels), dtype=object)
    width = 0
    for positions, draw, msgs in levels:
        k = len(draw.r_weights)
        top = _draw_digits(a_elems, draw, hasher, msgs, slice(None), slice(k - 1, k + 1))
        rest = sum(draw.r_weights[: k - 1].tolist())
        top_weights = np.array([draw.r_weights[k - 1], draw.s_weight], dtype=object)
        low[positions] = draw.fixed + top @ top_weights + a_min * rest
        width = max(width, (a_max - a_min) * rest)
    return low.tolist(), width


def complete_draw(plan: tuple, seed: int, low: list[int], wanted: list[int]) -> list[int]:
    """The second stage: n of the entries of plan at the ascending
    positions wanted, from their draw_bounds lows under the same seed,
    with r_1..r_{k-1} hashed for those entries only: n = low +
    sum_{i<k} (r_i - min A) W_{2i-1}."""
    a_elems, levels = plan
    hasher = _digit_hasher(seed)
    a_min = min(a_elems)
    out = np.array([low[pos] for pos in wanted], dtype=object)
    for positions, draw, msgs in levels:
        k = len(draw.r_weights)
        rows = np.flatnonzero(np.isin(positions, wanted))
        if k > 1 and rows.size:
            r = _draw_digits(a_elems, draw, hasher, msgs, rows, slice(0, k - 1))
            out[np.searchsorted(wanted, positions[rows])] += (r - a_min) @ draw.r_weights[: k - 1]
    return out.tolist()


def build_sequence(params: Params) -> SidonSequence:
    moduli = build_moduli(params)
    warnings: list[str] = [] if params.strict else [SCALED_MODE_WARNING]
    entries: list[SequenceEntry] = []
    a_elems = np.array(params.aux.A, dtype=object)
    hasher = _digit_hasher(params.seed)
    for k in range(params.k_min, params.k_max + 1):
        tables = level_tables(params, k)
        if not tables:
            warnings.append(f"level k={k} is empty (no even degree in its window)")
            continue
        members = [f for table in tables for f in table.polys]
        names = [name for table in tables for name in table.names]
        codes = np.concatenate([table.codes + params.q.q**table.degree for table in tables])
        # one Python integer per digit, shared by the draw and the entries
        e = _code_e_digits(moduli.generators[:k], codes, 1 + tables[-1].degree).astype(object)
        draw = _level_draw(params, k, e)
        digits = _draw_digits(a_elems, draw, hasher, _level_messages(names, k), slice(None), slice(None))
        r, s = digits[:, :k], digits[:, k]
        n = draw.fixed + r @ draw.r_weights + s * draw.s_weight
        entries.extend(
            SequenceEntry(f=f, k=k, e=tuple(e_u), r=tuple(r_u), s=s_u, n=n_u)
            for f, e_u, r_u, s_u, n_u in zip(members, e, r, s, n)
        )
    entries.sort(key=lambda ent: ent.n)
    for a, b in zip(entries, entries[1:]):
        if a.n == b.n:
            raise RuntimeError(
                f"duplicate encoded value {a.n} for {a.f} (k={a.k}) and "
                f"{b.f} (k={b.k}); injectivity violated"
            )
    audit = audit_preconditions(params)
    warnings.extend(line for line in audit.lines if "fail" in line)
    return SidonSequence(params, moduli, tuple(entries), tuple(warnings))


@functools.lru_cache(maxsize=256)
def level_value_range(params: Params, k: int) -> tuple[int, int]:
    """[lo, hi) bracket of encoded values at level k: the top digit s is in
    [1, q^{3k}], everything below contributes less than one s-weight."""
    weight = digit_weights(params)[2 * k]
    return weight, weight * (params.q.q ** (3 * k) + 1)


@functools.lru_cache(maxsize=64)
def _decode_index(generators: tuple[Generator, ...], q: PrimeModulus, degrees: tuple[int, ...]) -> dict:
    """e digits -> member, for the members of the degrees in the window
    degrees of level k = len(generators) that lie below k^2 = sum deg g_i:
    their e digits by _code_e_digits, as build_sequence computes them. By
    CRT a polynomial of degree < k^2 is determined by its residues mod
    g_1..g_k, so no two of these members share their e digits. Cached per
    (generators, q, degrees), so every Params that differs only in its
    seed shares it."""
    tables = [member_table(q, m) for m in degrees if m < len(generators) ** 2]
    if not tables:
        return {}
    codes = np.concatenate([table.codes + q.q**table.degree for table in tables])
    e = _code_e_digits(generators, codes, 1 + tables[-1].degree)
    members = [f for table in tables for f in table.polys]
    index = dict(zip(map(tuple, e.tolist()), members))
    if len(index) != len(members):
        raise AssertionError("two members of degree < k^2 share their e digits")
    return index


def decode_entry(n: int, params: Params, moduli: ModuliTable) -> tuple[Poly, int]:
    """Inverse of build_sequence's encoding: recover (f, k) from n.

    The level is inferred from the value bracket (adjacent levels do not
    overlap at these parameters, but every bracket-compatible level is
    tried). The digits are peeled off with digit_weights, and f is the
    member of the level's window with degree < k^2 whose e digits they
    are, looked up in _decode_index. Foreign values fail digit validation
    or name no such member, and raise DecodeError. A member of degree >=
    k^2 (margin (b) fails) decodes to the member of degree < k^2 with its
    e digits, if there is one.
    """
    weights = digit_weights(params)
    a_members = params.aux.A
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
        e = digits[0 : 2 * k : 2]
        r = digits[1 : 2 * k : 2]
        s = digits[2 * k]
        if not 1 <= s <= q ** (3 * k):
            continue
        if any(x not in a_members for x in r):
            continue
        f = _decode_index(moduli.generators[:k], params.q, fk_degrees(params, k)).get(tuple(e))
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


@dataclass(frozen=True)
class AuditReport:
    c_value: Fraction
    c_ok: bool
    classes: tuple[KClassAudit, ...]
    all_ok: bool
    lines: tuple[str, ...]


def audit_preconditions(params: Params) -> AuditReport:
    """Concrete margin report: (a) the window constant c sits inside its
    open interval; per level, (b) max deg f < k^2 so distinct members
    stay distinct mod g_1..g_k, and (c) 2 max deg f < k^2 so products of
    two members are still determined mod g_1..g_k."""
    c = params.c
    c_ok = Fraction(1, 3) < c and (3 - 2 * c) ** 2 > 5
    lines = [
        f"margin (a): 1/3 < c and (3-2c)^2 > 5 with c = {c}, "
        f"(3-2c)^2 = {(3 - 2 * c) ** 2}: {'pass' if c_ok else 'fail'}"
    ]
    classes = []
    all_ok = c_ok
    for k in range(params.k_min, params.k_max + 1):
        degs = fk_degrees(params, k)
        if not degs:
            classes.append(KClassAudit(k, degs, None, None, None))
            lines.append(f"k={k}: empty degree window")
            continue
        mx = degs[-1]
        ok_b = mx < k * k
        ok_c = 2 * mx < k * k
        classes.append(KClassAudit(k, degs, mx, ok_b, ok_c))
        all_ok = all_ok and ok_b and ok_c
        lines.append(
            f"k={k}: degrees {degs}, max {mx}: "
            f"(b) {mx} < {k * k} {'pass' if ok_b else 'fail'}; "
            f"(c) {2 * mx} < {k * k} {'pass' if ok_c else 'fail'}"
        )
    return AuditReport(c, c_ok, tuple(classes), all_ok, tuple(lines))


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
    return Params(
        q=PrimeModulus(int(obj["q"])),
        aux=aux_from_json(obj["aux"]),
        c=Fraction(obj["c"]),
        k_min=int(obj["k_min"]),
        k_max=int(obj["k_max"]),
        seed=int(obj["seed"]),
        strict=bool(obj["strict"]),
    )


def seq_to_json(seq: SidonSequence, manifest_ref: str | None = None) -> dict:
    out = {
        "params": params_to_json(seq.params),
        "moduli": [
            {"g": poly_to_string(gen.g), "omega": poly_to_string(gen.omega)}
            for gen in seq.moduli.generators
        ],
        "entries": [
            {
                "f": name,
                "k": ent.k,
                "e": list(ent.e),
                "r": list(ent.r),
                "s": str(ent.s),
                "n": str(ent.n),
            }
            for ent, name in zip(seq.entries, _member_names(seq.params, seq.entries))
        ],
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


def seq_json_text(seq: SidonSequence, manifest_ref: str | None = None) -> str:
    """json.dumps(seq_to_json(seq, manifest_ref), indent=2) + "\n", byte
    for byte, without the pure-Python encoder that indent selects: every
    top-level value but the entries is dumped with indent and moved in a
    level (JSON text has no raw newline inside a string), and each entry
    is filled into _ENTRY_TEXT. All pieces are joined once, as json.dumps
    joins its chunks: intermediate copies of the text would leave the
    heap of the later stages larger."""
    head = seq_to_json(dataclasses.replace(seq, entries=()), manifest_ref)
    chunks = []
    for key, value in head.items():
        chunks += [",\n" if chunks else "{\n", f'  "{key}": ']
        if key != "entries" or not seq.entries:
            chunks.append(json.dumps(value, indent=2).replace("\n", "\n  "))
            continue
        chunks.append("[\n")
        for ent, name in zip(seq.entries, _member_names(seq.params, seq.entries)):
            e, r = _digit_list_text(ent.e), _digit_list_text(ent.r)
            chunks += [_ENTRY_TEXT % (encode_basestring_ascii(name), ent.k, e, r, ent.s, ent.n), ",\n"]
        chunks[-1] = "\n  ]"
    chunks.append("\n}\n")
    return "".join(chunks)


def seq_from_json(obj: dict) -> SidonSequence:
    """Inverse of seq_to_json. Raises ValueError unless the moduli are
    build_moduli(params), every entry's k, digits and n are consistent,
    f is a monic irreducible of its level's window, e holds the table
    logs of f and no member appears twice. A failure names the lowest
    failing entry, and of its failures the first in that order.

    Each f is looked up by name in the level's member tables; only a
    spelling that is not a canonical name is parsed. The re-encoding and
    the logs are checked a level at a time, by one object-array product
    (as _level_draw forms n) and one level_e_digits comparison."""
    params = params_from_json(obj["params"])
    q = params.q
    moduli = build_moduli(params)
    stored = [(poly_from_string(q, m["g"]), poly_from_string(q, m["omega"])) for m in obj["moduli"]]
    if stored != [(gen.g, gen.omega) for gen in moduli.generators]:
        raise ValueError("moduli differ from the build's g_i and their generators")
    weights = digit_weights(params)
    tables = {k: level_tables(params, k) for k in range(params.k_min, params.k_max + 1)}
    entries: list[SequenceEntry] = []
    levels: dict[int, list[tuple]] = {}  # k -> (index, code of f, e, r, s, n) per entry
    seen: dict[int, int] = {}  # code of f -> index of its first entry
    # (entry index, rank of the check within the entry, error); the loop
    # stops at the first entry that fails a check made in it
    failures: list[tuple[int, int, Exception]] = []
    for idx, ent in enumerate(obj["entries"]):
        try:
            k = int(ent["k"])
            if k not in tables:
                raise ValueError(f"entry {idx}: level k = {k} outside [k_min, k_max]")
            e = tuple(map(int, ent["e"]))
            r = tuple(map(int, ent["r"]))
            s, n = int(ent["s"]), int(ent["n"])
            if len(e) != k or len(r) != k:
                raise ValueError(f"entry {idx}: digit count differs from k = {k}")
            found = _member_position(tables[k], ent["f"])
            if found is None:
                f = poly_from_string(q, ent["f"])
                found = _member_position(tables[k], poly_to_string(f))
        except (ValueError, KeyError) as exc:
            failures.append((idx, 0, exc))
            break
        if found is None:
            if _pack(weights, e, r, s) != n:
                failures.append((idx, 1, _reencode_error(idx)))
            elif f.degree not in fk_degrees(params, k):
                msg = f"entry {idx}: deg f outside the level k = {k} window"
                failures.append((idx, 2, ValueError(msg)))
            else:
                failures.append((idx, 2, ValueError(f"entry {idx}: f is not a monic irreducible")))
            break
        table, pos = found
        code = int(table.codes[pos]) + q.q**table.degree
        first = seen.setdefault(code, idx)
        if first != idx:
            failures.append((idx, 4, ValueError(f"entry {idx}: f repeats entry {first}")))
        entries.append(SequenceEntry(f=table.polys[pos], k=k, e=e, r=r, s=s, n=n))
        levels.setdefault(k, []).append((idx, code, e, r, s, n))
    for k, rows in levels.items():
        idx_col, code_col, e_col, r_col, s_col, n_col = zip(*rows)
        idxs = np.array(idx_col)
        e_rows = np.array(e_col, dtype=object).reshape(-1, k)
        draw = _level_draw(params, k, e_rows)
        n_calc = draw.fixed + np.array(r_col, dtype=object).reshape(-1, k) @ draw.r_weights
        n_calc += np.array(s_col, dtype=object) * draw.s_weight
        bad = idxs[n_calc != np.array(n_col, dtype=object)]
        if bad.size:
            failures.append((int(bad[0]), 1, _reencode_error(bad[0])))
        width = 1 + fk_degrees(params, k)[-1]
        logs = _code_e_digits(moduli.generators[:k], np.array(code_col, dtype=np.int64), width)
        bad = idxs[(logs != e_rows).any(axis=1)]
        if bad.size:
            msg = f"entry {bad[0]}: e digits differ from the table logs of f"
            failures.append((int(bad[0]), 3, ValueError(msg)))
    if failures:
        raise min(failures, key=lambda failure: failure[:2])[2]
    return SidonSequence(params, moduli, tuple(entries), tuple(obj.get("warnings", ())))


def _reencode_error(idx: int) -> ValueError:
    return ValueError(f"entry {idx}: n does not re-encode from its e, r, s digits")


def _member_position(tables: list[MemberTable], name: str) -> tuple[MemberTable, int] | None:
    """(table, position) of the member whose canonical name is name, None
    when no table holds it."""
    for table in tables:
        pos = table.index.get(name)
        if pos is not None:
            return table, pos
    return None
