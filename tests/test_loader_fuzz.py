"""Differential fuzz tests of the loaders of untrusted files.

Each example makes one edit to a valid file, or two to distinct entries:
a sequence file (q = 3, k = 3, 18 entries, and q = 5, k = 3, 150
entries) or an aux block. The loader must refuse the edited file with
the message of the oracle in tests/oracles.py (entry_fault from the
lowest edited entry on, aux_fault), load a respelt f equal to the
original, refuse an s or n that int() reads but that is not ASCII digits
alone, and raise nothing but ValueError, which the command line turns
into exit code 2. A sequence load may peak, traced, at no more than
twice the valid file's load and a small constant.
"""

import copy
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sidonbasis.auxset import aux_from_json, aux_to_json
from sidonbasis.builder import Params, build_sequence, digit_weights, seq_from_json, seq_to_json
from sidonbasis.ffpoly import PrimeModulus

from oracles import _pack, aux_fault, entry_fault

ENTRY_FIELDS = ("k", "e", "r", "s", "n", "f")
# one value of each JSON type, to put in place of a value of another type
JSON_VALUES = (None, True, 7, 1.5, "7", [7], {"k": 3})
HUGE = 10**30
# a digit plus or minus one of these: off by one, inside int64 but far
# outside any digit range, and outside int64
DELTAS = (1, -1, 2**62, HUGE, -HUGE)
SEQ_EDITS = ("type", "missing", "digit", "r-outside-a", "spelling", "swap-f", "repeat-f", "exponent")
# bytes an edited load may peak at beyond twice the valid file's load:
# the edited loads measured peak below 1.8 times it
LOAD_PEAK_SLACK = 32 << 10


@pytest.fixture(scope="module", params=[3, 5], ids=["q3-k3", "q5-k3"])
def valid_seq(request, aux307):
    """A one-level build at k = 3 (18 entries at q = 3, 150 at q = 5) and
    its file."""
    seq = build_sequence(Params(q=PrimeModulus(request.param), aux=aux307, k_min=3, k_max=3))
    original = seq_to_json(seq)
    seq_from_json(original)  # the member tables, moduli and log tables are built once per process
    return seq, original, traced_load(original)[2]


def traced_load(obj) -> tuple:
    """(the loaded sequence or None, the refusal message or None, the
    traced peak in bytes) of seq_from_json(obj)."""
    tracemalloc.start()
    try:
        try:
            loaded, message = seq_from_json(obj), None
        except ValueError as exc:
            loaded, message = None, str(exc)
        return loaded, message, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def other_type(data, value):
    return data.draw(st.sampled_from([v for v in JSON_VALUES if type(v) is not type(value)]))


# s and n written otherwise, each read by int() as the same integer but
# refused by the loader, which takes ASCII digits alone
DECIMAL_RESPELLINGS = (
    lambda text: "+" + text,
    lambda text: f" {text} ",
    lambda text: text[0] + "_" + text[1:] if len(text) > 1 else text + "\n",
    lambda text: text.translate(str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669")),
    lambda text: text.translate(str.maketrans("0123456789", "\uff10\uff11\uff12\uff13\uff14\uff15\uff16\uff17\uff18\uff19")),
)


def respell(data, name: str) -> str:
    """name written otherwise: its terms in a drawn order, spaced, with a
    coefficient 1 written out before some powers of t."""
    terms = name.split("+")
    order = data.draw(st.permutations(range(len(terms))))
    terms = [("1*" + term if term.startswith("t") and data.draw(st.booleans()) else term) for term in terms]
    return data.draw(st.sampled_from(["+", " + ", "+ "])).join(terms[i] for i in order)


def edit_entries(data, seq, entries, pristine: list[int]) -> tuple[str, list[int]]:
    """One drawn edit to entries (the file's list, changed in place) at
    the entries whose indices pristine lists: its kind and the entries it
    touches."""
    kind = data.draw(st.sampled_from(SEQ_EDITS))
    idx = data.draw(st.sampled_from(pristine))
    ent = entries[idx]
    touched = [idx]
    if kind == "type":
        where = data.draw(st.sampled_from(("entry", "digit", *ENTRY_FIELDS)))
        if where == "entry":
            entries[idx] = other_type(data, ent)
        elif where == "digit":
            digits = ent[data.draw(st.sampled_from(("e", "r")))]
            at = data.draw(st.integers(0, len(digits) - 1))
            digits[at] = other_type(data, digits[at])
        else:
            ent[where] = other_type(data, ent[where])
    elif kind == "missing":
        del ent[data.draw(st.sampled_from(ENTRY_FIELDS))]
    elif kind in ("digit", "r-outside-a"):
        field = "r" if kind == "r-outside-a" else data.draw(st.sampled_from(("e", "r", "s", "n")))
        if field in ("s", "n"):
            ent[field] = str(int(ent[field]) + data.draw(st.sampled_from(DELTAS)))
        else:
            at = data.draw(st.integers(0, len(ent[field]) - 1))
            if kind == "r-outside-a":
                outside = st.integers(-3, 2 * seq.params.aux.p).filter(lambda a: a not in seq.params.aux.A)
                ent["r"][at] = data.draw(outside)
            else:
                ent[field][at] += data.draw(st.sampled_from(DELTAS))
        if field != "n" and data.draw(st.booleans()):
            # n re-encoded, so that the checks after the re-encoding decide
            ent["n"] = str(_pack(digit_weights(seq.params), ent["e"], ent["r"], int(ent["s"])))
    elif kind == "spelling":
        field = data.draw(st.sampled_from(("f", "s", "n")))
        if field == "f":
            ent["f"] = respell(data, ent["f"])
        else:
            respelt = data.draw(st.sampled_from(DECIMAL_RESPELLINGS))(ent[field])
            assert int(respelt) == int(ent[field])
            ent[field] = respelt
            kind = "decimal-spelling"
    elif kind in ("swap-f", "repeat-f"):
        other = data.draw(st.sampled_from([j for j in pristine if j != idx]))
        touched.append(other)
        if kind == "swap-f":
            ent["f"], entries[other]["f"] = entries[other]["f"], ent["f"]
        else:
            # f and e of the other entry, n re-encoded: only the repeat is wrong
            ent["f"], ent["e"] = entries[other]["f"], list(entries[other]["e"])
            ent["n"] = str(_pack(digit_weights(seq.params), ent["e"], ent["r"], int(ent["s"])))
    else:
        exponent = data.draw(st.integers(0, 10**9))
        ent["f"] = data.draw(st.sampled_from([f"t^{exponent}", f"1+t^{exponent}", f"{ent['f']}+t^{exponent}"]))
    return kind, touched


def oracle_message(seq, entries, lowest: int) -> str | None:
    """The first fault that entry_fault finds from entry lowest on; the
    entries below it are the valid file's."""
    seen = {ent.f.code: i for i, ent in enumerate(seq.entries[:lowest])}
    for idx in range(lowest, len(entries)):
        fault = entry_fault(idx, entries[idx], seq.params, seq.moduli, seen)
        if fault is not None:
            return fault
    return None


@settings(max_examples=120, deadline=2000)
@given(data=st.data())
def test_seq_loader_agrees_with_the_oracle(valid_seq, data):
    seq, original, original_peak = valid_seq
    obj = copy.deepcopy(original)
    kinds, touched = set(), []
    for _ in range(data.draw(st.integers(1, 2))):
        pristine = [idx for idx in range(len(seq.entries)) if idx not in touched]
        kind, more = edit_entries(data, seq, obj["entries"], pristine)
        kinds.add(kind)
        touched += more
    loaded, message, peak = traced_load(obj)
    # an edit may not make the load grow with a value it reads, as a
    # t^99999999 once made it fill a 1.69 GB coefficient list
    assert peak <= 2 * original_peak + LOAD_PEAK_SLACK
    if kinds == {"spelling"}:
        assert message is None and loaded == seq
    else:
        assert message == oracle_message(seq, obj["entries"], min(touched))


AUX_FIELDS = ("p", "A", "window_start", "seed", "attempt", "method")
AUX_EDITS = ("type", "missing", "element", "repeat", "p", "window", "order")


def edit_aux(data, obj: dict) -> str:
    """One drawn edit to the aux block obj, in place; its kind."""
    kind = data.draw(st.sampled_from(AUX_EDITS))
    elems = obj["A"]
    at = data.draw(st.integers(0, len(elems) - 1))
    if kind == "type":
        where = data.draw(st.sampled_from(("element", *AUX_FIELDS)))
        if where == "element":
            elems[at] = other_type(data, elems[at])
        else:
            obj[where] = other_type(data, obj[where])
    elif kind == "missing":
        del obj[data.draw(st.sampled_from(AUX_FIELDS))]
    elif kind == "element":
        elems[at] += data.draw(st.sampled_from(DELTAS))
    elif kind == "repeat":
        elems.insert(data.draw(st.integers(0, len(elems))), elems[at])
    elif kind == "p":
        obj["p"] = data.draw(st.sampled_from((obj["p"] + 1, obj["p"] - 1, 311, 65521, 65537, 2, 1, -7, HUGE)))
    elif kind == "window":
        obj["window_start"] += data.draw(st.sampled_from((1, -1, HUGE)))
    else:
        random.Random(data.draw(st.integers(0, 2**32))).shuffle(elems)
    return kind


@settings(max_examples=120, deadline=2000)
@given(data=st.data())
def test_aux_loader_agrees_with_the_oracle(aux307, data):
    obj = aux_to_json(aux307)
    kind = edit_aux(data, obj)
    try:
        loaded, message = aux_from_json(obj), None
    except ValueError as exc:
        loaded, message = None, str(exc)
    assert message == aux_fault(obj)
    if kind == "order":
        assert loaded == aux307
