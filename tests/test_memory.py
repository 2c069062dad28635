"""Memory guards on the F_q code maps, the sequence load and the Sidon
check: the log tables and the irreducible sieve work one block of codes
at a time, so their transients stay near 1 MB however many codes they
cover, a loaded sequence is held as columns, with no object per entry,
and the Sidon check holds one bucket of pair sums sized from N.
tracemalloc sees numpy's buffers, so a traced peak counts every array
these steps form."""

import json
import tracemalloc

from sidonbasis import analyzer, ffpoly, unitgroup
from sidonbasis.builder import Params, build_sequence, seq_from_json, seq_json_text
from sidonbasis.ffpoly import PrimeModulus, smallest_irreducible


def traced_peak(fn):
    """(result, traced peak in bytes) of fn()."""
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_log_table_peak_stays_near_the_table():
    # q = 13, deg g = 5: 371,293 residues, a 2.97 MB table; the whole
    # (order, 5) power matrix and its products took about 22 MB
    gen = unitgroup.find_generator(smallest_irreducible(PrimeModulus(13), 5))
    unitgroup._LOG_TABLE_CACHE.clear()
    table, peak = traced_peak(lambda: unitgroup.dlog_table(gen))
    unitgroup._LOG_TABLE_CACHE.clear()
    assert table.nbytes == 8 * 13**5
    assert peak <= table.nbytes + (2 << 20)


def test_sieve_peak_is_bounded():
    # q = 3, d = 12: 531,441 codes, whose whole digit matrices took 49 MB
    ffpoly._irreducible_codes.cache_clear()
    codes, peak = traced_peak(lambda: ffpoly._irreducible_codes(3, 12))
    ffpoly._irreducible_codes.cache_clear()
    assert len(codes) == 44220
    assert peak <= 8 << 20


def test_sequence_load_peak_and_size(aux307):
    # the q = 11, k = 3 file, 3,630 entries: with one SequenceEntry and
    # one Poly per entry the load peaked at 2.41 MB traced and kept 1.03 MB
    seq = build_sequence(Params(q=PrimeModulus(11), aux=aux307, k_min=3, k_max=3, seed=0))
    obj = json.loads(seq_json_text(seq))
    seq_from_json(obj)  # the member tables, moduli and log tables are built once per process
    tracemalloc.start()
    try:
        loaded = seq_from_json(obj)
        size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert loaded == seq
    assert peak < 2.41 * 2**20
    assert size < 1.03 * 2**20


def test_desk_sidon_peak_within_the_bucket_budget(seq307):
    # the desk build's 944 values: 446,040 pair sums in four buckets of
    # at most 2^17 key sums, where all of them once took one 3.6 MB
    # buffer. Besides the bucket and O(N) per-j ranges, the pairs are
    # expanded a block at a time: two blocks of (i, j) and one block
    # temporary
    vals = seq307.values
    n = len(vals)
    budget = analyzer._bucket_budget(n)
    assert n == 944 and budget == 1 << 17
    analyzer.verify_sidon(vals)  # numpy's first-call set-up
    witnesses, peak = traced_peak(lambda: analyzer.verify_sidon(vals))
    assert witnesses == []
    assert peak < 8 * budget + 256 * n + 40 * analyzer._PAIR_BLOCK
