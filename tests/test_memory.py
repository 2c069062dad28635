"""Memory guards on the F_q code maps, the sequence load, the Sidon
check and the report writer: the log tables and the irreducible sieve
work one block of codes at a time, so their transients stay near 1 MB
however many codes they cover, a loaded sequence is held as columns,
with no object per entry, the Sidon check holds one bucket of pair sums
sized from N, the equidist report is held as columns, with no object per
class, and a report is written a chunk at a time, never whole.
tracemalloc sees numpy's buffers, so a traced peak counts every array
these steps form."""

import json
import tracemalloc

from sidonbasis import analyzer, cli, ffpoly, unitgroup
from sidonbasis.builder import Params, build_sequence, seq_from_json, seq_json_chunks
from sidonbasis.equidist import deviation_csv_lines, deviation_report, triple_histogram
from sidonbasis.ffpoly import PrimeModulus, poly_from_string, smallest_irreducible


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
    obj = json.loads("".join(seq_json_chunks(seq)))
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


def traced_write_peak(path, make_chunks):
    """(file size, traced peak in bytes) of writing make_chunks() through
    cli._write_report to path, after one untraced write (numpy's first-call
    set-up)."""
    cli._write_report(str(path), make_chunks(), {})
    _, peak = traced_peak(lambda: cli._write_report(str(path), make_chunks(), {}))
    return path.stat().st_size, peak


def test_sequence_write_stays_under_the_file(aux307, tmp_path):
    # the q = 11, k = 3 file, 888 KB: held whole, the text and its pieces
    # peaked at 3.34 MB traced. Streamed, the level names (about 0.28 MB)
    # and one block of entries are all that is held
    seq = build_sequence(Params(q=PrimeModulus(11), aux=aux307, k_min=3, k_max=3, seed=0))
    size, peak = traced_write_peak(tmp_path / "seq.json", lambda: seq_json_chunks(seq, "seq.json.manifest.json"))
    assert size > 880_000
    assert peak < 0.75 * size


def test_equidist_report_keeps_columns_per_class():
    # the d = 6, g = 2+t^2+t^8 report, 6,560 unit classes: held as tuples
    # of counts, deviations and ratios and one name string per class, it
    # kept about 104 traced bytes per class. As columns it keeps one
    # index per class, beside the histogram's own columns
    q = PrimeModulus(3)
    hist = triple_histogram(q, 6, poly_from_string(q, "2+t^2+t^8"))
    deviation_report(hist)  # numpy's first-call set-up
    tracemalloc.start()
    try:
        dev = deviation_report(hist)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert dev.phi_g == len(hist.units) == 6560
    assert kept < 40 * dev.phi_g


def test_equidist_csv_write_stays_under_the_file(tmp_path):
    # the d = 6, g = 2+t^2+t^8 report, 553 KB: the lines, their join and
    # the header concatenation peaked at 2.03 MB traced. Streamed, a line
    # at a time, the writer holds the per-count tails and a write buffer
    q = PrimeModulus(3)
    dev = deviation_report(triple_histogram(q, 6, poly_from_string(q, "2+t^2+t^8")))
    header = ["a", "count", "expected", "deviation", "normalized_ratio"]
    size, peak = traced_write_peak(
        tmp_path / "eq.csv", lambda: cli._csv_chunks(header, deviation_csv_lines(dev), "eq.csv.manifest.json")
    )
    assert size > 550_000
    assert peak < size / 8
