"""Memory guards on the F_q code maps: the log tables and the irreducible
sieve work one block of codes at a time, so their transients stay near
1 MB however many codes they cover. tracemalloc sees numpy's buffers, so
a traced peak counts every array these builds form."""

import tracemalloc

from sidonbasis import ffpoly, unitgroup
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
