"""Tests for prime enumeration and primality, against sympy as an independent oracle."""

import math
from decimal import Decimal

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from repulse import primes
from repulse.arith import Factorization, from_pairs
from repulse.largesieve import SieveSystem
from repulse.repulsive import PrimeSet, is_self_repulsive, stats
from repulse.primes import MR_LIMIT, Config, is_prime, iter_primes, primes_up_to

SMALL = Config.SMALL_SIEVE_LIMIT
SEG = Config.SEGMENT_SIZE
EDGE_OFFSETS = [k * SEG + d for k in (1, 2) for d in (-1, 0, 1)]


def oracle(lo: int, hi: int) -> list[int]:
    """Primes in [lo, hi) from sympy's own sieve."""
    return list(sympy.sieve.primerange(lo, hi))


def test_examples():
    assert primes_up_to(100)[:10].tolist() == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert len(primes_up_to(10**6)) == 78498
    assert list(iter_primes(90, 120)) == [97, 101, 103, 107, 109, 113]
    assert sum(1 for _ in iter_primes(10**6, 10**6 + 10**4)) == 753


def test_is_prime_examples():
    assert is_prime(2) and is_prime(2**61 - 1)
    assert not is_prime(2**61 + 1)


@pytest.mark.parametrize("call", [
    lambda: is_prime(True),  # was False
    lambda: is_prime(7.0),  # was a numpy IndexError
    lambda: primes_up_to(10.5),  # floored
    lambda: primes_up_to(True),  # was empty
], ids=["is_prime(True)", "is_prime(7.0)", "primes_up_to(10.5)", "primes_up_to(True)"])
def test_bools_and_floats_are_refused(call):
    with pytest.raises(TypeError, match=r"^n must be an integer, got \S+$"):
        call()


_RECORD = PrimeSet(a=1, primes=(3, 5), cutoff=10.0)


@pytest.mark.parametrize("call, error, field", [
    (lambda: from_pairs([(3.7, 1)]), TypeError, "prime"),  # was 3
    (lambda: from_pairs([(3, 2.9)]), TypeError, "exponent"),  # was 9
    (lambda: from_pairs([("7", 1)]), TypeError, "prime"),  # was 7
    (lambda: from_pairs([(3, True)]), TypeError, "exponent"),  # was 3
    (lambda: Factorization(pairs=((3, 2.0),), value=9), TypeError, "exponent"),
    (lambda: Factorization(pairs=((3, True),), value=3), TypeError, "exponent"),
    (lambda: Factorization(pairs=((3, 2),), value=9.0), TypeError, "value"),
    (lambda: PrimeSet(a=True, primes=(3,), cutoff=10.0), TypeError, "a"),
    (lambda: PrimeSet(a=1.5, primes=(3,), cutoff=10.0), TypeError, "a"),
    (lambda: PrimeSet(a=1, primes=None, cutoff=10.0), TypeError, "primes"),
    (lambda: PrimeSet(a=1, primes=(3,), cutoff="100"), TypeError, "cutoff"),  # a comparison error
    (lambda: PrimeSet(a=1, primes=(3,), cutoff=Decimal(100)), TypeError, "cutoff"),  # was accepted
    (lambda: PrimeSet(a=1, primes=(3,), cutoff=math.inf), ValueError, "cutoff"),
    (lambda: SieveSystem(start=0, x_len=10.0, omega_p={3: {1.7}}), TypeError, "residues"),
    (lambda: is_self_repulsive([3.7, 5], 1), TypeError, "primes"),  # was the set {3, 5}
    (lambda: stats(_RECORD, math.nan), ValueError, "x"),  # was empty statistics
    (lambda: stats(_RECORD, None), TypeError, "x"),  # a comparison error
])
def test_records_refuse_a_field_that_is_not_an_integer(call, error, field):
    # each record puts its integer fields through primes._integer and its
    # numbers through primes._finite: a one-line error that names the field
    with pytest.raises(error, match=rf"^{field} must be (an integer|a number|a list|finite)") as info:
        call()
    assert "\n" not in str(info.value)


def test_from_pairs_turns_numpy_integers_into_ints():
    f = from_pairs([(np.int64(3), np.int32(2)), (np.uint16(7), np.int8(1))])
    assert f.pairs == ((3, 2), (7, 1)) and f.value == 63
    assert all(type(v) is int for pair in f.pairs for v in pair) and type(f.value) is int


def test_numpy_integers_pass():
    assert is_prime(np.int64(7)) and not is_prime(np.uint8(9))
    assert primes_up_to(np.int32(30)).tolist() == primes_up_to(30).tolist()
    assert primes_up_to(np.int64(SMALL + 100)).tolist() == primes_up_to(SMALL + 100).tolist()


@pytest.mark.parametrize("lo, hi", [(-3, 3000), (SMALL - 2000, SMALL + 2000)])
def test_is_prime_matches_sympy_across_the_sieve_edge(lo, hi):
    # n <= SMALL reads the cached sieve, larger n run Miller-Rabin
    for n in range(lo, hi + 1):
        got = is_prime(n)
        assert type(got) is bool and got == sympy.isprime(n), n


PSI12 = 318665857834031151167461   # = 399165290221 * 798330580441
PSI13 = 3317044064679887385961981  # strong pseudoprimes to bases 2..37 (and 2..41)


@pytest.mark.parametrize("n", [PSI12, PSI13, PSI12 + 2, 2**100 + 277])
def test_is_prime_refuses_beyond_proven_bound(n):
    # bases 2..37 are proven only below psi_12; PSI12 itself passes all of them
    with pytest.raises(ValueError, match=str(MR_LIMIT)):
        is_prime(n)


def test_is_prime_just_below_proven_bound():
    assert MR_LIMIT == PSI12
    assert is_prime(MR_LIMIT - 2) == sympy.isprime(MR_LIMIT - 2)
    assert not is_prime(MR_LIMIT - 1)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(n=st.integers(2**64 - 2**32, 2**64 + 2**32) | st.integers(2**60, 2**70))
def test_is_prime_matches_sympy_around_2_64(n):
    assert is_prime(n) == sympy.isprime(n)


# ----- primes_up_to -----


# the cached table ends at SMALL; segments start at SMALL + 1, SEG integers each
@pytest.mark.parametrize("n", [2, 100, SMALL - 1, SMALL, SMALL + 1]
                         + [SMALL + off for off in EDGE_OFFSETS])
def test_primes_up_to_matches_sympy(n):
    got = primes_up_to(n)
    assert got.dtype == np.int64
    assert got.tolist() == oracle(2, n + 1)


@pytest.mark.parametrize("n", [-5, 0, 1])
def test_primes_up_to_below_two_is_empty(n):
    got = primes_up_to(n)
    assert got.dtype == np.int64 and got.size == 0


# ----- iter_primes -----


@pytest.mark.parametrize("lo", [0, 1, 2])
@pytest.mark.parametrize("offset", EDGE_OFFSETS)
def test_iter_primes_matches_sympy(lo, offset):
    # segments start at max(lo, 2), so hi = 2 + offset sits on or next to an edge
    got = list(iter_primes(lo, 2 + offset))
    assert got == oracle(lo, 2 + offset)
    assert all(type(p) is int for p in got[:5])


@pytest.mark.parametrize("lo, hi", [(0, 0), (0, 2), (-10, 1), (5, 5), (10, 3), (24, 29)])
def test_iter_primes_empty_ranges(lo, hi):
    assert list(iter_primes(lo, hi)) == []


def test_iter_primes_window_ending_at_the_limit():
    hi = Config.MAX_ENUMERATION + 1
    lo = hi - 50_000
    assert list(iter_primes(lo, hi)) == list(sympy.primerange(lo, hi))


def test_enumeration_limit():
    limit = Config.MAX_ENUMERATION
    with pytest.raises(ValueError, match="enumeration limit"):
        primes_up_to(limit + 1)
    with pytest.raises(ValueError, match="enumeration limit"):
        next(iter_primes(0, limit + 2))


@settings(max_examples=50, deadline=None)
@given(seg=st.integers(64, 4096), lo=st.integers(-10, 3 * 10**6),
       width=st.integers(0, 20_000))
def test_segments_match_sympy_across_segment_edges(seg, lo, width):
    # a small segment size puts many segment edges inside each window
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Config, "SEGMENT_SIZE", seg)
        got_iter = list(iter_primes(lo, lo + width))
        got_table = primes_up_to(SMALL + width)
    assert got_iter == oracle(lo, lo + width)
    assert got_table[got_table > SMALL].tolist() == oracle(SMALL + 1, SMALL + width + 1)


# ----- odd-only segments -----


@pytest.mark.parametrize("lo", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("width", [0, 1, 2, 41])
def test_segments_at_the_edges_of_the_odd_layout(lo, width):
    # an odd segment size starts blocks at both parities; a block flags only
    # its odd integers, and the block starting at 2 gets 2 prepended
    for seg in (1, 3, 7):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(Config, "SEGMENT_SIZE", seg)
            blocks = list(primes._segments(lo, lo + width))
        starts = range(lo, lo + width, seg)
        assert len(blocks) == len(starts)
        for seg_lo, block in zip(starts, blocks):
            assert block.dtype == np.int64
            assert block.tolist() == oracle(seg_lo, min(seg_lo + seg, lo + width)), (seg, seg_lo)


@pytest.mark.parametrize("p", [3, 5, 7, 101, 9973, 31607])
@pytest.mark.parametrize("seg", [7, 64, 4096])
def test_segments_where_a_base_square_meets_a_block_edge(p, seg):
    # p is live in a block only when p**2 < its end: p**2 on the block's
    # first row, on its last row, and exactly at its end
    q = p * p
    windows = [(q, q + seg), (max(q + 1 - seg, 2), q + 1),
               (max(q - seg, 2), q), (max(q - seg, 2), q + seg)]
    for lo, hi in windows:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(Config, "SEGMENT_SIZE", seg)
            blocks = list(primes._segments(lo, hi))
        starts = range(lo, hi, seg)
        assert len(blocks) == len(starts)
        for seg_lo, block in zip(starts, blocks):
            assert block.dtype == np.int64
            want = list(sympy.primerange(seg_lo, min(seg_lo + seg, hi)))
            assert block.tolist() == want, (lo, hi, seg_lo)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 999), st.integers(1, 1000), st.integers(0, 40)),
                max_size=30))
def test_gathered_rows_concatenate_each_run(runs):
    first, stride, count = np.array(runs, dtype=np.int64).reshape(-1, 3).T
    rows = primes._gathered_rows(first, stride, count)
    want = [f + k * s for f, s, c in runs for k in range(c)]
    assert rows.dtype == np.int32 and rows.tolist() == want


def test_segmented_tables_are_int64():
    assert primes_up_to(2 * 10**6).dtype == np.int64
    blocks = list(primes._segments(SMALL + 1, 2 * 10**6 + 1))
    assert len(blocks) == 1 and all(b.dtype == np.int64 for b in blocks)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Config, "SEGMENT_SIZE", 4099)
        blocks = list(primes._segments(2, 50_000))
    assert len(blocks) == 13 and all(b.dtype == np.int64 for b in blocks)
    assert np.concatenate(blocks).tolist() == oracle(2, 50_000)
