"""Prime generation and deterministic primality testing."""

from __future__ import annotations

import math
import numbers
import operator
from typing import Iterable, Iterator

import numpy as np

# ----- configuration -----


class Config:
    SMALL_SIEVE_LIMIT = 1_000_000        # cached flag array covers [0, this]
    SEGMENT_SIZE = 1 << 20               # block length for segmented iteration
    MAX_ENUMERATION = 1_000_000_000      # refuse to enumerate primes past this


# Witness set making Miller-Rabin deterministic for all n < MR_LIMIT, the
# least strong pseudoprime to all twelve bases, psi_12 (about 3.2e23 > 2**78;
# Sorenson & Webster, Math. Comp. 86, 2017).  Base 41 would extend it to psi_13.
MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
MR_LIMIT = 318665857834031151167461


def _integer(name: str, value) -> int:
    """value as an int: any integer type passes through operator.index, but a
    bool (True == 1) or a float (1.0 == 1) is a TypeError."""
    if isinstance(value, bool):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None


def _finite(name: str, value):
    """value itself when it is a finite real number; a bool (True == 1), or a value
    that is not a numbers.Real (a str, None, a Decimal), is a TypeError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a number, got {value!r}")
    if not -math.inf < value < math.inf:
        raise ValueError(f"{name} must be finite, got {value}")
    return value


# ----- cached small sieve -----

_flag_cache: np.ndarray | None = None
_prime_cache: np.ndarray | None = None
_spf_cache: np.ndarray | None = None


def _flags() -> np.ndarray:
    global _flag_cache
    if _flag_cache is None:
        n = Config.SMALL_SIEVE_LIMIT + 1
        flags = np.ones(n, dtype=bool)
        flags[:2] = False
        for p in range(2, math.isqrt(n - 1) + 1):
            if flags[p]:
                flags[p * p::p] = False
        _flag_cache = flags
    return _flag_cache


def small_primes() -> np.ndarray:
    """All primes up to Config.SMALL_SIEVE_LIMIT, cached, as int64."""
    global _prime_cache
    if _prime_cache is None:
        _prime_cache = np.flatnonzero(_flags()).astype(np.int64)
    return _prime_cache


def smallest_prime_factor() -> np.ndarray:
    """Array s with s[i] = least prime factor of i, for 2 <= i <= SMALL_SIEVE_LIMIT."""
    global _spf_cache
    if _spf_cache is None:
        n = Config.SMALL_SIEVE_LIMIT + 1
        spf = np.zeros(n, dtype=np.int32)
        for p in range(2, math.isqrt(n - 1) + 1):
            if spf[p] == 0:
                block = spf[p * p::p]
                block[block == 0] = p
        untouched = np.flatnonzero(spf[2:] == 0) + 2  # primes, and composites < 4
        spf[untouched] = untouched
        _spf_cache = spf
    return _spf_cache


def _first_rows(lo, m):
    """The first row whose n is a multiple of m, for an odd int or int64 array m,
    where row k holds lo + 2k: k = r / 2 mod m for r = -lo mod m, so r / 2
    when r is even and (r + m) / 2 when r is odd."""
    r = -lo % m
    return (r + (r & 1) * m) // 2


def _gathered_rows(first: np.ndarray, stride: np.ndarray, count: np.ndarray) -> np.ndarray:
    """The rows first + k * stride, k < count, of every run, concatenated as
    int32: each entry starts as its gap from the entry before, and one cumsum
    in place turns the gaps into rows."""
    rows = np.repeat(stride.astype(np.int32), count)
    runs = np.flatnonzero(count)
    if runs.size:
        first, stride, count = first[runs], stride[runs], count[runs]
        last = first + (count - 1) * stride
        rows[np.cumsum(count[:-1])] = first[1:] - last[:-1]
        rows[0] = first[0]
        np.cumsum(rows, dtype=np.int32, out=rows)
    return rows


def _segments(lo: int, hi: int) -> Iterator[np.ndarray]:
    """Primes in [lo, hi), for 2 <= lo and hi <= MAX_ENUMERATION + 1, as int64
    arrays of one SEGMENT_SIZE block each; base primes come from small_primes().

    Each block flags its odd integers only: row i is (seg_lo | 1) + 2i, so the
    odd multiples of an odd p sit p rows apart, and 2 is prepended to the
    block that starts at 2.  Only the live base primes, p**2 < the block's
    end, strike anything; the first row of each, its first odd multiple but
    not below p**2, comes from one numpy expression over _first_rows, the
    formula the search sieve uses too."""
    ps = small_primes()
    base = ps[1:int(np.searchsorted(ps, math.isqrt(max(hi - 1, 0)), side="right"))]
    for seg_lo in range(lo, hi, Config.SEGMENT_SIZE):
        first, end = seg_lo | 1, min(seg_lo + Config.SEGMENT_SIZE, hi)
        flags = np.ones((end - first + 1) // 2, dtype=bool)
        live = base[:int(np.searchsorted(base, math.isqrt(end - 1), side="right"))]
        rows = np.maximum(_first_rows(first, live), (live * live - first) // 2)
        for f, p in zip(rows.tolist(), live.tolist()):
            flags[f::p] = False
        seg = np.flatnonzero(flags).astype(np.int64) * 2 + first
        yield np.concatenate(([2], seg)) if seg_lo == 2 else seg


def primes_up_to(n: int) -> np.ndarray:
    """Sorted int64 array of all primes p <= n."""
    n = _integer("n", n)
    if n < 2:
        return np.empty(0, dtype=np.int64)
    if n <= Config.SMALL_SIEVE_LIMIT:
        ps = small_primes()
        return ps[:int(np.searchsorted(ps, n, side="right"))]
    if n > Config.MAX_ENUMERATION:
        raise ValueError(f"prime enumeration limit is {Config.MAX_ENUMERATION}, got {n}")
    return np.concatenate([small_primes(), *_segments(Config.SMALL_SIEVE_LIMIT + 1, n + 1)])


def iter_primes(lo: int, hi: int) -> Iterator[int]:
    """Primes in [lo, hi), ascending, one sieved segment at a time; hi is checked on the call."""
    if hi > Config.MAX_ENUMERATION + 1:
        raise ValueError(f"prime enumeration limit is {Config.MAX_ENUMERATION}, got {hi}")
    return (p for seg in _segments(max(lo, 2), hi) for p in seg.tolist())


# ----- primality -----


def is_prime(n: int) -> bool:
    """Deterministic primality test for n < MR_LIMIT (about 3.2e23).

    The cached sieve answers n <= SMALL_SIEVE_LIMIT, Miller-Rabin larger n.
    The answer is proven for every n below MR_LIMIT; from there on it
    would not be, so a larger n raises ValueError.
    """
    n = _integer("n", n)
    if n < 2:
        return False
    if n <= Config.SMALL_SIEVE_LIMIT:
        return bool(_flags()[n])
    if n >= MR_LIMIT:
        raise ValueError(f"primality is proven only below {MR_LIMIT}, got {n}")
    for p in MR_BASES:
        if n % p == 0:
            return n == p
    # n is odd and coprime to all bases here; run strong-probable-prime rounds.
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def check_increasing_primes(seq: Iterable[int]) -> None:
    """Raise ValueError unless each member is prime (tested first) and seq strictly
    increases; a member that is not an integer is a TypeError."""
    prev = 1
    for p in seq:
        if not is_prime(_integer("primes", p)):
            raise ValueError(f"{p} is not prime")
        if p <= prev:
            raise ValueError(f"primes must be strictly increasing, got {p} after {prev}")
        prev = p
