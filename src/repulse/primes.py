"""Prime generation and deterministic primality testing."""

from __future__ import annotations

import math
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


def _segments(lo: int, hi: int) -> Iterator[np.ndarray]:
    """Primes in [lo, hi), for 2 <= lo and hi <= MAX_ENUMERATION + 1, as int64
    arrays of one SEGMENT_SIZE block each; base primes come from small_primes().

    Each block flags its odd integers only: row i is (seg_lo | 1) + 2i, so the
    odd multiples of an odd p sit p rows apart, and 2 is prepended to the
    block that starts at 2."""
    ps = small_primes()
    base = ps[1:int(np.searchsorted(ps, math.isqrt(max(hi - 1, 0)), side="right"))].tolist()
    for seg_lo in range(lo, hi, Config.SEGMENT_SIZE):
        first = seg_lo | 1
        flags = np.ones((min(seg_lo + Config.SEGMENT_SIZE, hi) - first + 1) // 2, dtype=bool)
        for p in base:
            m = max(p * p, -(-first // p) * p)
            if m % 2 == 0:
                m += p  # the first odd multiple
            flags[(m - first) // 2::p] = False
        seg = np.flatnonzero(flags).astype(np.int64) * 2 + first
        yield np.concatenate(([2], seg)) if seg_lo == 2 else seg


def primes_up_to(n: int) -> np.ndarray:
    """Sorted int64 array of all primes p <= n."""
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
    """Raise ValueError unless each member is prime (tested first) and seq strictly increases."""
    prev = 1
    for p in seq:
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if p <= prev:
            raise ValueError(f"primes must be strictly increasing, got {p} after {prev}")
        prev = p
