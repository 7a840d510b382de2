"""Reference answers the benchmark checks against, computed without the package.

A plain segmented sieve of Eratosthenes over numpy arrays: it shares no code
with ``repulse.primes`` or ``repulse.search``, so a defect there cannot hide
in the reference.
"""

from __future__ import annotations

import math

import numpy as np


def _primes_below(n: int) -> np.ndarray:
    flags = np.ones(max(n, 2), dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(n - 1) + 1 if n > 1 else 0):
        if flags[p]:
            flags[p * p::p] = False
    return np.flatnonzero(flags)


def primes_in(lo: int, hi: int) -> np.ndarray:
    """Sorted primes p with lo <= p < hi."""
    lo = max(lo, 2)
    if lo >= hi:
        return np.empty(0, dtype=np.int64)
    flags = np.ones(hi - lo, dtype=bool)
    for p in _primes_below(math.isqrt(hi - 1) + 1).tolist():
        first = max(p * p, -(-lo // p) * p)
        flags[first - lo::p] = False
    return np.flatnonzero(flags).astype(np.int64) + lo


def prime_powers_in(lo: int, hi: int) -> list[int]:
    """Sorted prime powers p^k (k >= 1) with lo <= p^k < hi."""
    out = set(primes_in(lo, hi).tolist())
    for p in _primes_below(math.isqrt(max(hi - 1, 1)) + 1).tolist():
        q = p * p
        while q < hi:
            if q >= lo:
                out.add(q)
            q *= p
    return sorted(out)


def prime_count(n: int) -> int:
    """pi(n)."""
    return int(primes_in(2, n + 1).size)


def prime_power_count(n: int) -> int:
    """Number of prime powers p^k <= n, k >= 1."""
    return len(prime_powers_in(2, n + 1))
