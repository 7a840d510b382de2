"""Exhaustive scans for exact-multiplier solutions of the variant equations.

A "solution" is a pair (n, m) with m * phi(n) = n + sign (classical or
unitary totient) or f(n) = m * n + sign (psi or unitary sigma).  The
scanner sieves phi, phi*, psi, sigma*, omega and the unit-exponent kernel
n1 over consecutive blocks with numpy, so ranges up to 10**9 are feasible,
and yields solutions as a sorted stream.  On top of the scanner sit two
divisibility audits (the classical composite-totient-divisor question and
its unitary analogue) and the constructor for the known family built from
Fermat primes.
"""

from __future__ import annotations

import itertools
import math
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from . import arith, primes
from .arith import Factorization
from .bounds import TOTIENT_VARIANTS, VARIANTS


class Config:
    BLOCK_SIZE = 1 << 20          # sieve block length
    MAX_SCAN_LIMIT = 10**9        # scans refuse ranges beyond this
    MIN_M_TOTIENT = 2             # default multiplier floor (m = 1 means n prime)
    MIN_M_UNIT_OFFSET = 1         # psi / unitary sigma: m = 1 is the prime-power family


KNOWN_FERMAT_PRIMES = (3, 5, 17, 257, 65537)


# ----- block sieve -----


@dataclass(frozen=True)
class BlockTable:
    """Multiplicative-function values for every n in [lo, hi); column i is lo + i."""

    lo: int
    hi: int
    n: np.ndarray
    phi: np.ndarray
    uphi: np.ndarray
    psi: np.ndarray
    usigma: np.ndarray
    omega: np.ndarray
    n1: np.ndarray  # product of primes dividing n exactly once


def build_table(lo: int, hi: int) -> BlockTable:
    """Sieve phi, phi*, psi, sigma*, omega and the unit-exponent kernel n1 on [lo, hi).

    Each prime p <= sqrt(hi - 1) updates its multiples through strided slices;
    any n < hi has at most one prime factor above that, left over at the end.
    """
    if not 2 <= lo < hi:
        raise ValueError(f"need 2 <= lo < hi, got [{lo}, {hi})")
    if hi - 1 > Config.MAX_SCAN_LIMIT:
        raise ValueError(f"range end {hi - 1} exceeds limit {Config.MAX_SCAN_LIMIT}")
    size = hi - lo
    n = np.arange(lo, hi, dtype=np.int64)
    rem = n.copy()
    phi = np.ones(size, dtype=np.int64)
    uphi = np.ones(size, dtype=np.int64)
    psi = np.ones(size, dtype=np.int64)
    usig = np.ones(size, dtype=np.int64)
    n1 = np.ones(size, dtype=np.int64)
    omega = np.zeros(size, dtype=np.int16)
    for p in primes.primes_up_to(math.isqrt(hi - 1)).tolist():
        first = -lo % p
        if first >= size:
            continue
        s = slice(first, None, p)
        q = np.full(len(range(first, size, p)), p, dtype=np.int64)  # p**e exactly dividing n
        pk = p * p
        while (f := -lo % pk) < size:
            q[(f - first) // p::pk // p] *= p
            pk *= p
        rem[s] //= q
        phi[s] *= q // p * (p - 1)
        uphi[s] *= q - 1
        psi[s] *= q // p * (p + 1)
        usig[s] *= q + 1
        n1[s] *= np.where(q == p, p, 1)
        omega[s] += 1
    big = rem > 1  # leftover cofactor is a prime with exponent 1
    phi *= np.maximum(rem - 1, 1)
    uphi *= np.maximum(rem - 1, 1)
    psi *= rem + big
    usig *= rem + big
    n1 *= rem
    omega += big
    return BlockTable(lo=lo, hi=hi, n=n, phi=phi, uphi=uphi, psi=psi,
                      usigma=usig, omega=omega, n1=n1)


def _table_stream(lo: int, hi: int, jobs: int) -> Iterator[BlockTable]:
    """Yield the tables of Config.BLOCK_SIZE blocks covering the inclusive range
    [lo, hi] in order; workers keep only a bounded window live."""
    block = Config.BLOCK_SIZE
    ranges = ((a, min(a + block, hi + 1)) for a in range(lo, hi + 1, block))
    if jobs <= 1:
        for a, b in ranges:
            yield build_table(a, b)
        return
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        pending = deque(pool.submit(build_table, a, b)
                        for a, b in itertools.islice(ranges, jobs + 2))
        for a, b in ranges:
            yield pending.popleft().result()
            pending.append(pool.submit(build_table, a, b))
        while pending:
            yield pending.popleft().result()


# ----- solutions -----


def classify(f: Factorization) -> str:
    """Structural class of n from its factorization."""
    if len(f.pairs) == 1:
        return "prime" if f.pairs[0][1] == 1 else "prime-power"
    if all(e == 1 for _, e in f.pairs):
        return "composite-squarefree"
    return "composite-nonsquarefree"


@dataclass(frozen=True)
class Solution:
    """One exact solution (n, m) of a variant equation."""

    n: int
    m: int
    variant: str
    sign: int
    factorization: Factorization
    classification: str

    def to_json(self) -> dict[str, object]:
        return {
            "n": str(self.n),
            "m": str(self.m),
            "variant": self.variant,
            "sign": f"{self.sign:+d}",
            "factorization": [[p, e] for p, e in self.factorization.pairs],
            "class": self.classification,
        }


def _make_solution(n: int, m: int, variant: str, sign: int,
                   prime_hint: bool = False) -> Solution:
    if prime_hint:
        f = Factorization(pairs=((n, 1),), value=n)
    else:
        f = arith.factor(n)
    return Solution(n=n, m=m, variant=variant, sign=sign,
                    factorization=f, classification=classify(f))


def default_min_m(variant: str) -> int:
    """Default multiplier floor: 2 for the totients, 1 for psi / unitary sigma."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    return Config.MIN_M_TOTIENT if variant in TOTIENT_VARIANTS else Config.MIN_M_UNIT_OFFSET


def _hit_arrays(tbl: BlockTable, variant: str, sign: int,
                min_m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    if variant in TOTIENT_VARIANTS:
        den = tbl.phi if variant == "phi" else tbl.uphi
        num = tbl.n + sign
    else:
        den = tbl.n
        num = (tbl.psi if variant == "psi" else tbl.usigma) - sign
    # num >= 1 for every n >= 2: n + sign >= 1, and psi(n), sigma*(n) >= n + 1.
    hit = np.flatnonzero(num % den == 0)
    m = num[hit] // den[hit]
    keep = m >= min_m
    hit, m = hit[keep], m[keep]
    n = tbl.n[hit]
    # n is prime iff phi(n) = n - 1; lets the flood of prime solutions skip factor()
    return n, m, tbl.phi[hit] == n - 1


def scan(lo: int, hi: int, variant: str, sign: int, min_m: Optional[int] = None,
         jobs: int = 1) -> Iterator[Solution]:
    """Stream every solution with multiplier >= min_m over the inclusive range [lo, hi].

    Output is sorted by n and byte-for-byte independent of `jobs`.  Totient
    variants solve m * f(n) = n + sign; psi and unitary sigma solve
    f(n) = m * n + sign.  min_m defaults per variant (see default_min_m).
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    if hi > Config.MAX_SCAN_LIMIT:
        raise ValueError(f"hi = {hi} exceeds scan limit {Config.MAX_SCAN_LIMIT}")
    if min_m is None:
        min_m = default_min_m(variant)
    if min_m < 1:
        raise ValueError(f"min_m must be >= 1, got {min_m}")
    lo = max(lo, 2)
    if hi < lo:
        return
    for tbl in _table_stream(lo, hi, jobs):
        ns, ms, prime_flags = _hit_arrays(tbl, variant, sign, min_m)
        for n, m, pf in zip(ns.tolist(), ms.tolist(), prime_flags.tolist()):
            yield _make_solution(n, m, variant, sign, prime_hint=pf)


# ----- divisibility audits -----


@dataclass(frozen=True)
class AuditReport:
    """Outcome of a divisor audit over [2, hi].

    `counterexamples` would hold any n outside the expected solution family;
    `family` names that family and `family_count` counts its members found.
    """

    conjecture: str
    hi: int
    counterexamples: tuple[Solution, ...]
    family: str
    family_count: int
    wall_time: float

    @property
    def ok(self) -> bool:
        return not self.counterexamples

    def to_json(self) -> dict[str, object]:
        return {
            "conjecture": self.conjecture,
            "hi": str(self.hi),
            "counterexamples": [s.to_json() for s in self.counterexamples],
            "family": self.family,
            "family_count": self.family_count,
            "wall_time": self.wall_time,
        }


def _divisor_audit(conjecture: str, hi: int, jobs: int) -> AuditReport:
    # The audit is the variant/-1 equation with min_m = 1.  Its family is the
    # m = 1 hits: phi(n) = n - 1 iff n is prime, and phi*(n) = n - 1 iff n is a
    # prime power, since (a - 1)(b - 1) < ab - 1 for coprime a, b >= 2.
    if hi > Config.MAX_SCAN_LIMIT:
        raise ValueError(f"hi = {hi} exceeds scan limit {Config.MAX_SCAN_LIMIT}")
    t0 = time.perf_counter()
    variant = "phi" if conjecture == "lehmer" else "uphi"
    hits: list[Solution] = []
    family_count = 0
    if hi >= 2:
        for tbl in _table_stream(2, hi, jobs):
            ns, ms, _ = _hit_arrays(tbl, variant, -1, 1)
            one = ms == 1
            family_count += int(np.count_nonzero(one))
            for n, m in zip(ns[~one].tolist(), ms[~one].tolist()):
                hits.append(_make_solution(n, m, variant, -1))
    family = "prime" if conjecture == "lehmer" else "prime-power"
    return AuditReport(conjecture=conjecture, hi=hi, counterexamples=tuple(hits),
                       family=family, family_count=family_count,
                       wall_time=time.perf_counter() - t0)


def lehmer_audit(hi: int, jobs: int = 1) -> AuditReport:
    """Audit that no composite n <= hi has phi(n) dividing n - 1.

    Every prime trivially satisfies the divisibility with multiplier 1; the
    report counts them and lists any composite counterexample.
    """
    return _divisor_audit("lehmer", hi, jobs)


def subbarao_audit(hi: int, jobs: int = 1) -> AuditReport:
    """Audit that every n <= hi with phi*(n) dividing n - 1 is a prime power.

    Prime powers satisfy the divisibility with multiplier 1 since
    phi*(p^e) = p^e - 1; the report lists any other n that slips through.
    """
    return _divisor_audit("subbarao", hi, jobs)


# ----- the Fermat-prime family -----


def fermat_family(k: int) -> Solution:
    """Product of the first k known Fermat primes as a classical-totient solution.

    Each product N satisfies 2 * phi(N) = N + 1, i.e. multiplier 2 with
    positive sign.  k ranges over 1..5.
    """
    if not 1 <= k <= len(KNOWN_FERMAT_PRIMES):
        raise ValueError(f"k must be in 1..{len(KNOWN_FERMAT_PRIMES)}, got {k}")
    f = arith.from_pairs([(p, 1) for p in KNOWN_FERMAT_PRIMES[:k]])
    pr = arith.profile(f)
    if 2 * pr.phi != pr.n + 1:
        raise AssertionError(f"Fermat product {pr.n} lost its defining identity")
    return Solution(n=pr.n, m=2, variant="phi", sign=1,
                    factorization=f, classification=classify(f))
