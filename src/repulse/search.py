"""Exhaustive scans for exact-multiplier solutions of the variant equations.

A "solution" is a pair (n, m) with m * phi(n) = n + sign (classical or
unitary totient) or f(n) = m * n + sign (psi or unitary sigma).  The
scanner sieves phi, phi*, psi, sigma*, omega and the unit-exponent kernel
n1 over consecutive blocks with numpy, so ranges up to 10**9 are feasible,
and yields solutions as a sorted stream.  On top of the scanner sit two
divisibility audits (the classical composite-totient-divisor question and
its unitary analogue) and the constructor for the known family built from
Fermat primes.

Each query sieves only the columns it reads: a scan its variant's column,
an audit its own column, over the odd n only, since parity settles the even
n in closed form.  A scan of psi/+1 or sigma*/+1, where m = 1 holds exactly
on the primes and the prime powers, takes the factorization and class of each
such hit from the column and one map of the proper prime powers in range; only
its other hits are factored.

The sieve keeps n, phi, phi* and n1 as int32, since none of them exceeds
n <= Config.MAX_SCAN_LIMIT < 2**31; psi and sigma* exceed n and stay int64.
"""

from __future__ import annotations

import itertools
import math
import os
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Collection, Iterator, NamedTuple, Optional

import numpy as np

from . import arith, primes
from .arith import Factorization
from .bounds import TOTIENT_VARIANTS, VARIANTS, _check_variant_sign


class Config:
    BLOCK_SIZE = 1 << 20          # rows per sieve block
    MAX_SCAN_LIMIT = 10**9        # scans refuse ranges beyond this
    MIN_M_TOTIENT = 2             # default multiplier floor (m = 1 means n prime)
    MIN_M_UNIT_OFFSET = 1         # psi / unitary sigma: m = 1 is the prime-power family


KNOWN_FERMAT_PRIMES = (3, 5, 17, 257, 65537)


# ----- block sieve -----

COLUMNS = ("phi", "uphi", "psi", "usigma", "omega", "n1")

# Multiplicative columns: f(p**e) from p and d = p**(e-1), and f(r) for the
# leftover cofactor r, which is a prime with exponent 1 or else 1.
_MULTIPLICATIVE = {
    "phi": (lambda p, d: d * (p - 1), lambda r: np.maximum(r - 1, 1)),
    "uphi": (lambda p, d: d * p - 1, lambda r: np.maximum(r - 1, 1)),
    "psi": (lambda p, d: d * (p + 1), lambda r: r + (r > 1)),
    "usigma": (lambda p, d: d * p + 1, lambda r: r + (r > 1)),
    "n1": (lambda p, d: np.where(d == 1, p, 1), lambda r: r),
}
_WIDE = ("psi", "usigma")  # the columns that exceed n, kept as int64


@dataclass(frozen=True)
class BlockTable:
    """Multiplicative-function values on a block; row i is n[i].

    Rows run over every n in [lo, hi) (n = lo + i) or, in the odd layout,
    over the odd n only (n = lo + 2i).  A column that was not requested
    from build_table is None.
    """

    lo: int
    hi: int
    n: np.ndarray
    phi: Optional[np.ndarray] = None
    uphi: Optional[np.ndarray] = None
    psi: Optional[np.ndarray] = None
    usigma: Optional[np.ndarray] = None
    omega: Optional[np.ndarray] = None
    n1: Optional[np.ndarray] = None  # product of primes dividing n exactly once


def build_table(lo: int, hi: int, columns: Collection[str] = COLUMNS,
                odd: bool = False) -> BlockTable:
    """Sieve the requested columns of phi, phi*, psi, sigma*, omega and the
    unit-exponent kernel n1 on [lo, hi), over every n or (odd) the odd n only.

    Row i is n = lo + step*i, step 1 or 2.  The multiples of p**k sit at the
    rows i = -lo * step**-1 (mod p**k), so each prime p <= sqrt(hi - 1)
    updates its multiples through strided slices in either layout; the odd
    layout skips p = 2.  Any n < hi has at most one prime factor above
    sqrt(hi - 1), left over at the end.

    One dtype rule holds for every range: n, the factored part of n, the
    exponent array and the phi, phi* and n1 columns are int32; psi and
    sigma* are int64; omega is int16.  int32 has the headroom because
    - every partial product of the factored part, phi, phi* and n1 is at
      most its final value, and the final value is at most n;
    - n <= Config.MAX_SCAN_LIMIT = 10**9;
    - _hit_arrays forms n + sign <= 10**9 + 1 < 2**31 - 1.
    psi(n) reaches about 3.75n below 10**9 (psi(892371480) > 2**31), so psi
    and sigma* need int64.
    """
    columns = set(columns)
    if not columns <= set(COLUMNS):
        raise ValueError(f"unknown columns {sorted(columns - set(COLUMNS))}")
    if not 2 <= lo < hi:
        raise ValueError(f"need 2 <= lo < hi, got [{lo}, {hi})")
    if hi - 1 > Config.MAX_SCAN_LIMIT:
        raise ValueError(f"range end {hi - 1} exceeds limit {Config.MAX_SCAN_LIMIT}")
    if odd and lo % 2 == 0:
        raise ValueError(f"the odd layout needs an odd lo, got {lo}")
    step = 2 if odd else 1

    def first_row(m: int) -> int:  # the first row whose n is a multiple of m
        return -lo * pow(step, -1, m) % m

    n = np.arange(lo, hi, step, dtype=np.int32)
    size = n.size
    done = np.ones(size, dtype=np.int32)  # the part of n factored so far
    updates = [(c, *_MULTIPLICATIVE[c]) for c in COLUMNS if c in columns and c != "omega"]
    cols = {c: np.ones(size, dtype=np.int64 if c in _WIDE else np.int32) for c, _, _ in updates}
    omega = np.zeros(size, dtype=np.int16) if "omega" in columns else None
    for p in primes.primes_up_to(math.isqrt(hi - 1)).tolist():
        if odd and p == 2:
            continue
        first = first_row(p)
        if first >= size:
            continue
        s = slice(first, None, p)
        # d = p**(e-1) where p**e exactly divides n; the scalar 1 while no row has e >= 2
        pk = p * p
        f = first_row(pk)
        d = np.ones(len(range(first, size, p)), dtype=np.int32) if f < size else 1
        while f < size:
            d[(f - first) // p::pk // p] *= p
            pk *= p
            f = first_row(pk)
        done[s] *= d * p
        for c, prime_power, _ in updates:
            cols[c][s] *= prime_power(p, d)
        if omega is not None:
            omega[s] += 1
    rem = n // done
    for c, _, leftover in updates:
        cols[c] *= leftover(rem)
    if omega is not None:
        omega += rem > 1
    return BlockTable(lo=lo, hi=hi, n=n, omega=omega, **cols)


def _table_stream(lo: int, hi: int, jobs: int, columns: Collection[str] = COLUMNS,
                  odd: bool = False) -> Iterator[BlockTable]:
    """Yield the tables of blocks of Config.BLOCK_SIZE rows covering the inclusive
    range [lo, hi] in order; build_table gets `columns` and `odd` as they are.
    Workers keep only a bounded window live: jobs is capped at the CPU count."""
    jobs = min(jobs, os.cpu_count() or 1)
    span = Config.BLOCK_SIZE * (2 if odd else 1)
    ranges = ((a, min(a + span, hi + 1)) for a in range(lo, hi + 1, span))
    if jobs <= 1:
        for a, b in ranges:
            yield build_table(a, b, columns, odd)
        return
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        pending = deque(pool.submit(build_table, a, b, columns, odd)
                        for a, b in itertools.islice(ranges, jobs + 2))
        for a, b in ranges:
            yield pending.popleft().result()
            pending.append(pool.submit(build_table, a, b, columns, odd))
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


class Solution(NamedTuple):
    """One exact solution (n, m) of a variant equation.

    A NamedTuple: immutable and hashable, and also a plain tuple, so it
    indexes, iterates, unpacks, and compares equal to a tuple of the
    same values.
    """

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


def _proper_prime_powers(lo: int, hi: int) -> dict[int, tuple[int, int]]:
    """{p**e: (p, e)} for the prime powers p**e in [lo, hi] with e >= 2."""
    out = {}
    for p in primes.primes_up_to(math.isqrt(hi)).tolist():
        q, e = p * p, 2
        while q <= hi:
            if q >= lo:
                out[q] = (p, e)
            q, e = q * p, e + 1
    return out


def _make_solution(n: int, m: int, variant: str, sign: int,
                   powers: Optional[dict[int, tuple[int, int]]] = None) -> Solution:
    # A scan of psi/+1 or sigma*/+1 passes `powers`, and its column then proves
    # every m = 1 hit: psi(n) = n + 1 only for n prime, sigma*(n) = n + 1 only
    # for n = p**e, so n is the proper power `powers` maps or else the prime
    # (n, 1), and the pair gives the class.  Every other solution, m >= 2 or
    # an audit's, is factored and classified.
    if powers is not None and m == 1:
        p, e = powers.get(n, (n, 1))
        f = arith._trusted(Factorization, pairs=((p, e),), value=n)
        return Solution(n, m, variant, sign, f, "prime" if e == 1 else "prime-power")
    f = arith.factor(n)
    return Solution(n, m, variant, sign, f, classify(f))


def default_min_m(variant: str) -> int:
    """Default multiplier floor: 2 for the totients, 1 for psi / unitary sigma."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    return Config.MIN_M_TOTIENT if variant in TOTIENT_VARIANTS else Config.MIN_M_UNIT_OFFSET


def _hit_arrays(tbl: BlockTable, variant: str, sign: int,
                min_m: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows of tbl whose n solves the variant equation with a multiplier
    >= min_m, and those multipliers; reads tbl.n and the variant's column."""
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
    return hit[keep], m[keep]


def scan(lo: int, hi: int, variant: str, sign: int, min_m: Optional[int] = None,
         jobs: int = 1) -> Iterator[Solution]:
    """Stream every solution with multiplier >= min_m over the inclusive range [lo, hi].

    Output is sorted by n and byte-for-byte independent of `jobs`.  Totient
    variants solve m * f(n) = n + sign; psi and unitary sigma solve
    f(n) = m * n + sign.  min_m defaults per variant (see default_min_m).
    """
    _check_variant_sign(variant, sign)
    if hi > Config.MAX_SCAN_LIMIT:
        raise ValueError(f"hi = {hi} exceeds scan limit {Config.MAX_SCAN_LIMIT}")
    if min_m is None:
        min_m = default_min_m(variant)
    if min_m < 1:
        raise ValueError(f"min_m must be >= 1, got {min_m}")
    lo = max(lo, 2)
    if hi < lo:
        return
    # the m = 1 family the column proves, as _make_solution reads it
    powers = _proper_prime_powers(lo, hi) if sign == 1 and variant not in TOTIENT_VARIANTS else None
    for tbl in _table_stream(lo, hi, jobs, (variant,)):
        hit, ms = _hit_arrays(tbl, variant, sign, min_m)
        for n, m in zip(tbl.n[hit].tolist(), ms.tolist()):
            yield _make_solution(n, m, variant, sign, powers)


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
    """The variant/-1 equation with min_m = 1, sieved over the odd n only.

    The family is the m = 1 hits: phi(n) = n - 1 iff n is prime, and
    phi*(n) = n - 1 iff n is a prime power, since (a - 1)(b - 1) < ab - 1 for
    coprime a, b >= 2.  Parity settles the even n (Lehmer, Bull. AMS 38,
    1932): for even n >= 4, phi(n) is even and n - 1 is odd, so only n = 2
    has phi(n) | n - 1; for even n that is not a power of 2, phi*(n) has the
    even factor p^e - 1 of an odd prime power p^e || n, and n - 1 is odd, so
    only the powers of 2 have phi*(n) | n - 1.  Both are family members,
    counted in closed form; the table reads only the variant's own column.
    """
    if hi > Config.MAX_SCAN_LIMIT:
        raise ValueError(f"hi = {hi} exceeds scan limit {Config.MAX_SCAN_LIMIT}")
    t0 = time.perf_counter()
    variant = "phi" if conjecture == "lehmer" else "uphi"
    hits: list[Solution] = []
    family_count = 0
    if hi >= 2:
        family_count = 1 if variant == "phi" else hi.bit_length() - 1  # 2, or 2, 4, ..., <= hi
        for tbl in _table_stream(3, hi, jobs, (variant,), odd=True):
            hit, ms = _hit_arrays(tbl, variant, -1, 1)
            one = ms == 1
            family_count += int(np.count_nonzero(one))
            for n, m in zip(tbl.n[hit[~one]].tolist(), ms[~one].tolist()):
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
