"""Exhaustive scans for exact-multiplier solutions of the variant equations.

A "solution" is a pair (n, m) with m * phi(n) = n + sign (classical or
unitary totient) or f(n) = m * n + sign (psi or unitary sigma).  The
scanner sieves one variant's column, phi, phi*, psi or sigma*, over
consecutive blocks with numpy, so ranges up to 10**9 are feasible, and
yields solutions as a sorted stream.  On top of the scanner sit two
divisibility audits (the classical composite-totient-divisor question and
its unitary analogue) and the constructor for the known family built from
Fermat primes.

Every table holds the odd n only; parity rules out each even n but the powers
of 2, which each block tests apart (see _block_hits).  A scan of psi/+1 or
sigma*/+1, where m = 1 holds exactly on the primes and the prime powers, takes
the factorization and class of each such hit from the column and one map of
the proper prime powers in range; only its other hits are factored.

Scans and audits share one block loop: a worker sieves a block and returns only
its hits, so the table dies in the worker and at most `jobs` tables are live.

A block's cost follows the rows its base primes touch, not how many primes
there are, and n, phi and phi* are int32 (see build_table); the hit test
divides only the rows that can hit (see _hit_arrays).
"""

from __future__ import annotations

import itertools
import math
import os
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional

import numpy as np

from . import arith, primes
from .arith import Factorization, _integer
from .bounds import TOTIENT_VARIANTS, VARIANTS, _check_variant_sign
from .primes import _first_rows, _gathered_rows


class Config:
    # Rows per sieve block.  An int32 column is then 1 MB, so the audit's
    # `jobs` live tables stay small; the primes above 2**18 // 256 = 1024 are
    # gathered.  Per row, 2**17 and 2**18 rows sieve fastest: at 2**16 the
    # fixed per-block work costs about 30% more, at 2**20 about 10% more.
    BLOCK_SIZE = 1 << 18
    MAX_SCAN_LIMIT = 10**9        # scans refuse ranges beyond this


KNOWN_FERMAT_PRIMES = (3, 5, 17, 257, 65537)


# ----- block sieve -----

# The variant columns, all multiplicative: f(p) = p + offset for a prime p,
# and f(p**e) from p and d = p**(e-1) for e >= 2.
_MULTIPLICATIVE = {
    "phi": (-1, lambda p, d: d * (p - 1)),
    "uphi": (-1, lambda p, d: d * p - 1),
    "psi": (1, lambda p, d: d * (p + 1)),
    "usigma": (1, lambda p, d: d * p + 1),
}
# A prime with fewer multiples than this in a table is gathered, not strided.
_GATHER_BELOW = 256


@dataclass(frozen=True)
class BlockTable:
    """One variant's values on a block; row i is n[i], values[i] is f(n[i])."""

    lo: int
    hi: int
    n: np.ndarray
    values: np.ndarray


def _row_counts(first: np.ndarray, stride: np.ndarray, size: int) -> np.ndarray:
    """The number of rows first + k * stride below size; 0 when first >= size,
    since first < stride."""
    return (size - first + stride - 1) // stride


def _spans(count: np.ndarray, budget: int) -> Iterator[slice]:
    """Consecutive slices covering count; each sums to less than budget plus its first entry."""
    if not count.size:
        return
    cuts = np.searchsorted(np.cumsum(count), np.arange(budget, int(count.sum()), budget),
                           side="right").tolist()
    for a, b in zip([0, *cuts], [*cuts, count.size]):
        yield slice(a, b)


def build_table(lo: int, hi: int, variant: str) -> BlockTable:
    """Sieve one variant, phi, phi*, psi or sigma*, on the odd n in [lo, hi),
    for an odd lo.

    Row i is n = lo + 2i, so the multiples of an odd m sit m rows apart from
    _first_rows(lo, m), which numpy gives for every odd base prime
    p <= sqrt(hi - 1) and every p**2 at once.  The base primes update their
    rows in three passes, so a block's cost follows the rows the primes
    touch, not their number:
    - strided: a prime with at least _GATHER_BELOW multiples in the table
      (p <= rows // _GATHER_BELOW, so p <= 1024 at 2**18 rows) multiplies its
      multiples in place by p and f(p), one slice each;
    - gathered: the larger primes, which touch fewer rows each, build their
      row lists in int32 spans of about rows // 8 entries and apply p and f(p)
      with np.multiply.at, which is exact where two such primes share a row;
    - prime powers: only the rows where p**2 | n, strided or gathered as
      above, get d = p**(e-1), divide out f(p) and multiply in f(p**e).
    Any n < hi has at most one prime factor above sqrt(hi - 1), left over at
    the end as rem = n // done in the factored part's buffer.  f(rem) is
    rem + offset where rem > 1 and 1 where rem = 1, edited into rem in place
    with no mask: rem += rem > 1 for +1, rem -= 1 then max(rem, 1) for -1.

    One dtype rule holds for every range: n, the factored part of n, the
    exponent array and the phi and phi* values are int32; the psi and sigma*
    values are int64.  int32 has the headroom because
    - every partial product of the factored part, phi and phi* is at most its
      final value, and the final value is at most n: ufunc.at multiplies one
      factor at a time, and the power step divides f(p) out before it
      multiplies f(p**e) in;
    - n <= Config.MAX_SCAN_LIMIT = 10**9;
    - the leftover's rem + 1 and _hit_arrays' n + sign are at most
      10**9 + 1 < 2**31 - 1, and _hit_arrays forms no product.
    psi(n) reaches about 3.75n below 10**9 (psi(892371480) > 2**31), so psi
    and sigma*, the variants with offset +1, need int64.  Every ufunc.at
    operand has its array's dtype: a factor of another dtype takes numpy off
    the fast path of ufunc.at, about 30 times slower on an int64 column.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if not (2 <= lo < hi and lo % 2):  # the rows are the odd n
        raise ValueError(f"need an odd lo with 2 <= lo < hi, got [{lo}, {hi})")
    if hi - 1 > Config.MAX_SCAN_LIMIT:
        raise ValueError(f"range end {hi - 1} exceeds limit {Config.MAX_SCAN_LIMIT}")
    offset, power = _MULTIPLICATIVE[variant]
    n = np.arange(lo, hi, 2, dtype=np.int32)
    size = n.size
    done = np.ones(size, dtype=np.int32)  # the part of n factored so far
    values = np.ones(size, dtype=np.int64 if offset == 1 else np.int32)
    base = primes.primes_up_to(math.isqrt(hi - 1))[1:]  # the odd primes

    # strided pass: a prime with at least _GATHER_BELOW multiples updates them by scalars
    first = _first_rows(lo, base)
    split = int(np.searchsorted(base, size // _GATHER_BELOW, side="right"))
    for p, f in zip(base[:split].tolist(), first[:split].tolist()):
        s = slice(f, None, p)
        done[s] *= p
        values[s] *= p + offset

    # gathered pass: the other primes, one span of about size // 8 rows at a time
    large = base[split:]
    count = _row_counts(first[split:], large, size)
    for span in _spans(count, max(size // 8, 1)):
        rows = _gathered_rows(first[split:][span], large[span], count[span])
        ps = np.repeat(large[span].astype(np.int32), count[span])
        np.multiply.at(done, rows, ps)
        ps += offset  # now f(p)
        np.multiply.at(values, rows, ps.astype(values.dtype, copy=False))
        del rows, ps  # before the next span's

    # prime powers: the rows where p**2 | n, strided or gathered by the same
    # rule, get d = p**(e-1), then f(p) out and f(p**e) in
    squares = base * base
    first = _first_rows(lo, squares)
    split = int(np.searchsorted(squares, size // _GATHER_BELOW, side="right"))
    for p, f in zip(base[:split].tolist(), first[:split].tolist()):
        q = p * p
        s = slice(f, None, q)
        d = np.full(len(range(f, size, q)), p, dtype=np.int32)
        pk = q * p
        while pk < hi and (fk := _first_rows(lo, pk)) < size:
            d[(fk - f) // q::pk // q] *= p
            pk *= p
        done[s] *= d
        v = values[s]
        v //= p + offset
        v *= power(p, d)
    count = _row_counts(first[split:], squares[split:], size)
    if count.any():
        rows = _gathered_rows(first[split:], squares[split:], count)
        ps = np.repeat(base[split:].astype(np.int32), count)
        d, t = ps.copy(), n[rows] // (ps * ps)
        while (deeper := t % ps == 0).any():
            np.multiply(d, ps, out=d, where=deeper)
            np.floor_divide(t, ps, out=t, where=deeper)
        np.multiply.at(done, rows, d)
        np.floor_divide.at(values, rows, (ps + offset).astype(values.dtype, copy=False))
        np.multiply.at(values, rows, power(ps, d).astype(values.dtype, copy=False))

    rem = np.floor_divide(n, done, out=done)  # 1, or the one prime factor above sqrt(hi - 1)
    if offset == 1:
        rem += rem > 1
    else:
        rem -= 1
        np.maximum(rem, 1, out=rem)
    values *= rem
    return BlockTable(lo=lo, hi=hi, n=n, values=values)


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
    """Default multiplier floor: 2 for the totients, where m = 1 means n is
    prime; 1 for psi and unitary sigma, where m = 1 is the prime-power family."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    return 2 if variant in TOTIENT_VARIANTS else 1


def _hit_arrays(tbl: BlockTable, variant: str, sign: int,
                min_m: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows of tbl, the variant's table, whose n solves the variant equation
    with a multiplier >= min_m, and those multipliers; leaves the table
    unchanged.

    Only the candidate rows are divided: with num = n + sign - f(n) (totients)
    or f(n) - sign - n, a hit has num = (m - 1) * den, so m = 1 is num = 0 and
    m >= 2 needs num >= den.
    """
    if variant in TOTIENT_VARIANTS:
        top, den, offset = tbl.n, tbl.values, sign
    else:
        top, den, offset = tbl.values, tbl.n, -sign
    # num >= 0 for every n >= 2: phi(n), phi*(n) <= n - 1 and psi(n), sigma*(n) >= n + 1
    num = top + offset
    num -= den
    cand = num >= den
    if min_m <= 1:
        cand |= num == 0
    hit = np.flatnonzero(cand)
    del cand
    num, den = num[hit], den[hit]  # the full-size num dies here
    m, r = np.divmod(num, den)
    m += 1
    keep = (r == 0) & (m >= min_m)
    return hit[keep], m[keep]


def _block_hits(a: int, b: int, variant: str, sign: int,
                min_m: int) -> tuple[np.ndarray, np.ndarray]:
    """The hits (n, m) with n in [a, b), in n order: the odd n from one block
    table, which dies here, and the powers of 2.  No other even n solves any of
    the four equations: an odd p**e || n makes f(p**e) = p**(e-1) (p -+ 1) or
    p**e -+ 1 even, so f(n) is even while n + sign is odd (Lehmer, Bull. AMS
    38, 1932, for phi)."""
    odd = (build_table(a | 1, b, variant) if a | 1 < b  # else [a, b) is one even n
           else BlockTable(a, b, *np.empty((2, 0), dtype=np.int32)))
    hit, ms = _hit_arrays(odd, variant, sign, min_m)
    ns = odd.n[hit]
    power = _MULTIPLICATIVE[variant][1]  # f(2**k) = power(2, 2**(k-1)), k >= 1
    twos = 1 << np.arange((a - 1).bit_length(), (b - 1).bit_length(), dtype=np.int64)
    hit, m = _hit_arrays(BlockTable(a, b, twos, power(2, twos // 2)), variant, sign, min_m)
    if not hit.size:  # the odd hits, not copied
        return ns, ms
    at = np.searchsorted(ns, twos[hit])
    return np.insert(ns, at, twos[hit]), np.insert(ms, at, m)


def _hit_stream(lo: int, hi: int, jobs: int, variant: str, sign: int,
                min_m: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield the _block_hits of the blocks of 2 * Config.BLOCK_SIZE integers covering
    the inclusive range [lo, hi], in order.  jobs is capped at the CPU count and
    the number of blocks; a single worker runs without a pool."""
    starts = range(lo, hi + 1, 2 * Config.BLOCK_SIZE)
    blocks = ((a, min(a + starts.step, hi + 1), variant, sign, min_m) for a in starts)
    jobs = min(jobs, os.cpu_count() or 1, len(starts))
    if jobs <= 1:
        yield from itertools.starmap(_block_hits, blocks)
        return
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        pending = deque(pool.submit(_block_hits, *args)
                        for args in itertools.islice(blocks, jobs + 2))
        for args in blocks:
            yield pending.popleft().result()
            pending.append(pool.submit(_block_hits, *args))
        while pending:
            yield pending.popleft().result()


def _check_jobs(jobs: int) -> int:
    jobs = _integer("jobs", jobs)
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return jobs


def scan(lo: int, hi: int, variant: str, sign: int, min_m: Optional[int] = None,
         jobs: int = 1) -> Iterator[Solution]:
    """Stream every solution with multiplier >= min_m over the inclusive range [lo, hi].

    Output is sorted by n and byte-for-byte independent of `jobs`.  Totient
    variants solve m * f(n) = n + sign; psi and unitary sigma solve
    f(n) = m * n + sign.  min_m defaults per variant (see default_min_m).
    """
    _check_variant_sign(variant, sign)
    lo, hi, jobs = _integer("lo", lo), _integer("hi", hi), _check_jobs(jobs)
    if hi > Config.MAX_SCAN_LIMIT:
        raise ValueError(f"hi = {hi} exceeds scan limit {Config.MAX_SCAN_LIMIT}")
    min_m = default_min_m(variant) if min_m is None else _integer("min_m", min_m)
    if min_m < 1:
        raise ValueError(f"min_m must be >= 1, got {min_m}")
    lo = max(lo, 2)
    if hi < lo:
        return
    # the m = 1 family the column proves, as _make_solution reads it
    powers = _proper_prime_powers(lo, hi) if sign == 1 and variant not in TOTIENT_VARIANTS else None
    for ns, ms in _hit_stream(lo, hi, jobs, variant, sign, min_m):
        for n, m in zip(ns.tolist(), ms.tolist()):
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
    """The variant/-1 equation with min_m = 1 over [2, hi].

    The family is the m = 1 hits: phi(n) = n - 1 iff n is prime, and
    phi*(n) = n - 1 iff n is a prime power, since (a - 1)(b - 1) < ab - 1 for
    coprime a, b >= 2.  The table reads only the variant's own column.
    """
    hi, jobs = _integer("hi", hi), _check_jobs(jobs)
    if hi > Config.MAX_SCAN_LIMIT:
        raise ValueError(f"hi = {hi} exceeds scan limit {Config.MAX_SCAN_LIMIT}")
    t0 = time.perf_counter()
    variant = "phi" if conjecture == "lehmer" else "uphi"
    hits: list[Solution] = []
    family_count = 0
    for ns, ms in _hit_stream(2, hi, jobs, variant, -1, 1):
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
    k = _integer("k", k)
    if not 1 <= k <= len(KNOWN_FERMAT_PRIMES):
        raise ValueError(f"k must be in 1..{len(KNOWN_FERMAT_PRIMES)}, got {k}")
    f = arith.from_pairs([(p, 1) for p in KNOWN_FERMAT_PRIMES[:k]])
    return Solution(n=f.value, m=2, variant="phi", sign=1,
                    factorization=f, classification=classify(f))
