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

Scans and audits share one block loop: a worker sieves a block and returns only
its hits, so the table dies in the worker and at most `jobs` tables are live.

A block's cost follows the rows its base primes touch, not how many primes
there are.  The first row of every prime and of every square comes from one
numpy expression.  A prime with at least 256 multiples in the block updates
them by strided slices.  The others, which touch a few rows each, are
gathered into int32 row lists and applied with ufunc.at.  The rows where
p**2 | n then get the exact power.

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
from .arith import Factorization, _integer
from .bounds import TOTIENT_VARIANTS, VARIANTS, _check_variant_sign


class Config:
    # Rows per sieve block.  An int32 column is then 1 MB, so the audit's
    # `jobs` live tables stay small; the primes above 2**18 // 256 = 1024 are
    # gathered.  Per row, 2**17 and 2**18 rows sieve fastest: at 2**16 the
    # fixed per-block work costs about 30% more, at 2**20 about 10% more.
    BLOCK_SIZE = 1 << 18
    MAX_SCAN_LIMIT = 10**9        # scans refuse ranges beyond this
    MIN_M_TOTIENT = 2             # default multiplier floor (m = 1 means n prime)
    MIN_M_UNIT_OFFSET = 1         # psi / unitary sigma: m = 1 is the prime-power family


KNOWN_FERMAT_PRIMES = (3, 5, 17, 257, 65537)


# ----- block sieve -----

COLUMNS = ("phi", "uphi", "psi", "usigma", "omega", "n1")

# Multiplicative columns: f(p) = p + offset for a prime p, and f(p**e) from p
# and d = p**(e-1) for e >= 2.
_MULTIPLICATIVE = {
    "phi": (-1, lambda p, d: d * (p - 1)),
    "uphi": (-1, lambda p, d: d * p - 1),
    "psi": (1, lambda p, d: d * (p + 1)),
    "usigma": (1, lambda p, d: d * p + 1),
    "n1": (0, lambda p, d: 1),
}
_WIDE = ("psi", "usigma")  # the columns that exceed n, kept as int64
# A prime with fewer multiples than this in a table is gathered, not strided.
_GATHER_BELOW = 256


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


def _first_rows(lo, m, odd: bool):
    """The first row whose n is a multiple of m, for an int or an int64 array m
    (odd in the odd layout, where (m + 1) // 2 inverts the step 2 mod m); with
    m <= 10**9 the int64 product stays below 2**63."""
    r = -lo % m
    return r * ((m + 1) // 2) % m if odd else r


def _row_counts(first: np.ndarray, stride: np.ndarray, size: int) -> np.ndarray:
    """The number of rows first + k * stride below size; 0 when first >= size,
    since first < stride."""
    return (size - first + stride - 1) // stride


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


def _spans(count: np.ndarray, budget: int) -> Iterator[slice]:
    """Consecutive slices covering count; each sums to less than budget plus its first entry."""
    if not count.size:
        return
    cuts = np.searchsorted(np.cumsum(count), np.arange(budget, int(count.sum()), budget),
                           side="right").tolist()
    for a, b in zip([0, *cuts], [*cuts, count.size]):
        yield slice(a, b)


def build_table(lo: int, hi: int, columns: Collection[str] = COLUMNS,
                odd: bool = False) -> BlockTable:
    """Sieve the requested columns of phi, phi*, psi, sigma*, omega and the
    unit-exponent kernel n1 on [lo, hi), over every n or (odd) the odd n only.

    Row i is n = lo + step*i, step 1 or 2, so the multiples of an m prime to
    the step sit m rows apart from _first_rows(lo, m, odd), which numpy gives
    for every base prime p <= sqrt(hi - 1) and every p**2 at once; the odd
    layout skips p = 2.  The base primes update their rows in three passes,
    so a block's cost follows the rows the primes touch, not their number:
    - strided: a prime with at least _GATHER_BELOW multiples in the table
      (p <= rows // _GATHER_BELOW, so p <= 1024 at 2**18 rows) multiplies its
      multiples in place by a scalar, f(p) and p, one slice per column;
    - gathered: the larger primes, which touch fewer rows each, build their
      row lists in int32 spans of about rows // 8 entries and apply f(p) and p
      with np.multiply.at and omega with np.add.at, which are exact where two
      such primes share a row;
    - prime powers: only the rows where p**2 | n, strided or gathered as
      above, get d = p**(e-1), divide out f(p) and multiply in f(p**e).
    Any n < hi has at most one prime factor above sqrt(hi - 1), left over at
    the end and computed in the factored part's buffer.

    One dtype rule holds for every range: n, the factored part of n, the
    exponent array and the phi, phi* and n1 columns are int32; psi and
    sigma* are int64; omega is int16.  int32 has the headroom because
    - every partial product of the factored part, phi, phi* and n1 is at most
      its final value, and the final value is at most n: ufunc.at multiplies
      one factor at a time, and the power step divides f(p) out before it
      multiplies f(p**e) in;
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
    n = np.arange(lo, hi, 2 if odd else 1, dtype=np.int32)
    size = n.size
    done = np.ones(size, dtype=np.int32)  # the part of n factored so far
    updates = [(c, *_MULTIPLICATIVE[c]) for c in COLUMNS if c in columns and c != "omega"]
    cols = {c: np.ones(size, dtype=np.int64 if c in _WIDE else np.int32) for c, _, _ in updates}
    omega = np.zeros(size, dtype=np.int16) if "omega" in columns else None
    base = primes.primes_up_to(math.isqrt(hi - 1))
    if odd:
        base = base[base > 2]

    # strided pass: a prime with at least _GATHER_BELOW multiples updates them by scalars
    first = _first_rows(lo, base, odd)
    split = int(np.searchsorted(base, size // _GATHER_BELOW, side="right"))
    for p, f in zip(base[:split].tolist(), first[:split].tolist()):
        s = slice(f, None, p)
        done[s] *= p
        for c, offset, _ in updates:
            cols[c][s] *= p + offset
        if omega is not None:
            omega[s] += 1

    # gathered pass: the other primes, one span of about size // 8 rows at a time
    large = base[split:]
    count = _row_counts(first[split:], large, size)
    for span in _spans(count, max(size // 8, 1)):
        rows = _gathered_rows(first[split:][span], large[span], count[span])
        ps = np.repeat(large[span].astype(np.int32), count[span])
        np.multiply.at(done, rows, ps)
        shift = 0
        for c, offset, _ in updates:
            ps += offset - shift  # now f(p)
            shift = offset
            np.multiply.at(cols[c], rows, ps)
        if omega is not None:
            np.add.at(omega, rows, 1)
        del rows, ps  # before the next span's

    # prime powers: the rows where p**2 | n, strided or gathered by the same
    # rule, get d = p**(e-1), then f(p) out and f(p**e) in
    squares = base * base
    first = _first_rows(lo, squares, odd)
    split = int(np.searchsorted(squares, size // _GATHER_BELOW, side="right"))
    for p, f in zip(base[:split].tolist(), first[:split].tolist()):
        q = p * p
        s = slice(f, None, q)
        d = np.full(len(range(f, size, q)), p, dtype=np.int32)
        pk = q * p
        while pk < hi and (fk := _first_rows(lo, pk, odd)) < size:
            d[(fk - f) // q::pk // q] *= p
            pk *= p
        done[s] *= d
        for c, offset, power in updates:
            v = cols[c][s]
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
        for c, offset, power in updates:
            np.floor_divide.at(cols[c], rows, ps + offset)
            np.multiply.at(cols[c], rows, power(ps, d))

    rem = np.floor_divide(n, done, out=done)  # 1, or the one prime factor above sqrt(hi - 1)
    big = rem > 1
    shift = 0
    for c, offset, _ in updates:
        np.add(rem, offset - shift, out=rem, where=big)  # now f(rem), and 1 where rem is 1
        shift = offset
        cols[c] *= rem
    if omega is not None:
        omega += big
    return BlockTable(lo=lo, hi=hi, n=n, omega=omega, **cols)


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
        top, den, offset = tbl.n, (tbl.phi if variant == "phi" else tbl.uphi), sign
    else:
        top, den, offset = (tbl.psi if variant == "psi" else tbl.usigma), tbl.n, -sign
    # num >= 1 for every n >= 2: n + sign >= 1, and psi(n), sigma*(n) >= n + 1.
    num = top + offset
    hit = np.flatnonzero(np.remainder(num, den, out=num) == 0)  # num now holds the remainder
    m = (top[hit] + offset) // den[hit]
    keep = m >= min_m
    return hit[keep], m[keep]


def _block_hits(a: int, b: int, variant: str, sign: int, min_m: int,
                odd: bool) -> tuple[np.ndarray, np.ndarray]:
    """The hits (n, m) of one block's table, which dies here."""
    tbl = build_table(a, b, (variant,), odd)
    hit, m = _hit_arrays(tbl, variant, sign, min_m)
    return tbl.n[hit], m


def _hit_stream(lo: int, hi: int, jobs: int, variant: str, sign: int, min_m: int,
                odd: bool = False) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield the _block_hits of the Config.BLOCK_SIZE-row blocks covering the inclusive
    range [lo, hi], in order.  jobs is capped at the CPU count and the number of
    blocks; a single worker runs without a pool."""
    starts = range(lo, hi + 1, Config.BLOCK_SIZE * (2 if odd else 1))
    blocks = ((a, min(a + starts.step, hi + 1), variant, sign, min_m, odd) for a in starts)
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
    hi, jobs = _integer("hi", hi), _check_jobs(jobs)
    if hi > Config.MAX_SCAN_LIMIT:
        raise ValueError(f"hi = {hi} exceeds scan limit {Config.MAX_SCAN_LIMIT}")
    t0 = time.perf_counter()
    variant = "phi" if conjecture == "lehmer" else "uphi"
    hits: list[Solution] = []
    family_count = 0
    if hi >= 2:
        family_count = 1 if variant == "phi" else hi.bit_length() - 1  # 2, or 2, 4, ..., <= hi
        for ns, ms in _hit_stream(3, hi, jobs, variant, -1, 1, odd=True):
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
    pr = arith.profile(f)
    if 2 * pr.phi != pr.n + 1:
        raise AssertionError(f"Fermat product {pr.n} lost its defining identity")
    return Solution(n=pr.n, m=2, variant="phi", sign=1,
                    factorization=f, classification=classify(f))
