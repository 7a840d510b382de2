"""Large-sieve machinery: the weight g, its summatory M_g, survivor counts and
bounds, restricted multiplicative sums, and divisor-sum estimates.

Conventions.  A sieve system carries residue classes Omega_p for finitely many
primes; every prime without an assigned class implicitly sieves the single
class {0}.  The integer window of a system is (start, start + x_len], so x_len
counts the available integer slots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from typing import Iterable, Mapping, Optional

import numpy as np

from . import primes
from .arith import _trusted, factor
from .bounds import EULER_GAMMA
from .primes import _finite, _integer
from .repulsive import PrimeSet

EXACT_MG_LIMIT = 10_000        # exact rational M_g up to here, floats beyond
EXACT_TAU_LIMIT = 10_000       # same threshold for sums of tau(m)/m
MAX_WINDOW = 100_000_000       # survivor counting refuses longer windows
MAX_TAU_TABLE = 1_000_000      # cached divisor-count table size
MAX_D_ARG = 1_000_000_000      # divisor_summatory range (hyperbola method)
LEMMA22_FROM = 60              # lemma 22's lower bound is stated for y >= this
_ZERO_CLASS = frozenset((0,))  # Omega_p of a prime without assigned classes


# ----- sieve systems -----


@dataclass(frozen=True)
class SieveSystem:
    """Residue classes to sieve from the integer window (start, start + x_len]."""

    start: int
    x_len: float
    omega_p: Mapping[int, frozenset[int]]

    def __post_init__(self) -> None:
        if _finite("window length", self.x_len) < 0:
            raise ValueError(f"window length must be >= 0, got {self.x_len}")
        primes.check_increasing_primes(sorted(self.omega_p))
        norm = {}
        for p, residues in self.omega_p.items():
            p = _integer("primes", p)
            norm[p] = frozenset(_integer("residues", r) % p for r in residues)
        object.__setattr__(self, "omega_p", norm)

    def omega(self, p: int) -> frozenset[int]:
        """Residue classes sieved at p; defaults to {0} when unassigned."""
        return self.omega_p.get(p, _ZERO_CLASS)

    def rho(self, p: int) -> int:
        return len(self.omega(p))


def from_prime_set(u: PrimeSet, start: int = 0, x_len: float = 0.0) -> SieveSystem:
    """The standard system for a set U: Omega_p = {0, a mod p} on U, {0} elsewhere.
    Built with _trusted, since u's members were proven when u was built."""
    if _finite("window length", x_len) < 0:
        raise ValueError(f"window length must be >= 0, got {x_len}")
    omega = {p: frozenset((0, u.a % p)) for p in u.primes}
    return _trusted(SieveSystem, start=start, x_len=x_len, omega_p=omega)


# ----- the weight g and its summatory -----


def _g_factor(p: int, sys: SieveSystem) -> Fraction:
    rho = sys.rho(p)
    if rho >= p:
        raise ValueError(f"rho({p}) = {rho} >= {p}: weight g undefined at this prime")
    return Fraction(rho, p - rho)


def g_value(n: int, sys: SieveSystem) -> Fraction:
    """g(n) = product of rho(p)/(p - rho(p)) over p | n for squarefree n, else 0."""
    if n < 1:
        raise ValueError(f"g is defined on positive integers, got {n}")
    out = Fraction(1)
    for p, e in factor(n).pairs:
        if e > 1:
            return Fraction(0)
        out *= _g_factor(p, sys)
    return out


def _mg_top(z: float) -> int:
    if not 1 <= _finite("z", z):
        raise ValueError(f"mg_sum needs z >= 1, got {z}")
    top = math.floor(z)
    if top > primes.Config.SMALL_SIEVE_LIMIT:
        raise ValueError(f"mg_sum supports z <= {primes.Config.SMALL_SIEVE_LIMIT}")
    return top


def mg_sum(z: float, sys: SieveSystem):
    """M_g(z) = sum of g(n) for n <= z; exact rational up to EXACT_MG_LIMIT.

    One sieve gives g(n) = num[n] / den[n] with both below n < 2^53, so the float
    path adds the correctly rounded g(1), g(2), ... left to right, as tests pin.
    The weight at p is rho / (p - rho), already in lowest terms since
    gcd(rho, p - rho) = gcd(rho, p) = 1 for 1 <= rho < p; at rho = 0 the
    numerator is 0 and the denominator never counts.  A prime p <= sqrt(top)
    updates its multiples by one slice and zeroes the multiples of p**2.  The
    larger primes have no square up to top and at most one of them divides any
    n <= top, so their rows are distinct and one gathered update is exact.
    The exact path adds the nonzero num[n] of each distinct den[n], then sums
    over one common denominator L, the lcm of those den[n]: the same rational
    as adding the g(n) one by one.
    """
    top = _mg_top(z)
    ps = primes.primes_up_to(top)
    # rho(p) for every p <= top: one lookup per such prime, however many
    # primes the system assigns
    rho = np.fromiter(map(len, map(sys.omega_p.get, ps.tolist(), repeat(_ZERO_CLASS))),
                      dtype=np.int64, count=ps.size)
    bad = np.flatnonzero(rho >= ps)
    if bad.size:
        _g_factor(int(ps[bad[0]]), sys)  # raises, naming the smallest such prime
    num, den = np.ones((2, top + 1), dtype=np.int64)
    split = int(np.searchsorted(ps, math.isqrt(top), side="right"))
    for p, r in zip(ps[:split].tolist(), rho[:split].tolist()):
        num[p::p] *= r
        den[p::p] *= p - r
        num[p * p::p * p] = 0
    large, count = ps[split:], top // ps[split:]
    rows = primes._gathered_rows(large, large, count)
    num[rows] *= np.repeat(rho[split:], count)
    den[rows] *= np.repeat(large - rho[split:], count)
    if top <= EXACT_MG_LIMIT:
        sums: dict[int, int] = {}
        for n, d in zip(num[1:].tolist(), den[1:].tolist()):
            if n:
                sums[d] = sums.get(d, 0) + n
        common = math.lcm(*sums)
        return Fraction(sum(n * (common // d) for d, n in sums.items()), common)
    return float(np.cumsum(num[1:] / den[1:])[-1])


# ----- survivor counting and the sieve bound -----


def survivor_bound(x_len: float, w: float, sys: SieveSystem) -> float:
    """Upper bound (x_len + w^2) / M_g(w) for the survivor count at level w."""
    _finite("x_len", x_len)
    if _finite("w", w) < 1:
        raise ValueError(f"survivor_bound needs w >= 1, got {w}")
    mg = mg_sum(w, sys)
    return float((Fraction(x_len) + Fraction(w) ** 2) / mg) if isinstance(mg, Fraction) \
        else (x_len + w * w) / mg


def survivor_count(sys: SieveSystem, w: float) -> int:
    """Exact count of window integers avoiding every sieved class at primes <= w."""
    _finite("w", w)
    length = math.floor(sys.start + sys.x_len) - sys.start
    if length <= 0:
        return 0
    if length > MAX_WINDOW:
        raise ValueError(f"window of {length} integers exceeds limit {MAX_WINDOW}")
    alive = np.ones(length, dtype=bool)  # index i is the integer start + 1 + i
    for p in primes.primes_up_to(math.floor(w)):
        p = int(p)
        for r in sys.omega(p):
            first = (r - sys.start - 1) % p
            alive[first::p] = False
    return int(np.count_nonzero(alive))


def pi_u_sieve_inequality(x: float, w: float, u: PrimeSet) -> tuple[int, float]:
    """Count primes of U up to x against the sieve certificate Z + w over [1, x].

    Raises if the certificate fails, which can only happen when u is not
    actually self-repulsive for its parameter.
    """
    sys = from_prime_set(u, start=0, x_len=x)
    lhs = sum(1 for p in u.primes if p <= x)
    rhs = survivor_count(sys, w) + w
    if lhs > rhs:
        raise ArithmeticError(
            f"sieve inequality violated: pi_U({x}) = {lhs} > {rhs}")
    return lhs, rhs


# ----- restricted multiplicative sums -----


@dataclass(frozen=True)
class Lemma21Check:
    lhs: Fraction          # sum of f over n <= x coprime to U
    rhs: Fraction          # full sum divided by the per-prime tail product
    holds: bool
    tail_factors: dict     # prime -> the divisor actually used


def _as_fraction(v) -> Fraction:
    out = Fraction(v)
    if out < 0:
        raise ValueError(f"f must be nonnegative, got {v}")
    return out


def _normalize_table(f_table: Mapping) -> dict[int, dict[int, Fraction]]:
    by_p: dict[int, dict[int, Fraction]] = {}
    for (p, e), v in f_table.items():
        p, e = _integer("table prime", p), _integer("table exponent", e)
        if not primes.is_prime(p) or e < 1:
            raise ValueError(f"table key ({p}, {e}) is not a prime power")
        by_p.setdefault(p, {})[e] = _as_fraction(v)
    return by_p


def _f_of(n: int, by_p: dict[int, dict[int, Fraction]], spf: np.ndarray) -> Fraction:
    # Multiplicative extension of the table; prime powers absent from it give 0.
    out = Fraction(1)
    while n > 1:
        p = int(spf[n])
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        v = by_p.get(p, {}).get(e)
        if not v:
            return Fraction(0)
        out *= v
    return out


def restricted_sum(f_table: Mapping, u: Iterable[int], x: float) -> Fraction:
    """Sum of the multiplicative f(n) over n <= x coprime to every prime in u."""
    return lemma21_check(f_table, u, x).lhs


def lemma21_check(f_table: Mapping, u: Iterable[int], x: float,
                  tails: Optional[Mapping[int, object]] = None) -> Lemma21Check:
    """Verify: restricted sum >= full sum / product of per-prime power series.

    The divisor at p defaults to 1 + the sum of the tabulated f(p^e); a caller
    may declare a larger closed-form series total via `tails` (it must dominate
    the tabulated partial sum and be finite).
    """
    top = math.floor(_finite("x", x))
    if top < 1:
        raise ValueError(f"need x >= 1, got {x}")
    if top > primes.Config.SMALL_SIEVE_LIMIT:
        raise ValueError(f"restricted_sum supports x <= {primes.Config.SMALL_SIEVE_LIMIT}")
    by_p = _normalize_table(f_table)
    u_set = sorted({_integer("u", p) for p in u})
    spf = primes.smallest_prime_factor()

    lhs = full = Fraction(1)  # n = 1
    for n in range(2, top + 1):
        term = _f_of(n, by_p, spf)
        full += term
        if all(n % p for p in u_set):
            lhs += term

    tail_factors: dict[int, Fraction] = {}
    for p in u_set:
        partial = Fraction(1) + sum(by_p.get(p, {}).values(), Fraction(0))
        if tails is not None and p in tails:
            t = tails[p]
            if not math.isfinite(float(t)):
                raise ValueError(f"declared series total at {p} must be finite")
            declared = Fraction(t)
            if declared < partial:
                raise ValueError(
                    f"declared series total {declared} at {p} is below the tabulated sum {partial}")
            tail_factors[p] = declared
        else:
            tail_factors[p] = partial

    rhs = full
    for t in tail_factors.values():
        rhs /= t
    return Lemma21Check(lhs=lhs, rhs=rhs, holds=lhs >= rhs, tail_factors=tail_factors)


# ----- divisor sums -----


def divisor_summatory(w: int) -> int:
    """D(w) = sum of tau(n) for n <= w, by the hyperbola method."""
    if _integer("w", w) < 1:
        raise ValueError(f"need w >= 1, got {w}")
    if w > MAX_D_ARG:
        raise ValueError(f"divisor_summatory supports w <= {MAX_D_ARG}")
    root = math.isqrt(w)
    d = np.arange(1, root + 1, dtype=np.int64)
    return 2 * int(np.sum(w // d)) - root * root


_TAU_EMPTY = (np.zeros(0, dtype=np.int32), memoryview(np.zeros(0)))
_tau_counts, _tau_sums = _TAU_EMPTY  # tau(m), and the sum of tau(k)/k for k <= m, at index m


def _tau_table(top: int) -> tuple[np.ndarray, memoryview]:
    """The int32 tau(m) and the float64 prefix sums of tau(m)/m, indexed by m >= 0,
    grown to hold index top.

    A table that is too short is rebuilt with the next power of two above top
    entries, at least 2^10 and at most MAX_TAU_TABLE + 1, so an increasing sweep
    rebuilds it about log2 times.  Each build does the same arithmetic at any
    size (hyperbola counts, then tau(m)/m in float64, then a left-to-right
    cumsum), so the sum at index m is the same float whatever length the table
    has.  The old arrays go before the new are built, and the quotients and
    their sums are computed in place in one float64 array.
    """
    global _tau_counts, _tau_sums
    if top >= len(_tau_counts):
        if top > MAX_TAU_TABLE:
            raise ValueError(f"tau_ratio_sum supports y <= {MAX_TAU_TABLE}")
        _tau_counts, _tau_sums = _TAU_EMPTY
        size = min(max(1 << top.bit_length(), 1 << 10), MAX_TAU_TABLE + 1)
        # Hyperbola identity, as in divisor_summatory: each d <= sqrt(n)
        # dividing n pairs with n/d >= d, counted once when n = d^2.
        counts = np.zeros(size, dtype=np.int32)
        for d in range(1, math.isqrt(size - 1) + 1):
            counts[d * d::d] += 2
            counts[d * d] -= 1
        ratio = np.arange(size, dtype=np.float64)
        np.divide(counts[1:], ratio[1:], out=ratio[1:])  # float64(tau(m)) / m
        ratio[0] = 0.0
        _tau_counts, _tau_sums = counts, memoryview(np.cumsum(ratio, out=ratio))
    return _tau_counts, _tau_sums


def tau_ratio_sum(y: float):
    """Sum of tau(m)/m for m <= y; exact rational up to EXACT_TAU_LIMIT."""
    top = math.floor(_finite("y", y))
    if top < 1:
        raise ValueError(f"need y >= 1, got {y}")
    if top <= EXACT_TAU_LIMIT:
        # Single common denominator keeps the exact path fast.
        lcm = 1
        for m in range(2, top + 1):
            lcm = lcm * m // math.gcd(lcm, m)
        tau = _tau_table(top)[0]
        num = sum(int(tau[m]) * (lcm // m) for m in range(1, top + 1))
        return Fraction(num, lcm)
    return (_tau_sums if top < len(_tau_sums) else _tau_table(top)[1])[top]


def lemma22_margin(y: float) -> float:
    """Sum of tau(m)/m up to y, minus (log^2 y / 2 + 2 gamma log y + 0.4).

    Positive return means the lower-bound inequality holds at y.  The stated
    range starts at LEMMA22_FROM; smaller y >= 2 are evaluated without any assertion.
    A y that is not finite raises ValueError.
    """
    try:
        if not 2 <= y < math.inf:
            raise ValueError(f"need a finite y >= 2, got {y}")
    except TypeError:
        raise TypeError(f"y must be a number, got {y!r}") from None
    top = math.floor(y)
    sums = _tau_sums if top < len(_tau_sums) else _tau_table(top)[1]
    ly = math.log(y)
    return sums[top] - (ly * ly / 2 + 2 * EULER_GAMMA * ly + 0.4)


def b0_estimate(y: int) -> float:
    """Empirical limit of sum tau(m)/m - log^2 y / 2 - 2 gamma log y as y grows."""
    try:
        if not 1000 <= y < math.inf:
            raise ValueError(f"need a finite y >= 1000, got {y}")
    except TypeError:
        raise TypeError(f"y must be a number, got {y!r}") from None
    top = math.floor(y)
    sums = _tau_sums if top < len(_tau_sums) else _tau_table(top)[1]
    ly = math.log(y)
    return sums[top] - (ly * ly / 2 + 2 * EULER_GAMMA * ly)
