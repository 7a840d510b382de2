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
from typing import Iterable, Mapping, Optional

import numpy as np

from . import primes
from .arith import factor
from .bounds import EULER_GAMMA
from .repulsive import PrimeSet

EXACT_MG_LIMIT = 10_000        # exact rational M_g up to here, floats beyond
EXACT_TAU_LIMIT = 10_000       # same threshold for sums of tau(m)/m
MAX_WINDOW = 100_000_000       # survivor counting refuses longer windows
MAX_TAU_TABLE = 1_000_000      # cached divisor-count table size
MAX_D_ARG = 1_000_000_000      # divisor_summatory range (hyperbola method)


# ----- sieve systems -----


@dataclass(frozen=True)
class SieveSystem:
    """Residue classes to sieve from the integer window (start, start + x_len]."""

    start: int
    x_len: float
    omega_p: Mapping[int, frozenset[int]]

    def __post_init__(self) -> None:
        if self.x_len < 0:
            raise ValueError(f"window length must be >= 0, got {self.x_len}")
        norm = {}
        for p, residues in self.omega_p.items():
            if not primes.is_prime(p):
                raise ValueError(f"sieve modulus {p} is not prime")
            norm[int(p)] = frozenset(int(r) % p for r in residues)
        object.__setattr__(self, "omega_p", norm)

    def omega(self, p: int) -> frozenset[int]:
        """Residue classes sieved at p; defaults to {0} when unassigned."""
        return self.omega_p.get(p, frozenset((0,)))

    def rho(self, p: int) -> int:
        return len(self.omega(p))


def from_prime_set(u: PrimeSet, start: int = 0, x_len: float = 0.0) -> SieveSystem:
    """The standard system for a set U: Omega_p = {0, a mod p} on U, {0} elsewhere."""
    omega = {p: frozenset((0, u.a % p)) for p in u.primes}
    return SieveSystem(start=start, x_len=x_len, omega_p=omega)


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
    if z < 1:
        raise ValueError(f"mg_sum needs z >= 1, got {z}")
    top = math.floor(z)
    if top > primes.Config.SMALL_SIEVE_LIMIT:
        raise ValueError(f"mg_sum supports z <= {primes.Config.SMALL_SIEVE_LIMIT}")
    return top


def mg_sum(z: float, sys: SieveSystem):
    """M_g(z) = sum of g(n) for n <= z; exact rational up to EXACT_MG_LIMIT."""
    top = _mg_top(z)
    exact = top <= EXACT_MG_LIMIT
    g = {p: {1: _g_factor(p, sys)} for p in map(int, primes.primes_up_to(top))}
    spf = primes.smallest_prime_factor()
    # Left to right: the float total is 1.0 + float(g(2)) + ... in this order,
    # which tests pin bit for bit; a non-squarefree n adds +0.0, changing no bits.
    total = Fraction(0) if exact else 0.0
    for n in range(1, top + 1):
        term = _f_of(n, g, spf)
        total += term if exact else float(term)
    return total


# ----- survivor counting and the sieve bound -----


def survivor_bound(x_len: float, w: float, sys: SieveSystem) -> float:
    """Upper bound (x_len + w^2) / M_g(w) for the survivor count at level w."""
    if w < 1:
        raise ValueError(f"survivor_bound needs w >= 1, got {w}")
    for p in primes.primes_up_to(_mg_top(w)):
        p = int(p)
        if sys.rho(p) >= p:
            raise ValueError(f"rho({p}) >= {p}: sieve bound precondition fails at {p}")
    mg = mg_sum(w, sys)
    return float((Fraction(x_len) + Fraction(w) ** 2) / mg) if isinstance(mg, Fraction) \
        else (x_len + w * w) / mg


def survivor_count(sys: SieveSystem, w: float) -> int:
    """Exact count of window integers avoiding every sieved class at primes <= w."""
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
        if not primes.is_prime(p) or e < 1:
            raise ValueError(f"table key ({p}, {e}) is not a prime power")
        by_p.setdefault(int(p), {})[int(e)] = _as_fraction(v)
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
    top = math.floor(x)
    if top < 1:
        raise ValueError(f"need x >= 1, got {x}")
    if top > primes.Config.SMALL_SIEVE_LIMIT:
        raise ValueError(f"restricted_sum supports x <= {primes.Config.SMALL_SIEVE_LIMIT}")
    by_p = _normalize_table(f_table)
    u_set = sorted(set(int(p) for p in u))
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
    if w < 1:
        raise ValueError(f"need w >= 1, got {w}")
    if w > MAX_D_ARG:
        raise ValueError(f"divisor_summatory supports w <= {MAX_D_ARG}")
    root = math.isqrt(w)
    d = np.arange(1, root + 1, dtype=np.int64)
    return 2 * int(np.sum(w // d)) - root * root


_tau_cache: Optional[np.ndarray] = None
_tau_ratio_cumsum: Optional[np.ndarray] = None


def _tau_table() -> np.ndarray:
    global _tau_cache
    if _tau_cache is None:
        # Hyperbola identity, as in divisor_summatory: each d <= sqrt(n)
        # dividing n pairs with n/d >= d, counted once when n = d^2.
        counts = np.zeros(MAX_TAU_TABLE + 1, dtype=np.int32)
        for d in range(1, math.isqrt(MAX_TAU_TABLE) + 1):
            counts[d * d::d] += 2
            counts[d * d] -= 1
        _tau_cache = counts
    return _tau_cache


def _tau_ratio_prefix() -> np.ndarray:
    global _tau_ratio_cumsum
    if _tau_ratio_cumsum is None:
        tau = _tau_table().astype(np.float64)
        tau[1:] /= np.arange(1, MAX_TAU_TABLE + 1, dtype=np.float64)
        _tau_ratio_cumsum = np.cumsum(tau)
    return _tau_ratio_cumsum


def tau_ratio_sum(y: float):
    """Sum of tau(m)/m for m <= y; exact rational up to EXACT_TAU_LIMIT."""
    top = math.floor(y)
    if top < 1:
        raise ValueError(f"need y >= 1, got {y}")
    if top <= EXACT_TAU_LIMIT:
        # Single common denominator keeps the exact path fast.
        lcm = 1
        for m in range(2, top + 1):
            lcm = lcm * m // math.gcd(lcm, m)
        tau = _tau_table()
        num = sum(int(tau[m]) * (lcm // m) for m in range(1, top + 1))
        return Fraction(num, lcm)
    if top > MAX_TAU_TABLE:
        raise ValueError(f"tau_ratio_sum supports y <= {MAX_TAU_TABLE}")
    return float(_tau_ratio_prefix()[top])


def _tau_ratio_fast(y: float) -> float:
    # Float prefix lookup; sweeps over millions of y cannot afford the
    # exact-lcm path that tau_ratio_sum takes for small arguments.
    top = math.floor(y)
    if 1 <= top <= MAX_TAU_TABLE:
        return float(_tau_ratio_prefix()[top])
    return float(tau_ratio_sum(y))


def lemma22_margin(y: float) -> float:
    """Sum of tau(m)/m up to y, minus (log^2 y / 2 + 2 gamma log y + 0.4).

    Positive return means the lower-bound inequality holds at y.  The stated
    range starts at 60; smaller y >= 2 are evaluated without any assertion.
    """
    if y < 2:
        raise ValueError(f"need y >= 2, got {y}")
    s = _tau_ratio_fast(y)
    ly = math.log(y)
    return s - (ly * ly / 2 + 2 * EULER_GAMMA * ly + 0.4)


def b0_estimate(y: int) -> float:
    """Empirical limit of sum tau(m)/m - log^2 y / 2 - 2 gamma log y as y grows."""
    if y < 1000:
        raise ValueError(f"need y >= 1000, got {y}")
    s = _tau_ratio_fast(y)
    ly = math.log(y)
    return s - (ly * ly / 2 + 2 * EULER_GAMMA * ly)
