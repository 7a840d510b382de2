"""Self-repulsive prime sets: construction, validation, and their four statistics.

A set U of primes is a-self-repulsive when no ordered pair of distinct primes
p, q in U satisfies q ≡ a (mod p).  Supports of squarefree N coprime to
phi_a(N) have this property, which is what makes the sets worth measuring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from . import primes
from .arith import Factorization, _integer, _trusted, phi_a

EXACT_PRODUCT_LIMIT = 64  # sets at most this large also get an exact rational product


# ----- domain types -----


@dataclass(frozen=True)
class PrimeSet:
    """A candidate a-self-repulsive set with its repulsion parameter and cutoff.

    Members are proven prime once: by the constructor via primes.check_increasing_primes, or
    by the sieve or factor() before greedy_construct or set_of_integer uses arith._trusted.
    """

    a: int
    primes: tuple[int, ...]
    cutoff: float

    def __post_init__(self) -> None:
        primes.check_increasing_primes(self.primes)
        if not self.cutoff >= 2:  # also refuses NaN
            raise ValueError(f"cutoff must be >= 2, got {self.cutoff}")
        if self.primes and self.primes[-1] > self.cutoff:
            raise ValueError(f"prime {self.primes[-1]} exceeds cutoff {self.cutoff}")

    def to_json(self) -> dict:
        return {"a": self.a, "primes": list(self.primes), "cutoff": self.cutoff}


@dataclass(frozen=True)
class SetStats:
    """The four measurements of a prime set below a cutoff x."""

    p_u: float        # product of (1 - 1/p)^(-1)
    s_u: float        # sum of 1/p
    theta_u: float    # sum of log p (natural log)
    pi_u: int         # count of primes <= x
    p_u_exact: Optional[Fraction] = None  # exact product when the set is small


@dataclass(frozen=True)
class RepulsionCheck:
    ok: bool
    witness: Optional[tuple[int, int]] = None  # (p, q) with q ≡ a (mod p)

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class SupportDiagnostics:
    """What the coprimality criterion gcd(n, phi_a(n)) = 1 guarantees, checked directly."""

    gcd_phi_a: int
    criterion: bool       # gcd(n, |phi_a(n)|) == 1
    squarefree: bool
    self_repulsive: bool
    witness: Optional[tuple[int, int]] = None


# ----- operations -----


def is_self_repulsive(prime_seq: Sequence[int], a: int) -> RepulsionCheck:
    """Check that no ordered pair of distinct members has q ≡ a (mod p).

    Returns a falsy RepulsionCheck carrying one violating (p, q) pair when the
    property fails.  Non-prime elements are rejected.
    """
    a = _integer("a", a)
    elems = sorted(set(int(p) for p in prime_seq))
    primes.check_increasing_primes(elems)
    return _repulsion(elems, a)


def _repulsion(elems: Sequence[int], a: int) -> RepulsionCheck:
    """The check on distinct primes already proven, in increasing order.

    One byte per integer up to the largest member marks the members; each p,
    in increasing order, reads its class a mod p with one strided view, whose
    first member is the witness (p, q): the smallest p, then the smallest q.
    Class 0 mod p holds only p itself, since the members are primes, so it is
    skipped.  A set whose largest member exceeds min(len(elems)**2,
    Config.MAX_ENUMERATION) takes the pairwise loop instead, where the array
    would outweigh the loop or exceed the largest byte array the package makes.
    """
    if not elems:
        return RepulsionCheck(ok=True)
    top = elems[-1]
    if top > min(len(elems) ** 2, primes.Config.MAX_ENUMERATION):
        for p in elems:
            target = a % p
            for q in elems:
                if q != p and q % p == target:
                    return RepulsionCheck(ok=False, witness=(p, q))
        return RepulsionCheck(ok=True)
    member = np.zeros(top + 1, dtype=bool)
    member[np.array(elems, dtype=np.int64)] = True
    for p in elems:
        r = a % p
        if r:
            cls = member[r::p]
            k = int(cls.argmax())
            if cls[k]:
                return RepulsionCheck(ok=False, witness=(p, r + k * p))
    return RepulsionCheck(ok=True)


def set_of_integer(f: Factorization, a: int) -> tuple[PrimeSet, SupportDiagnostics]:
    """Prime support of a factorization, with the coprimality-criterion diagnostics."""
    support = tuple(p for p, _ in f.pairs)  # proven and strictly increasing
    check = _repulsion(support, a)
    g = math.gcd(f.value, abs(phi_a(f, a)))
    diag = SupportDiagnostics(
        gcd_phi_a=g,
        criterion=(g == 1),
        squarefree=all(e == 1 for _, e in f.pairs),
        self_repulsive=check.ok,
        witness=check.witness,
    )
    # the exact largest prime: a float can round below it
    cutoff = max(support) if support else 2.0
    return _trusted(PrimeSet, a=a, primes=support, cutoff=cutoff), diag


def greedy_construct(x: float, a: int, start: int) -> PrimeSet:
    """Ascending greedy set: admit each prime in [start, x] that keeps repulsion.

    A member q < p repels p iff p ≡ a (mod q) or q = a mod p; a sieve of one byte per
    integer up to x bans the classes a mod q.  No larger prime up to x can join the result.
    """
    a, start = _integer("a", a), _integer("start", start)
    if not (x >= start >= 2):
        raise ValueError(f"need x >= start >= 2, got x={x}, start={start}")
    candidates = primes.iter_primes(start, math.floor(x) + 1)  # refuses x before np.zeros
    banned = np.zeros(math.floor(x) + 1, dtype=bool)
    chosen: set[int] = set()
    for p in candidates:
        if not banned[p] and a % p not in chosen:
            chosen.add(p)
            banned[a % p::p] = True
    return _trusted(PrimeSet, a=a, primes=tuple(sorted(chosen)), cutoff=float(x))


def stats(u: PrimeSet, x: float) -> SetStats:
    """P, S, theta, and the count over the members of u not exceeding x."""
    if x > u.cutoff:
        raise ValueError(f"x={x} exceeds the set's cutoff {u.cutoff}")
    members = [p for p in u.primes if p <= x]
    # Compensated log-space product keeps p_u stable for large sets.
    log_terms = [-math.log1p(-1.0 / p) for p in members]
    p_u = math.exp(math.fsum(log_terms))
    exact: Optional[Fraction] = None
    if len(members) <= EXACT_PRODUCT_LIMIT:
        exact = Fraction(1)
        for p in members:
            exact *= Fraction(p, p - 1)
        p_u = float(exact)
    return SetStats(
        p_u=p_u,
        s_u=math.fsum(1.0 / p for p in members),
        theta_u=math.fsum(math.log(p) for p in members),
        pi_u=len(members),
        p_u_exact=exact,
    )
