"""Exact multiplicative arithmetic functions evaluated from factorizations."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import primes

FACTOR_LIMIT = 2**63  # factor() accepts naturals up to this bound


# ----- domain types -----


@dataclass(frozen=True)
class Factorization:
    """Canonical factorization: (prime, exponent) pairs, strictly increasing primes.

    The empty sequence represents 1.  `value` always equals the product of the
    prime powers and may exceed machine range for externally built inputs.
    """

    pairs: tuple[tuple[int, int], ...]
    value: int

    def __post_init__(self) -> None:
        prev = 1
        acc = 1
        for p, e in self.pairs:
            if p <= prev:
                raise ValueError(f"primes must be strictly increasing, got {p} after {prev}")
            if e < 1:
                raise ValueError(f"exponent must be >= 1, got {p}^{e}")
            if not primes.is_prime(p):
                raise ValueError(f"{p} is not prime")
            prev = p
            acc *= p**e
        if acc != self.value:
            raise ValueError(f"value {self.value} does not match product {acc}")


def from_pairs(pairs) -> Factorization:
    """Build a validated Factorization from (prime, exponent) pairs."""
    tup = tuple((int(p), int(e)) for p, e in pairs)
    value = 1
    for p, e in tup:
        value *= p**e
    return Factorization(pairs=tup, value=value)


@dataclass(frozen=True)
class ArithProfile:
    """A natural number with the multiplicative statistics used throughout."""

    n: int
    phi: int        # classical totient, product of p^(e-1)(p-1)
    uphi: int       # unitary totient, product of (p^e - 1)
    psi: int        # product of p^(e-1)(p+1)
    usigma: int     # unitary divisor sum, product of (p^e + 1)
    omega: int      # number of distinct prime factors
    big_omega: int  # number of prime factors with multiplicity
    n1: int         # product of primes dividing n exactly once
    rad: int        # product of all distinct prime factors


# ----- factorization -----


def _brent_step(n: int, y0: int, c: int) -> int:
    # Brent cycle-finding on x -> x^2 + c mod n; returns a divisor, possibly n.
    y, r, q, g = y0, 1, 1, 1
    x = ys = y
    m = 128
    while g == 1:
        x = y
        for _ in range(r):
            y = (y * y + c) % n
        k = 0
        while k < r and g == 1:
            ys = y
            for _ in range(min(m, r - k)):
                y = (y * y + c) % n
                q = q * abs(x - y) % n
            g = math.gcd(q, n)
            k += m
        r <<= 1
    if g == n:
        g = 1
        y = ys
        while g == 1:
            y = (y * y + c) % n
            g = math.gcd(abs(x - y), n)
    return g


def _split(n: int) -> int:
    """Nontrivial divisor of composite n with no prime factor <= 10^6."""
    root = math.isqrt(n)
    if root * root == n:
        return root
    # Deterministic parameter schedule keeps factor() reproducible.
    for c in range(1, 1000):
        g = _brent_step(n, 2, c)
        if 1 < g < n:
            return g
    raise ArithmeticError(f"failed to split {n}")


def _factor_tail(n: int, out: dict[int, int]) -> None:
    # n has no prime factor <= SMALL_SIEVE_LIMIT here.
    if n == 1:
        return
    if n <= (primes.Config.SMALL_SIEVE_LIMIT + 1) ** 2 or primes.is_prime(n):
        out[n] = out.get(n, 0) + 1
        return
    d = _split(n)
    _factor_tail(d, out)
    _factor_tail(n // d, out)


def factor(n: int) -> Factorization:
    """Canonical factorization of n, for 1 <= n <= 2^63."""
    if n < 1:
        raise ValueError(f"factor() requires n >= 1, got {n}")
    if n > FACTOR_LIMIT:
        raise ValueError(f"factor() accepts n <= 2^63, got {n}")
    exps: dict[int, int] = {}
    rem = n
    while rem % 2 == 0:
        exps[2] = exps.get(2, 0) + 1
        rem //= 2
    if 1 < rem <= primes.Config.SMALL_SIEVE_LIMIT:
        spf = primes.smallest_prime_factor()
        while rem > 1:
            p = int(spf[rem])
            while rem % p == 0:
                exps[p] = exps.get(p, 0) + 1
                rem //= p
    elif rem > 1:
        # One vectorized divisibility pass over odd primes up to sqrt(rem);
        # at most one prime factor can survive it.
        root = math.isqrt(rem)
        ps = primes.small_primes()[1:]
        covers_root = root <= primes.Config.SMALL_SIEVE_LIMIT
        if covers_root:
            ps = ps[:int(np.searchsorted(ps, root, side="right"))]
        for p in ps[np.int64(rem) % ps == 0]:
            p = int(p)
            while rem % p == 0:
                exps[p] = exps.get(p, 0) + 1
                rem //= p
        if rem > 1:
            if covers_root:
                exps[rem] = exps.get(rem, 0) + 1
            else:
                _factor_tail(rem, exps)
    pairs = tuple(sorted(exps.items()))
    return Factorization(pairs=pairs, value=n)


# ----- multiplicative functions -----


def euler_phi(f: Factorization) -> int:
    """Classical totient: product of p^(e-1) (p-1)."""
    return phi_a(f, 1)


def unitary_phi(f: Factorization) -> int:
    """Unitary totient: product of (p^e - 1)."""
    return _unitary_product(f, -1)


def dedekind_psi(f: Factorization) -> int:
    """Product of p^(e-1) (p+1)."""
    return phi_a(f, -1)


def unitary_sigma(f: Factorization) -> int:
    """Unitary divisor sum: product of (p^e + 1)."""
    return _unitary_product(f, 1)


def _unitary_product(f: Factorization, s: int) -> int:
    """Product of (p^e + s) over the prime powers of f."""
    out = 1
    for p, e in f.pairs:
        out *= p**e + s
    return out


def phi_a(f: Factorization, a: int) -> int:
    """Product of (p - a) p^(e-1).  Signed; a=1 gives euler_phi, a=-1 gives dedekind_psi."""
    out = 1
    for p, e in f.pairs:
        out *= (p - a) * p ** (e - 1)
    return out


def profile(f: Factorization) -> ArithProfile:
    """All multiplicative statistics of f in one pass."""
    n1 = 1
    rad = 1
    big = 0
    for p, e in f.pairs:
        rad *= p
        big += e
        if e == 1:
            n1 *= p
    return ArithProfile(
        n=f.value,
        phi=euler_phi(f),
        uphi=unitary_phi(f),
        psi=dedekind_psi(f),
        usigma=unitary_sigma(f),
        omega=len(f.pairs),
        big_omega=big,
        n1=n1,
        rad=rad,
    )


# ----- serialization -----


def profile_to_json(pr: ArithProfile) -> dict[str, object]:
    """Flat JSON object; big integers rendered as decimal strings."""
    return {
        "n": str(pr.n),
        "phi": str(pr.phi),
        "uphi": str(pr.uphi),
        "psi": str(pr.psi),
        "usigma": str(pr.usigma),
        "omega": pr.omega,
        "big_omega": pr.big_omega,
        "n1": str(pr.n1),
        "rad": str(pr.rad),
    }
