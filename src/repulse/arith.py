"""Exact multiplicative arithmetic functions evaluated from factorizations."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import primes
from .primes import _integer

FACTOR_LIMIT = 2**63  # factor() accepts naturals up to this bound


# ----- domain types -----


@dataclass(frozen=True)
class Factorization:
    """Canonical factorization: (prime, exponent) pairs, strictly increasing primes.

    The empty sequence represents 1.  `value` always equals the product of the
    prime powers and may exceed machine range for externally built inputs.
    Each prime is proven once, before any power of it is formed: by
    primes.check_increasing_primes in the constructor and from_pairs (one at or
    above primes.MR_LIMIT raises ValueError), or by factor() as it finds it;
    from_pairs and factor() then build the record with _trusted.
    """

    pairs: tuple[tuple[int, int], ...]
    value: int

    def __post_init__(self) -> None:
        primes.check_increasing_primes(p for p, _ in self.pairs)
        value = _integer("value", self.value)
        acc = 1
        for p, e in self.pairs:
            e = _exponent(p, e)
            if e > value.bit_length() or acc > value:  # p >= 2, so p**e would overshoot
                break
            acc *= int(p) ** e
        else:
            if acc == value:
                return
        # names no number: value, an exponent or the product may be too long to print
        raise ValueError("value does not match the product of the prime powers")


def _exponent(p: int, e) -> int:
    """Exponent e of prime p as an int >= 1."""
    e = _integer("exponent", e)
    if e < 1:
        raise ValueError(f"exponent must be >= 1, got {p}^{e}")
    return e


def from_pairs(pairs) -> Factorization:
    """Build a validated Factorization from (prime, exponent) pairs of integers."""
    tup = tuple((_integer("prime", p), _exponent(p, e)) for p, e in pairs)
    primes.check_increasing_primes(p for p, _ in tup)
    value = 1
    for p, e in tup:
        value *= p**e
    return _trusted(Factorization, pairs=tup, value=value)


def _trusted(cls, **fields):
    """Record of class cls from fields whose primes are already proven: no __post_init__."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


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
    # n has no prime factor <= min(SMALL_SIEVE_LIMIT, sqrt(n)) here.
    if n == 1:
        return
    if n <= (primes.Config.SMALL_SIEVE_LIMIT + 1) ** 2 or primes.is_prime(n):
        out[n] = out.get(n, 0) + 1
        return
    d = _split(n)
    _factor_tail(d, out)
    _factor_tail(n // d, out)


def factor(n: int) -> Factorization:
    """Canonical factorization of n, for 1 <= n <= 2^63, built with _trusted:
    each prime is proven where it is found, by the smallest-prime-factor table,
    by trial division up to its square root, or by is_prime in _factor_tail."""
    n = _integer("n", n)
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
        if root <= primes.Config.SMALL_SIEVE_LIMIT:
            ps = ps[:int(np.searchsorted(ps, root, side="right"))]
        for p in ps[np.int64(rem) % ps == 0]:
            p = int(p)
            while rem % p == 0:
                exps[p] = exps.get(p, 0) + 1
                rem //= p
        _factor_tail(rem, exps)
    return _trusted(Factorization, pairs=tuple(sorted(exps.items())), value=n)


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
    try:
        for p, e in f.pairs:
            out *= p**e + s
    except AttributeError:
        raise _not_factorization(f) from None
    return out


def phi_a(f: Factorization, a: int) -> int:
    """Product of (p - a) p^(e-1).  Signed; a=1 gives euler_phi, a=-1 gives dedekind_psi."""
    out = 1
    try:
        for p, e in f.pairs:
            out *= (p - a) * p ** (e - 1)
    except AttributeError:
        raise _not_factorization(f) from None
    return out


def _not_factorization(f) -> TypeError:
    """The one-line error of a multiplicative function given no Factorization."""
    return TypeError(f"expected a Factorization, got {type(f).__name__}")


def profile(f: Factorization) -> ArithProfile:
    """All multiplicative statistics of f in one pass."""
    n1 = 1
    rad = 1
    big = 0
    try:
        for p, e in f.pairs:
            rad *= p
            big += e
            if e == 1:
                n1 *= p
    except AttributeError:
        raise _not_factorization(f) from None
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
