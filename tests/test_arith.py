"""Tests for factorization and the multiplicative arithmetic functions."""

import math
import random
import time

import numpy as np
import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repulse import primes, repulsive
from repulse.arith import (
    Factorization,
    dedekind_psi,
    euler_phi,
    factor,
    from_pairs,
    phi_a,
    profile,
    unitary_phi,
    unitary_sigma,
)

# ----- independent oracles -----


def oracle_factor(n: int) -> list[tuple[int, int]]:
    """Plain trial division up to sqrt; independent of the library's code paths."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def oracle_functions(n: int) -> dict[str, int]:
    """All five functions straight from the defining products over oracle_factor."""
    phi = uphi = psi = usigma = n1 = rad = 1
    pairs = oracle_factor(n)
    for p, e in pairs:
        phi *= p ** (e - 1) * (p - 1)
        uphi *= p**e - 1
        psi *= p ** (e - 1) * (p + 1)
        usigma *= p**e + 1
        rad *= p
        if e == 1:
            n1 *= p
    return {
        "phi": phi, "uphi": uphi, "psi": psi, "usigma": usigma,
        "n1": n1, "rad": rad, "omega": len(pairs),
        "big_omega": sum(e for _, e in pairs),
    }


# ----- factor -----


def test_factor_examples():
    assert factor(1).pairs == ()
    assert factor(12).pairs == ((2, 2), (3, 1))
    assert factor(97).pairs == ((97, 1),)
    assert factor(2**61 - 1).pairs == ((2**61 - 1, 1),)


def test_factor_rejects_out_of_range():
    with pytest.raises(ValueError):
        factor(0)
    with pytest.raises(ValueError):
        factor(-6)
    with pytest.raises(ValueError):
        factor(2**63 + 1)


@pytest.mark.parametrize("n", [True, 10.0])
def test_factor_refuses_floats_and_bools(n):
    # True == 1 and 10.0 == 10, so either would pass the range check unnoticed
    with pytest.raises(TypeError, match=f"^n must be an integer, got {n!r}$"):
        factor(n)


def test_factor_accepts_upper_edge():
    assert factor(2**63).pairs == ((2, 63),)


def test_factor_roundtrip_to_one_million():
    for n in range(1, 1_000_001):
        v = 1
        for p, e in factor(n).pairs:
            v *= p**e
        assert v == n


def test_factor_matches_sympy_on_random_63_bit():
    rng = random.Random(20260815)
    for _ in range(200):
        n = rng.randrange(2**62, 2**63)
        got = dict(factor(n).pairs)
        assert got == sympy.factorint(n)


def test_factor_is_deterministic_on_hard_semiprimes():
    n = (2**31 - 1) * (2**31 + 11)
    assert factor(n).pairs == factor(n).pairs == ((2147483647, 1), (2147483659, 1))


def assert_factor_matches_validated(n: int) -> None:
    """factor(n) skips validation; the validating from_pairs must agree with it."""
    f = factor(n)
    assert f == from_pairs(f.pairs), n
    assert all(type(p) is int and type(e) is int for p, e in f.pairs), f.pairs


def test_factor_matches_validated_to_hundred_thousand():
    for n in range(1, 100_001):
        assert_factor_matches_validated(n)


big_prime = st.integers(10**6, 3 * 10**9).map(sympy.nextprime)  # (3e9 + gap)**2 < 2**63


@st.composite
def two_power_times_prime(draw):
    p = draw(st.integers(10**6, 2**40).map(sympy.nextprime))
    return 2 ** draw(st.integers(1, 63 - p.bit_length())) * p


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(
    st.integers(1, 2 * 10**6),               # smallest-prime-factor table
    st.integers(10**6, 10**12),              # trial division covers sqrt(rem)
    st.integers(1100, 10**6).map(lambda k: sympy.prevprime(k) ** 2),  # ... up to a prime root
    st.tuples(big_prime, big_prime).map(lambda pq: pq[0] * pq[1]),  # _factor_tail
    big_prime.map(lambda p: p * p),          # _factor_tail, perfect square
    two_power_times_prime(),
    st.integers(1, 2**63),
))
def test_factor_matches_validated_on_every_branch(n):
    assert_factor_matches_validated(n)


def test_factorization_validation():
    with pytest.raises(ValueError):
        from_pairs([(4, 1)])            # not prime
    with pytest.raises(ValueError):
        from_pairs([(5, 1), (3, 1)])    # not increasing
    with pytest.raises(ValueError):
        from_pairs([(3, 0)])            # zero exponent
    with pytest.raises(ValueError):
        Factorization(pairs=((2, 1),), value=3)  # value mismatch


@pytest.mark.parametrize("n", [318665857834031151167461, 3317044064679887385961981])
def test_from_pairs_rejects_composites_beyond_proven_bound(n):
    # psi_12 and psi_13 pass Miller-Rabin to bases 2..37 but are composite
    with pytest.raises(ValueError, match="proven only below"):
        from_pairs([(n, 1)])


def test_from_pairs_member_below_two_is_not_prime():
    # primality is tested before order, so 1 is not reported as out of order
    with pytest.raises(ValueError, match="^1 is not prime$"):
        from_pairs([(1, 2), (3, 1)])


def test_from_pairs_proves_each_prime_once_before_powering(monkeypatch):
    primes.is_prime(3)  # warm the cached table outside the timing
    start = time.perf_counter()
    with pytest.raises(ValueError, match="^4 is not prime$"):
        from_pairs([(4, 3 * 10**7)])  # 4^e alone took 0.3 s to build
    assert time.perf_counter() - start < 0.05
    calls = []
    real = primes.is_prime
    monkeypatch.setattr(primes, "is_prime", lambda n: calls.append(n) or real(n))
    assert from_pairs([(3, 1), (5, 2), (7, 1)]).value == 525
    assert calls == [3, 5, 7]
    calls.clear()
    assert Factorization(pairs=((3, 1), (5, 2)), value=75).value == 75
    assert calls == [3, 5]


@pytest.mark.parametrize("pairs, value", [
    (((3, 10**7),), 5),       # ran 3.2 s, then failed formatting 3^e
    (((3, 10**5000),), 5),    # an exponent too long to print
    (((2, 100),), 1),
    (((2, 1),), 0),
    (((3, 2), (5, 1)), -45),
    ((), 0),
])
def test_factorization_bounds_each_exponent_before_powering(pairs, value):
    start = time.perf_counter()
    with pytest.raises(ValueError, match="^value does not match the product of the prime powers$"):
        Factorization(pairs=pairs, value=value)
    assert time.perf_counter() - start < 0.05


def test_factorization_powers_a_numpy_prime_exactly():
    # np.int64(3) ** 50 wrapped around, and the record was refused as a mismatch
    assert Factorization(pairs=((np.int64(3), 50),), value=3**50).value == 3**50


@pytest.mark.parametrize("call", [
    lambda: profile(True),
    lambda: euler_phi(10),
    lambda: dedekind_psi(None),
    lambda: unitary_phi("15"),
    lambda: unitary_sigma(15.0),
    lambda: phi_a(10**5000, 2),
    lambda: repulsive.set_of_integer(True, 1),
])
def test_multiplicative_functions_take_only_a_factorization(call):
    with pytest.raises(TypeError, match="^expected a Factorization, got [a-zA-Z]+$"):
        call()


# ----- function values -----


def test_function_examples():
    f1, f12 = factor(1), factor(12)
    assert euler_phi(f1) == unitary_phi(f1) == dedekind_psi(f1) == unitary_sigma(f1) == 1
    assert euler_phi(f12) == 4
    assert unitary_phi(f12) == 6
    assert dedekind_psi(f12) == 24
    assert unitary_sigma(f12) == 20
    for p in (2, 3, 97, 65537):
        fp = factor(p)
        assert euler_phi(fp) == p - 1
        assert dedekind_psi(fp) == unitary_sigma(fp) == p + 1
    for p, e in ((2, 5), (3, 4), (7, 3)):
        fpe = factor(p**e)
        assert unitary_phi(fpe) == p**e - 1
        assert unitary_sigma(fpe) == p**e + 1


def test_phi_a_examples():
    assert phi_a(factor(15), 1) == 8 == euler_phi(factor(15))
    assert phi_a(factor(15), -1) == 24 == dedekind_psi(factor(15))
    assert phi_a(factor(35), 2) == 15
    assert phi_a(factor(10), 2) == 0          # p = a kills the product
    assert phi_a(factor(6), 5) == 6           # (2-5)(3-5), two sign flips
    assert phi_a(factor(2), 3) == -1          # stays signed, no clamping


def test_phi_counts_coprime_residues():
    for n in range(1, 3001):
        count = int(np.count_nonzero(np.gcd(np.arange(1, n + 1), n) == 1))
        assert euler_phi(factor(n)) == count


def test_all_functions_against_trial_division_oracle():
    rng = random.Random(42)
    samples = list(range(1, 501)) + [rng.randrange(1, 10**9) for _ in range(1500)]
    for n in samples:
        want = oracle_functions(n)
        pr = profile(factor(n))
        assert (pr.phi, pr.uphi, pr.psi, pr.usigma) == (
            want["phi"], want["uphi"], want["psi"], want["usigma"])
        assert (pr.n1, pr.rad, pr.omega, pr.big_omega) == (
            want["n1"], want["rad"], want["omega"], want["big_omega"])


# ----- profile structure -----


def test_profile_examples():
    pr = profile(factor(12))
    assert (pr.n1, pr.rad, pr.omega, pr.big_omega) == (3, 6, 2, 3)
    pr30 = profile(factor(30))
    assert pr30.n1 == pr30.rad == 30
    assert profile(factor(4)).n1 == 1


def test_profile_of_external_big_factorization():
    # Product of the five known Fermat primes, built without calling factor().
    f = from_pairs([(3, 1), (5, 1), (17, 1), (257, 1), (65537, 1)])
    assert f.value == 2**32 - 1
    pr = profile(f)
    assert pr.phi == pr.uphi == 2**31          # squarefree, and (n+1) = 2*phi
    assert pr.psi == pr.usigma == 4 * 6 * 18 * 258 * 65538
    # Values above machine range still work when the factorization is supplied.
    big = from_pairs([(2**61 - 1, 2)])
    assert profile(big).phi == (2**61 - 1) * (2**61 - 2)
    assert profile(big).n1 == 1


# ----- property tests -----


coprime_pair = st.tuples(st.integers(1, 10**6), st.integers(1, 10**6))


@settings(max_examples=300, deadline=None)
@given(coprime_pair)
def test_multiplicativity(pair):
    m, n = pair
    assume(math.gcd(m, n) == 1)
    fm, fn, fmn = factor(m), factor(n), factor(m * n)
    for fun in (euler_phi, unitary_phi, dedekind_psi, unitary_sigma):
        assert fun(fmn) == fun(fm) * fun(fn)
    for a in (1, -1, 2, 3):
        assert phi_a(fmn, a) == phi_a(fm, a) * phi_a(fn, a)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 10**6))
def test_profile_invariants(n):
    pr = profile(factor(n))
    assert pr.phi <= pr.n
    assert pr.psi >= pr.n and pr.usigma >= pr.n
    assert pr.rad % pr.n1 == 0 and pr.n % pr.rad == 0
    assert all(e == 1 for _, e in factor(pr.n1).pairs)
    if pr.n1 == pr.n:  # squarefree
        assert pr.uphi == pr.phi and pr.usigma == pr.psi


def test_squarefree_agreement_to_hundred_thousand():
    for n in range(1, 100_001):
        pr = profile(factor(n))
        if pr.n == pr.rad:
            assert pr.uphi == pr.phi and pr.usigma == pr.psi
