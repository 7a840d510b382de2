"""Tests for the sieve weight, survivor bounds, restricted sums, and divisor sums."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from repulse.largesieve import (
    EULER_GAMMA,
    EXACT_MG_LIMIT,
    SieveSystem,
    b0_estimate,
    divisor_summatory,
    from_prime_set,
    g_value,
    lemma21_check,
    lemma22_margin,
    mg_sum,
    pi_u_sieve_inequality,
    restricted_sum,
    survivor_bound,
    survivor_count,
    tau_ratio_sum,
    _tau_table,
)
from repulse.primes import primes_up_to
from repulse.repulsive import PrimeSet, greedy_construct

EMPTY = SieveSystem(start=0, x_len=0, omega_p={})
U3 = from_prime_set(PrimeSet(a=1, primes=(3,), cutoff=10.0))


def ones_table(x: int) -> dict:
    """f(p^e) = 1 on every prime power up to x: the constant-one function."""
    out = {}
    for p in primes_up_to(x):
        p = int(p)
        e = 1
        while p**e <= x:
            out[(p, e)] = 1
            e += 1
    return out


# ----- weight g and M_g -----


def test_g_examples():
    assert g_value(1, EMPTY) == 1
    assert g_value(4, EMPTY) == 0
    assert g_value(6, U3) == 2
    assert g_value(15, U3) == Fraction(2) * Fraction(1, 4)


def test_g_rejects_full_residue_system():
    clogged = SieveSystem(start=0, x_len=0, omega_p={2: {0, 1}})
    with pytest.raises(ValueError, match="rho"):
        g_value(6, clogged)


def test_mg_examples():
    assert mg_sum(3, EMPTY) == Fraction(5, 2)
    assert mg_sum(1, U3) == 1
    assert mg_sum(6, U3) == Fraction(25, 4)


def test_mg_float_path_matches_left_to_right_g_values():
    # g_value factors through arith.factor: a walk independent of mg_sum's
    greedy = from_prime_set(greedy_construct(20_000, 1, 3))
    for sys in (EMPTY, greedy):
        for z in (EXACT_MG_LIMIT + 1, 20_000):
            want = 1.0
            for n in range(2, z + 1):
                want += float(g_value(n, sys))
            got = mg_sum(z, sys)
            assert isinstance(got, float) and got == want, (sys, z)


def test_mg_rejects_small_z():
    with pytest.raises(ValueError):
        mg_sum(0.5, EMPTY)


# ----- survivor bound and count -----


def test_survivor_bound_examples():
    assert survivor_bound(100, 1, EMPTY) == pytest.approx(101.0)
    assert survivor_bound(100, 3, EMPTY) == pytest.approx(43.6)
    assert survivor_bound(1000, 6, U3) == float(Fraction(1036) / Fraction(25, 4))


def test_survivor_bound_reports_offending_prime():
    clogged = SieveSystem(start=0, x_len=100, omega_p={3: {0, 1, 2}})
    with pytest.raises(ValueError, match="3"):
        survivor_bound(100, 5, clogged)


def test_survivor_count_examples():
    ten = SieveSystem(start=0, x_len=10, omega_p={})
    assert survivor_count(ten, 2) == 5
    assert survivor_count(SieveSystem(start=0, x_len=10, omega_p={3: {0, 1}}), 3) == 1
    assert survivor_count(ten, 1) == 10


def test_survivor_count_matches_direct_enumeration():
    rng = random.Random(1123)
    for _ in range(50):
        start = rng.randrange(0, 500)
        x_len = rng.randrange(1, 400)
        w = rng.randrange(1, 20)
        omega = {}
        for p in primes_up_to(w):
            p = int(p)
            size = rng.randrange(0, p)
            omega[p] = frozenset(rng.sample(range(p), size)) if size else frozenset({0})
        sys = SieveSystem(start=start, x_len=x_len, omega_p=omega)
        brute = 0
        for n in range(start + 1, start + x_len + 1):
            if all(n % p not in sys.omega(p) for p in map(int, primes_up_to(w))):
                brute += 1
        assert survivor_count(sys, w) == brute


def test_sieve_bound_dominates_count_on_random_systems():
    # The survivor count can never exceed (x_len + w^2)/M_g(w); exact comparison.
    rng = random.Random(2026)
    odd_small = [3, 5, 7, 11, 13, 17, 19, 23, 29]
    checked = 0
    for _ in range(200):
        x_len = rng.randrange(10, 10_001)
        start = rng.randrange(0, 1000)
        w = rng.randrange(1, 31)
        if rng.random() < 0.5:
            u = PrimeSet(a=rng.choice((1, -1)),
                         primes=tuple(sorted(rng.sample(odd_small, rng.randrange(0, 5)))),
                         cutoff=30.0)
            sys = from_prime_set(u, start=start, x_len=x_len)
        else:
            omega = {}
            for p in primes_up_to(w):
                p = int(p)
                omega[p] = frozenset(rng.sample(range(p), rng.randrange(1, p)))
            sys = SieveSystem(start=start, x_len=x_len, omega_p=omega)
        z = survivor_count(sys, w)
        mg = mg_sum(w, sys)
        assert isinstance(mg, Fraction)
        assert z <= (Fraction(x_len) + w * w) / mg
        checked += 1
    assert checked == 200


def test_pi_u_sieve_inequality_examples():
    lhs, rhs = pi_u_sieve_inequality(100, 7, PrimeSet(a=1, primes=(3, 5), cutoff=100.0))
    assert lhs == 2 and lhs <= rhs
    lhs, rhs = pi_u_sieve_inequality(10, 1, PrimeSet(a=1, primes=(3, 5), cutoff=100.0))
    assert rhs == 11
    u = greedy_construct(100, 1, 3)
    lhs, rhs = pi_u_sieve_inequality(100, 10, u)
    assert lhs == 8 and lhs <= rhs


# ----- restricted sums -----


def test_restricted_sum_on_squarefree_indicator():
    table = {(p, 1): 1 for p in (2, 3, 5, 7)}
    chk = lemma21_check(table, [], 10)
    squarefree_count = sum(
        1 for n in range(1, 11) if all(n % (q * q) for q in (2, 3)))
    assert chk.lhs == chk.rhs == squarefree_count == 7
    assert chk.holds


def test_restricted_sum_harmonic_with_declared_tail():
    table = {}
    for p in (2, 3, 5, 7):
        e = 1
        while p**e <= 10:
            table[(p, e)] = Fraction(1, p**e)
            e += 1
    lhs = restricted_sum(table, [2], 10)
    assert lhs == 1 + Fraction(1, 3) + Fraction(1, 5) + Fraction(1, 7) + Fraction(1, 9)
    # Declaring the closed-form series total 2 at p=2 reproduces (sum 1/n)/2.
    chk = lemma21_check(table, [2], 10, tails={2: 2})
    h10 = sum(Fraction(1, n) for n in range(1, 11))
    assert chk.rhs == h10 / 2
    assert chk.holds and chk.lhs == lhs
    # Without the declaration the tabulated partial sum gives a sharper divisor.
    chk2 = lemma21_check(table, [2], 10)
    assert chk2.rhs == h10 / Fraction(15, 8)
    assert chk2.holds


def test_restricted_sum_constant_one():
    chk = lemma21_check(ones_table(9), [3], 9)
    assert chk.lhs == 6 and chk.rhs == 3 and chk.holds


def test_restricted_sum_rejections():
    with pytest.raises(ValueError):
        restricted_sum({(4, 1): 1}, [], 10)          # key not a prime power
    with pytest.raises(ValueError):
        restricted_sum({(2, 1): -1}, [], 10)          # negative value
    with pytest.raises(ValueError):
        lemma21_check({(2, 1): 1}, [2], 10, tails={2: math.inf})
    with pytest.raises(ValueError):
        lemma21_check({(2, 1): 1}, [2], 10, tails={2: Fraction(1, 2)})


def test_lemma21_on_random_multiplicative_functions():
    # Nonnegative multiplicative f with geometrically decaying prime-power values.
    rng = random.Random(97)
    small = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]
    for _ in range(100):
        x = rng.randrange(20, 1001)
        ratio = Fraction(rng.randrange(1, 500), 1000)  # < 1/2
        table = {}
        for p in small:
            scale = Fraction(rng.randrange(0, 2001), 1000)
            e = 1
            while p**e <= x:
                table[(p, e)] = scale * ratio**e
                e += 1
        u = sorted(rng.sample(small, rng.randrange(0, 5)))
        chk = lemma21_check(table, u, x)
        assert chk.holds, (x, u)


def test_mg_identity_chain_by_enumeration():
    # M_g(y) revisited three ways for small y: subset-product enumeration,
    # truncated expansion over integers with bounded radical, and the
    # divisor-count lower form.
    rng = random.Random(5)
    for trial in range(12):
        y = rng.randrange(20, 201)
        u_primes = tuple(sorted(rng.sample([3, 5, 7, 11, 13], rng.randrange(0, 4))))
        u = PrimeSet(a=1, primes=u_primes, cutoff=20.0)
        sys = from_prime_set(u)
        mg = mg_sum(y, sys)

        # (1) independent subset enumeration of squarefree support sets
        ps = [int(p) for p in primes_up_to(y)]

        def subset_sum(idx: int, prod: int) -> Fraction:
            total = Fraction(0)
            for j in range(idx, len(ps)):
                p = ps[j]
                if prod * p > y:
                    break
                rho = sys.rho(p)
                total += Fraction(rho, p - rho) * (1 + subset_sum(j + 1, prod * p))
            return total

        assert mg == 1 + subset_sum(0, 1)

        # (2) expansion over k with rad(k) <= y: partial sums approach mg from below
        partial = Fraction(0)
        for k in range(1, 50_001):
            rad = 1
            weight = 1
            m = k
            d = 2
            while d * d <= m:
                if m % d == 0:
                    rad *= d
                    while m % d == 0:
                        m //= d
                        if d in u_primes:
                            weight *= 2
                    if rad > y:
                        break
                d += 1
            if m > 1:
                rad *= m
                if m in u_primes:
                    weight *= 2
            if rad <= y:
                partial += Fraction(weight, k)
        assert partial <= mg
        assert float(mg - partial) < 0.1 * float(mg)  # tail shrinks, never crosses

        # (3) the divisor-form lower bound sum_{k<=y} tau_U(k)/k
        lower = Fraction(0)
        for k in range(1, y + 1):
            t = 1
            for p in u_primes:
                e = 0
                m = k
                while m % p == 0:
                    m //= p
                    e += 1
                t *= e + 1
            lower += Fraction(t, k)
        assert mg >= lower


# ----- divisor sums -----


def test_divisor_summatory_examples():
    assert divisor_summatory(1) == 1
    assert divisor_summatory(2) == 3
    assert divisor_summatory(10) == 27
    assert divisor_summatory(100) == 482
    assert divisor_summatory(1000) == 7069
    assert divisor_summatory(10**6) == 13970034


def test_divisor_summatory_matches_tau_accumulation():
    tau = np.zeros(2001, dtype=np.int64)
    for d in range(1, 2001):
        tau[d::d] += 1
    acc = np.cumsum(tau)
    for w in (1, 2, 3, 17, 100, 999, 2000):
        assert divisor_summatory(w) == int(acc[w])


def test_tau_table_matches_per_divisor_loop():
    tau = np.zeros(20_001, dtype=np.int32)
    for d in range(1, 20_001):
        tau[d::d] += 1
    table = _tau_table()
    assert table.dtype == np.int32 and len(table) == 10**6 + 1
    assert np.array_equal(table[:20_001], tau)
    assert int(np.cumsum(table, dtype=np.int64)[10**6]) == divisor_summatory(10**6) == 13970034


def test_divisor_summatory_envelope():
    # |D(w) - (w log w + (2 gamma - 1) w)| <= 0.764 w^(1/3) log w on [9995, 10^6]
    top = 10**6
    tau = np.zeros(top + 1, dtype=np.int64)
    for d in range(1, top + 1):
        tau[d::d] += 1
    dvals = np.cumsum(tau)[9995:]
    w = np.arange(9995, top + 1, dtype=np.float64)
    main = w * np.log(w) + (2 * EULER_GAMMA - 1) * w
    ratio = np.abs(dvals - main) / (0.764 * np.cbrt(w) * np.log(w))
    assert float(np.max(ratio)) < 1.0
    assert float(np.max(ratio)) == pytest.approx(0.241771, abs=1e-4)
    assert divisor_summatory(9995) == int(dvals[0]) == 93587


# ----- tau(m)/m sums and their constants -----


def test_tau_ratio_sum_exact_value_at_sixty():
    s = tau_ratio_sum(60)
    assert s == Fraction(33150872522920348433146783, 2422678041194307925228200)
    assert float(s) == pytest.approx(13.683565030, abs=1e-8)


def test_tau_ratio_exact_and_float_paths_agree():
    from repulse.largesieve import _tau_ratio_prefix

    exact = tau_ratio_sum(10_000)
    assert isinstance(exact, Fraction)
    assert isinstance(tau_ratio_sum(10_001), float)
    assert float(_tau_ratio_prefix()[10_000]) == pytest.approx(float(exact), rel=1e-12)


def test_lemma22_margin_values():
    assert lemma22_margin(60) == pytest.approx(0.175097, abs=1e-5)
    assert lemma22_margin(59) == pytest.approx(0.063172, abs=1e-5)  # no assertion below 60
    assert lemma22_margin(10**4) > 0
    # The floor 60 is sharp over the reals: just below it the margin is negative.
    assert lemma22_margin(59.999999) < 0
    with pytest.raises(ValueError):
        lemma22_margin(1.5)


def test_lemma22_margin_positive_on_all_integers_to_one_million():
    from repulse.largesieve import _tau_ratio_prefix

    y = np.arange(60, 10**6 + 1, dtype=np.float64)
    prefix = _tau_ratio_prefix()[60:10**6 + 1]
    ly = np.log(y)
    margins = prefix - (ly * ly / 2 + 2 * EULER_GAMMA * ly + 0.4)
    assert float(np.min(margins)) > 0
    argmin = int(np.argmin(margins)) + 60
    assert argmin == 179
    assert float(np.min(margins)) == pytest.approx(0.059587, abs=1e-5)


def test_b0_estimate_converges():
    assert b0_estimate(10**3) == pytest.approx(0.485375702, abs=1e-6)
    assert b0_estimate(10**4) == pytest.approx(0.480812221, abs=1e-6)
    assert b0_estimate(10**5) == pytest.approx(0.478950355, abs=1e-6)
    assert b0_estimate(10**6) == pytest.approx(0.478901476, abs=1e-6)
    target = 0.478809
    errs = [abs(b0_estimate(10**k) - target) for k in (3, 4, 5, 6)]
    assert errs == sorted(errs, reverse=True)
    assert errs[-1] < 0.01 and errs[0] < 0.1
    with pytest.raises(ValueError):
        b0_estimate(999)
