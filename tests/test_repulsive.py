"""Tests for self-repulsive prime sets and their statistics."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repulse import primes
from repulse.arith import euler_phi, factor
from repulse.primes import iter_primes
from repulse.repulsive import (
    PrimeSet,
    RepulsionCheck,
    _repulsion,
    greedy_construct,
    is_self_repulsive,
    set_of_integer,
    stats,
)

# ----- is_self_repulsive -----


def test_repulsion_examples():
    assert is_self_repulsive([], 1).ok
    assert is_self_repulsive([3, 5, 17], 1).ok
    bad = is_self_repulsive([3, 7], 1)
    assert not bad.ok
    p, q = bad.witness
    assert (p, q) == (3, 7) and q % p == 1 % p


def test_repulsion_rejects_non_prime():
    with pytest.raises(ValueError, match="15"):
        is_self_repulsive([3, 15], 1)


@pytest.mark.parametrize("a", [1.5, True])
def test_repulsion_refuses_a_that_is_not_an_integer(a):
    with pytest.raises(TypeError, match=f"^a must be an integer, got {a!r}$"):
        is_self_repulsive([3, 5, 7], a)


def test_repulsion_is_about_distinct_pairs():
    # p = q pairs never count: {2} stays 2-self-repulsive even though 2 ≡ 2 ≡ 0 (mod 2).
    assert is_self_repulsive([2], 2).ok
    assert is_self_repulsive([5], 5).ok


def pairwise_repulsion(elems, a):
    # the pairwise loop _repulsion ran before it read classes of a membership array
    for p in elems:
        target = a % p
        for q in elems:
            if q != p and q % p == target:
                return RepulsionCheck(ok=False, witness=(p, q))
    return RepulsionCheck(ok=True)


ORACLE_A = [-3, -1, 0, 1, 2, 7, 10**9 + 7, -10**12]


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    # few members below 3000: mostly the pairwise path (max > len**2)
    st.lists(st.sampled_from(primes.primes_up_to(3000).tolist()), max_size=12),
    # many members below 200: mostly the membership array
    st.lists(st.sampled_from(primes.primes_up_to(200).tolist()), min_size=8, max_size=40),
), st.sampled_from(ORACLE_A))
def test_repulsion_matches_pairwise_oracle(members, a):
    elems = sorted(set(members))
    assert _repulsion(elems, a) == pairwise_repulsion(elems, a)
    assert is_self_repulsive(members, a) == pairwise_repulsion(elems, a)


@pytest.mark.parametrize("a", [-2, -1, 1, 2])
def test_repulsion_matches_pairwise_oracle_on_greedy_sets(a):
    u = greedy_construct(2e5, a, 3)
    assert u.primes[-1] <= len(u.primes) ** 2  # the membership-array path
    assert _repulsion(u.primes, a) == pairwise_repulsion(u.primes, a) == RepulsionCheck(ok=True)
    # each prime greedy left out, added back, breaks repulsion somewhere
    chosen = set(u.primes)
    left_out = [p for p in iter_primes(3, 200_001) if p not in chosen]
    for extra in (left_out[0], left_out[len(left_out) // 2], left_out[-1]):
        elems = sorted(chosen | {extra})
        got = _repulsion(elems, a)
        assert not got.ok and got == pairwise_repulsion(elems, a), extra


# ----- set_of_integer -----


def test_support_diagnostics_examples():
    ps, diag = set_of_integer(factor(15), 1)
    assert ps.primes == (3, 5)
    assert diag.gcd_phi_a == 1 and diag.criterion
    assert diag.squarefree and diag.self_repulsive

    _, diag4 = set_of_integer(factor(4), 1)
    assert diag4.gcd_phi_a == 2 and not diag4.criterion

    _, diag21 = set_of_integer(factor(21), 1)
    assert diag21.gcd_phi_a == 3 and not diag21.criterion
    assert not diag21.self_repulsive and diag21.witness == (3, 7)


@pytest.mark.parametrize("n", [
    3 * 5 * 7 * 11 * 118_750_098_349,  # one support prime above the 10^6 table
    4_611_686_014_132_420_609,  # (2**31 - 1)**2
])
def test_support_diagnostics_do_not_reprove_the_support(monkeypatch, n):
    # factor() has proven every support prime, so set_of_integer makes no
    # is_prime call; its verdict is the public, validating path's
    f = factor(n)
    calls = []
    real = primes.is_prime
    monkeypatch.setattr(primes, "is_prime", lambda m: calls.append(m) or real(m))
    got = {a: set_of_integer(f, a) for a in range(-6, 7)}
    assert calls == []
    for a, (ps, diag) in got.items():
        public = is_self_repulsive(ps.primes, a)
        assert (diag.self_repulsive, diag.witness) == (public.ok, public.witness)
    assert got[1][1].witness == ((3, 7) if n % 3 == 0 else None)
    assert len(calls) == 13 * len(f.pairs)  # the public path proves each member


def test_coprimality_criterion_forces_structure_to_hundred_thousand():
    # Whenever gcd(n, |phi_a(n)|) = 1 and gcd(n, a) = 1, the integer must be
    # squarefree with self-repulsive support; checked exhaustively.
    for a in (1, -1):
        hits = 0
        for n in range(2, 100_001):
            f = factor(n)
            _, diag = set_of_integer(f, a)
            if diag.criterion and math.gcd(n, abs(a)) == 1:
                hits += 1
                assert diag.squarefree, (n, a)
                assert diag.self_repulsive, (n, a)
        assert hits > 25_000  # the criterion is far from vacuous


# ----- greedy_construct -----


def test_greedy_examples():
    assert greedy_construct(25, 1, 3).primes == (3, 5, 17, 23)
    assert greedy_construct(20, 1, 2).primes == (2,)
    assert greedy_construct(20, -1, 3).primes == (3, 7, 19)
    assert greedy_construct(100, 1, 3).primes == (3, 5, 17, 23, 29, 53, 83, 89)


def greedy_oracle(x, a, start):
    """The pairwise greedy loop: each prime is tested against every chosen member."""
    chosen = []
    for p in iter_primes(start, math.floor(x) + 1):
        admit = True
        for q in chosen:
            # q came first, so test both orders against the newcomer.
            if p % q == a % q or q % p == a % p:
                admit = False
                break
        if admit:
            chosen.append(p)
    return tuple(chosen)


def test_greedy_matches_pairwise_oracle():
    # a in [-30, 30] covers p = a and |a| >= p; ascending greedy members
    # up to a smaller x are the prefix of the members up to 3000
    for a in range(-30, 31):
        for start in (2, 3, 5):
            want = greedy_oracle(3000, a, start)
            for x in (start, 10.5, 30, 31, 100, 1000.9, 3000):
                got = greedy_construct(x, a, start).primes
                assert got == tuple(p for p in want if p <= x), (a, start, x)
    for a, start, x in [(1, 3, 2e4), (-1, 3, 2e4), (2, 2, 2e4), (-2, 5, 2e4),
                        (10**30, 2, 3000), (-10**30, 3, 3000), (5000, 3, 3000),
                        (-4999, 2, 3000), (7, 24, 28.5), (3, 24, 24)]:
        assert greedy_construct(x, a, start).primes == greedy_oracle(x, a, start), (a, start, x)


def test_greedy_rejects_bad_range():
    with pytest.raises(ValueError):
        greedy_construct(10, 1, 11)
    with pytest.raises(ValueError):
        greedy_construct(30, 1, 1)


@pytest.mark.parametrize("a, start, name, value", [
    (1.5, 3, "a", 1.5),  # used to fail as a slice TypeError
    (1, 3.5, "start", 3.5),  # used to fail as a range TypeError
    (True, 3, "a", True),
])
def test_greedy_refuses_a_and_start_that_are_not_integers(a, start, name, value):
    with pytest.raises(TypeError, match=f"^{name} must be an integer, got {value!r}$"):
        greedy_construct(100, a, start)


@settings(max_examples=60, deadline=None)
@given(st.floats(3, 500), st.integers(-5, 5), st.sampled_from([2, 3, 5]))
def test_greedy_output_is_self_repulsive(x, a, start):
    if x < start:
        x = float(start)
    u = greedy_construct(x, a, start)
    assert is_self_repulsive(u.primes, a).ok
    assert u.cutoff == x
    # Maximality: every prime in [start, x] not chosen would break the property.
    from repulse.primes import iter_primes

    chosen = set(u.primes)
    for p in iter_primes(start, math.floor(x) + 1):
        if p not in chosen:
            assert not is_self_repulsive(sorted(chosen | {p}), a).ok


# ----- stats -----


def test_stats_examples():
    u = PrimeSet(a=1, primes=(3, 5), cutoff=10.0)
    s = stats(u, 10)
    assert s.p_u_exact == Fraction(15, 8)
    assert s.p_u == pytest.approx(1.875)
    assert s.s_u == pytest.approx(8 / 15)
    assert s.theta_u == pytest.approx(math.log(15))
    assert s.pi_u == 2

    s4 = stats(u, 4)
    assert s4.p_u_exact == Fraction(3, 2)
    assert (s4.s_u, s4.theta_u, s4.pi_u) == (pytest.approx(1 / 3), pytest.approx(math.log(3)), 1)

    empty = stats(PrimeSet(a=1, primes=(), cutoff=2.0), 2)
    assert (empty.p_u, empty.s_u, empty.theta_u, empty.pi_u) == (1.0, 0.0, 0.0, 0)


def test_stats_requires_x_within_cutoff():
    u = PrimeSet(a=1, primes=(3, 5), cutoff=10.0)
    with pytest.raises(ValueError):
        stats(u, 11)


def test_stats_monotone_in_x():
    u = greedy_construct(1000, 1, 3)
    cuts = [3, 10, 50, 100, 500, 1000]
    series = [stats(u, c) for c in cuts]
    for lo, hi in zip(series, series[1:]):
        assert hi.p_u >= lo.p_u and hi.s_u >= lo.s_u
        assert hi.theta_u >= lo.theta_u and hi.pi_u >= lo.pi_u


def test_stats_product_bounds():
    u = greedy_construct(2000, 1, 3)
    s = stats(u, 2000)
    assert s.p_u >= 1.0 + s.s_u  # term-wise 1/(1-1/p) >= 1 + 1/p


def test_support_product_is_totient_ratio():
    # For squarefree n, the exact product over the support equals n/phi(n).
    for n in (15, 30, 255, 4294967295, 9699690):
        f = factor(n)
        assert all(e == 1 for _, e in f.pairs)
        u, _ = set_of_integer(f, 1)
        s = stats(u, u.cutoff)
        assert s.p_u_exact == Fraction(n, euler_phi(f))
        assert s.theta_u == pytest.approx(math.log(n))


def test_support_cutoff_is_the_exact_largest_prime():
    # float(2**60 + 33) rounds below the prime, so a float cutoff would drop it
    p = 1152921504606847009
    assert float(p) < p
    u, _ = set_of_integer(factor(p), 1)
    assert u.primes == (p,) and u.cutoff >= p
    assert stats(u, u.cutoff).pi_u == 1


def test_prime_set_validation():
    with pytest.raises(ValueError):
        PrimeSet(a=1, primes=(5, 3), cutoff=10.0)
    with pytest.raises(ValueError):
        PrimeSet(a=1, primes=(4,), cutoff=10.0)
    with pytest.raises(ValueError):
        PrimeSet(a=1, primes=(3, 11), cutoff=10.0)
