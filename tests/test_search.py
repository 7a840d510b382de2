"""Tests for the block-sieve scanner, audits, and the Fermat-prime family."""

from fractions import Fraction

import numpy as np
import pytest

from repulse import arith, bounds, primes, search
from repulse.search import (
    AuditReport,
    BlockTable,
    Solution,
    build_table,
    classify,
    default_min_m,
    fermat_family,
    lehmer_audit,
    scan,
    subbarao_audit,
)

NAIVE_LIMIT = 10**5


def naive_profile_row(n: int) -> tuple[int, ...]:
    pr = arith.profile(arith.factor(n))
    return (pr.phi, pr.uphi, pr.psi, pr.usigma, pr.omega, pr.n1)


def pairs(solutions) -> list[tuple[int, int]]:
    return [(s.n, s.m) for s in solutions]


# ----- sieve correctness -----


def test_block_table_matches_naive_loop():
    # oracle equivalence: the sieve must reproduce a direct per-integer loop
    tbl = build_table(2, NAIVE_LIMIT + 1)
    for i, n in enumerate(range(2, NAIVE_LIMIT + 1)):
        row = (int(tbl.phi[i]), int(tbl.uphi[i]), int(tbl.psi[i]),
               int(tbl.usigma[i]), int(tbl.omega[i]), int(tbl.n1[i]))
        assert row == naive_profile_row(n), f"sieve disagrees at n={n}"


def test_block_table_block_boundaries():
    # splitting a range into blocks must not change any column
    whole = build_table(2, 5000)
    a = build_table(2, 2048)
    b = build_table(2048, 5000)
    for field in ("n", "phi", "uphi", "psi", "usigma", "omega", "n1"):
        merged = np.concatenate([getattr(a, field), getattr(b, field)])
        assert np.array_equal(merged, getattr(whole, field)), field


def test_block_table_validation():
    with pytest.raises(ValueError):
        build_table(1, 10)
    with pytest.raises(ValueError):
        build_table(10, 10)
    with pytest.raises(ValueError):
        build_table(2, search.Config.MAX_SCAN_LIMIT + 2)


def test_audit_family_identities():
    # the audits take their family to be the m = 1 hits: phi(n) = n - 1 iff n
    # is prime, and phi*(n) = n - 1 iff n is a prime power
    tbl = build_table(2, 10**5 + 1)
    prime = np.isin(tbl.n, primes.primes_up_to(10**5))
    assert np.array_equal(tbl.phi == tbl.n - 1, prime)
    assert np.array_equal(tbl.uphi == tbl.n - 1, tbl.omega == 1)


# ----- scan: classical and unitary totient -----


def test_scan_phi_plus_small_range():
    assert pairs(scan(2, 20, "phi", 1)) == [(2, 3), (3, 2), (15, 2)]


def test_scan_phi_minus_empty():
    assert pairs(scan(2, 100, "phi", -1)) == []


def test_scan_phi_plus_to_1e5():
    # the five known multiplier >= 2 solutions below 10^5
    expected = [(2, 3), (3, 2), (15, 2), (255, 2), (65535, 2)]
    assert pairs(scan(2, NAIVE_LIMIT, "phi", 1)) == expected
    assert pairs(scan(2, NAIVE_LIMIT, "uphi", 1)) == expected


def test_scan_totient_minus_empty_to_1e5():
    assert pairs(scan(2, NAIVE_LIMIT, "phi", -1)) == []
    assert pairs(scan(2, NAIVE_LIMIT, "uphi", -1)) == []


def test_scan_phi_minus_min1_is_primes():
    # m = 1 with negative sign means phi(n) = n - 1, i.e. n prime
    sols = list(scan(2, 10**4, "phi", -1, min_m=1))
    assert [s.n for s in sols] == primes.primes_up_to(10**4).tolist()
    assert all(s.m == 1 and s.classification == "prime" for s in sols)


# ----- scan: psi and unitary sigma -----


def test_scan_psi_plus_min1_is_primes():
    sols = list(scan(2, NAIVE_LIMIT, "psi", 1, min_m=1))
    assert len(sols) == 9592  # prime count below 10^5
    assert [s.n for s in sols] == primes.primes_up_to(NAIVE_LIMIT).tolist()
    assert all(s.m == 1 and s.classification == "prime" for s in sols)


def test_scan_psi_plus_no_larger_multiplier():
    assert pairs(scan(2, NAIVE_LIMIT, "psi", 1, min_m=2)) == []


def test_scan_psi_minus_only_two():
    # psi(2) = 3 = 2 * 2 - 1 and nothing else below 10^5
    assert pairs(scan(2, NAIVE_LIMIT, "psi", -1)) == [(2, 2)]


def test_scan_usigma_plus_min1_is_prime_powers():
    sols = list(scan(2, 1000, "usigma", 1, min_m=1))
    expected = [n for n in range(2, 1001) if len(arith.factor(n).pairs) == 1]
    assert [s.n for s in sols] == expected
    assert all(s.m == 1 for s in sols)
    assert all(s.classification in ("prime", "prime-power") for s in sols)


def test_scan_usigma_minus_only_two():
    assert pairs(scan(2, NAIVE_LIMIT, "usigma", -1)) == [(2, 2)]


def test_scan_default_min_m():
    assert default_min_m("phi") == 2
    assert default_min_m("uphi") == 2
    assert default_min_m("psi") == 1
    assert default_min_m("usigma") == 1
    with pytest.raises(ValueError):
        default_min_m("sigma")


# ----- solution integrity -----


def test_solutions_verify_through_big_ints():
    # re-derive each emitted multiplier from scratch with exact integer math
    for variant, sign in (("phi", 1), ("uphi", 1), ("psi", 1), ("psi", -1),
                          ("usigma", 1), ("usigma", -1)):
        for sol in scan(2, 3000, variant, sign, min_m=1):
            f = arith.factor(sol.n)
            assert f == sol.factorization
            assert bounds.solve_m(f, variant, sign) == sol.m
            pr = arith.profile(f)
            if variant == "phi":
                assert sol.m * pr.phi == sol.n + sign
            elif variant == "uphi":
                assert sol.m * pr.uphi == sol.n + sign
            elif variant == "psi":
                assert pr.psi == sol.m * sol.n + sign
            else:
                assert pr.usigma == sol.m * sol.n + sign


def test_composite_unit_offset_solutions_are_squarefree():
    # any composite solving the unit-offset equations must be squarefree
    # with matching psi and unitary sigma; below 10^5 the property holds
    # vacuously for want of composite hits, which the scan confirms
    for variant in ("psi", "usigma"):
        for sign in (1, -1):
            for sol in scan(2, NAIVE_LIMIT, variant, sign, min_m=1):
                if sol.classification.startswith("composite"):
                    pr = arith.profile(sol.factorization)
                    assert sol.classification == "composite-squarefree"
                    assert pr.psi == pr.usigma


def test_theorem_check_never_fails_on_scan_output():
    for variant, sign in (("phi", 1), ("psi", 1), ("usigma", 1)):
        for sol in scan(2, 2 * 10**4, variant, sign, min_m=1):
            chk = bounds.theorem_check(sol.factorization, sol.m, variant, sign)
            assert chk.status != "fail", (sol.n, variant, sign)
            assert Fraction(sol.m) <= bounds.assemble_M_exact(
                sol.factorization, variant, sign)


def test_classify():
    assert classify(arith.factor(7)) == "prime"
    assert classify(arith.factor(4)) == "prime-power"
    assert classify(arith.factor(15)) == "composite-squarefree"
    assert classify(arith.factor(12)) == "composite-nonsquarefree"
    assert classify(arith.factor(65535)) == "composite-squarefree"


def test_solution_to_json_schema():
    sol = next(iter(scan(2, 20, "phi", 1)))
    js = sol.to_json()
    assert sorted(js) == ["class", "factorization", "m", "n", "sign", "variant"]
    assert js["n"] == "2" and js["m"] == "3"
    assert js["sign"] == "+1"
    assert js["factorization"] == [[2, 1]]
    assert js["class"] == "prime"
    neg = next(iter(scan(2, 10, "psi", -1, min_m=1)))
    assert neg.to_json()["sign"] == "-1"


def test_scan_argument_validation():
    with pytest.raises(ValueError):
        list(scan(2, 10, "sigma", 1))
    with pytest.raises(ValueError):
        list(scan(2, 10, "phi", 2))
    with pytest.raises(ValueError):
        list(scan(2, 10, "phi", 1, min_m=0))
    with pytest.raises(ValueError):
        list(scan(2, search.Config.MAX_SCAN_LIMIT + 1, "phi", 1))
    assert list(scan(50, 10, "phi", 1)) == []  # empty range


def test_scan_jobs_deterministic(monkeypatch):
    monkeypatch.setattr(search.Config, "BLOCK_SIZE", 1 << 14)
    seq = list(scan(2, 3 * 10**4, "psi", 1, min_m=1, jobs=1))
    par = list(scan(2, 3 * 10**4, "psi", 1, min_m=1, jobs=4))
    assert seq == par
    seq_js = [s.to_json() for s in seq]
    par_js = [s.to_json() for s in par]
    assert seq_js == par_js


# ----- audits -----


def test_lehmer_audit_small():
    rep = lehmer_audit(10**4)
    assert rep.ok
    assert rep.counterexamples == ()
    assert rep.family == "prime"
    assert rep.family_count == 1229  # prime count below 10^4
    assert rep.wall_time >= 0.0


def test_lehmer_audit_vacuous():
    rep = lehmer_audit(1)
    assert rep.ok and rep.family_count == 0


def test_subbarao_audit_small():
    rep = subbarao_audit(10**4)
    assert rep.ok
    expected = sum(1 for n in range(2, 10**4 + 1)
                   if len(arith.factor(n).pairs) == 1)
    assert rep.family == "prime-power"
    assert rep.family_count == expected


def test_audit_jobs_deterministic(monkeypatch):
    monkeypatch.setattr(search.Config, "BLOCK_SIZE", 1 << 14)
    a = lehmer_audit(10**5, jobs=1)
    b = lehmer_audit(10**5, jobs=4)
    assert a.ok == b.ok and a.family_count == b.family_count
    assert a.counterexamples == b.counterexamples


def test_audit_report_json():
    js = subbarao_audit(100).to_json()
    assert js["conjecture"] == "subbarao"
    assert js["hi"] == "100"
    assert js["counterexamples"] == []
    assert isinstance(js["wall_time"], float)


# ----- Fermat-prime family -----


def test_fermat_family_values():
    expected_n = {1: 3, 2: 15, 3: 255, 4: 65535, 5: 4294967295}
    for k, n in expected_n.items():
        sol = fermat_family(k)
        assert sol.n == n
        assert sol.m == 2 and sol.variant == "phi" and sol.sign == 1
        pr = arith.profile(sol.factorization)
        assert 2 * pr.phi == n + 1


def test_fermat_family_classification():
    assert fermat_family(1).classification == "prime"
    for k in range(2, 6):
        assert fermat_family(k).classification == "composite-squarefree"


def test_fermat_family_validation():
    with pytest.raises(ValueError):
        fermat_family(0)
    with pytest.raises(ValueError):
        fermat_family(6)


def test_fermat_members_appear_in_scan():
    hits = pairs(scan(2, 300, "phi", 1))
    assert (255, 2) in hits
