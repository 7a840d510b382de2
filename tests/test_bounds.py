"""Tests for repulse.bounds: correction factors, assembled bounds,
theorem-style checks, and the chain-grid reports."""

import math
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repulse.arith import euler_phi, factor, from_pairs, profile
from repulse.bounds import (
    CHAIN_CONSTANTS,
    CHAIN_CUTOFFS,
    DELTA_CORRECTION,
    DELTA_CORRECTION_PSI,
    EIGHT_EGAMMA,
    EIGHT_GAMMA,
    ETA_CORRECTION,
    ETA_CORRECTION_PSI,
    EULER_GAMMA,
    OMEGA_LOG_CONSTANTS,
    STIELTJES_B0,
    STIELTJES_GAMMA1,
    TRIPLE_LOG_CONSTANTS,
    SubCheck,
    TheoremCheck,
    assemble_M,
    assemble_M_exact,
    boundary_log_count,
    chain_grid_report,
    chain_margin,
    delta,
    delta1,
    delta_psi,
    epsilon_boundary_factor,
    epsilon_correction,
    eta,
    eta_psi,
    exp_correction,
    half_inverse_expm1,
    pu_upper_eq32,
    solve_m,
    theorem_check,
    thm21_pi_bound,
)
from repulse.catalog import load_catalog
from repulse.largesieve import divisor_summatory
from repulse.search import scan

G = EULER_GAMMA
CATALOG = load_catalog()
# catalog entry-name suffix of each correction path and of each variant
PATH_SUFFIX = {"delta": "totient", "delta_psi": "psi", "eta": "eta_totient",
               "eta_psi": "eta_psi"}
VARIANT_SUFFIX = {"phi": "totient", "uphi": "unitary_totient", "psi": "psi",
                  "usigma": "unitary_sigma"}


# ----- oracles: independent re-derivations used only by tests -----

def oracle_delta(t, c=1.01011, widened=False):
    lt = math.log(t)
    llt = math.log(lt)
    top = (1 + 1 / t) * (1 + 1 / (2 * t**3))
    extra = lt + llt if widened else llt
    return top / (
        (1 - (lt - 8 * G) / t) ** 2
        * (1 - lt / t)
        * (1 - c * extra / (t * lt))
    )


def oracle_delta1(t):
    lt = math.log(t)
    gap = lt - 8 * G
    return gap**2 / (t**2 * (1 - abs(gap) / t)) + lt**2 / (
        2 * t**2 * (1 - lt / t)
    )


def oracle_thm21(x, p_u):
    t = math.log(x)
    u = math.log(t)
    return (
        8
        * math.exp(G)
        * x
        * (1 + 1 / t)
        * (1 + 1 / (2 * t**3))
        / (p_u * t * (1 - (u - 8 * G) / t) ** 2 * (1 - u / t))
    )


# ----- constants -----

def test_constant_literals():
    assert abs(EULER_GAMMA - 0.5772156649015329) < 1e-15
    assert abs(STIELTJES_GAMMA1 + 0.0728158454836767) < 1e-15
    # gamma^2 - 2*gamma1 reproduces 0.478809...
    assert abs(STIELTJES_B0 - 0.478809614775072) < 1e-14
    assert abs(EIGHT_EGAMMA - 8 * math.exp(G)) < 1e-14
    assert EIGHT_GAMMA == 8 * G


def runtime_constant_pins():
    """(value bounds evaluates, catalog entry, entry field) per run-time constant."""
    corrections = {"delta": DELTA_CORRECTION, "delta_psi": DELTA_CORRECTION_PSI,
                   "eta": ETA_CORRECTION, "eta_psi": ETA_CORRECTION_PSI}
    for path, suffix in PATH_SUFFIX.items():
        yield corrections[path], f"log_linearization_{suffix}", "claimed"
        yield CHAIN_CONSTANTS[(path, "log")], f"chain_constant_{suffix}", "claimed"
        yield CHAIN_CONSTANTS[(path, "linear")], f"chain_collapse_{suffix}", "claimed"
        yield CHAIN_CUTOFFS[path], f"chain_tail_{suffix}", "domain_lo"
    for variant, suffix in VARIANT_SUFFIX.items():
        yield TRIPLE_LOG_CONSTANTS[variant], f"headline_triple_log_{suffix}", "claimed"
        yield OMEGA_LOG_CONSTANTS[variant], f"headline_omega_{suffix}", "claimed"


@pytest.mark.parametrize("value, name, field",
                         [pytest.param(*pin, id=pin[1]) for pin in runtime_constant_pins()])
def test_runtime_constant_matches_catalog(value, name, field):
    # the catalog is the one home of each claimed constant; bounds keeps a
    # copy only of those it evaluates, and each copy must equal the claim
    assert getattr(CATALOG.entry(name), field) == value


# ----- delta / eta -----

@given(st.floats(min_value=2.72, max_value=1e6))
@settings(max_examples=200, deadline=None)
def test_delta_matches_oracle(t):
    assert delta(t) == pytest.approx(oracle_delta(t), rel=1e-14)
    assert delta_psi(t) == pytest.approx(oracle_delta(t, c=1.00807), rel=1e-14)
    assert eta(t) == pytest.approx(
        oracle_delta(t, c=1.04204, widened=True), rel=1e-14
    )
    assert eta_psi(t) == pytest.approx(
        oracle_delta(t, c=1.03398, widened=True), rel=1e-14
    )


def test_delta_limit_behavior():
    assert 1.0 < delta(1e6) < 1.0001
    assert 1.0 < delta_psi(1e6) < 1.0001
    # decreasing toward 1 across decades
    vals = [delta(10.0**k) for k in range(2, 7)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_delta_chain_examples():
    assert delta(100.0) < 1 + (3 * math.log(100) - 7.55957) / 100
    assert delta_psi(100.0) < delta(100.0)
    assert EIGHT_EGAMMA * delta(73.0) <= EIGHT_EGAMMA * (
        1 + (3 * math.log(73) - 7.55957) / 73
    )


def test_eta_dominates_delta():
    for t in (72.5, 100.0, 1e4, 1e6):
        assert eta(t) >= delta(t)
        assert eta_psi(t) >= delta_psi(t)


def test_delta_domain_errors():
    for bad in (1.0, 2.0, math.e, 0.0, -5.0):
        with pytest.raises(ValueError):
            delta(bad)
    with pytest.raises(ValueError):
        eta(2.5)
    with pytest.raises(ValueError):
        delta1(math.e)


# ----- delta1 -----

@given(st.floats(min_value=4.5, max_value=1e6))
@settings(max_examples=200, deadline=None)
def test_delta1_matches_oracle(t):
    assert delta1(t) == pytest.approx(oracle_delta1(t), rel=1e-13)


def test_delta1_terminal_bounds():
    assert delta1(73.0) * 73.0 <= 0.13552
    assert delta1(95.0) * 95.0 <= 0.11669


def test_delta1_chain_links_on_grid():
    # delta1(t) <= (a (log t - 8g)^2 + b log^2 t)/t^2 <= terminal/t, with a,
    # b and terminal the catalog's claims on each path's domain
    for suffix in PATH_SUFFIX.values():
        a = CATALOG.entry(f"gap_inverse_{suffix}").claimed
        b = CATALOG.entry(f"half_inverse_log_{suffix}").claimed
        step = CATALOG.entry(f"quadratic_gap_step_{suffix}")
        for t in np.geomspace(step.domain_lo, 1e6, 2001):
            t = float(t)
            lt = math.log(t)
            quad = (a * (lt - EIGHT_GAMMA) ** 2 + b * lt * lt) / (t * t)
            assert delta1(t) <= quad <= step.claimed / t, (suffix, t)


def test_delta1_asymptote():
    # delta1(t) ~ ((log t - 8g)^2 + (log^2 t)/2) / t^2
    t = 1e6
    lt = math.log(t)
    true_asym = ((lt - 8 * G) ** 2 + lt**2 / 2) / t**2
    ratio = delta1(t) / true_asym
    assert abs(ratio - 1) < 5e-5
    # the coefficient-sum form (1.06245 + 0.53123) log^2 t / t^2
    # overestimates delta1 here by ~1.7x; it is an envelope of the
    # two-term quadratic bound, not an asymptote
    naive = (1.06245 + 0.53123) * lt**2 / t**2
    assert 0.55 < delta1(t) / naive < 0.65


# ----- exponential correction helpers -----

def test_half_inverse_expm1():
    assert half_inverse_expm1(1.0) == pytest.approx(0.5 / (math.e - 1))
    assert half_inverse_expm1(701.0) == 0.0
    assert half_inverse_expm1(800.0) == 0.0


def test_exp_correction_matches_formula():
    for t in (73.0, 95.0, 200.0, 1e4):
        want = math.exp(
            1 / (t * math.log(t)) + 1 / t + 1 / (2 * (math.exp(t) - 1))
            if t < 700
            else 1 / (t * math.log(t)) + 1 / t
        )
        assert exp_correction(t) == pytest.approx(want, rel=1e-14)


def test_exp_correction_exponent_constant():
    # t * log(exp_correction(t)) = 1 + 1/log t + t/(2(e^t - 1)), whose
    # supremum over [73, 1e4] sits at t = 73, just below 1.233076
    grid = np.geomspace(73.0, 1e4, 4001)
    vals = [t * math.log(exp_correction(float(t))) for t in grid]
    top = max(vals)
    assert top == vals[0]
    assert top == pytest.approx(1.23307527171, abs=1e-9)
    assert top < 1.233076


def test_boundary_log_count_fixed_point():
    for t in (4.0, 8.0, 72.0, 95.0, 1e4, 1e6):
        level = boundary_log_count(t)
        assert level + math.log(level) == pytest.approx(t, rel=1e-12)
    with pytest.raises(ValueError):
        boundary_log_count(1.0)


def _boundary_log_count_80(t):
    # the oracle: always 80 iterations, no early stop
    level = t - math.log(t)
    for _ in range(80):
        level = t - math.log(level)
    return level


@pytest.mark.parametrize("grid", [
    np.linspace(1.0001, 10.0, 4001),
    np.linspace(4.0, 93.0, 4001),
    np.geomspace(72.0, 1e7, 4001),
], ids=["1.0001-10", "4-93", "72-1e7"])
def test_boundary_log_count_stops_only_where_80_iterations_agree(grid):
    ts = grid.tolist()
    want = [_boundary_log_count_80(t) for t in ts]
    assert [boundary_log_count(t) for t in ts] == want
    # each grid holds t whose iterates never settle, which run all 80
    assert any(t - math.log(level) != level for t, level in zip(ts, want))


@pytest.mark.parametrize("fn", [boundary_log_count, epsilon_boundary_factor])
@pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
def test_boundary_helpers_refuse_non_finite_t(fn, t):
    # t = inf used to iterate to NaN and return it
    with pytest.raises(ValueError, match=r"^t = .* out of range: need a finite t > 1$"):
        fn(t)


@pytest.mark.parametrize("call, error", [
    pytest.param(lambda: delta(math.inf), ValueError, id="delta"),
    pytest.param(lambda: delta_psi(math.inf), ValueError, id="delta_psi"),
    pytest.param(lambda: eta(math.inf), ValueError, id="eta"),
    pytest.param(lambda: eta_psi(math.inf), ValueError, id="eta_psi"),
    pytest.param(lambda: delta1(math.inf), ValueError, id="delta1"),
    pytest.param(lambda: exp_correction(math.inf), ValueError, id="exp_correction"),
    pytest.param(lambda: thm21_pi_bound(math.inf, 1.0), ValueError, id="thm21_pi_bound-x"),
    pytest.param(lambda: thm21_pi_bound(1e6, math.inf), ValueError, id="thm21_pi_bound-p_u"),
    pytest.param(lambda: thm21_pi_bound(1e6, math.nan), ValueError, id="thm21_pi_bound-p_u-nan"),
    pytest.param(lambda: pu_upper_eq32(math.inf, 50.0), ValueError, id="pu_upper_eq32-x"),
    pytest.param(lambda: pu_upper_eq32(1e6, math.inf), ValueError, id="pu_upper_eq32-theta_u"),
    pytest.param(lambda: chain_margin(math.inf), ValueError, id="chain_margin"),
    pytest.param(lambda: chain_grid_report(hi=math.inf), ValueError, id="chain_grid_report-hi"),
    pytest.param(lambda: chain_grid_report(lo=math.nan), ValueError, id="chain_grid_report-lo"),
    pytest.param(lambda: theorem_check(factor(17), True, "phi", -1), TypeError,
                 id="theorem_check-bool"),
    pytest.param(lambda: theorem_check(factor(15), 2.0, "phi", 1), TypeError,
                 id="theorem_check-float"),
    pytest.param(lambda: divisor_summatory(True), TypeError, id="divisor_summatory-bool"),
    pytest.param(lambda: divisor_summatory(10.5), TypeError, id="divisor_summatory-float"),
])
def test_non_finite_and_non_integer_inputs_are_refused(call, error):
    # each returned NaN, 1.0, a status or a count, or raised a numpy
    # RuntimeWarning or a TypeError from deep inside; now one line at the door
    with pytest.raises(error) as info:
        call()
    assert "\n" not in str(info.value) and str(info.value)


def test_epsilon_boundary_factor():
    t = 72.0
    level = boundary_log_count(t)
    want = math.exp(
        1 / (t * math.log(t)) + 1 / level + 1 / (2 * (math.exp(t) - 1))
    )
    assert epsilon_boundary_factor(t) == pytest.approx(want, rel=1e-14)


def test_epsilon_correction():
    x2, r = math.exp(10.0), 5
    lx = math.log(x2)
    want = (
        math.exp(1 / (lx * math.log(lx)) + 1 / math.log(r) + 1 / (2 * (x2 - 1)))
        - 1
    )
    assert epsilon_correction(x2, r) == pytest.approx(want, rel=1e-12)
    with pytest.raises(ValueError):
        epsilon_correction(x2, 3)


# ----- thm21_pi_bound / pu_upper_eq32 -----

def test_thm21_duplicate_oracle():
    for x, p_u in ((math.exp(74), 1.0), (math.exp(100), 3.7), (math.exp(80), 0.5)):
        assert thm21_pi_bound(x, p_u) == pytest.approx(
            oracle_thm21(x, p_u), rel=1e-12
        )


def test_thm21_scaling_properties():
    b1 = thm21_pi_bound(math.exp(80), 1.0)
    assert thm21_pi_bound(math.exp(80), 2.0) == b1 / 2.0
    assert thm21_pi_bound(math.exp(80), 0.25) == b1 * 4.0
    ratio = thm21_pi_bound(2 * math.exp(100), 1.0) / thm21_pi_bound(
        math.exp(100), 1.0
    )
    assert 2 * 0.97 < ratio < 2 * 1.03


def test_thm21_proof_form_and_errors():
    x = math.exp(74)
    assert thm21_pi_bound(x, 1.0, proof_form=True) < thm21_pi_bound(x, 1.0)
    # the two variants differ only in the cubic coefficient
    t = math.log(x)
    want = (1 + 0.49 / t**3) / (1 + 0.5 / t**3)
    got = thm21_pi_bound(x, 1.0, proof_form=True) / thm21_pi_bound(x, 1.0)
    assert got == pytest.approx(want, rel=1e-14)
    with pytest.raises(ValueError):
        thm21_pi_bound(10.0, 1.0)
    with pytest.raises(ValueError):
        thm21_pi_bound(math.exp(74), 0.0)


def test_pu_upper_eq32():
    v = pu_upper_eq32(math.exp(74), math.exp(math.exp(2)))
    assert v == pytest.approx(2 * EIGHT_EGAMMA * delta(74.0), rel=1e-12)
    x = math.exp(74)
    base = pu_upper_eq32(x, x / math.log(math.log(x)))
    assert base > 0
    assert pu_upper_eq32(x, 10 * x) > base
    for bad in (1.0, math.e, 0.5):
        with pytest.raises(ValueError):
            pu_upper_eq32(x, bad)


# ----- chain grids -----

def test_delta_chains_hold_on_grid():
    for correction in ("delta", "delta_psi"):
        for kind in ("log", "linear"):
            rep = chain_grid_report(correction, kind, points=4001)
            assert rep.violations == 0, (correction, kind, rep.first_violation)
            assert rep.min_margin > 0
            assert bool(rep)


def test_eta_log_chain_fails_everywhere_up_to_1e6():
    # the advertised constants 7.05655 / 7.08521 are not actually
    # achieved by eta: every grid point up to 1e6 violates the log chain
    assert chain_margin(72.0, "eta", "log") < 0
    for correction in ("eta", "eta_psi"):
        rep = chain_grid_report(correction, "log", points=2001)
        assert rep.violations == rep.points
        assert rep.first_violation == rep.lo
        assert rep.last_violation == rep.hi
        assert not bool(rep)


def test_eta_linear_chain_violation_window():
    # violations start at the cutoff and die out near t ~ 1383 (totient
    # path) and t ~ 1870 (psi path)
    assert chain_margin(72.0, "eta", "linear") < 0
    assert chain_margin(1380.0, "eta", "linear") < 0
    assert chain_margin(1390.0, "eta", "linear") > 0
    assert chain_margin(93.0, "eta_psi", "linear") < 0
    assert chain_margin(1865.0, "eta_psi", "linear") < 0
    assert chain_margin(1875.0, "eta_psi", "linear") > 0
    rep = chain_grid_report("eta", "linear", points=2001)
    assert rep.violations > 0
    assert rep.first_violation == 72.0
    assert rep.last_violation < 1390.0


def test_eta_chain_root_cause_written_step_sup():
    # the step quantity 1/(2t^2) + 1.04204*(log t + loglog t)/log t has
    # supremum ~1.3962 at t = 72, far above the 1.04214 used downstream;
    # dropping the (log t + loglog t)/log t >= 1 factor reproduces it
    def written_step(t, c):
        lt = math.log(t)
        return 1 / (2 * t * t) + c * (lt + math.log(lt)) / lt

    grid = np.geomspace(72.0, 1e6, 4001)
    vals = [written_step(float(t), 1.04204) for t in grid]
    assert max(vals) == vals[0]
    assert vals[0] == pytest.approx(1.396212533, abs=1e-8)
    grid_psi = np.geomspace(93.0, 1e6, 4001)
    vals_psi = [written_step(float(t), 1.03398) for t in grid_psi]
    assert max(vals_psi) == vals_psi[0]
    assert vals_psi[0] == pytest.approx(1.378795701, abs=1e-8)
    # the dropped-factor variant matches the advertised constants
    assert 1 / (2 * 72.0**2) + 1.04204 == pytest.approx(1.04214, abs=1e-5)
    assert 1 / (2 * 93.0**2) + 1.03398 == pytest.approx(1.03404, abs=1e-5)


def test_chain_functional_infima():
    # scaled forms 3 log t - t*log(correction) and 3 log t - t*(correction-1)
    # stay above the chain constants on the delta paths
    grid = np.geomspace(73.0, 1e6, 4001)
    log_form = min(3 * math.log(t) - t * math.log(delta(float(t))) for t in grid)
    lin_form = min(3 * math.log(t) - t * (delta(float(t)) - 1) for t in grid)
    assert log_form == pytest.approx(7.76574120072, abs=1e-6)
    assert lin_form == pytest.approx(7.58296017363, abs=1e-6)
    assert log_form > CHAIN_CONSTANTS[("delta", "log")]
    assert lin_form > CHAIN_CONSTANTS[("delta", "linear")]
    grid = np.geomspace(95.0, 1e6, 4001)
    log_psi = min(
        3 * math.log(t) - t * math.log(delta_psi(float(t))) for t in grid
    )
    lin_psi = min(3 * math.log(t) - t * (delta_psi(float(t)) - 1) for t in grid)
    assert log_psi == pytest.approx(7.79163502325, abs=1e-6)
    assert lin_psi == pytest.approx(7.60648955838, abs=1e-6)
    assert log_psi > CHAIN_CONSTANTS[("delta_psi", "log")]
    assert lin_psi > CHAIN_CONSTANTS[("delta_psi", "linear")]


def test_chain_grid_report_rejections():
    with pytest.raises(ValueError):
        chain_grid_report("delta", "cubic")
    with pytest.raises(ValueError):
        chain_grid_report("delta", "log", lo=100.0, hi=50.0)


# ----- solve_m -----

def test_solve_m_examples():
    assert solve_m(factor(3), "phi", -1) == 1
    assert solve_m(factor(15), "phi", 1) == 2
    assert solve_m(factor(9), "usigma", 1) == 1
    assert solve_m(factor(2), "phi", 1) == 3
    assert solve_m(factor(2), "psi", -1) == 2
    assert solve_m(factor(10), "phi", 1) is None
    assert solve_m(factor(9), "uphi", -1) == 1


def test_solve_m_rejections():
    with pytest.raises(ValueError):
        solve_m(factor(1), "phi", 1)
    with pytest.raises(ValueError):
        solve_m(factor(10), "sigma", 1)
    with pytest.raises(ValueError):
        solve_m(factor(10), "phi", 2)


def oracle_solve_m(n, variant, sign):
    f = factor(n)
    pr = profile(f)
    fn = {"phi": pr.phi, "uphi": pr.uphi, "psi": pr.psi, "usigma": pr.usigma}[
        variant
    ]
    if variant in ("phi", "uphi"):
        num, den = n + sign, fn
    else:
        num, den = fn - sign, n
    if num > 0 and num % den == 0:
        return num // den
    return None


def test_solve_m_against_naive_loop():
    for n in range(2, 2000):
        f = factor(n)
        for variant in ("phi", "uphi", "psi", "usigma"):
            for sign in (1, -1):
                assert solve_m(f, variant, sign) == oracle_solve_m(
                    n, variant, sign
                )


# ----- assemble_M -----

def test_assemble_equality_cases():
    # the bound is tight at the smallest composite solutions
    assert assemble_M_exact(factor(15), "phi", 1) == 2
    assert assemble_M_exact(factor(15), "uphi", 1) == 2
    assert assemble_M_exact(factor(2), "psi", -1) == 2


def test_assemble_examples():
    assert assemble_M_exact(factor(12), "uphi", 1) == Fraction(13, 6)
    assert assemble_M_exact(factor(9), "usigma", 1) == Fraction(11, 9)
    assert assemble_M(factor(12), "uphi", 1) == pytest.approx(13 / 6)


def test_assemble_squarefree_totient_closed_form():
    for n in (2, 3, 15, 105, 255, 4294967295):
        f = factor(n)
        assert assemble_M_exact(f, "uphi", 1) == Fraction(n + 1, euler_phi(f))


def test_assemble_rejections():
    with pytest.raises(ValueError):
        assemble_M_exact(factor(1), "phi", 1)
    with pytest.raises(ValueError):
        assemble_M_exact(factor(12), "tau", 1)


def per_prime_assembled_bound(f, variant):
    """assemble_M_exact built the long way, one Fraction per prime."""
    n = f.value
    if variant in ("phi", "uphi"):
        val = Fraction(n + 1, n)
        for p, e in f.pairs:
            val *= Fraction(p, p - 1) if e == 1 else Fraction(p * p, p * p - 1)
        return val
    prod = Fraction(1)
    for p, e in f.pairs:
        prod *= Fraction(p + 1, p) if e == 1 else Fraction(p * p + 1, p * p)
    return Fraction(1, n) + prod


def test_assemble_dominates_exact_m_small_range():
    hits = 0
    for n in range(2, 5001):
        f = factor(n)
        for variant in ("phi", "uphi", "psi", "usigma"):
            for sign in (1, -1):
                bound = assemble_M_exact(f, variant, sign)
                assert bound == per_prime_assembled_bound(f, variant), (n, variant, sign)
                m = solve_m(f, variant, sign)
                if m is not None and m >= 1:
                    hits += 1
                    assert Fraction(m) <= bound, (n, variant, sign)
    assert hits > 2000  # primes and prime powers alone guarantee plenty


def test_assemble_accepts_external_factorization():
    # product of the five known Fermat primes, supplied as pairs
    f = from_pairs([(3, 1), (5, 1), (17, 1), (257, 1), (65537, 1)])
    assert assemble_M_exact(f, "phi", 1) == Fraction(2**32, 2**31)


# ----- theorem_check -----

def test_theorem_check_spec_cases():
    chk = theorem_check(factor(15), 2, "phi", 1)
    assert chk.status == "not_applicable"
    assert not chk.triple_log.applicable
    assert not chk.omega_log.applicable
    chk = theorem_check(factor(1000000007), 1, "phi", -1)
    assert chk.status == "pass"
    assert chk.triple_log.applicable and chk.triple_log.holds
    assert not chk.omega_log.applicable


def test_theorem_check_m1_never_fails():
    # phi(17) = 16 divides 16: M = 1 but the triple-log bound at 17 is
    # below 1, so the check demotes to not-applicable instead of fail
    chk = theorem_check(factor(17), 1, "phi", -1)
    assert chk.triple_log.applicable
    assert chk.triple_log.holds is False
    assert chk.status == "not_applicable"
    assert bool(chk)


def test_theorem_check_omega_path():
    chk = theorem_check(factor(65535), 2, "phi", 1)
    assert chk.status == "pass"
    assert chk.omega_log.applicable
    assert chk.omega_log.argument == 4.0
    assert chk.omega_log.bound == pytest.approx(
        16.03235 * math.log(math.log(4))
    )
    chk5 = theorem_check(factor(4294967295), 2, "phi", 1)
    assert chk5.status == "pass"
    assert chk5.omega_log.argument == 5.0


def test_theorem_check_synthetic_fail():
    chk = theorem_check(factor(255), 50, "phi", 1, verify_solution=False)
    assert chk.status == "fail"
    assert not bool(chk)
    chk = theorem_check(factor(5865), 100, "phi", 1, verify_solution=False)
    assert chk.status == "fail"
    assert chk.omega_log.holds is False


def test_theorem_check_rejects_non_solutions():
    with pytest.raises(ValueError, match="does not solve"):
        theorem_check(factor(10), 2, "phi", 1)
    with pytest.raises(ValueError, match="does not solve"):
        theorem_check(factor(15), 3, "phi", 1)
    with pytest.raises(ValueError):
        theorem_check(factor(15), 0, "phi", 1)


def test_theorem_check_argument_errors_keep_their_messages():
    # the arguments are validated once, in theorem_check, before the
    # unchecked solver runs; each error keeps its message
    f = factor(15)
    with pytest.raises(ValueError, match=r"^unknown variant 'sigma'$"):
        theorem_check(f, 2, "sigma", 1)
    with pytest.raises(ValueError, match=r"^sign must be \+1 or -1, got 0$"):
        theorem_check(f, 2, "phi", 0)
    with pytest.raises(ValueError, match=r"^m = 0 out of range: need m >= 1$"):
        theorem_check(f, 0, "phi", 1)
    with pytest.raises(ValueError, match=r"^\(n, m\) = \(15, 3\) does not solve the "
                       r"phi/\+1 equation \(exact m: 2\)$"):
        theorem_check(f, 3, "phi", 1)
    with pytest.raises(ValueError, match=r"^\(n, m\) = \(10, 2\) does not solve the "
                       r"psi/-1 equation \(exact m: None\)$"):
        theorem_check(factor(10), 2, "psi", -1)
    with pytest.raises(ValueError, match=r"^n = 1 out of range: need n >= 2$"):
        theorem_check(factor(1), 1, "phi", 1)
    # solve_m keeps its own checks
    with pytest.raises(ValueError, match=r"^unknown variant 'sigma'$"):
        solve_m(f, "sigma", 1)
    with pytest.raises(ValueError, match=r"^sign must be \+1 or -1, got 0$"):
        solve_m(f, "phi", 0)
    assert solve_m(f, "phi", 1) == 2



@pytest.mark.parametrize("sign, error, message", [
    (1.0, TypeError, r"^sign must be an integer, got 1\.0$"),
    (True, TypeError, r"^sign must be an integer, got True$"),
    (2, ValueError, r"^sign must be \+1 or -1, got 2$"),
])
def test_sign_must_be_the_integer_plus_or_minus_one(sign, error, message):
    # a float or bool equal to +-1 used to pass, and failed later in formatting
    calls = [lambda: list(scan(2, 10, "psi", sign)),
             lambda: solve_m(factor(15), "phi", sign),
             lambda: theorem_check(factor(10), 3, "phi", sign)]
    for call in calls:
        with pytest.raises(error, match=message):
            call()
    # numpy integers still pass
    assert solve_m(factor(15), "phi", np.int64(1)) == 2
    assert theorem_check(factor(15), 2, "phi", np.int32(1)).status != "fail"


def oracle_subchecks(f, m, variant):
    # the kernel n1 from profile(f), omega(n1) from factoring n1 afresh
    n1 = profile(f).n1
    r = len(factor(n1).pairs)
    tri_arg = f.value if variant in ("phi", "psi") else n1
    if tri_arg > math.exp(math.e):
        val = math.log(math.log(math.log(tri_arg)))
        bound = TRIPLE_LOG_CONSTANTS[variant] * val
        tri = SubCheck("triple_log", True, val, bound, m < bound)
    else:
        tri = SubCheck("triple_log", False, float(tri_arg), None, None)
    if r >= 4:
        bound = OMEGA_LOG_CONSTANTS[variant] * math.log(math.log(r))
        om = SubCheck("omega_log", True, float(r), bound, m < bound)
    else:
        om = SubCheck("omega_log", False, float(r), None, None)
    return tri, om


def oracle_check(f, m, variant, sign):
    # the full verdict: a bound that applies must hold, and an M = 1
    # violation carries no content, so it demotes to not-applicable
    tri, om = oracle_subchecks(f, m, variant)
    applicable = [s for s in (tri, om) if s.applicable]
    if not applicable:
        status = "not_applicable"
    elif all(s.holds for s in applicable):
        status = "pass"
    elif m == 1:
        status = "not_applicable"
    else:
        status = "fail"
    return TheoremCheck(n=f.value, m=m, variant=variant, sign=sign, status=status,
                        triple_log=tri, omega_log=om)


def test_theorem_check_kernel_matches_factoring_oracle():
    # the range holds non-squarefree n with n1 != n, powerful n with n1 = 1,
    # and n with omega(n1) >= 4, where the omega path applies; m = 50 fails
    # wherever a bound applies, and m = 8 fails only the omega path there
    # (its bound is below 6.5 at omega(n1) = 4, the triple-log one above 8)
    kernels = {n: profile(factor(n)).n1 for n in (4, 12, 36, 2310)}
    assert kernels == {4: 1, 12: 3, 36: 1, 2310: 2310}
    statuses = set()
    for n in range(1, 3001):
        f = factor(n)
        for variant in ("phi", "uphi", "psi", "usigma"):
            for m in (1, 2, 8, 50):
                for sign in (1, -1):
                    want = oracle_check(f, m, variant, sign)
                    chk = theorem_check(f, m, variant, sign, verify_solution=False)
                    assert chk == want, (n, variant, sign, m)
                    assert type(chk.triple_log) is type(chk.omega_log) is SubCheck
                    statuses.add(chk.status)
    assert statuses == {"pass", "fail", "not_applicable"}


@pytest.mark.parametrize("variant", ["phi", "uphi", "psi", "usigma"])
@pytest.mark.parametrize("sign", [1, -1])
def test_theorem_check_matches_oracle_on_scan_solutions(variant, sign):
    # min_m = 1 keeps every solution the default scan yields, and adds the
    # m = 1 families of the totient scans
    sols = list(scan(2, 10**5, variant, sign, min_m=1))
    assert sols
    for sol in sols:
        f = sol.factorization
        want = oracle_check(f, sol.m, variant, sign)
        assert theorem_check(f, sol.m, variant, sign) == want, sol


# ----- result records -----


def test_result_records_field_order():
    assert SubCheck._fields == ("name", "applicable", "argument", "bound", "holds")
    assert TheoremCheck._fields == ("n", "m", "variant", "sign", "status",
                                    "triple_log", "omega_log")


def test_result_records_are_immutable():
    chk = theorem_check(factor(65535), 2, "phi", 1)
    for record, field in ((chk, "status"), (chk, "n"), (chk.omega_log, "holds"),
                          (chk.triple_log, "bound")):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    with pytest.raises(AttributeError):
        chk.extra = 1


def test_result_records_equality_and_hash():
    a = theorem_check(factor(65535), 2, "phi", 1)
    b = theorem_check(factor(65535), 2, "phi", 1)
    assert a == b and hash(a) == hash(b)
    assert a.omega_log == b.omega_log and hash(a.omega_log) == hash(b.omega_log)
    assert a != a._replace(status="fail")
    # a record is a tuple: it indexes, unpacks and equals the plain tuple of its values
    n, m, variant, sign, status, tri, om = a
    assert (n, m, variant, sign, status) == (65535, 2, "phi", 1, "pass")
    assert a[5] is tri and tuple(om) == ("omega_log", True, 4.0, om.bound, True)
    assert om == ("omega_log", True, 4.0, om.bound, True)


def test_theorem_check_bool_is_false_only_for_fail():
    base = theorem_check(factor(15), 2, "phi", 1)
    for status, truth in (("pass", True), ("not_applicable", True), ("fail", False)):
        assert bool(base._replace(status=status)) is truth
    assert bool(theorem_check(factor(255), 50, "phi", 1, verify_solution=False)) is False


def test_result_records_pickle_round_trip():
    for chk in (theorem_check(factor(65535), 2, "phi", 1),
                theorem_check(factor(255), 50, "phi", 1, verify_solution=False),
                theorem_check(factor(9), 1, "uphi", -1)):
        for record in (chk, chk.triple_log, chk.omega_log):
            back = pickle.loads(pickle.dumps(record))
            assert type(back) is type(record) and back == record
            assert hash(back) == hash(record)


def test_theorem_check_unitary_kernel_argument():
    # n = 9: unitary totient 8 divides 8, kernel n1 = 1 means neither
    # path applies
    chk = theorem_check(factor(9), 1, "uphi", -1)
    assert chk.status == "not_applicable"
    chk = theorem_check(factor(2), 2, "usigma", -1)
    assert chk.status == "not_applicable"
