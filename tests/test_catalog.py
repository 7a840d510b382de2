"""Catalog verification tests.

Every expected extremum below was frozen from an independent
high-precision scan (mpmath at 40 digits, separate code) before the
catalog module existed; the catalog's float64 recomputation must land
on the frozen values.  Margins are recomputed - claimed for sup_le
entries and claimed - recomputed for inf_ge entries, so a positive
margin always means the claim is on the wrong side.
"""

import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from repulse import catalog as cat
from repulse import primes
from repulse.catalog import ConstantCheck, compile_expression

# name -> (frozen extremum, frozen margin, verdict)
FROZEN = {
    "axiom_chebyshev_theta_epsilon": (1.000000001, 0.0, "pass"),
    "axiom_iterated_log_prime_bound": (1.059704, 0.0, "pass"),
    "axiom_mertens_product_envelope": (0.890536209, 0.0, "pass"),
    "axiom_mertens_sum_cube_log": (5.0, 0.0, "pass"),
    "chain_collapse_eta_psi": (6.84000721971, -0.00170722, "pass"),
    "chain_collapse_eta_totient": (6.80452410112, -4.10112e-06, "pass"),
    "chain_collapse_psi": (7.59129743556, -7.43556e-06, "pass"),
    "chain_collapse_totient": (7.55957154023, -1.54023e-06, "pass"),
    "chain_constant_eta_psi": (7.08521063842, -6.38425e-07, "pass"),
    "chain_constant_eta_totient": (7.05595063842, +0.000599362, "pass"),
    "chain_constant_psi": (7.78312063842, +0.00199936, "pass"),
    "chain_constant_totient": (7.75695063842, -6.38425e-07, "pass"),
    "chain_tail_eta_psi": (0.0700278331125, -2.16689e-06, "pass"),
    "chain_tail_eta_totient": (0.0801867827368, -3.21726e-06, "pass"),
    "chain_tail_psi": (0.0618580071032, -1.9929e-06, "pass"),
    "chain_tail_totient": (0.070060661965, -9.33803e-06, "pass"),
    "corrected_envelope_large_psi": (15.3549032651, -6.73487e-06, "pass"),
    "corrected_envelope_large_totient": (15.5457551063, -4.89367e-06, "pass"),
    "corrected_envelope_small_psi": (15.2548400205, -9.97948e-06, "pass"),
    "corrected_envelope_small_totient": (15.4130289795, -1.02047e-06, "pass"),
    "delta_chain_inf_linear_psi": (7.60648955838, -0.0151996, "pass"),
    "delta_chain_inf_linear_totient": (7.58296017363, -0.0233902, "pass"),
    "delta_chain_inf_log_psi": (7.79163502325, -0.00651502, "pass"),
    "delta_chain_inf_log_totient": (7.76574120072, -0.0087912, "pass"),
    "eta_written_step_psi": (1.03403781015, -2.18985e-06, "pass"),
    "eta_written_step_totient": (1.04213645062, -3.54938e-06, "pass"),
    "exp_exponent_ceiling": (1.23307527171, -7.28291e-07, "pass"),
    "exp_exponent_rounded": (1.233076, -4e-06, "pass"),
    "gap_inverse_eta_psi": (1.00364614145, -0.0475939, "pass"),
    "gap_inverse_eta_totient": (1.00475947867, -0.0583905, "pass"),
    "gap_inverse_psi": (1.00364614145, -0.0467039, "pass"),
    "gap_inverse_totient": (1.00450328286, -0.0579467, "pass"),
    "half_inverse_log_eta_psi": (0.525617343039, -2.65696e-06, "pass"),
    "half_inverse_log_eta_totient": (0.531574539187, -5.46081e-06, "pass"),
    "half_inverse_log_psi": (0.525174527858, -5.47214e-06, "pass"),
    "half_inverse_log_totient": (0.5312217154, -8.2846e-06, "pass"),
    "half_square_loglog_step_psi": (0.335640425286, +4.25286e-07, "pass"),
    "half_square_loglog_step_totient": (0.342975045547, -4.95445e-06, "pass"),
    "headline_omega_psi": (15.72774, -1e-05, "pass"),
    "headline_omega_totient": (16.03234, -1e-05, "pass"),
    "headline_omega_unitary_sigma": (19.4033214904, -8.5096e-06, "pass"),
    "headline_omega_unitary_totient": (19.779106678, -3.32203e-06, "pass"),
    "headline_triple_log_psi": (15.5205, -1e-05, "pass"),
    "headline_triple_log_totient": (15.76514, -1e-05, "pass"),
    "headline_triple_log_unitary_sigma": (18.8706651687, -4.83135e-06, "pass"),
    "headline_triple_log_unitary_totient": (19.449461891, -8.10903e-06, "pass"),
    "linear_envelope_large_psi": (15.1590396676, -3.32399e-07, "pass"),
    "linear_envelope_large_totient": (15.2853700611, -9.93887e-06, "pass"),
    "log_linearization_eta_psi": (1.03397426902, -5.73098e-06, "pass"),
    "log_linearization_eta_totient": (1.04203619831, -3.80169e-06, "pass"),
    "log_linearization_psi": (1.00806474798, -5.25202e-06, "pass"),
    "log_linearization_totient": (1.01010999308, -6.92021e-09, "pass"),
    "mertens_envelope_small_psi": (15.0602528066, -7.19339e-06, "pass"),
    "mertens_envelope_small_totient": (15.1548670427, +7.04272e-06, "pass"),
    "odd_prime_mertens_six_loglog": (7.36680224591, +1.36680224591, "exceed"),
    "omega_epsilon_envelope_large_psi": (15.6653270032, -2.99685e-06, "pass"),
    "omega_epsilon_envelope_large_totient": (15.9464722485, -7.75145e-06, "pass"),
    "omega_epsilon_envelope_small_psi": (15.1818336437, -6.35627e-06, "pass"),
    "omega_epsilon_envelope_small_totient": (15.4864406872, -9.31284e-06, "pass"),
    "omega_linear_envelope_large_psi": (15.2842056924, -4.30759e-06, "pass"),
    "omega_linear_envelope_large_totient": (15.4410030447, -6.95531e-06, "pass"),
    "omega_minimal_count_large_psi": (15.7277335705, -6.4295e-06, "pass"),
    "omega_minimal_count_large_totient": (16.0323380171, -1.98289e-06, "pass"),
    "omega_minimal_count_small_psi": (15.2423140999, -5.90006e-06, "pass"),
    "omega_minimal_count_small_totient": (15.5698293584, -1.06416e-05, "pass"),
    "omega_prime_envelope_small_psi": (15.6968392508, -7.49222e-07, "pass"),
    "omega_prime_envelope_small_totient": (15.8908480303, -1.96968e-06, "pass"),
    "quadratic_gap_step_eta_psi": (0.116195653903, -4.3461e-06, "pass"),
    "quadratic_gap_step_eta_totient": (0.136752747391, -0.000607253, "pass"),
    "quadratic_gap_step_psi": (0.114687967613, -0.00200203, "pass"),
    "quadratic_gap_step_totient": (0.135516380835, -3.61916e-06, "pass"),
    "shifted_envelope_large_psi": (15.4134388657, -0.107061, "pass"),
    "shifted_envelope_large_totient": (15.6221964611, -0.142944, "pass"),
    "shifted_envelope_small_psi_plain_exponent": (15.3110909673, -0.108259, "pass"),
    "shifted_envelope_small_psi_shifted_exponent": (15.3143140679, -0.105036, "pass"),
    "shifted_envelope_small_totient_plain_exponent": (15.4857656669, -0.144774, "pass"),
    "shifted_envelope_small_totient_shifted_exponent": (15.4910914361, -0.139449, "pass"),
    "stieltjes_mean_value": (0.478809614775072, +6.14775e-07, "pass"),
}


@pytest.fixture(scope="module")
def completed():
    done = cat.verify_all()
    return {c.name: c for c in done}


def test_catalog_loads():
    loaded = cat.load_catalog()
    assert loaded.version == "1.0.0"
    assert loaded.tolerance == 2e-3
    assert loaded.default_grid == 4001
    assert len(loaded.entries) == 78
    assert len({e.name for e in loaded.entries}) == 78
    # registrations carry no verification state
    assert all(e.verdict is None for e in loaded.entries)


def test_catalog_covers_expected_names():
    loaded = cat.load_catalog()
    assert {e.name for e in loaded.entries} == set(FROZEN)


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_frozen_extrema(completed, name):
    check = completed[name]
    extremum, margin, verdict = FROZEN[name]
    assert check.verdict == verdict
    assert check.recomputed_sup == pytest.approx(extremum, abs=2e-6)
    assert check.margin == pytest.approx(margin, abs=2e-6)


def test_margin_consistency(completed):
    for check in completed.values():
        if check.kind == "axiom":
            assert check.margin == 0.0
            continue
        if check.direction == "sup_le":
            expect = check.recomputed_sup - check.claimed
        elif check.direction == "inf_ge":
            expect = check.claimed - check.recomputed_sup
        else:
            expect = abs(check.recomputed_sup - check.claimed)
        assert check.margin == pytest.approx(expect, abs=1e-12)
        assert (check.verdict == "pass") == (check.margin <= 2e-3)


def test_exactly_one_exceed(completed):
    exceeds = [c.name for c in completed.values() if c.verdict == "exceed"]
    assert exceeds == ["odd_prime_mertens_six_loglog"]


def test_exactly_one_flagged_entry(completed):
    flagged = [c for c in completed.values() if c.flagged]
    assert [c.name for c in flagged] == ["mertens_envelope_small_totient"]
    check = flagged[0]
    assert check.verdict == "pass"
    assert 0.0 < check.margin < 1e-5
    assert check.recomputed_sup == pytest.approx(15.1548670427, abs=1e-7)
    assert check.sup_at == pytest.approx(73.0, abs=1e-6)


def test_razor_thin_passes(completed):
    # the component arithmetic reconciles with the advertised constant
    # only through the digit-transposed 0.11669; the margin must sit just
    # inside tolerance, not at zero
    psi_const = completed["chain_constant_psi"]
    assert 0.00199 < psi_const.margin <= 2e-3
    # a genuine (tiny) overshoot that tolerance is designed to absorb
    step = completed["half_square_loglog_step_psi"]
    assert 0.0 < step.margin < 1e-6


def test_six_loglog_details(completed):
    check = completed["odd_prime_mertens_six_loglog"]
    assert check.verdict == "exceed"
    assert check.sup_at == 4.0
    # independent oracle for the failing endpoint: the product over the
    # first four odd primes is exactly (3/2)(5/4)(7/6)(11/10)
    product = Fraction(3, 2) * Fraction(5, 4) * Fraction(7, 6) * Fraction(11, 10)
    assert product == Fraction(77, 32)
    expect = float(product) / math.log(math.log(4.0))
    assert check.recomputed_sup == pytest.approx(expect, rel=1e-9)
    assert check.recomputed_sup == pytest.approx(7.36680224591, abs=1e-8)


def test_six_loglog_interior_and_right_end():
    size, interior, interior_at = 0, -math.inf, None
    above, last = [], None
    for r0, ratio in cat._odd_prime_ratio_segments(cat._RATIO_TOP_R):
        size += ratio.size
        r = np.arange(r0, r0 + ratio.size)
        inside = np.flatnonzero((r >= 5) & (r <= 10**6))
        if inside.size:
            i = inside[int(np.argmax(ratio[inside]))]
            if ratio[i] > interior:
                interior, interior_at = float(ratio[i]), int(r[i])
        above.append(r[(r >= 5) & (ratio > 6.0)])
        last = float(ratio[-1])
    assert size == 8886110
    # away from the endpoints the claim holds with room, but the ratio is
    # already rising through the end of the comfortable window
    assert interior == pytest.approx(5.614810563413058, abs=1e-8)
    assert interior_at == 10**6
    # behavior freeze: the ratio crosses 6 once more and stays above it
    above = np.concatenate(above)
    assert above[0] == 6486052
    assert above[-1] == 8886110
    assert above.size == 2400059
    assert last == pytest.approx(6.064207820812686, abs=1e-8)


def _ratio_entry(lo, hi):
    return ConstantCheck(name="ratio_window", kind="custom", direction="sup_le",
                         expression="odd_prime_mertens_ratio", domain_lo=float(lo),
                         domain_hi=float(hi), claimed=6.0, integer_domain=True)


def test_odd_prime_ratio_matches_whole_array_oracle():
    # the first three seams between the generator's chunks: the cached
    # SMALL_SIEVE_LIMIT table ends at r = 78497, then one chunk per segment
    starts = [r0 for r0, _ in itertools.islice(cat._odd_prime_ratio_segments(cat._RATIO_TOP_R), 4)]
    assert starts[:2] == [1, 78498]
    top = starts[3] + 100
    odd = primes.primes_up_to(8 * 10**6)[1:top + 1].astype(np.float64)
    assert odd.size == top
    with np.errstate(divide="ignore", invalid="ignore"):  # r < 4 is never read
        ratio = np.exp(np.cumsum(np.log(odd) - np.log(odd - 1.0)))
        ratio /= np.log(np.log(np.arange(1, top + 1, dtype=np.float64)))
    windows = [(4, top)]
    for seam in starts[1:]:
        windows += [(seam - 1, seam), (seam, seam + 50), (seam - 50, seam - 1),
                    (seam, top), (4, seam - 1), (seam - 3, seam + 3)]
    for lo, hi in windows:
        idx = int(np.argmax(ratio[lo - 1:hi]))
        expect = (float(ratio[lo - 1 + idx]), float(lo + idx))
        assert cat._eval_odd_prime_mertens_ratio(_ratio_entry(lo, hi)) == expect, (lo, hi)


def test_odd_prime_ratio_empty_window_is_refused():
    for lo, hi in ((9e6, 1e7), (1.0, 3.0), (4.5, 4.9)):
        with pytest.raises(ValueError, match="'ratio_window'"):
            cat._eval_odd_prime_mertens_ratio(_ratio_entry(lo, hi))


def test_odd_prime_ratio_streams_in_small_memory(fresh_process_peak):
    # the packaged entry, in a fresh process; a whole-range float table
    # peaked near 445 MB
    code = ("from repulse import catalog as c; "
            "e = c.load_catalog().entry('odd_prime_mertens_six_loglog'); "
            "print(repr(c._eval_odd_prime_mertens_ratio(e)))")
    (result,), peak_mb = fresh_process_peak(code)
    assert result == repr((7.3668022459125995, 4.0))
    assert peak_mb < 150, peak_mb


def test_axioms_never_recomputed(completed):
    axioms = [c for c in completed.values() if c.kind == "axiom"]
    assert len(axioms) == 4
    for c in axioms:
        assert c.verdict == "pass"
        assert c.margin == 0.0
        assert c.recomputed_sup == c.claimed
        assert c.cite


def test_every_entry_documented():
    loaded = cat.load_catalog()
    for e in loaded.entries:
        unbounded = math.isinf(e.domain_hi)
        if e.kind == "closed_form" and unbounded:
            assert e.tail_note, f"{e.name} is unbounded but declares no tail"


def test_unverifiable_by_grid():
    probe = ConstantCheck(
        name="probe_no_tail",
        kind="closed_form",
        direction="sup_le",
        expression="1/t",
        domain_lo=73.0,
        domain_hi=math.inf,
        claimed=0.1,
    )
    done = cat.verify_constant(probe)
    assert done.verdict == "unverifiable-by-grid"
    assert done.recomputed_sup is None
    assert done.margin is None
    # the same entry with a declared tail completes normally
    fixed = cat.verify_constant(
        ConstantCheck(
            name="probe_tail",
            kind="closed_form",
            direction="sup_le",
            expression="1/t",
            domain_lo=73.0,
            domain_hi=math.inf,
            claimed=0.1,
            tail_note="decreasing",
        )
    )
    assert fixed.verdict == "pass"
    assert fixed.recomputed_sup == pytest.approx(1.0 / 73.0, rel=1e-12)


def test_grid_refinement_determinism():
    loaded = cat.load_catalog()
    for name in (
        "mertens_envelope_small_totient",
        "chain_collapse_totient",
        "gap_inverse_psi",
        "quadratic_gap_step_totient",
        "delta_chain_inf_log_totient",
    ):
        entry = loaded.entry(name)
        coarse = cat.verify_constant(entry, grid=4001)
        fine = cat.verify_constant(entry, grid=9001)
        assert coarse.verdict == fine.verdict
        assert coarse.recomputed_sup == pytest.approx(
            fine.recomputed_sup, abs=1e-9
        )


def test_interior_extremum_located():
    loaded = cat.load_catalog()
    done = cat.verify_constant(loaded.entry("gap_inverse_psi"))
    # peak of |log t - 8 gamma|/t at log t = 1 + 8 gamma
    assert done.sup_at == pytest.approx(math.exp(1 + 8 * cat.bounds.EULER_GAMMA), rel=1e-4)
    collapse = cat.verify_constant(loaded.entry("chain_collapse_totient"))
    assert 73.0 < collapse.sup_at < 200.0


def test_expression_compiler_rejects_non_whitelisted():
    for bad in (
        "__import__('os')",
        "t.bit_length()",
        "[1,2][0]",
        "lambda x: x",
        "unknown_fn(t)",
        "t if t > 0 else 1",
        "log(t, 2) + nosuchname",
        "exp(x=t)",
    ):
        with pytest.raises(ValueError):
            compile_expression(bad)


def test_expression_compiler_values():
    fn = compile_expression("(exp(gamma)/2)*(t + 1/t)/log(t)")
    assert fn(73.0) == pytest.approx(15.1548670427, abs=1e-8)
    const = compile_expression("16*gamma - 1 - 0.34298 - 0.13552")
    assert const(1.0) == pytest.approx(7.756950638424525, abs=1e-12)
    capped = compile_expression("1 + 1/log(t) + t/(2*(exp(t) - 1))")
    assert capped(1e6) == pytest.approx(1 + 1 / math.log(1e6), rel=1e-12)


def test_arithmetic_entry_rejects_t_dependence():
    probe = ConstantCheck(
        name="probe_arith",
        kind="arithmetic",
        direction="sup_le",
        expression="3*log(t)",
        domain_lo=1.0,
        domain_hi=1.0,
        claimed=1.0,
    )
    with pytest.raises(ValueError, match="depends on t"):
        cat.verify_constant(probe)


def test_tolerance_override():
    loaded = cat.load_catalog()
    six = loaded.entry("odd_prime_mertens_six_loglog")
    assert cat.verify_constant(six, tolerance=10.0).verdict == "pass"
    borderline = loaded.entry("mertens_envelope_small_totient")
    assert cat.verify_constant(borderline, tolerance=1e-9).verdict == "exceed"


def test_verify_all_closed_form_unchanged_by_the_fixed_point_stop(completed, monkeypatch):
    # boundary_log_count stops at an exact fixed point; with the plain
    # 80-iteration loop in its place every closed-form entry is the same
    calls = []

    def boundary_log_count_80(t):
        calls.append(t)
        level = t - math.log(t)
        for _ in range(80):
            level = t - math.log(level)
        return level

    monkeypatch.setattr(cat.bounds, "boundary_log_count", boundary_log_count_80)
    monkeypatch.setitem(cat._NAMESPACE, "boundary_log_count", boundary_log_count_80)
    names = [e.name for e in cat.load_catalog().entries if e.kind == "closed_form"]
    patched = cat.verify_all(names=names)
    assert calls
    assert patched == [completed[name] for name in sorted(names)]


def test_verify_all_sorted_and_filterable(completed):
    names = [c.name for c in cat.verify_all(names=["stieltjes_mean_value"])]
    assert names == ["stieltjes_mean_value"]
    with pytest.raises(KeyError):
        cat.verify_all(names=["no_such_entry"])
    done = cat.verify_all(names=sorted(FROZEN)[:3])
    assert [c.name for c in done] == sorted(FROZEN)[:3]


def test_report_roundtrip(completed):
    check = completed["chain_collapse_totient"]
    redecoded = ConstantCheck.from_json(json.loads(json.dumps(check.to_json())))
    assert redecoded == check
    unbounded = completed["linear_envelope_large_totient"]
    again = ConstantCheck.from_json(json.loads(json.dumps(unbounded.to_json())))
    assert math.isinf(again.domain_hi)
    assert again == unbounded
