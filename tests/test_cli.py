"""End-to-end tests of the command-line interface: formats, exit codes, determinism."""

import io
import json
import os
import subprocess
import sys

import pytest

from repulse import cli, largesieve, search


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----- output plumbing -----


def test_emit_rows_jsonl_writes_each_row_before_the_next():
    # rows are not batched: a sparse scan shows each hit when it is found
    out = io.StringIO()
    written_before = []

    def rows():
        for sol in search.scan(2, 300, "psi", 1):
            written_before.append(out.getvalue())
            yield sol.to_json()

    cli.emit_rows(rows(), "jsonl", out)
    lines = [json.dumps(s.to_json()) + "\n" for s in search.scan(2, 300, "psi", 1)]
    assert len(lines) == 62
    assert written_before == ["".join(lines[:k]) for k in range(len(lines))]
    assert out.getvalue() == "".join(lines)


# ----- global behaviour -----


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("repulse 1.0.0")
    assert "catalog 1.0.0" in out


def test_no_command_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2


def test_unknown_choice_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli.main(["scan", "--variant", "sigma", "--sign", "+1", "--to", "10"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["scan", "--variant", "phi", "--sign", "+1", "--to", "inf"],
    ["scan", "--variant", "phi", "--sign", "+1", "--to", "1e400"],
    ["greedy", "--a", "1", "--start", "3", "--x", "inf"],
    ["sieve", "--x", "inf", "--w", "30", "--set", "u.json"],
    ["sieve", "--x", "1e4", "--w", "inf", "--set", "u.json"],
    ["eval", "--fn", "delta", "--t", "inf"],
    ["eval", "--fn", "thm21", "--x", "1e6", "--p-u", "nan"],
    ["eval", "--fn", "pu-upper", "--x", "1e6", "--theta-u", "inf"],
    ["verify-constants", "--tolerance", "nan"],
])
def test_non_finite_number_is_usage_error(capsys, argv):
    # exit 1 would mean "violation found"; a bad number is a usage error
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "expected a finite number" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["lemma22", "--step", "-1"],
    ["lemma22", "--step", "0"],
    ["lemma21", "--trials", "-3"],
    ["scan", "--variant", "phi", "--sign", "+1", "--to", "100", "--jobs", "-4"],
    ["audit", "--conjecture", "lehmer", "--to", "100", "--jobs", "0"],
])
def test_non_positive_count_is_usage_error(capsys, argv):
    # a count below 1 used to print nothing, or run anyway, and exit 0
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "expected a positive integer" in captured.err


# ----- scan -----

SCAN20 = [
    '{"n": "2", "m": "3", "variant": "phi", "sign": "+1", '
    '"factorization": [[2, 1]], "class": "prime"}',
    '{"n": "3", "m": "2", "variant": "phi", "sign": "+1", '
    '"factorization": [[3, 1]], "class": "prime"}',
    '{"n": "15", "m": "2", "variant": "phi", "sign": "+1", '
    '"factorization": [[3, 1], [5, 1]], "class": "composite-squarefree"}',
]


def test_scan_jsonl_golden(capsys):
    code, out, _ = run(capsys, "scan", "--variant", "phi", "--sign", "+1", "--to", "20")
    assert code == 0
    assert out.splitlines() == SCAN20


def test_scan_accepts_scientific_and_negative_sign(capsys):
    code, out, _ = run(capsys, "scan", "--variant", "psi", "--sign", "-1",
                       "--to", "1e2", "--min-m", "1")
    assert code == 0
    [line] = out.splitlines()
    row = json.loads(line)
    assert row["n"] == "2" and row["m"] == "2" and row["sign"] == "-1"


def test_scan_csv_format(capsys):
    code, out, _ = run(capsys, "scan", "--variant", "phi", "--sign", "+1",
                       "--to", "300", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,m,variant,sign,factorization,class"
    assert lines[1] == '2,3,phi,+1,"[[2,1]]",prime'
    assert lines[-1] == '255,2,phi,+1,"[[3,1],[5,1],[17,1]]",composite-squarefree'


def test_scan_human_format(capsys):
    code, out, _ = run(capsys, "scan", "--variant", "phi", "--sign", "+1",
                       "--to", "20", "--format", "human")
    assert code == 0
    assert out.splitlines()[0] == (
        "n=2 m=3 variant=phi sign=+1 factorization=[[2,1]] class=prime")


def test_scan_jobs_do_not_change_bytes(capsys):
    args = ["scan", "--variant", "psi", "--sign", "+1", "--to", "30000",
            "--min-m", "1"]
    code1, out1, _ = run(capsys, *args, "--jobs", "1")
    code2, out2, _ = run(capsys, *args, "--jobs", "4")
    assert code1 == code2 == 0
    assert out1 == out2
    assert len(out1.splitlines()) == 3245  # prime count below 30000


def test_scan_min_m_validation(capsys):
    code, _, err = run(capsys, "scan", "--variant", "phi", "--sign", "+1",
                       "--to", "10", "--min-m", "0")
    assert code == 2
    assert "min_m" in err


# ----- audit -----


def test_audit_lehmer_small(capsys):
    code, out, err = run(capsys, "audit", "--conjecture", "lehmer", "--to", "1e4")
    assert code == 0
    assert "wall_time:" in err  # timing on stderr keeps stdout deterministic
    row = json.loads(out)
    assert row == {"conjecture": "lehmer", "hi": "10000", "counterexamples": [],
                   "family": "prime", "family_count": 1229}


def test_audit_subbarao_small(capsys):
    code, out, _ = run(capsys, "audit", "--conjecture", "subbarao", "--to", "1e4")
    assert code == 0
    row = json.loads(out)
    assert row["family"] == "prime-power" and row["counterexamples"] == []


def test_audit_requires_known_conjecture():
    with pytest.raises(SystemExit) as exc:
        cli.main(["audit", "--conjecture", "carmichael", "--to", "100"])
    assert exc.value.code == 2


# ----- greedy and sieve -----


def test_greedy_small_golden(capsys):
    code, out, _ = run(capsys, "greedy", "--a", "1", "--start", "3", "--x", "100")
    assert code == 0
    row = json.loads(out)
    assert row["primes"] == [3, 5, 17, 23, 29, 53, 83, 89]
    assert row["size"] == 8


def test_greedy_past_enumeration_limit_is_usage_error(capsys):
    # refused before the one-byte-per-integer sieve up to x is allocated
    code, out, err = run(capsys, "greedy", "--a", "1", "--start", "3", "--x", "5e9")
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "enumeration limit is 1000000000" in err


def test_sieve_reads_set_file(capsys, tmp_path):
    setfile = tmp_path / "u.json"
    setfile.write_text('{"a": 1, "primes": [3, 5], "cutoff": 100}')
    code, out, _ = run(capsys, "sieve", "--x", "1e4", "--w", "30",
                       "--set", str(setfile))
    assert code == 0
    row = json.loads(out)
    assert set(row) == {"x", "w", "Z", "bound", "slack"}
    assert row["Z"] == 589
    assert row["Z"] <= row["bound"]
    assert row["slack"] == pytest.approx(row["bound"] - row["Z"])


def test_sieve_missing_file_is_io_error(capsys, tmp_path):
    code, _, err = run(capsys, "sieve", "--x", "10", "--w", "3",
                       "--set", str(tmp_path / "absent.json"))
    assert code == 3
    assert "I/O error" in err


@pytest.mark.parametrize("body, reason", [
    pytest.param('{"primes": [3]}', "needs keys a, primes, cutoff", id="missing-keys"),
    pytest.param('{"a": 1, "primes": [3.7, 5], "cutoff": 100}', "primes must", id="float-prime"),
    pytest.param('{"a": 1, "primes": "35", "cutoff": 100}', "primes must", id="string-primes"),
    pytest.param('{"a": 1.9, "primes": [3, 5], "cutoff": 100}', "a must", id="float-a"),
    pytest.param('{"a": true, "primes": [3, 5], "cutoff": 100}', "a must", id="bool-a"),
    pytest.param('{"a": 1, "primes": [3, 5], "cutoff": NaN}', "cutoff must", id="nan-cutoff"),
    pytest.param('{"a": 1, "primes": [3, 5], "cutoff": "100"}', "cutoff must", id="string-cutoff"),
    pytest.param('{"a": 1, "primes": [0, 3], "cutoff": 100}', "0 is not prime", id="zero-member"),
    pytest.param('{"a": 1, "primes": [1, 3], "cutoff": 100}', "1 is not prime", id="one-member"),
    pytest.param('{"a": 1, "primes": [-7, 3], "cutoff": 100}', "-7 is not prime", id="negative-member"),
])
def test_sieve_malformed_set_is_usage_error(capsys, tmp_path, body, reason):
    setfile = tmp_path / "bad.json"
    setfile.write_text(body)
    code, out, err = run(capsys, "sieve", "--x", "10", "--w", "3",
                         "--set", str(setfile))
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and reason in err


def test_sieve_refuses_large_w_before_counting(capsys, tmp_path, monkeypatch):
    def count_not_expected(*args):
        raise AssertionError("survivor_count ran before --w was checked")

    monkeypatch.setattr(largesieve, "survivor_count", count_not_expected)
    setfile = tmp_path / "u.json"
    setfile.write_text('{"a": 1, "primes": [3, 5], "cutoff": 100}')
    code, out, err = run(capsys, "sieve", "--x", "1e4", "--w", "3e7", "--set", str(setfile))
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and "mg_sum supports" in err


@pytest.mark.parametrize("member", [318665857834031151167461, 3317044064679887385961981])
def test_sieve_composite_beyond_proven_bound_is_usage_error(capsys, tmp_path, member):
    # psi_12 and psi_13 pass Miller-Rabin to bases 2..37 but are composite
    setfile = tmp_path / "u.json"
    setfile.write_text(json.dumps({"a": 1, "primes": [3, member], "cutoff": 1e25}))
    code, out, err = run(capsys, "sieve", "--x", "100", "--w", "10", "--set", str(setfile))
    assert code == 2
    assert out == ""
    assert "proven only below" in err


def test_sieve_negative_window_is_usage_error(capsys, tmp_path):
    setfile = tmp_path / "u.json"
    setfile.write_text('{"a": 1, "primes": [3, 5], "cutoff": 100}')
    code, out, err = run(capsys, "sieve", "--x", "-5", "--w", "3", "--set", str(setfile))
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and "window length must be >= 0" in err


# ----- lemma trials -----


def test_lemma21_seed_determinism(capsys):
    code1, out1, _ = run(capsys, "lemma21", "--trials", "8", "--seed", "42")
    code2, out2, _ = run(capsys, "lemma21", "--trials", "8", "--seed", "42")
    code3, out3, _ = run(capsys, "lemma21", "--trials", "8", "--seed", "43")
    assert code1 == code2 == code3 == 0
    assert out1 == out2
    assert out1 != out3
    rows = [json.loads(line) for line in out1.splitlines()]
    assert len(rows) == 8
    assert all(r["holds"] for r in rows)
    assert all(r["lhs"] >= r["rhs"] for r in rows)


def test_lemma22_stream(capsys):
    code, out, _ = run(capsys, "lemma22", "--from", "60", "--to", "70")
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert [r["y"] for r in rows] == list(range(60, 71))
    assert all(r["margin"] > 0 for r in rows)


def test_lemma22_low_start_rejected(capsys):
    # both bounds are refused before any row is written
    for bounds, flag in ((("--from", "1", "--to", "10"), "--from"),
                         (("--from", "999999", "--to", "2e6"), "--to")):
        code, out, err = run(capsys, "lemma22", *bounds)
        assert code == 2
        assert out == ""
        assert flag in err


# ----- verify-constants -----


def test_verify_constants_single_entry_pass(capsys):
    code, out, _ = run(capsys, "verify-constants", "--entry",
                       "chain_constant_totient")
    assert code == 0
    row = json.loads(out)
    assert row["verdict"] == "pass"
    assert row["recomputed_sup"] == pytest.approx(7.756950638, abs=1e-8)


def test_verify_constants_exceed_exits_one(capsys, tmp_path):
    report = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify-constants", "--entry",
                       "odd_prime_mertens_six_loglog", "--report", str(report))
    assert code == 1
    row = json.loads(out)
    assert row["verdict"] == "exceed"
    saved = json.loads(report.read_text())
    assert saved == [row]


def test_verify_constants_unknown_entry(capsys):
    code, _, err = run(capsys, "verify-constants", "--entry", "nope")
    assert code == 2
    assert "nope" in err


def test_verify_constants_catalog_override(capsys, tmp_path):
    alt = tmp_path / "cat.json"
    alt.write_text(json.dumps({
        "version": "0.0.1",
        "tolerance": 2e-3,
        "default_grid": 101,
        "entries": [{
            "name": "toy_reciprocal",
            "kind": "closed_form",
            "direction": "sup_le",
            "expression": "1/t",
            "domain": [1.0, 2.0],
            "claimed": 1.0,
        }],
    }))
    code, out, _ = run(capsys, "verify-constants", "--catalog", str(alt))
    assert code == 0
    row = json.loads(out)
    assert row["name"] == "toy_reciprocal" and row["verdict"] == "pass"


def _one_entry_catalog(path, expression, domain):
    path.write_text(json.dumps({
        "version": "0.0.1",
        "entries": [{
            "name": "bad",
            "kind": "closed_form",
            "direction": "sup_le",
            "expression": expression,
            "domain": domain,
            "claimed": 1.0,
        }],
    }))
    return path


@pytest.mark.parametrize("expression, domain", [
    ("t**400", [1.0, 10.0]),
    ("1/(t-4)", [3.0, 5.0]),
    ("1" + "0" * 400 + "*t", [1.0, 2.0]),
    ("(-t)**0.5", [1.0, 2.0]),
    ("1j*t", [1.0, 2.0]),
    ("'a'*t", [1.0, 2.0]),
    ("log(t, 2, 3)", [1.0, 2.0]),
])
def test_verify_constants_arithmetic_error_is_usage_error(capsys, tmp_path,
                                                         expression, domain):
    alt = _one_entry_catalog(tmp_path / "cat.json", expression, domain)
    code, out, err = run(capsys, "verify-constants", "--catalog", str(alt))
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("repulse: ")
    assert expression in err


TOY_ENTRY = {"name": "toy", "kind": "closed_form", "direction": "sup_le",
             "expression": "1/t", "domain": [1.0, 2.0], "claimed": 1.0}


@pytest.mark.parametrize("catalog_json", [
    [TOY_ENTRY],
    {"version": "0.0.1", "entries": [5]},
    {"version": "0.0.1", "entries": [{**TOY_ENTRY, "domain": 5}]},
    {"version": "0.0.1", "entries": [{**TOY_ENTRY, "claimed": None}]},
    {"version": "0.0.1", "entries": [{**TOY_ENTRY, "claimed": float("nan")}]},
    {"version": "0.0.1", "entries": [{**TOY_ENTRY, "claimed": float("inf")}]},
    {"version": "0.0.1", "entries": [{**TOY_ENTRY, "domain": [float("nan"), 2.0]}]},
    {"version": "0.0.1", "entries": [{**TOY_ENTRY, "domain": [1.0, float("nan")]}]},
])
def test_verify_constants_malformed_catalog_is_usage_error(capsys, tmp_path, catalog_json):
    alt = tmp_path / "cat.json"
    alt.write_text(json.dumps(catalog_json))  # NaN and Infinity as JSON extensions
    code, out, err = run(capsys, "verify-constants", "--catalog", str(alt))
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("repulse: ")
    if isinstance(catalog_json, dict) and isinstance(catalog_json["entries"][0], dict):
        assert "'toy'" in err


def test_verify_constants_infinite_domain_end_is_unbounded(capsys, tmp_path):
    # JSON Infinity, like null, still spells an unbounded domain
    alt = tmp_path / "cat.json"
    alt.write_text(json.dumps({"version": "0.0.1", "entries": [
        {**TOY_ENTRY, "domain": [1.0, float("inf")], "scan_hi": 100.0,
         "tail_note": "decreasing"}]}))
    code, out, _ = run(capsys, "verify-constants", "--catalog", str(alt))
    assert code == 0
    row = json.loads(out)
    assert row["domain"] == [1.0, None] and row["verdict"] == "pass"


def test_verify_constants_ignores_result_fields_of_input(capsys, tmp_path):
    # an unbounded entry without tail_note stops before any recomputation, so
    # result fields carried by the input file must not reach the report
    alt = tmp_path / "cat.json"
    alt.write_text(json.dumps({"version": "0.0.1", "entries": [
        {**TOY_ENTRY, "domain": [1.0, None], "recomputed_sup": 99, "sup_at": 5.0,
         "margin": -3, "verdict": "pass"}]}))
    code, out, _ = run(capsys, "verify-constants", "--catalog", str(alt))
    assert code == 0
    row = json.loads(out)
    assert row["verdict"] == "unverifiable-by-grid"
    assert (row["recomputed_sup"], row["sup_at"], row["margin"]) == (None, None, None)


TOY_CATALOG = {"version": "0.0.1", "entries": [TOY_ENTRY]}


@pytest.mark.parametrize("catalog_json, argv, message", [
    # a grid of one point used to hold only the domain end: sup 0.5 of 1/t
    # on [1, 2] and a wrong pass; a grid of 0 fell back to the default
    (TOY_CATALOG, ["--grid", "1"], "grid must be an integer >= 2"),
    (TOY_CATALOG, ["--grid", "0"], "grid must be an integer >= 2"),
    ({**TOY_CATALOG, "default_grid": 1}, [], "grid must be an integer >= 2"),
    # NaN or a negative tolerance used to give exceed at margin 0.0, exit 1
    ({**TOY_CATALOG, "tolerance": float("nan")}, [], "tolerance must be"),
    (TOY_CATALOG, ["--tolerance", "-1"], "tolerance must be"),
    # used to raise a TypeError traceback
    ({**TOY_CATALOG, "entries": [{**TOY_ENTRY, "scan_hi": "a"}]}, [], "scan_hi 'a'"),
    # used to print only "repulse: version"
    ({"entries": [TOY_ENTRY]}, [], "no 'version' key"),
    # np.geomspace used to raise a MemoryError traceback, exit 1
    (TOY_CATALOG, ["--grid", "1000000000000"], "grid must be at most 1000000 points"),
    ({**TOY_CATALOG, "default_grid": 10**12}, [], "grid must be at most 1000000 points"),
], ids=["grid-1", "grid-0", "default-grid-1", "tolerance-nan", "tolerance-negative",
        "scan-hi-string", "missing-version", "grid-1e12", "default-grid-1e12"])
def test_verify_constants_bad_setting_is_usage_error(capsys, tmp_path, catalog_json, argv,
                                                     message):
    alt = tmp_path / "cat.json"
    alt.write_text(json.dumps(catalog_json))
    code, out, err = run(capsys, "verify-constants", "--catalog", str(alt), *argv)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and message in err


def test_verify_constants_custom_entry_outside_ratio_range_is_usage_error(capsys, tmp_path):
    # no integer r of [9e6, 1e7] lies in the ratio's range [4, floor(e^16)];
    # this used to sieve to 1.7e8 and fail on numpy's argmax of an empty window
    alt = tmp_path / "cat.json"
    alt.write_text(json.dumps({"version": "0.0.1", "entries": [{
        "name": "ratio_far", "kind": "custom", "direction": "sup_le",
        "expression": "odd_prime_mertens_ratio", "domain": [9e6, 1e7], "claimed": 6.0}]}))
    code, out, err = run(capsys, "verify-constants", "--catalog", str(alt))
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "'ratio_far'" in err and "[9000000, 8886110]" in err


def test_verify_constants_huge_power_does_not_hang(tmp_path):
    # exact integer powering of 9**9**9 would never finish; the child is
    # killed after 30 s so that a regression fails instead of hanging
    alt = _one_entry_catalog(tmp_path / "cat.json", "9**9**9", [1.0, 2.0])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run(
        [sys.executable, "-m", "repulse.cli", "verify-constants", "--catalog", str(alt)],
        capture_output=True, text=True, timeout=30, env=env,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("repulse: ")


# ----- eval and profile -----


def test_eval_prints_15_significant_digits(capsys):
    code, out, _ = run(capsys, "eval", "--fn", "delta", "--t", "100")
    assert code == 0
    assert out == "1.06204991882374\n"


def test_eval_two_argument_forms(capsys):
    from repulse import bounds
    code, out, _ = run(capsys, "eval", "--fn", "thm21", "--x", "1e6",
                       "--p-u", "2.5")
    assert code == 0
    assert float(out) == pytest.approx(bounds.thm21_pi_bound(1e6, 2.5), rel=1e-14)
    code, out, _ = run(capsys, "eval", "--fn", "pu-upper", "--x", "1e6",
                       "--theta-u", "50.0")
    assert code == 0
    assert float(out) == pytest.approx(bounds.pu_upper_eq32(1e6, 50.0), rel=1e-14)


@pytest.mark.parametrize("fn", ["delta", "delta_psi", "eta", "eta_psi"])
def test_eval_beyond_float_range_is_usage_error(capsys, fn):
    # t**3 overflows a float; this used to end in an OverflowError traceback
    # and exit 1, the code for a violation found
    code, out, err = run(capsys, "eval", "--fn", fn, "--t", "1e200")
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("repulse: ")


def test_eval_missing_argument(capsys):
    code, _, err = run(capsys, "eval", "--fn", "eta")
    assert code == 2
    assert "--t" in err


def test_profile_golden(capsys):
    code, out, _ = run(capsys, "profile", "--n", "65535")
    assert code == 0
    assert json.loads(out) == {
        "n": "65535", "phi": "32768", "uphi": "32768", "psi": "111456",
        "usigma": "111456", "omega": 4, "big_omega": 4, "n1": "65535",
        "rad": "65535",
    }


# ----- output redirection -----


def test_output_file_matches_stdout(capsys, tmp_path):
    path = tmp_path / "out.jsonl"
    code, out, _ = run(capsys, "scan", "--variant", "phi", "--sign", "+1",
                       "--to", "20", "--output", str(path))
    assert code == 0
    assert out == ""
    assert path.read_text().splitlines() == SCAN20


def test_output_unwritable_is_io_error(capsys, tmp_path):
    code, _, err = run(capsys, "scan", "--variant", "phi", "--sign", "+1",
                       "--to", "20", "--output", str(tmp_path / "no" / "dir.jsonl"))
    assert code == 3
    assert "cannot open output" in err
