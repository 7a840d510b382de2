"""Tests of the benchmark itself, at toy sizes.

Run from the repository root:  python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
from run import BLOCK, SCAN_RANGE, SET_PARAMETERS, Plan  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "7", "--seconds", "1",
                 "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"], proc.stdout
    assert "error_frac" in proc.stdout
    key = "per_layer" if trace else "end_to_end"
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in SPEC[key]}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "audit", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_plan_is_a_function_of_the_seed():
    a, b = Plan("scan-verify", 11, False), Plan("scan-verify", 11, False)
    assert [a.params(i) for i in range(5)] == [b.params(i) for i in range(5)]
    assert Plan("scan-verify", 12, False).params(0) != a.params(0)
    for i in range(50):
        p = a.params(i)
        assert p["lo"] % BLOCK == 0
        assert SCAN_RANGE[0] <= p["lo"] and p["lo"] + p["width"] <= SCAN_RANGE[1]
    sets = Plan("sets", 3, False)
    assert sorted(sets.params(i)["a"] for i in range(sets.round_size)) == sorted(SET_PARAMETERS)


def test_reference_sieve_matches_known_counts():
    assert reference.prime_count(10**7) == 664_579
    assert reference.prime_power_count(10**7) == 665_134
    assert reference.prime_powers_in(2, 30) == [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19,
                                                23, 25, 27, 29]


def test_self_time_subtracts_the_union_of_children():
    tracer = Tracer()
    root = tracer.open("cli.emit_rows")
    kids = [tracer.open("search.scan"), tracer.open("primes.is_prime")]
    for s in reversed(kids):
        tracer.close(s)
    tracer.close(root)
    root.start, root.end = 0.0, 10.0
    kids[0].start, kids[0].end = 1.0, 4.0   # child of root
    kids[1].start, kids[1].end = 2.0, 3.0   # grandchild: only its parent subtracts it
    other = tracer.open("search.build_table")  # another thread's work, parented to root
    tracer.close(other)
    other.parent, other.start, other.end = root, 3.0, 12.0
    selft = tracer.self_times()
    assert selft[root] == pytest.approx(10.0 - 9.0)  # union [1, 10] clipped to the root
    assert selft[kids[0]] == pytest.approx(2.0)
    assert selft[kids[1]] == pytest.approx(1.0)
