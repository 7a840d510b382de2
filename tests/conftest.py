"""Shared fixtures; collects acceptance-criterion outcomes for the final summary."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

from repulse import arith, primes, search

_ACCEPTANCE: dict[int, tuple[str, bool, str]] = {}


@pytest.fixture
def acceptance():
    """Record one pass/fail line per acceptance criterion.

    Tests call record(number, title, passed, detail) *before* asserting so
    the line appears even when the criterion legitimately fails.
    """

    def record(number: int, title: str, passed: bool, detail: str = "") -> None:
        _ACCEPTANCE[number] = (title, bool(passed), detail)

    return record


@pytest.fixture
def prime_power_mask():
    """mask(hi): a bool array over 0..hi that is True exactly at the prime
    powers p**e, e >= 1, built from primes.primes_up_to, not from the block
    sieve it checks."""

    def mask(hi: int) -> np.ndarray:
        out = np.zeros(hi + 1, dtype=bool)
        ps = primes.primes_up_to(hi)
        out[ps] = True
        for p in ps[ps <= math.isqrt(hi)].tolist():
            q = p * p
            while q <= hi:
                out[q] = True
                q *= p
        return out

    return mask


@pytest.fixture(scope="session")
def full_table():
    """table(hi, variant): a BlockTable of every n in [2, hi], hi >= 3, built
    from the odd-row table by f(2**k * r) = f(2**k) * f(r) for odd r, with
    f(2**k) from arith.profile."""

    def table(hi: int, variant: str) -> search.BlockTable:
        odd = search.build_table(3, hi + 1, variant)
        f = np.ones(hi + 1, dtype=odd.values.dtype)  # f at the odd r; f(1) = 1
        f[3::2] = odd.values
        values = np.empty_like(f)
        q = 1
        while q <= hi:
            values[q::2 * q] = getattr(arith.profile(arith.factor(q)), variant) * f[1:hi // q + 1:2]
            q *= 2
        return search.BlockTable(lo=2, hi=hi + 1, n=np.arange(2, hi + 1, dtype=np.int32),
                                 values=values[2:])

    return table


@pytest.fixture
def fresh_process_peak():
    """Run Python code in a fresh process; return its stdout lines and its peak
    memory in MB.

    The child reports VmHWM, the peak of its own address space: its
    ru_maxrss would also count the pytest process it was forked from.
    """
    if not os.path.exists("/proc/self/status"):
        pytest.skip("reads Linux VmHWM")

    def run(code: str) -> tuple[list[str], float]:
        probe = "; print(open('/proc/self/status').read().split('VmHWM:')[1].split()[0])"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        proc = subprocess.run([sys.executable, "-c", code + probe], capture_output=True,
                              text=True, timeout=120, env=env, check=True)
        *lines, peak_kb = proc.stdout.splitlines()
        return lines, int(peak_kb) / 1024

    return run


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_ACCEPTANCE):
        title, passed, detail = _ACCEPTANCE[number]
        status = "PASS" if passed else "FAIL"
        line = f"[{status}] criterion {number:2d}: {title}"
        if detail:
            line += f" | {detail}"
        terminalreporter.write_line(line)
