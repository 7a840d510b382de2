"""Shared fixtures; collects acceptance-criterion outcomes for the final summary."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

from repulse import primes

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
