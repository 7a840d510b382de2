"""repulse benchmark: seeded workloads, each pass in a fresh child process.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload audit --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 20        # every workload
    python3 perfbench/run.py --workload sets --trace 1 --smoke  # toy sizes

A run repeats rounds of passes (closed loop, one pass at a time) while the
next round still fits in --seconds, and always runs at least one round.
It prints a human-readable table, then, as the last line of stdout, one JSON
object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end metrics of BENCHMARK.json, medians over the
passes; with --trace 1 every pass also runs a second time traced, and the
metrics are the per-layer metrics, medians over the traced passes.
The exit code is 0 when a result was printed, whether or not checks failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
OUT_DIR = HERE / "out"
SPEC = ROOT / "BENCHMARK.json"

WORKLOADS = ("audit", "scan-verify", "catalog", "sets")
DEADLINE_S = 170.0   # a run ends within this many seconds or fails
PROBES = 3           # set-up-only children per run, besides each pass's own set-up
BLOCK = 1 << 20      # repulse's scan block; scan-verify starts are block-aligned

SCAN_RANGE = (10**6, 10**9)
# passes per round where inputs differ in cost; end-to-end values pool a round
ROUND_SIZE = {"scan-verify": 5, "sets": 4}
SET_PARAMETERS = (-2, -1, 1, 2)
# catalog entries verified in smoke mode: closed-form, arithmetic, value, axiom
SMOKE_CATALOG = ["mertens_envelope_small_totient", "chain_constant_totient",
                 "stieltjes_mean_value", "axiom_mertens_product_envelope"]

SIZES = {
    False: {"audit_hi": 10**7, "scan_width": 1 << 17, "set_x": 200_000, "w_exact": 10**4,
            "w_float": 10**5, "y_hi": 100_000},
    True: {"audit_hi": 10**5, "scan_width": 1 << 12, "set_x": 3_000, "w_exact": 100,
           "w_float": 20_000, "y_hi": 3_000},
}


class Plan:
    """Inputs of every pass, drawn from the seed; pass i always gets the same input."""

    def __init__(self, workload: str, seed: int, smoke: bool) -> None:
        self.workload = workload
        self.size = SIZES[smoke]
        self.smoke = smoke
        self.rng = random.Random(f"{workload}/{seed}")
        # sets: one round visits every repulsion parameter once, in seeded order
        self.order = self.rng.sample(SET_PARAMETERS, len(SET_PARAMETERS))
        self.round_size = 1 if smoke else ROUND_SIZE.get(workload, 1)
        self._drawn: list[dict] = []
        self._offset = 0.0

    def params(self, i: int) -> dict:
        while len(self._drawn) <= i:
            self._drawn.append(self._draw(len(self._drawn)))
        return self._drawn[i]

    def _draw(self, i: int) -> dict:
        s = self.size
        if self.workload == "audit":  # the seed is unused
            return {"hi": s["audit_hi"]}
        if self.workload == "scan-verify":
            # systematic sample: a round puts one start in each of round_size
            # equal strata of the range, at one seeded offset, so every round
            # mixes low and high windows alike
            width = s["scan_width"]
            k_lo = -(-SCAN_RANGE[0] // BLOCK)
            k_count = (SCAN_RANGE[1] - width) // BLOCK - k_lo + 1
            if i % self.round_size == 0:
                self._offset = self.rng.random()
            stratum = (i % self.round_size + self._offset) / self.round_size
            return {"lo": (k_lo + int(stratum * k_count)) * BLOCK, "width": width, "jobs": 2}
        if self.workload == "catalog":  # the seed is unused
            return {"names": SMOKE_CATALOG} if self.smoke else {}
        return {"x": s["set_x"], "a": self.order[i % len(self.order)], "start": 3,
                "w_exact": s["w_exact"], "w_float": s["w_float"], "y_lo": 60, "y_hi": s["y_hi"]}


class BenchError(RuntimeError):
    pass


def _clock() -> float:
    # CLOCK_MONOTONIC is system-wide, so parent and child readings compare
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run_child(spec: dict, deadline: float) -> tuple[float, dict | None]:
    """Run one child; returns (set-up seconds, pass record or None for a probe)."""
    t0 = _clock()
    with subprocess.Popen([sys.executable, str(CHILD), json.dumps(spec)],
                          stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        try:
            out, _ = proc.communicate(timeout=max(deadline - _clock(), 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"pass exceeded the {DEADLINE_S:.0f} s run limit: {spec}")
        except BaseException:
            proc.kill()  # leaving the with-block waits for it to end
            raise
    lines = out.splitlines()
    if proc.returncode != 0 or not lines or not lines[0].startswith("ready "):
        raise BenchError(f"child exited with code {proc.returncode}: {spec}")
    setup = float(lines[0].split()[1]) - t0
    if spec.get("probe"):
        return setup, None
    if len(lines) < 2:
        raise BenchError(f"child printed no pass record: {spec}")
    return setup, json.loads(lines[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    deadline = _clock() + DEADLINE_S
    plan = Plan(workload, seed, smoke)
    run_child({"probe": True}, deadline)  # warm-up: compiles bytecode in a fresh checkout
    setups = [run_child({"probe": True}, deadline)[0] for _ in range(1 if smoke else PROBES)]
    plain: list[dict] = []
    traced: list[dict] = []
    spans_path = None
    if trace:
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = str(OUT_DIR / f"spans-{workload}.tsv")
    start = _clock()
    rounds = 0
    while True:
        for _ in range(plan.round_size):
            spec = {"workload": workload, "params": plan.params(len(plain)), "trace": False}
            setup, record = run_child(spec, deadline)
            setups.append(setup)
            plain.append(record)
            if trace:
                setup, record = run_child({**spec, "trace": True, "spans_path": spans_path},
                                          deadline)
                setups.append(setup)
                traced.append(record)
        rounds += 1
        elapsed = _clock() - start
        if smoke or elapsed + elapsed / rounds > seconds:
            break
    return summarize_run(workload, plan.round_size, setups, plain, traced)


def _median(values) -> float:
    return statistics.median(list(values))


def _pooled(passes: list[dict]) -> dict:
    """One round's rates: totals over its passes, so inputs of unequal cost mix alike."""
    wall = sum(r["wall_s"] for r in passes)
    return {"wall_s": wall / len(passes),
            "n_per_s": sum(r["n_covered"] for r in passes) / wall,
            "solutions_per_s": sum(r["solutions"] for r in passes) / wall}


def summarize_run(workload: str, round_size: int, setups: list[float], plain: list[dict],
                  traced: list[dict]) -> dict:
    attempted = sum(r["attempted"] for r in plain + traced)
    failed = sum(r["failed"] for r in plain + traced)
    failures = [m for r in plain + traced for m in r["failures"]]
    for a, b in zip(plain, traced):  # tracing must not change any output
        attempted += 1
        if a["digest"] != b["digest"]:
            failed += 1
            failures.append(f"traced output differs from untraced output: {a['digest']}")
    rounds = [_pooled(plain[i:i + round_size]) for i in range(0, len(plain), round_size)]
    e2e = {k: _median(r[k] for r in rounds) for k in rounds[0]}
    e2e["peak_rss_mb"] = _median(r["peak_rss_mb"] for r in plain)
    e2e["setup_s"] = _median(setups)
    layers = {}
    if traced:
        layers = {k: _median(r["layers"][k] for r in traced) for k in traced[0]["layers"]}
        layers["trace.overhead_frac"] = (sum(r["wall_s"] for r in traced)
                                         / sum(r["wall_s"] for r in plain) - 1.0)
    return {"workload": workload, "passes": len(plain), "setups": len(setups),
            "attempted": attempted, "failed": failed, "failures": failures[:5],
            "end_to_end": e2e, "per_layer": layers}


def machine() -> str:
    import numpy

    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next(line.split(":", 1)[1].strip() for line in fh
                         if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return (f"nproc={len(os.sched_getaffinity(0))} cpu={model!r} "
            f"python={platform.python_version()} numpy={numpy.__version__}")


def print_table(summary: dict, units: dict) -> None:
    print(f"== {summary['workload']}: {summary['passes']} passes, {summary['setups']} set-ups, "
          f"checks {summary['attempted']}, failed {summary['failed']}")
    rows = dict(summary["end_to_end"])
    rows["error_frac"] = summary["failed"] / summary["attempted"]
    rows.update(summary["per_layer"])
    for name, value in rows.items():
        print(f"  {name:32s} {value:16.6g} {units.get(name, 'frac')}")
    for msg in summary["failures"]:
        print(f"  FAILED: {msg}")


def result_line(summary: dict, spec: dict, trace: bool) -> str:
    key = "per_layer" if trace else "end_to_end"
    values = summary[key]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[key]}
    return json.dumps({"correct": summary["failed"] == 0, "attempted": summary["attempted"],
                       "failed": summary["failed"], "metrics": metrics})


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="toy sizes, one round")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repulse" / "__init__.py").is_file():
        print(f"run.py: no repulse sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"machine: {machine()}")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        for name in names:
            summary = run_workload(name, args.seed, args.seconds, bool(args.trace), args.smoke)
            print_table(summary, units)
            print(result_line(summary, spec, bool(args.trace)), flush=True)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
