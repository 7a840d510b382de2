"""The four workloads: one timed pass each, its reference checks, its trace.

A pass runs in a fresh child process (see child.py).  ``run_pass`` times the
workload's calls into the package, then checks the outputs outside the timed
phase.  Checks count into ``attempted``/``failed``; none of them aborts the
pass.  With tracing on, every layer boundary listed in ``instrument`` records
spans, and ``layer_metrics`` reduces them to the per-layer numbers.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from repulse import arith, bounds, catalog, cli, largesieve, primes, repulsive, search

import reference
from tracer import Tracer, current_rss_mb, module_self_times, peak_rss_mb, summarize

LAYERS = ("primes", "arith", "search", "bounds", "catalog", "largesieve", "repulsive", "cli")
HERE = Path(__file__).resolve().parent


class Checks:
    """Counts reference checks; keeps the first few failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.tally(1, 0 if ok else 1, what)

    def tally(self, attempted: int, failed: int, what: str) -> None:
        """Count `attempted` checks made elsewhere, `failed` of which failed."""
        self.attempted += attempted
        self.failed += failed
        if failed and len(self.messages) < 5:
            self.messages.append(what)


@dataclass
class Outcome:
    """What a timed pass hands to its checks and to the metrics."""

    n_covered: int          # integers the pass covers (workload-specific, see README)
    solutions: int          # solutions / verified outputs the pass produced
    digest: str             # hash of the outputs; traced and untraced passes must agree
    data: object = None
    counters: dict = field(default_factory=dict)


# ----- audit -----


def audit_timed(p: dict, tracer: Optional[Tracer], cat) -> Outcome:
    hi = p["hi"]
    # jobs=2 first: run after jobs=1, its peak RSS varies with heap fragmentation
    t0 = time.perf_counter()
    lehmer2 = search.lehmer_audit(hi, jobs=2)
    t1 = time.perf_counter()
    lehmer1 = search.lehmer_audit(hi, jobs=1)
    t2 = time.perf_counter()
    subbarao = search.subbarao_audit(hi, jobs=1)
    reports = (lehmer1, lehmer2, subbarao)
    digest = hashlib.sha256(json.dumps(
        [(r.family_count, [(s.n, s.m) for s in r.counterexamples]) for r in reports]
    ).encode()).hexdigest()
    found = sum(r.family_count for r in reports)
    return Outcome(
        n_covered=3 * (hi - 1), solutions=found, digest=digest, data=reports,
        counters={"search.hits": found + sum(len(r.counterexamples) for r in reports),
                  "search.jobs2_speedup": (t2 - t1) / (t1 - t0)})


def audit_check(p: dict, out: Outcome, checks: Checks) -> None:
    lehmer1, lehmer2, subbarao = out.data
    n_primes = reference.prime_count(p["hi"])
    n_powers = reference.prime_power_count(p["hi"])
    for rep, want in ((lehmer1, n_primes), (lehmer2, n_primes), (subbarao, n_powers)):
        checks.expect(rep.family_count == want,
                      f"{rep.conjecture} family_count {rep.family_count} != {want}")
        checks.expect(not rep.counterexamples,
                      f"{rep.conjecture} counterexamples {[s.n for s in rep.counterexamples][:5]}")


# ----- scan-verify -----


class HashSink:
    """Text sink standing in for stdout: hashes what is written and keeps it."""

    def __init__(self) -> None:
        self._hash = hashlib.sha256()
        self.chunks: list[str] = []
        self.bytes = 0

    def write(self, text: str) -> int:
        self._hash.update(text.encode())
        self.chunks.append(text)
        self.bytes += len(text)
        return len(text)

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


SCAN_VARIANTS = ("psi", "usigma")


def scan_timed(p: dict, tracer: Optional[Tracer], cat) -> Outcome:
    lo, hi, jobs = p["lo"], p["lo"] + p["width"] - 1, p["jobs"]
    sink = HashSink()
    status = {"pass": 0, "not_applicable": 0, "fail": 0}
    over_bound: list[tuple[str, int]] = []
    count = 0
    for variant in SCAN_VARIANTS:
        def rows(variant=variant):
            nonlocal count
            for sol in search.scan(lo, hi, variant, 1, jobs=jobs):
                yield sol.to_json()
                chk = bounds.theorem_check(sol.factorization, sol.m, variant, 1)
                status[chk.status] += 1
                if Fraction(sol.m) > bounds.assemble_M_exact(sol.factorization, variant, 1):
                    over_bound.append((variant, sol.n))
                count += 1

        cli.emit_rows(rows(), "jsonl", sink)
    return Outcome(
        n_covered=len(SCAN_VARIANTS) * p["width"], solutions=count,
        digest=sink.hexdigest(), data=(sink, status, over_bound),
        counters={"search.hits": count, "cli.emit_bytes": sink.bytes,
                  **{f"bounds.status_{k}": v for k, v in status.items()}})


def scan_check(p: dict, out: Outcome, checks: Checks) -> None:
    sink, status, over_bound = out.data
    lo, hi = p["lo"], p["lo"] + p["width"]
    # theorem_check and the assembled bound ran in the timed loop; count them here
    checks.tally(sum(status.values()), status["fail"],
                 f"theorem_check fail on {status['fail']} solutions")
    checks.tally(out.solutions, len(over_bound), f"M above assembled bound at {over_bound[:5]}")
    rows: dict[str, dict[int, int]] = {v: {} for v in SCAN_VARIANTS}
    for line in "".join(sink.chunks).splitlines():
        row = json.loads(line)
        n, m = int(row["n"]), int(row["m"])
        checks.expect(row["sign"] == "+1" and lo <= n < hi and n not in rows[row["variant"]],
                      f"row out of place: {line}")
        rows[row["variant"]][n] = m
        # scalar oracle: the exact multiplier from a fresh factorization
        want = bounds.solve_m(arith.factor(n), row["variant"], 1)
        checks.expect(want == m, f"{row['variant']} n={n}: emitted m={m}, solve_m={want}")
    for variant, expected in (("psi", reference.primes_in(lo, hi).tolist()),
                              ("usigma", reference.prime_powers_in(lo, hi))):
        got = rows[variant]
        for n in expected:
            checks.expect(got.get(n) == 1, f"{variant}: missing m=1 solution n={n}")
    checks.expect(list(primes.iter_primes(lo, hi)) == reference.primes_in(lo, hi).tolist(),
                  "primes.iter_primes disagrees with the reference sieve")


# ----- catalog -----

EXPECTED_CATALOG = HERE / "expected_catalog.json"
SUP_RTOL = 1e-9


def catalog_timed(p: dict, tracer: Optional[Tracer], cat) -> Outcome:
    done = catalog.verify_all(cat, names=p.get("names"))
    rows = [(c.name, c.verdict, c.recomputed_sup) for c in done]
    return Outcome(n_covered=len(done), solutions=len(done),
                   digest=hashlib.sha256(json.dumps(rows).encode()).hexdigest(), data=done)


def catalog_check(p: dict, out: Outcome, checks: Checks) -> None:
    # verdicts pinned by name; odd_prime_mertens_six_loglog = "exceed" is the
    # expected output (a genuine defect in the claimed constant), not an error
    expected = json.loads(EXPECTED_CATALOG.read_text())
    wanted = p.get("names") or sorted(expected)
    checks.expect([c.name for c in out.data] == sorted(wanted), "catalog entry set changed")
    for c in out.data:
        verdict, sup = expected.get(c.name, (None, None))
        checks.expect(c.verdict == verdict, f"{c.name}: verdict {c.verdict}, pinned {verdict}")
        same = (sup is None and c.recomputed_sup is None) or (
            sup is not None and c.recomputed_sup is not None
            and math.isclose(c.recomputed_sup, sup, rel_tol=SUP_RTOL))
        checks.expect(same, f"{c.name}: recomputed {c.recomputed_sup}, pinned {sup}")


# ----- sets -----


def sets_timed(p: dict, tracer: Optional[Tracer], cat) -> Outcome:
    x, a = p["x"], p["a"]
    u = repulsive.greedy_construct(x, a, p["start"])
    st = repulsive.stats(u, x)
    system = largesieve.from_prime_set(u, start=0, x_len=x)
    sieve = []
    for w in (p["w_exact"], p["w_float"]):
        sieve.append((w, largesieve.survivor_count(system, w),
                      largesieve.survivor_bound(x, w, system)))
    ys = range(p["y_lo"], p["y_hi"] + 1)
    with tracer.span("largesieve.lemma22_margin") if tracer else nullcontext():
        margins = [largesieve.lemma22_margin(y) for y in ys]
    digest = hashlib.sha256(json.dumps(
        [u.primes, st.p_u, st.s_u, st.theta_u, st.pi_u, sieve, margins]).encode()).hexdigest()
    return Outcome(n_covered=x - p["start"] + 1, solutions=len(u.primes), digest=digest,
                   data=(u, st, sieve, ys, margins),
                   counters={"repulsive.set_size": len(u.primes)})


def sets_check(p: dict, out: Outcome, checks: Checks) -> None:
    u, st, sieve, ys, margins = out.data
    checks.expect(bool(repulsive.is_self_repulsive(u.primes, p["a"])),
                  "greedy set is not self-repulsive")
    # independent pairwise check: no q in U with q = a (mod p), q != p
    members = np.array(u.primes, dtype=np.int64)
    clash = [p_ for p_ in u.primes
             if np.count_nonzero((members % p_ == p["a"] % p_) & (members != p_))]
    checks.expect(not clash, f"repulsion broken at p in {clash[:5]}")
    checks.expect(st.pi_u == len(u.primes), "stats pi_u differs from the set size")
    for w, z, bound in sieve:
        checks.expect(z <= bound, f"survivors {z} exceed bound {bound} at w={w}")
    for y, margin in zip(ys, margins):  # ys starts at 60, where the lemma's range starts
        checks.expect(margin > 0, f"lemma 22 margin {margin} at y={y}")


# ----- instrumentation -----


def _table_stats(tracer: Tracer):
    def on_result(tbl, lo, hi, *rest, **kw):
        nbytes = sum(v.nbytes for v in vars(tbl).values() if isinstance(v, np.ndarray))
        tracer.add("search.table_bytes", nbytes)
        tracer.add("search.n_covered", hi - lo)
    return on_result


def _counting_expression(tracer: Tracer, compile_expression: Callable):
    def compile_counted(text):
        fn = compile_expression(text)

        def counted(t):
            tracer.add("catalog.expr_evals", 1)
            return fn(t)
        return counted
    return compile_counted


def _custom_with_rss(tracer: Tracer, evaluate: Callable):
    def custom(entry):
        before = current_rss_mb()
        with tracer.span("catalog.custom"):
            result = evaluate(entry)
        tracer.add("catalog.custom_rss_mb", peak_rss_mb() - before)
        return result
    return custom


def instrument(tracer: Tracer) -> None:
    """Wrap each layer boundary at the module attribute its caller looks up."""
    w = tracer.wrap
    # primes: looked up as primes.<name> by search, arith, largesieve, repulsive
    w(primes, "primes_up_to", "primes.primes_up_to")
    w(primes, "_flags", "primes._flags")
    w(primes, "smallest_prime_factor", "primes.smallest_prime_factor")
    w(primes, "is_prime", "primes.is_prime")
    tracer.wrap_iter(primes, "iter_primes", "primes.iter_primes")
    # arith: search calls arith.factor; bounds and largesieve imported the names
    w(arith, "factor", "arith.factor")
    w(arith, "profile", "arith.profile")
    w(bounds, "factor", "arith.factor")
    w(bounds, "profile", "arith.profile")
    w(largesieve, "factor", "arith.factor")
    # search
    w(search, "build_table", "search.build_table", on_result=_table_stats(tracer))
    tracer.wrap_pool(search, "ThreadPoolExecutor")
    tracer.wrap_iter(search, "scan", "search.scan")
    w(search.Solution, "to_json", "search.to_json")
    w(search, "lehmer_audit", "search.lehmer_audit")
    w(search, "subbarao_audit", "search.subbarao_audit")
    # bounds
    w(bounds, "theorem_check", "bounds.theorem_check")
    w(bounds, "assemble_M_exact", "bounds.assemble_M_exact")
    # cli
    w(cli, "emit_rows", "cli.emit_rows")
    # catalog: catalog imported primes_up_to by name
    w(catalog, "primes_up_to", "primes.primes_up_to")
    w(catalog, "verify_all", "catalog.verify_all")
    w(catalog, "verify_constant", lambda entry, *a, **k: f"catalog.verify_constant.{entry.kind}")
    tracer.replace(catalog, "compile_expression",
                   _counting_expression(tracer, catalog.compile_expression))
    for key, evaluate in list(catalog._CUSTOM_EVALUATORS.items()):
        tracer.replace(catalog._CUSTOM_EVALUATORS, key, _custom_with_rss(tracer, evaluate))
    # largesieve: survivor_bound calls mg_sum by name
    w(largesieve, "mg_sum", lambda z, *a, **k: "largesieve.mg_sum_exact"
      if math.floor(z) <= largesieve.EXACT_MG_LIMIT else "largesieve.mg_sum_float")
    w(largesieve, "survivor_count", "largesieve.survivor_count")
    w(largesieve, "survivor_bound", "largesieve.survivor_bound")
    w(largesieve, "from_prime_set", "largesieve.from_prime_set")
    # repulsive
    w(repulsive, "greedy_construct", "repulsive.greedy_construct")
    w(repulsive, "stats", "repulsive.stats")


def layer_metrics(tracer: Tracer, wall: float, out: Outcome) -> dict[str, float]:
    """Reduce one traced pass to the per-layer metrics (names as in BENCHMARK.json)."""
    s = summarize(tracer)
    zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "p50_ms": 0.0}

    def get(name: str, key: str) -> float:
        return s.get(name, zero)[key]

    c = {**tracer.counters, **out.counters}
    mods = module_self_times(tracer)
    first = tracer.samples.get("search.scan.first", [])
    n_covered = c.get("search.n_covered", 0)
    m = {
        "primes.base_sieve_s": get("primes.primes_up_to", "self_s"),
        "primes.small_sieve_s": get("primes._flags", "total_s")
        + get("primes.smallest_prime_factor", "total_s"),
        "primes.is_prime_calls": get("primes.is_prime", "calls"),
        "primes.is_prime_s": get("primes.is_prime", "total_s"),
        "primes.iter_primes_s": get("primes.iter_primes", "self_s"),
        "search.build_table_s": get("search.build_table", "total_s"),
        "search.blocks": get("search.build_table", "calls"),
        "search.block_ms_p50": get("search.build_table", "p50_ms"),
        "search.table_mb": c.get("search.table_bytes", 0) / 2**20,
        "search.n_covered": n_covered,
        "search.hits": c.get("search.hits", 0),
        "search.hit_ratio": c.get("search.hits", 0) / n_covered if n_covered else 0.0,
        "search.stream_self_s": sum(t for s, t in tracer.self_times("search.build_table").items()
                                    if s.name == "search.scan"),
        "search.first_row_s": statistics.fmean(first) if first else 0.0,
        "search.jobs2_speedup": c.get("search.jobs2_speedup", 0.0),
        "arith.factor_calls": get("arith.factor", "calls"),
        "arith.factor_s": get("arith.factor", "total_s"),
        "arith.profile_calls": get("arith.profile", "calls"),
        "arith.profile_s": get("arith.profile", "total_s"),
        "bounds.theorem_check_calls": get("bounds.theorem_check", "calls"),
        "bounds.theorem_check_self_s": get("bounds.theorem_check", "self_s"),
        "bounds.assemble_s": get("bounds.assemble_M_exact", "total_s"),
        "bounds.status_pass": c.get("bounds.status_pass", 0),
        "bounds.status_not_applicable": c.get("bounds.status_not_applicable", 0),
        "bounds.status_fail": c.get("bounds.status_fail", 0),
        "cli.emit_s": get("cli.emit_rows", "self_s"),
        "cli.emit_bytes": c.get("cli.emit_bytes", 0),
        "catalog.custom_s": get("catalog.custom", "total_s"),
        "catalog.custom_rss_mb": c.get("catalog.custom_rss_mb", 0.0),
        "catalog.closed_form_s": get("catalog.verify_constant.closed_form", "total_s"),
        "catalog.expr_evals": c.get("catalog.expr_evals", 0),
        "largesieve.mg_sum_exact_s": get("largesieve.mg_sum_exact", "total_s"),
        "largesieve.mg_sum_float_s": get("largesieve.mg_sum_float", "total_s"),
        "largesieve.survivor_count_s": get("largesieve.survivor_count", "total_s"),
        "largesieve.lemma22_s": get("largesieve.lemma22_margin", "total_s"),
        "repulsive.greedy_s": get("repulsive.greedy_construct", "self_s"),
        "repulsive.stats_s": get("repulsive.stats", "total_s"),
        "repulsive.set_size": c.get("repulsive.set_size", 0),
        "trace.attributed_frac": sum(mods.values()) / wall,
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = mods.get(layer, 0.0)
    return m


# ----- one pass -----


@dataclass(frozen=True)
class Workload:
    timed: Callable[..., Outcome]
    check: Callable[[dict, Outcome, Checks], None]


WORKLOADS = {
    "audit": Workload(audit_timed, audit_check),
    "scan-verify": Workload(scan_timed, scan_check),
    "catalog": Workload(catalog_timed, catalog_check),
    "sets": Workload(sets_timed, sets_check),
}


def run_pass(workload: str, params: dict, trace: bool, cat, spans_path: Optional[str]) -> dict:
    """Time one pass, then check it; returns the pass record for the parent."""
    wl = WORKLOADS[workload]
    tracer = Tracer() if trace else None
    if tracer:
        instrument(tracer)
    t0 = time.perf_counter()
    try:
        out = wl.timed(params, tracer, cat)
    finally:
        wall = time.perf_counter() - t0
        if tracer:
            tracer.uninstall()
    rss = peak_rss_mb()
    checks = Checks()
    wl.check(params, out, checks)
    record = {"wall_s": wall, "n_covered": out.n_covered, "solutions": out.solutions,
              "peak_rss_mb": rss, "digest": out.digest, "attempted": checks.attempted,
              "failed": checks.failed, "failures": checks.messages}
    if tracer:
        record["layers"] = layer_metrics(tracer, wall, out)
        if spans_path:
            tracer.write(spans_path)
    return record
