"""Tests for the block-sieve scanner, audits, and the Fermat-prime family."""

import itertools
import json
import pickle
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    # the four variants at n, in the order of search.VARIANTS
    pr = arith.profile(arith.factor(n))
    return (pr.phi, pr.uphi, pr.psi, pr.usigma)


def pairs(solutions) -> list[tuple[int, int]]:
    return [(s.n, s.m) for s in solutions]


# ----- sieve correctness -----


VARIANTS = search.VARIANTS
DTYPES = {"phi": np.int32, "uphi": np.int32, "psi": np.int64, "usigma": np.int64}


def assert_table_matches_oracle(lo: int, hi: int) -> None:
    # oracle equivalence: each variant's table on the odd n of [lo, hi) must
    # reproduce a direct per-integer loop
    start = lo | 1
    if start >= hi:
        return
    want = [naive_profile_row(n) for n in range(start, hi, 2)]
    for i, variant in enumerate(VARIANTS):
        tbl = build_table(start, hi, variant)
        assert tbl.n.dtype == np.int32 and tbl.values.dtype == DTYPES[variant]
        assert tbl.n.tolist() == list(range(start, hi, 2))
        for n, value, row in zip(tbl.n.tolist(), tbl.values.tolist(), want):
            assert value == row[i], f"{variant} disagrees at n={n} in [{lo}, {hi})"


def test_block_table_matches_naive_loop():
    assert_table_matches_oracle(2, NAIVE_LIMIT + 1)


# hypothesis favours small integers, so the windows come from both ends of [2, 1e9]
LOWS = st.integers(2, search.Config.MAX_SCAN_LIMIT + 1 - 2048)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(lo=st.one_of(LOWS, LOWS.map(lambda lo: search.Config.MAX_SCAN_LIMIT + 3 - 2048 - lo)),
       width=st.integers(1, 2048))
def test_block_table_at_height_matches_oracle(lo, width):
    # large lo puts base primes near sqrt(1e9) and high prime powers in play;
    # up to 2048 rows, so the primes up to 8 take the strided pass and the
    # others the gathered one
    assert_table_matches_oracle(lo, lo + width)


@pytest.mark.parametrize("center", [
    2**29, 3**18, 5**12, 7**10,
    31601**2, 31607**2,  # squares of the largest base primes below sqrt(1e9)
    892_371_480,  # 8 * 3 * 5 * ... * 23: psi(n) ~ 3.75n exceeds 2**31
    search.Config.MAX_SCAN_LIMIT - 255,  # the window ending at the scan limit
])
def test_block_table_windows_straddling_prime_powers(center):
    assert_table_matches_oracle(center - 256, center + 256)


def assert_rows_match_oracle(tbl: BlockTable, variant: str, rows) -> None:
    # the given rows of one variant's table against the per-integer loop, and the dtype rule
    assert tbl.n.dtype == np.int32 and tbl.values.dtype == DTYPES[variant]
    i = VARIANTS.index(variant)
    for row in rows:
        n = int(tbl.n[row])
        assert int(tbl.values[row]) == naive_profile_row(n)[i], \
            f"{variant} disagrees at n={n} in [{tbl.lo}, {tbl.hi})"


@pytest.mark.parametrize("whole", [False, True])
@pytest.mark.parametrize("center, multiple", [
    (1031 * 1033, 1031 * 1033),  # two primes above the gather threshold share a row
    (937 * 1031 * 1033, 1031 * 1033),  # ... beside a strided prime
    (1031**2, 1031**2),  # the square of a gathered prime
    (3 * 1031**2, 1031**2),
    (31607**2, 31607**2),  # of the largest base prime below sqrt(1e9)
    (search.Config.MAX_SCAN_LIMIT, None),  # the block ending at the scan limit
])
def test_full_block_rows_match_oracle(center, multiple, whole):
    # one block's table as scans and audits build it, so the gather threshold
    # is the one they use: a whole block of Config.BLOCK_SIZE odd rows, or one
    # cut to Config.BLOCK_SIZE integers, as a range's last block can be, which
    # gathers the primes above 512 rather than 1024; its edges, the rows that
    # `multiple` divides and a seeded sample of the rest against the oracle
    size = search.Config.BLOCK_SIZE // (1 if whole else 2)
    assert 1031 > size // search._GATHER_BELOW  # 1031 and 1033 are gathered
    lo = min(center - size, search.Config.MAX_SCAN_LIMIT + 1 - 2 * size)
    rows = {0, 1, 2, size - 3, size - 2, size - 1, *np.random.default_rng(center).integers(0, size, 200)}
    for variant in VARIANTS:
        tbl = build_table(lo, lo + 2 * size, variant)
        assert tbl.n.size == size and int(tbl.n[0]) == lo
        if multiple is not None:
            hits = np.flatnonzero(tbl.n % multiple == 0)
            assert center in tbl.n[hits]
            rows.update(hits.tolist())
        assert_rows_match_oracle(tbl, variant, sorted(rows))


@pytest.mark.parametrize("n", [2, 3, 4, 9, 1031 * 1033, 1031**2, 3**18, 2**29, 31607**2,
                               search.Config.MAX_SCAN_LIMIT - 1, search.Config.MAX_SCAN_LIMIT])
def test_one_row_tables_match_oracle(n):
    # an odd n gets a one-row table; an even n gets none, and the block of n
    # alone finds its hits among the powers of 2 or not at all
    if n % 2:
        for variant in VARIANTS:
            assert_rows_match_oracle(build_table(n, n + 1, variant), variant, [0])
        return
    f = arith.factor(n)
    for variant, sign in VARIANT_SIGNS:
        m = bounds.solve_m(f, variant, sign)
        ns, ms = search._block_hits(n, n + 1, variant, sign, 1)
        assert list(zip(ns.tolist(), ms.tolist())) == ([] if m is None else [(n, m)])


@pytest.mark.parametrize("variant, fraction", [
    ("phi", 0.75),  # the audit's table: n and phi, 8 bytes a row
    ("psi", 0.6),  # the psi scan's table: n and psi, 12 bytes a row
])
def test_block_scratch_is_a_fraction_of_its_columns(variant, fraction):
    # beside the columns it returns, a block holds the factored part (4 bytes
    # a row), then either a gathered span of at most about size // 8 rows (8
    # bytes each) or, for a +1 column, the leftover's rem > 1 (1 byte a row);
    # tracemalloc sees numpy's buffers.  One Config.BLOCK_SIZE-row block
    # ending at the scan limit
    size = search.Config.BLOCK_SIZE
    lo = search.Config.MAX_SCAN_LIMIT + 1 - 2 * size
    build_table(lo, lo + 2 * size, variant)  # warm the prime cache
    tracemalloc.start()
    try:
        tbl = build_table(lo, lo + 2 * size, variant)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept = tbl.n.nbytes + tbl.values.nbytes
    assert peak - kept <= fraction * kept, (peak - kept) / kept


def test_block_hits_peak_is_at_most_four_columns():
    # the table holds n and phi; the hit test divides only the candidate rows,
    # so it adds no second full-size array.  One Config.BLOCK_SIZE-row phi
    # block, ending at the scan limit, as the audit builds it
    size = search.Config.BLOCK_SIZE
    lo = search.Config.MAX_SCAN_LIMIT + 1 - 2 * size
    search._block_hits(lo, lo + 2 * size, "phi", -1, 1)  # warm the prime cache
    tracemalloc.start()
    try:
        search._block_hits(lo, lo + 2 * size, "phi", -1, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    column = 4 * size  # one int32 column
    assert peak <= 4 * column, peak / column


@pytest.mark.parametrize("lo", [1, 3, 10**9 - 1, 10**9 + 1, 2**40 + 1])
def test_first_rows_in_the_odd_layout_stay_exact_for_large_moduli(lo):
    # odd m up to 10**10, as int64 arrays and as ints, against the Python-int
    # inverse of 2: row k holds lo + 2k, so k = -lo / 2 mod m
    rng = np.random.default_rng(lo)
    m = rng.integers(1, 5 * 10**9, 2000) * 2 + 1
    m = np.concatenate([[3, 5, 2**31 - 1, 10**10 - 1], m])
    want = [(-lo * pow(2, -1, q)) % q for q in m.tolist()]
    got = search._first_rows(lo, m)
    assert got.dtype == np.int64 and got.tolist() == want
    assert [search._first_rows(lo, q) for q in m[:50].tolist()] == want[:50]


def test_block_table_dtypes_have_headroom():
    # n, phi and phi* never exceed n, and _hit_arrays forms n + 1, so int32
    # holds them up to the scan limit; psi and sigma* exceed n
    assert search.Config.MAX_SCAN_LIMIT + 1 < 2**31
    for variant in VARIANTS:
        tbl = build_table(3, 1000, variant)
        assert tbl.n.dtype == np.int32 and tbl.values.dtype == DTYPES[variant], variant


class _DtypeCheckedUfunc:
    # a numpy ufunc whose .at asserts that its operand has the array's dtype
    def __init__(self, ufunc, calls):
        self.ufunc, self.calls = ufunc, calls

    def __call__(self, *args, **kwargs):
        return self.ufunc(*args, **kwargs)

    def at(self, a, indices, b):
        dtype = np.asarray(b).dtype
        assert dtype == a.dtype, (self.ufunc.__name__, a.dtype, dtype)
        self.calls.append((self.ufunc.__name__, a.dtype))
        self.ufunc.at(a, indices, b)


def test_ufunc_at_operands_have_the_array_dtype(monkeypatch):
    # a factor of another dtype takes ufunc.at off numpy's fast path: int32
    # f(p) into the int64 psi and sigma* columns made their blocks twice as slow
    calls = []

    class DtypeCheckedNumpy:
        def __getattr__(self, name):
            attr = getattr(np, name)
            return _DtypeCheckedUfunc(attr, calls) if isinstance(attr, np.ufunc) else attr

    lo = search.Config.MAX_SCAN_LIMIT - 2 * search.Config.BLOCK_SIZE + 1
    hi = lo + 2 * search.Config.BLOCK_SIZE
    want = {variant: build_table(lo, hi, variant).values for variant in VARIANTS}
    monkeypatch.setattr(search, "np", DtypeCheckedNumpy())
    for variant in VARIANTS:
        calls.clear()
        got = build_table(lo, hi, variant).values
        assert got.dtype == want[variant].dtype and np.array_equal(got, want[variant])
        # the gathered pass and the gathered power step both ran on the column
        assert {name for name, dtype in calls if dtype == DTYPES[variant]} >= {
            "multiply", "floor_divide"}, variant


def spy_on_pools(monkeypatch) -> list[int]:
    # the max_workers of every pool the search module starts, on a 2-CPU machine
    workers = []
    real_pool = search.ThreadPoolExecutor

    def spy_pool(max_workers):
        workers.append(max_workers)
        return real_pool(max_workers=max_workers)

    monkeypatch.setattr(search.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(search, "ThreadPoolExecutor", spy_pool)
    return workers


def test_hit_stream_caps_jobs_at_cpu_count(monkeypatch):
    # a huge --jobs must not start a thread per block; output is unchanged
    workers = spy_on_pools(monkeypatch)
    monkeypatch.setattr(search.Config, "BLOCK_SIZE", 1 << 10)
    many = list(search._hit_stream(2, 20_000, 10**6, "phi", -1, 1))
    assert workers == [2]
    one = list(search._hit_stream(2, 20_000, 1, "phi", -1, 1))
    assert len(many) == len(one) > 2
    for (n_a, m_a), (n_b, m_b) in zip(many, one):
        assert np.array_equal(n_a, n_b) and np.array_equal(m_a, m_b)
    assert np.concatenate([n for n, _ in one]).tolist() == primes.primes_up_to(20_000).tolist()


def test_one_block_range_starts_no_pool(monkeypatch):
    workers = spy_on_pools(monkeypatch)
    assert len(list(scan(2, 1000, "psi", 1, jobs=2))) == 168
    assert workers == []
    monkeypatch.setattr(search.Config, "BLOCK_SIZE", 1 << 10)
    assert len(list(scan(2, 10 * 1024 + 1, "psi", 1, jobs=2))) == 1254  # 5 blocks
    assert workers == [2]


def test_block_table_block_boundaries():
    # splitting a range into blocks must not change any variant's table
    for variant in VARIANTS:
        whole = build_table(3, 5001, variant)
        a = build_table(3, 2049, variant)
        b = build_table(2049, 5001, variant)
        for field in ("n", "values"):
            merged = np.concatenate([getattr(a, field), getattr(b, field)])
            assert np.array_equal(merged, getattr(whole, field)), (variant, field)


def test_block_table_validation():
    with pytest.raises(ValueError):
        build_table(1, 10, "phi")
    with pytest.raises(ValueError):
        build_table(11, 11, "phi")
    with pytest.raises(ValueError):
        build_table(3, search.Config.MAX_SCAN_LIMIT + 2, "phi")
    with pytest.raises(ValueError, match="odd lo"):
        build_table(10, 20, "phi")  # tables hold the odd n only
    for name in ("sigma", "omega", "n1", "PHI", ("phi",), None):
        with pytest.raises(ValueError, match="unknown variant"):
            build_table(3, 10, name)


def test_audit_family_identities(prime_power_mask, full_table):
    # the audits take their family to be the m = 1 hits: phi(n) = n - 1 iff n
    # is prime, and phi*(n) = n - 1 iff n is a prime power
    hi = 10**5
    n = np.arange(2, hi + 1)
    prime = np.isin(n, primes.primes_up_to(hi))
    assert np.array_equal(full_table(hi, "phi").values == n - 1, prime)
    assert np.array_equal(full_table(hi, "uphi").values == n - 1, prime_power_mask(hi)[2:])


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


def test_scan_psi_plus_primes_match_validated_factorization(monkeypatch):
    # m = 1 proves n prime, so these solutions skip factor(); the validated
    # factorization of factor(n) is the oracle
    sols = list(scan(2, 10**6, "psi", 1))
    assert len(sols) == 78498 and all(s.m == 1 for s in sols)
    for sol in sols:
        assert sol.factorization == arith.from_pairs(arith.factor(sol.n).pairs)
    calls = []
    monkeypatch.setattr(arith, "factor", lambda n: calls.append(n) or arith.from_pairs([]))
    assert [s.n for s in scan(2, 100, "psi", 1)] == primes.primes_up_to(100).tolist()
    assert calls == []


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


def assert_factored_as_oracle(sols) -> None:
    # the column-built record equals factor(n)'s, validated again by from_pairs
    for sol in sols:
        f = arith.factor(sol.n)
        assert sol.factorization == arith.from_pairs(f.pairs), sol
        assert sol.classification == classify(f), sol


def test_scan_usigma_plus_prime_powers_match_validated_factorization():
    # m = 1 proves n a prime power; the proper ones come from the scan's map
    sols = list(scan(2, 10**6, "usigma", 1))
    assert len(sols) == 78498 + 236 and all(s.m == 1 for s in sols)
    assert_factored_as_oracle(sols)


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("center, power", [
    (2**29, (2, 29)), (3**18, (3, 18)), (5**12, (5, 12)), (7**10, (7, 10)),
    (31607**2, (31607, 2)),  # the square of the largest base prime below sqrt(1e9)
    (search.Config.MAX_SCAN_LIMIT - 256, None),  # the window ending at the scan limit
])
def test_scan_usigma_plus_windows_straddling_prime_powers(center, power, jobs):
    sols = list(scan(center - 256, min(center + 256, search.Config.MAX_SCAN_LIMIT),
                     "usigma", 1, jobs=jobs))
    assert_factored_as_oracle(sols)
    if power is not None:
        assert (center, (power,)) in [(s.n, s.factorization.pairs) for s in sols]
        for lo, hi in ((center, center + 1), (center - 1, center)):  # the power at either end
            edge = [s for s in scan(lo, hi, "usigma", 1, jobs=jobs) if s.n == center]
            assert [(s.factorization.pairs, s.classification) for s in edge] \
                == [((power,), "prime-power")]


def test_scan_unit_offset_family_makes_no_factor_call(monkeypatch):
    calls = []
    real = arith.factor
    monkeypatch.setattr(arith, "factor", lambda n: calls.append(n) or real(n))
    sols = list(scan(2, 1000, "usigma", 1))
    assert [s.n for s in sols] == [n for n in range(2, 1001) if len(real(n).pairs) == 1]
    assert calls == []
    assert pairs(scan(2, 1000, "usigma", 1, min_m=2)) == []
    # every other solution is factored
    assert pairs(scan(2, 1000, "usigma", -1)) == [(2, 2)] and calls == [2]


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


# ----- the Solution record -----


def only(sols):
    (sol,) = sols
    return sol


def test_solution_to_json_pinned():
    # a psi/+1 prime, a sigma*/+1 prime power (both built from the column)
    # and a factored composite; the jsonl bytes keep their key order
    cases = [
        (only(scan(101, 101, "psi", 1)),
         '{"n": "101", "m": "1", "variant": "psi", "sign": "+1", '
         '"factorization": [[101, 1]], "class": "prime"}'),
        (only(scan(243, 243, "usigma", 1)),
         '{"n": "243", "m": "1", "variant": "usigma", "sign": "+1", '
         '"factorization": [[3, 5]], "class": "prime-power"}'),
        (fermat_family(3),
         '{"n": "255", "m": "2", "variant": "phi", "sign": "+1", '
         '"factorization": [[3, 1], [5, 1], [17, 1]], "class": "composite-squarefree"}'),
    ]
    for sol, line in cases:
        assert json.dumps(sol.to_json()) == line


def test_solution_record_semantics():
    assert Solution._fields == ("n", "m", "variant", "sign", "factorization",
                                "classification")
    sol = only(scan(243, 243, "usigma", 1))
    for field in Solution._fields:
        with pytest.raises(AttributeError):
            setattr(sol, field, None)
    with pytest.raises(AttributeError):
        sol.extra = 1
    # equal fields give equal, equally hashed records, however the factorization was built
    same = Solution(n=243, m=1, variant="usigma", sign=1,
                    factorization=arith.from_pairs([(3, 5)]), classification="prime-power")
    assert sol == same and hash(sol) == hash(same)
    assert sol != same._replace(m=2)
    # a record is a tuple: it indexes, unpacks and equals the plain tuple of its values
    n, m, variant, sign, f, cls = sol
    assert sol == (243, 1, "usigma", 1, f, "prime-power") and sol[4] is f
    assert (n, m, variant, sign, cls) == (243, 1, "usigma", 1, "prime-power")


def test_solution_pickle_round_trip():
    # the column-built factorizations come from arith._trusted, which skips the
    # constructor's checks; they and the factored ones survive a round trip
    sols = [only(scan(101, 101, "psi", 1)), only(scan(243, 243, "usigma", 1)),
            fermat_family(3), only(scan(2, 10, "psi", -1, min_m=1))]
    for sol in sols:
        back = pickle.loads(pickle.dumps(sol))
        assert type(back) is Solution and back == sol and hash(back) == hash(sol)
        assert type(back.factorization) is arith.Factorization
        assert back.factorization == arith.from_pairs(sol.factorization.pairs)
        assert back.to_json() == sol.to_json()


def test_unit_offset_family_is_classified_from_the_column(monkeypatch):
    real = search.classify
    calls = []
    monkeypatch.setattr(search, "classify", lambda f: calls.append(f.value) or real(f))
    for variant in ("psi", "usigma"):
        sols = list(scan(2, 10**5, variant, 1))
        assert calls == [] and len(sols) >= 9592
        for sol in sols:
            assert sol.classification == real(arith.factor(sol.n)), sol
    # the factored hits still go through classify: the sign -1 hits and the
    # totient scans
    for variant in ("psi", "usigma"):
        assert pairs(scan(2, 10**5, variant, -1)) == [(2, 2)]
    assert calls == [2, 2]
    calls.clear()
    ns = [s.n for s in scan(2, 10**5, "phi", 1, min_m=2)]
    assert ns and calls == ns
    # min_m = 2 finds no psi/+1 or sigma*/+1 hit, so call the builder directly:
    # with the map passed, an m >= 2 hit is still factored and classified
    calls.clear()
    sol = search._make_solution(15, 2, "psi", 1, search._proper_prime_powers(2, 100))
    assert calls == [15] and sol.classification == "composite-squarefree"


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


def audit_by_full_table(full: BlockTable, hi: int) -> tuple[int, list[int]]:
    # the audit counted over every n in [2, hi] of a table of every n from 2
    n = full.n[:max(hi - 1, 0)]
    den = full.values[:n.size]
    divides = (n - 1) % den == 0
    family = divides & (den == n - 1)
    return int(np.count_nonzero(family)), n[divides & ~family].tolist()


@pytest.mark.parametrize("audit, variant", [(lehmer_audit, "phi"), (subbarao_audit, "uphi")])
def test_odd_only_audits_match_full_table(audit, variant, full_table):
    # the audits sieve odd n only and test the powers of 2 apart; the parity
    # argument must hold for every hi
    full = full_table(10**6, variant)
    for hi in [*range(1, 301), 10**6]:
        rep = audit(hi)
        want = audit_by_full_table(full, hi)
        assert (rep.family_count, [s.n for s in rep.counterexamples]) == want, hi


def test_queries_sieve_only_the_columns_they_read(monkeypatch):
    calls = []
    real = search.build_table

    def spy(lo, hi, variant):
        calls.append(variant)
        return real(lo, hi, variant)

    monkeypatch.setattr(search, "build_table", spy)
    lehmer_audit(1000)
    subbarao_audit(1000)
    list(scan(2, 1000, "psi", 1))
    assert calls == ["phi", "uphi", "psi"]



# ----- the block loop -----


VARIANT_SIGNS = list(itertools.product(VARIANTS, (1, -1)))


def one_table_hits(lo, hi, variant, sign, min_m) -> list[tuple[int, int]]:
    # _hit_arrays on one table over the odd n in [lo, hi], for an odd lo
    tbl = build_table(lo, hi + 1, variant)
    hit, m = search._hit_arrays(tbl, variant, sign, min_m)
    return list(zip(tbl.n[hit].tolist(), m.tolist()))


def full_row_hits(tbl: BlockTable, variant: str, sign: int, min_m: int):
    # the oracle of _hit_arrays: the remainder of every row
    if variant in search.TOTIENT_VARIANTS:
        top, den, offset = tbl.n, tbl.values, sign
    else:
        top, den, offset = tbl.values, tbl.n, -sign
    num = top + offset
    hit = np.flatnonzero(num % den == 0)
    m = num[hit] // den[hit]
    return hit[m >= min_m], m[m >= min_m]


@pytest.mark.parametrize("whole", [False, True])
@pytest.mark.parametrize("lo, fermat", [
    (3, [15, 255]),  # m = 2 for phi/+1
    (65535 - 2048, [65535]),
    (None, []),  # the block ending at the scan limit
])
def test_hit_arrays_match_full_row_remainders(lo, fermat, whole):
    # a whole block's table, or one cut to half its rows
    if lo is None:
        size = search.Config.BLOCK_SIZE // (1 if whole else 2)
        lo = search.Config.MAX_SCAN_LIMIT + 1 - 2 * size
    else:
        size = 4096 // (1 if whole else 2)
    tables = {v: build_table(lo, lo + 2 * size, v) for v in VARIANTS}
    before = {v: (tbl.n.copy(), tbl.values.copy()) for v, tbl in tables.items()}
    phi = tables["phi"]
    assert np.any((phi.values < phi.n + 1) & (phi.n + 1 < 2 * phi.values))  # den < num < 2 den
    for variant, sign in VARIANT_SIGNS:
        for min_m in (1, 2, 3, 7):
            hit, m = search._hit_arrays(tables[variant], variant, sign, min_m)
            want_hit, want_m = full_row_hits(tables[variant], variant, sign, min_m)
            assert hit.dtype == want_hit.dtype and m.dtype == want_m.dtype, (variant, sign, min_m)
            assert np.array_equal(hit, want_hit) and np.array_equal(m, want_m), (variant, sign, min_m)
    for v, columns in before.items():
        for got, column in zip((tables[v].n, tables[v].values), columns):
            assert got.dtype == column.dtype and np.array_equal(got, column), v
    hit, m = search._hit_arrays(phi, "phi", 1, 2)
    assert {n: 2 for n in fermat}.items() <= dict(zip(phi.n[hit].tolist(), m.tolist())).items()


EDGE = 2 * 1024  # the integers of one block at Config.BLOCK_SIZE = 2**10
POWER_OF_2 = st.integers(1, 29).map(lambda k: 1 << k)
ANY_N = st.integers(2, search.Config.MAX_SCAN_LIMIT - 3 * EDGE)
EVEN_N = ANY_N.map(lambda n: n & ~1)
WIDTH = st.integers(0, 3 * EDGE) | st.sampled_from([EDGE - 1, EDGE, 2 * EDGE - 1, 2 * EDGE])
WINDOWS = st.one_of(
    st.tuples(ANY_N | EVEN_N | POWER_OF_2, WIDTH).map(lambda t: (t[0], t[0] + t[1])),
    st.tuples(EVEN_N | POWER_OF_2, WIDTH).map(lambda t: (max(t[0] - t[1], 2), t[0])),
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(window=WINDOWS, jobs=st.sampled_from([1, 2]))
@example(window=(2, 2), jobs=1)
@example(window=(3, 3), jobs=1)
@example(window=(4, 4), jobs=1)
def test_scans_across_blocks_match_per_n_oracle(window, jobs):
    # every variant/sign pair against solve_m on each n's factorization, on
    # windows that start or end at an even n, a power of 2 or (WIDTH) a block
    # edge, so the even-n rule and the block loop meet the scalar path
    lo, hi = window
    factors = [arith.factor(n) for n in range(lo, hi + 1)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search.Config, "BLOCK_SIZE", 1 << 10)
        for variant, sign in VARIANT_SIGNS:
            want = [(f.value, m) for f in factors
                    if (m := bounds.solve_m(f, variant, sign)) is not None]
            for min_m in (1, 2, 3):
                got = pairs(scan(lo, hi, variant, sign, min_m, jobs=jobs))
                assert got == [(n, m) for n, m in want if m >= min_m], (variant, sign, min_m)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(hi=st.integers(3, 40 * 1024), jobs=st.sampled_from([1, 2]))
def test_audits_across_blocks_match_one_table(hi, jobs):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search.Config, "BLOCK_SIZE", 1 << 10)
        for audit, variant, even_members in ((lehmer_audit, "phi", 1),
                                             (subbarao_audit, "uphi", hi.bit_length() - 1)):
            rep = audit(hi, jobs=jobs)
            hits = one_table_hits(3, hi, variant, -1, 1)
            assert rep.family_count == even_members + sum(m == 1 for _, m in hits)
            assert pairs(rep.counterexamples) == [(n, m) for n, m in hits if m != 1]


@pytest.mark.parametrize("jobs", [1, 2])
def test_audit_memory_does_not_grow_with_the_range(monkeypatch, jobs):
    # tracemalloc sees numpy's buffers.  At jobs=2 the peak also depends on
    # whether the two workers peak at the same moment, which can only raise
    # it, so the long range keeps its best of 3 runs, the short its worst of 16
    monkeypatch.setattr(search.Config, "BLOCK_SIZE", 1 << 12)
    span = 2 * search.Config.BLOCK_SIZE  # a block's integers
    lehmer_audit(100, jobs=jobs)  # warm the prime cache

    def peak(blocks: int) -> int:
        tracemalloc.start()
        try:
            lehmer_audit(1 + blocks * span, jobs=jobs)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    short = max(peak(4) for _ in range(16 if jobs > 1 else 1))
    long = min(peak(64) for _ in range(3 if jobs > 1 else 1))
    assert long <= 1.1 * short, (long, short)


@pytest.mark.parametrize("jobs, bound_mb", [(2, 55), (1, 45)])
def test_lehmer_audit_to_1e7_peak_memory(fresh_process_peak, jobs, bound_mb):
    # workers return only their block's hits, so at most `jobs` block tables
    # are live; python, numpy and the package take about 30 MB of the peak
    (count,), peak_mb = fresh_process_peak(
        f"from repulse import search; print(search.lehmer_audit(10**7, jobs={jobs}).family_count)")
    assert count == "664579"
    assert peak_mb < bound_mb, peak_mb


# ----- the integer rule at the entry points -----


NOT_INTEGERS = [
    pytest.param(lambda: subbarao_audit(1e5), id="subbarao hi=1e5"),
    pytest.param(lambda: lehmer_audit(1e5), id="lehmer hi=1e5"),
    pytest.param(lambda: lehmer_audit(True), id="lehmer hi=True"),
    pytest.param(lambda: subbarao_audit(True), id="subbarao hi=True"),
    pytest.param(lambda: lehmer_audit(100, jobs=1.5), id="lehmer jobs=1.5"),
    pytest.param(lambda: subbarao_audit(100, jobs=True), id="subbarao jobs=True"),
    pytest.param(lambda: list(scan(2.0, 100, "phi", 1)), id="scan lo=2.0"),
    pytest.param(lambda: list(scan(2, 100.0, "phi", 1)), id="scan hi=100.0"),
    pytest.param(lambda: list(scan(2, True, "phi", 1)), id="scan hi=True"),
    pytest.param(lambda: list(scan(2, 100, "phi", 1, min_m=2.0)), id="scan min_m=2.0"),
    pytest.param(lambda: list(scan(2, 100, "phi", 1, min_m=True)), id="scan min_m=True"),
    pytest.param(lambda: list(scan(2, 100, "phi", 1, jobs=1.5)), id="scan jobs=1.5"),
    pytest.param(lambda: list(scan(2, 100, "phi", 1, jobs=True)), id="scan jobs=True"),
    pytest.param(lambda: fermat_family(2.0), id="fermat k=2.0"),
    pytest.param(lambda: fermat_family(True), id="fermat k=True"),
]


def assert_one_line(exc_info) -> None:
    assert "\n" not in str(exc_info.value), str(exc_info.value)


@pytest.mark.parametrize("call", NOT_INTEGERS)
def test_entry_points_refuse_floats_and_bools(call):
    # 1.0 == 1 and True == 1, so either would pass a range check unnoticed
    with pytest.raises(TypeError, match=r"^(lo|hi|min_m|jobs|k) must be an integer, got ") as exc:
        call()
    assert_one_line(exc)


@pytest.mark.parametrize("jobs", [0, -3])
@pytest.mark.parametrize("call", [
    lambda jobs: lehmer_audit(100, jobs=jobs),
    lambda jobs: subbarao_audit(100, jobs=jobs),
    lambda jobs: list(scan(2, 100, "phi", 1, jobs=jobs)),
], ids=["lehmer", "subbarao", "scan"])
def test_entry_points_refuse_fewer_than_one_job(call, jobs):
    with pytest.raises(ValueError, match=f"^jobs must be >= 1, got {jobs}$") as exc:
        call(jobs)
    assert_one_line(exc)


def test_entry_points_take_numpy_integers():
    i64 = np.int64
    for audit in (lehmer_audit, subbarao_audit):
        got, want = audit(i64(10**5), jobs=np.int32(2)), audit(10**5)
        assert type(got.hi) is int and got.hi == 10**5
        assert (got.family_count, got.counterexamples) == (want.family_count, want.counterexamples)
        assert {**got.to_json(), "wall_time": 0} == {**want.to_json(), "wall_time": 0}
    got = list(scan(i64(2), i64(10**4), "phi", i64(1), min_m=i64(2), jobs=np.uint8(2)))
    assert got == list(scan(2, 10**4, "phi", 1))
    assert fermat_family(np.int8(3)) == fermat_family(3)


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
