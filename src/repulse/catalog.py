"""Declarative catalog of explicit constants and their verification.

Every named constant used by the bound chains is registered as a data
entry: a closed-form expression of one real variable, a domain, the
claimed constant, and a tail note for unbounded domains.  The verifier
recomputes the supremum (or infimum, per the entry's direction) on a
refining grid with golden-section polish and compares it against the
claim within an absolute tolerance.

An entry is a ``ConstantCheck``, whose dataclass fields are the one field
list its JSON form walks both ways; building an entry checks every input
field, so a malformed entry is refused, by name, before any is verified.

Entry kinds:

* ``closed_form``: expression scanned over its domain;
* ``arithmetic``: expression without the variable, evaluated once;
* ``value``: like arithmetic but compared two-sidedly;
* ``custom``: a registered evaluator (used for the integer-domain
  odd-prime product ratio, which no closed form captures);
* ``axiom``: an imported literature fact, recorded with its citation
  and never recomputed.

Verdicts are ``pass``, ``exceed``, or ``unverifiable-by-grid`` (an
unbounded domain with no declared tail behavior).  Entries may be
``flagged``: borderline records whose exact supremum and margin are the
point of interest rather than the verdict itself.
"""

from __future__ import annotations

import ast
import itertools
import json
import math
from dataclasses import dataclass, fields, replace
from importlib import resources
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from . import bounds, primes
from .primes import primes_up_to

DEFAULT_TOLERANCE = 2e-3
DEFAULT_GRID = 4001
MAX_GRID = 10**6
DEFAULT_SCAN_HI = 1.0e7

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


# ----- expression language -----

_ALLOWED_NODES = (
    ast.Expression,
    ast.BinOp,
    ast.UnaryOp,
    ast.Call,
    ast.Name,
    ast.Constant,
    ast.Add,
    ast.Sub,
    ast.Mult,
    ast.Div,
    ast.Pow,
    ast.USub,
    ast.UAdd,
    ast.Load,
)


def _capped_exp(x: float) -> float:
    return math.exp(min(x, bounds._EXP_CAP))


def _loglog(x: float) -> float:
    return math.log(math.log(x))


_NAMESPACE: Dict[str, object] = {
    "log": math.log,
    "exp": _capped_exp,
    "sqrt": math.sqrt,
    "abs": abs,
    "loglog": _loglog,
    "gamma": bounds.EULER_GAMMA,
    "gamma1": bounds.STIELTJES_GAMMA1,
    "pi": math.pi,
    "e": math.e,
    **bounds._CORRECTION_FNS,
    "exp_correction": bounds.exp_correction,
    "boundary_log_count": bounds.boundary_log_count,
    "epsilon_boundary_factor": bounds.epsilon_boundary_factor,
}


def compile_expression(text: str) -> Callable[[float], float]:
    """Compile a whitelisted arithmetic expression of t into a callable.

    Only arithmetic operators, the registered function names, the
    registered constants and int or float literals are admitted; anything
    else, or an expression nested too deeply to parse or compile, raises
    ValueError.  Integer literals are compiled as floats, so a
    power such as 9**9**9 overflows instead of being computed exactly.  An
    overflow, a division by zero, a non-real value, a bad call or a ValueError
    during evaluation raises ValueError naming the expression and t.
    """
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise ValueError(f"bad expression {text!r}: {exc}") from None
    except (RecursionError, MemoryError):
        raise ValueError(f"expression {text!r} nests too deeply") from None
    for node in ast.walk(tree):
        if not isinstance(node, _ALLOWED_NODES):
            raise ValueError(
                f"expression {text!r} uses forbidden syntax "
                f"({type(node).__name__})"
            )
        if isinstance(node, ast.Name) and node.id != "t" and node.id not in _NAMESPACE:
            raise ValueError(f"expression {text!r} uses unknown name {node.id!r}")
        if isinstance(node, ast.Call):
            if not isinstance(node.func, ast.Name) or node.func.id not in _NAMESPACE:
                raise ValueError(f"expression {text!r} calls a non-registered function")
            if node.keywords:
                raise ValueError(f"expression {text!r} uses keyword arguments")
        if isinstance(node, ast.Constant):
            if type(node.value) not in (int, float):
                raise ValueError(f"expression {text!r} has a non-real literal {node.value!r}")
            try:
                node.value = float(node.value)
            except OverflowError:
                raise ValueError(f"expression {text!r} has a literal beyond float range") from None
    # compiled once as `lambda t: <expression>` over the namespace
    tree.body = ast.Lambda(ast.arguments(posonlyargs=[], args=[ast.arg("t")], kwonlyargs=[],
                                         kw_defaults=[], defaults=[]), tree.body)
    try:
        code = compile(ast.fix_missing_locations(tree), "<catalog>", "eval")
    except RecursionError:
        raise ValueError(f"expression {text!r} nests too deeply") from None
    expr = eval(code, {"__builtins__": {}, **_NAMESPACE})

    def fn(t: float) -> float:
        try:
            return float(expr(t))
        except (ArithmeticError, TypeError, ValueError) as exc:
            raise ValueError(f"expression {text!r} fails at t = {t}: {exc}") from None

    fn.__name__ = f"expr_{abs(hash(text)) % 10**8}"
    return fn


# ----- entry / record type -----

_KINDS = ("closed_form", "arithmetic", "value", "custom", "axiom")

# margin of a recomputed extremum x against the claim c, per direction
_MARGINS: Dict[str, Callable[[float, float], float]] = {
    "sup_le": lambda x, c: x - c,
    "inf_ge": lambda x, c: c - x,
    "two_sided": lambda x, c: abs(x - c),
}


def _float(value: float) -> float:
    """float(value), or NaN for an int beyond float range."""
    try:
        return float(value)
    except OverflowError:
        return math.nan


@dataclass(frozen=True)
class ConstantCheck:
    """One catalog entry, optionally completed with verification data.

    Building an entry, from a file or from code, checks each input field
    and stores the claim and domain ends as floats; a malformed entry raises
    ValueError naming it.  The result fields, which verification overwrites,
    are not checked.

    `recomputed_sup` holds the recomputed extremum in the direction of
    the claim (a supremum for sup_le entries, an infimum for inf_ge
    entries); `margin` is positive exactly when the recomputed value
    lands on the wrong side of the claim, and the verdict is pass iff
    margin <= tolerance.
    """

    name: str
    kind: str  # one of _KINDS
    direction: str  # one of _MARGINS
    expression: str  # the evaluator's name for a custom entry
    domain_lo: float
    domain_hi: float  # math.inf for unbounded entries
    claimed: float
    flagged: bool = False
    integer_domain: bool = False
    scan_hi: Optional[float] = None
    tail_note: Optional[str] = None
    note: Optional[str] = None
    cite: Optional[str] = None
    recomputed_sup: Optional[float] = None
    sup_at: Optional[float] = None
    margin: Optional[float] = None
    verdict: Optional[str] = None

    def __post_init__(self) -> None:
        name = self.name
        if not isinstance(name, str):
            raise ValueError(f"catalog entry {name!r} has a name that is not a string")

        def require(ok: bool, key: str, must: str) -> None:
            if not ok:
                raise ValueError(f"catalog entry {name!r} has {key} {getattr(self, key)!r}; "
                                 f"it must be {must}")
        for key in ("kind", "direction", "expression"):
            require(isinstance(getattr(self, key), str), key, "a string")
        for key, known in (("kind", _KINDS), ("direction", tuple(_MARGINS))):
            require(getattr(self, key) in known, key, f"one of {', '.join(known)}")
        require(self.kind != "custom" or self.expression in _CUSTOM_EVALUATORS, "expression",
                "a custom evaluator's name")
        for key in ("flagged", "integer_domain"):
            require(type(getattr(self, key)) is bool, key, "true or false")
        for key in ("tail_note", "note", "cite"):
            require(isinstance(getattr(self, key), (str, type(None))), key, "a string or null")
        for key in ("claimed", "domain_lo", "domain_hi"):
            value = getattr(self, key)
            require(isinstance(value, (int, float)) and type(value) is not bool, key, "a number")
            object.__setattr__(self, key, _float(value))  # so a JSON 6 prints as 6.0
        lo, hi = self.domain_lo, self.domain_hi
        if not (math.isfinite(self.claimed) and math.isfinite(lo)) or math.isnan(hi):
            raise ValueError(f"catalog entry {name!r} has a non-finite claim or domain end")
        if hi < lo:
            raise ValueError(f"catalog entry {name!r} has its domain in reverse, [{lo}, {hi}]")
        if math.isfinite(hi) and hi - lo == math.inf:  # the scan's linspace would overflow
            raise ValueError(f"catalog entry {name!r} has its domain [{lo}, {hi}] wider "
                             "than float range")
        scan_hi = self.scan_hi
        require(scan_hi is None or (type(scan_hi) in (int, float)
                                    and math.isfinite(_float(scan_hi)) and scan_hi > lo),
                "scan_hi", "null or a finite number above the domain start")

    def to_json(self) -> dict:
        """The entry as a JSON object, its fields in order, with domain_lo and
        domain_hi joined into the pair `domain` (null for an unbounded end)."""
        out = {}
        for key in _FIELDS:
            if key == "domain_lo":
                out["domain"] = [self.domain_lo,
                                 None if math.isinf(self.domain_hi) else self.domain_hi]
            elif key != "domain_hi":
                out[key] = getattr(self, key)
        return out

    @staticmethod
    def from_json(d: dict) -> "ConstantCheck":
        """Build an entry from the fields its JSON object holds, with the pair
        `domain` for domain_lo and domain_hi (null: unbounded); a malformed
        object raises ValueError."""
        name = d.get("name") if isinstance(d, dict) else d
        try:
            lo, hi = d["domain"]
            given = {key: d[key] for key in _FIELDS if key in d}
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"catalog entry {name!r} is malformed: {exc!r}") from None
        given.update(domain_lo=lo, domain_hi=math.inf if hi is None else hi)
        try:
            return ConstantCheck(**given)
        except TypeError as exc:  # a required field is missing
            raise ValueError(f"catalog entry {name!r} is malformed: {exc!r}") from None


_FIELDS = tuple(f.name for f in fields(ConstantCheck))


@dataclass(frozen=True)
class Catalog:
    version: str
    tolerance: float
    default_grid: int
    entries: Tuple[ConstantCheck, ...]

    def entry(self, name: str) -> ConstantCheck:
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(f"no catalog entry named {name!r}")


def _valid_tolerance(value: object) -> float:
    """A verdict tolerance: a finite number >= 0, else ValueError."""
    try:
        tol = float(value)
    except (TypeError, ValueError):
        tol = math.nan
    if isinstance(value, bool) or not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tolerance must be a finite number >= 0, got {value!r}")
    return tol


def _valid_grid(value: object) -> int:
    """A grid size: an integer >= 2, since the scan keeps both domain ends,
    and at most MAX_GRID, since the scan holds the whole grid in memory."""
    try:
        grid = int(value)
    except (TypeError, ValueError, OverflowError):
        grid = 0
    if grid != value or grid < 2:
        raise ValueError(f"grid must be an integer >= 2, got {value!r}")
    if grid > MAX_GRID:
        raise ValueError(f"grid must be at most {MAX_GRID} points, got {value!r}")
    return grid


def load_catalog(path: Optional[str] = None) -> Catalog:
    """Load the packaged default catalog, or a JSON file override."""
    if path is None:
        text = (
            resources.files("repulse").joinpath("data/constants.json").read_text()
        )
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    try:
        raw = json.loads(text)
    except RecursionError:
        raise ValueError("catalog nests too deeply") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"catalog is not valid JSON: {exc}") from None
    if not isinstance(raw, dict) or not isinstance(raw.get("entries"), list):
        raise ValueError("catalog must be a JSON object with an 'entries' list")
    if "version" not in raw:
        raise ValueError("catalog has no 'version' key")
    if not isinstance(raw["version"], str):
        raise ValueError(f"catalog has version {raw['version']!r}; it must be a string")
    entries = tuple(ConstantCheck.from_json(d) for d in raw["entries"])
    names = [e.name for e in entries]
    if len(set(names)) != len(names):
        raise ValueError("catalog entry names are not unique")
    return Catalog(
        version=raw["version"],
        tolerance=_valid_tolerance(raw.get("tolerance", DEFAULT_TOLERANCE)),
        default_grid=_valid_grid(raw.get("default_grid", DEFAULT_GRID)),
        entries=entries,
    )


# ----- custom evaluators -----

_RATIO_TOP_R = int(math.exp(16.0))  # 8886110: r runs over 1 .. floor(e^16)
# The floor(e^16)-th odd prime is p_n with n = _RATIO_TOP_R + 1, and
# p_n < n (log n + loglog n) for n >= 6 (Rosser 1938): 166,815,308.
_RATIO_SIEVE_LIMIT = math.ceil((_RATIO_TOP_R + 1) * (math.log(_RATIO_TOP_R + 1)
                                                     + _loglog(_RATIO_TOP_R + 1)))


def _odd_prime_ratio_segments(hi: int) -> Iterator[Tuple[int, np.ndarray]]:
    """Yield (r0, ratio) for r = 1 .. hi, one prime segment at a time, where
    ratio[i] = prod_{odd p <= p2(r)} p/(p-1) / loglog(r) at r = r0 + i and
    p2(r) is the r-th odd prime; ratio is -inf for r < 4, where loglog(r)
    is undefined or negative.

    The log-product is carried into each segment's first increment before
    np.cumsum, which adds left to right, so every value is bit-identical
    to one cumsum over the whole range.
    """
    chunks = itertools.chain(
        [primes_up_to(primes.Config.SMALL_SIEVE_LIMIT)[1:]],  # drop 2
        primes._segments(primes.Config.SMALL_SIEVE_LIMIT + 1, _RATIO_SIEVE_LIMIT + 1),
    )
    r0, carry = 1, 0.0
    for chunk in chunks:
        odd = chunk[:hi - r0 + 1].astype(np.float64)
        inc = np.log(odd) - np.log(odd - 1.0)
        inc[0] += carry
        log_product = np.cumsum(inc)
        carry = float(log_product[-1])
        r = np.arange(r0, r0 + odd.size, dtype=np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.exp(log_product) / np.log(np.log(r))
        ratio[:max(0, 4 - r0)] = -np.inf
        yield r0, ratio
        r0 += odd.size
        if r0 > hi:
            return


def _eval_odd_prime_mertens_ratio(entry: ConstantCheck) -> Tuple[float, float]:
    """Exact max of the odd-prime product ratio over the entry's integers
    r in [4, floor(e^16)], and the first r attaining it."""
    lo = max(4, math.ceil(entry.domain_lo))
    hi = _RATIO_TOP_R if entry.domain_hi >= _RATIO_TOP_R else math.floor(entry.domain_hi)
    if lo > hi:
        raise ValueError(f"custom entry {entry.name!r} has no integer r in [4, {_RATIO_TOP_R}] "
                         f"(its window is [{lo}, {hi}])")
    best, at = -math.inf, lo
    for r0, ratio in _odd_prime_ratio_segments(hi):
        skip = max(lo - r0, 0)
        if skip < ratio.size:
            idx = skip + int(np.argmax(ratio[skip:]))
            if ratio[idx] > best:  # strict: the first maximum wins, as in np.argmax
                best, at = float(ratio[idx]), r0 + idx
    return best, float(at)


_CUSTOM_EVALUATORS: Dict[str, Callable[[ConstantCheck], Tuple[float, float]]] = {
    "odd_prime_mertens_ratio": _eval_odd_prime_mertens_ratio,
}


# ----- maximization -----

def _golden_refine(
    fn: Callable[[float], float], a: float, b: float, maximize: bool
) -> Tuple[float, float]:
    """Golden-section refinement of a single interior extremum on [a, b]."""
    sign = 1.0 if maximize else -1.0
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1 = sign * fn(x1)
    f2 = sign * fn(x2)
    for _ in range(200):
        if b - a <= 1e-13 * max(1.0, abs(a)):
            break
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = sign * fn(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = sign * fn(x1)
    xs = (x1, x2)
    fs = (f1, f2)
    best = 0 if fs[0] >= fs[1] else 1
    return sign * fs[best], xs[best]


def _scan_extremum(
    fn: Callable[[float], float],
    lo: float,
    hi: float,
    points: int,
    maximize: bool,
) -> Tuple[float, float]:
    """Grid scan plus golden polish; returns (extremum, location)."""
    if lo > 0.0 and hi / lo > 100.0:
        with np.errstate(over="ignore"):  # logspace's power overflows on the way to hi near 1e308
            grid = np.geomspace(lo, hi, points)
    else:
        grid = np.linspace(lo, hi, points)
    grid[0], grid[-1] = lo, hi
    vals = np.array([fn(float(t)) for t in grid])
    idx = int(np.argmax(vals) if maximize else np.argmin(vals))
    a = float(grid[max(idx - 1, 0)])
    b = float(grid[min(idx + 1, points - 1)])
    refined, at = _golden_refine(fn, a, b, maximize)
    base = float(vals[idx])
    if (maximize and refined >= base) or (not maximize and refined <= base):
        return refined, at
    return base, float(grid[idx])


_TAIL_SAMPLES = 24
_TAIL_SPAN = 1.0e3  # sample the tail out to scan_hi * span


def _tail_points(scan_hi: float) -> np.ndarray:
    return np.geomspace(scan_hi, scan_hi * _TAIL_SPAN, _TAIL_SAMPLES)


# ----- verification -----

def verify_constant(
    entry: ConstantCheck,
    grid: int = DEFAULT_GRID,
    tolerance: float = DEFAULT_TOLERANCE,
) -> ConstantCheck:
    """Complete one entry: recompute its extremum and fill the verdict.

    Closed-form entries with an unbounded domain are scanned up to
    scan_hi and then spot-sampled beyond it; this is only sound when
    the entry declares its tail behavior, so a missing tail_note yields
    the verdict unverifiable-by-grid.
    """
    if entry.kind == "axiom":
        return replace(entry, recomputed_sup=entry.claimed, sup_at=None, margin=0.0,
                       verdict="pass")

    if entry.kind == "custom":
        sup, at = _CUSTOM_EVALUATORS[entry.expression](entry)
        return _complete(entry, sup, at, tolerance)

    # a catalog file holds many entries; name the one whose expression fails
    try:
        expr = compile_expression(entry.expression)
    except ValueError as exc:
        raise ValueError(f"entry {entry.name!r}: {exc}") from None

    def fn(t: float) -> float:
        try:
            return expr(t)
        except ValueError as exc:
            raise ValueError(f"entry {entry.name!r}: {exc}") from None

    if entry.kind in ("arithmetic", "value"):
        val = fn(2.0)
        if fn(3.0) != val:
            raise ValueError(
                f"entry {entry.name!r} is {entry.kind} but its expression depends on t"
            )
        return _complete(entry, val, None, tolerance)

    maximize = entry.direction == "sup_le"
    unbounded = math.isinf(entry.domain_hi)
    if unbounded and not entry.tail_note:
        return replace(entry, recomputed_sup=None, sup_at=None, margin=None,
                       verdict="unverifiable-by-grid")
    scan_hi = entry.scan_hi
    if scan_hi is None:
        scan_hi = DEFAULT_SCAN_HI if unbounded else entry.domain_hi
    scan_hi = min(scan_hi, entry.domain_hi)
    best, at = _scan_extremum(fn, entry.domain_lo, scan_hi, grid, maximize)
    if unbounded:
        # declared-tail spot check: the samples join the candidate set,
        # so visible tail growth is never silently discarded
        for t in _tail_points(scan_hi):
            v = fn(float(t))
            if (maximize and v > best) or (not maximize and v < best):
                best, at = v, float(t)
    return _complete(entry, best, at, tolerance)


def _complete(entry: ConstantCheck, extremum: float, at: Optional[float],
              tolerance: float) -> ConstantCheck:
    # a grid point may evaluate to NaN or inf; the extremum reported may not
    if not math.isfinite(extremum):
        raise ValueError(f"entry {entry.name!r}: the recomputed extremum {extremum} is not finite")
    margin = _MARGINS[entry.direction](extremum, entry.claimed)
    return replace(entry, recomputed_sup=extremum, sup_at=at, margin=margin,
                   verdict="pass" if margin <= tolerance else "exceed")


def verify_all(
    catalog: Optional[Catalog] = None,
    grid: Optional[int] = None,
    tolerance: Optional[float] = None,
    names: Optional[List[str]] = None,
) -> List[ConstantCheck]:
    """Verify every entry (or the named subset), sorted by entry name."""
    cat = catalog or load_catalog()
    tol = _valid_tolerance(cat.tolerance if tolerance is None else tolerance)
    res = _valid_grid(cat.default_grid if grid is None else grid)
    selected = cat.entries
    if names is not None:
        wanted = set(names)
        selected = tuple(e for e in cat.entries if e.name in wanted)
        missing = wanted - {e.name for e in selected}
        if missing:
            raise KeyError(f"no catalog entry named {sorted(missing)}")
    done = [verify_constant(e, grid=res, tolerance=tol) for e in selected]
    return sorted(done, key=lambda e: e.name)
