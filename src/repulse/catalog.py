"""Declarative catalog of explicit constants and their verification.

Every named constant used by the bound chains is registered as a data
entry: a closed-form expression of one real variable, a domain, the
claimed constant, and a tail note for unbounded domains.  The verifier
recomputes the supremum (or infimum, per the entry's direction) on a
refining grid with golden-section polish and compares it against the
claim within an absolute tolerance.

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
import json
import math
from dataclasses import dataclass, replace
from functools import lru_cache
from importlib import resources
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from . import bounds
from .primes import primes_up_to

DEFAULT_TOLERANCE = 2e-3
DEFAULT_GRID = 4001
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
    "delta": bounds.delta,
    "delta_psi": bounds.delta_psi,
    "eta": bounds.eta,
    "eta_psi": bounds.eta_psi,
    "exp_correction": bounds.exp_correction,
    "boundary_log_count": bounds.boundary_log_count,
    "epsilon_boundary_factor": bounds.epsilon_boundary_factor,
}


def compile_expression(text: str) -> Callable[[float], float]:
    """Compile a whitelisted arithmetic expression of t into a callable.

    Only arithmetic operators, the registered function names, and the
    registered constants are admitted; anything else raises ValueError.
    Integer literals are compiled as floats, so a power such as 9**9**9
    overflows instead of being computed exactly; an overflow or a division
    by zero during evaluation raises ValueError naming the expression and t.
    """
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise ValueError(f"bad expression {text!r}: {exc}") from None
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
        if isinstance(node, ast.Constant) and type(node.value) is int:
            try:
                node.value = float(node.value)
            except OverflowError:
                raise ValueError(f"expression {text!r} has a literal beyond float range") from None
    code = compile(tree, "<catalog>", "eval")

    def fn(t: float) -> float:
        try:
            return float(eval(code, {"__builtins__": {}}, {**_NAMESPACE, "t": t}))
        except ArithmeticError as exc:
            raise ValueError(f"expression {text!r} fails at t = {t}: {exc}") from None

    fn.__name__ = f"expr_{abs(hash(text)) % 10**8}"
    return fn


# ----- entry / record type -----

@dataclass(frozen=True)
class ConstantCheck:
    """One catalog entry, optionally completed with verification data.

    `recomputed_sup` holds the recomputed extremum in the direction of
    the claim (a supremum for sup_le entries, an infimum for inf_ge
    entries); `margin` is positive exactly when the recomputed value
    lands on the wrong side of the claim, and the verdict is pass iff
    margin <= tolerance.
    """

    name: str
    kind: str  # closed_form | arithmetic | value | custom | axiom
    direction: str  # sup_le | inf_ge | two_sided
    expression: str
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

    def to_json(self) -> dict:
        out = {
            "name": self.name,
            "kind": self.kind,
            "direction": self.direction,
            "expression": self.expression,
            "domain": [
                self.domain_lo,
                None if math.isinf(self.domain_hi) else self.domain_hi,
            ],
            "claimed": self.claimed,
            "flagged": self.flagged,
            "integer_domain": self.integer_domain,
            "scan_hi": self.scan_hi,
            "tail_note": self.tail_note,
            "note": self.note,
            "cite": self.cite,
            "recomputed_sup": self.recomputed_sup,
            "sup_at": self.sup_at,
            "margin": self.margin,
            "verdict": self.verdict,
        }
        return out

    @staticmethod
    def from_json(d: dict) -> "ConstantCheck":
        lo, hi = d["domain"]
        return ConstantCheck(
            name=d["name"],
            kind=d["kind"],
            direction=d["direction"],
            expression=d["expression"],
            domain_lo=float(lo),
            domain_hi=math.inf if hi is None else float(hi),
            claimed=float(d["claimed"]),
            flagged=bool(d.get("flagged", False)),
            integer_domain=bool(d.get("integer_domain", False)),
            scan_hi=d.get("scan_hi"),
            tail_note=d.get("tail_note"),
            note=d.get("note"),
            cite=d.get("cite"),
            recomputed_sup=d.get("recomputed_sup"),
            sup_at=d.get("sup_at"),
            margin=d.get("margin"),
            verdict=d.get("verdict"),
        )


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


def load_catalog(path: Optional[str] = None) -> Catalog:
    """Load the packaged default catalog, or a JSON file override."""
    if path is None:
        text = (
            resources.files("repulse").joinpath("data/constants.json").read_text()
        )
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    raw = json.loads(text)
    entries = tuple(ConstantCheck.from_json(d) for d in raw["entries"])
    names = [e.name for e in entries]
    if len(set(names)) != len(names):
        raise ValueError("catalog entry names are not unique")
    return Catalog(
        version=raw["version"],
        tolerance=float(raw.get("tolerance", DEFAULT_TOLERANCE)),
        default_grid=int(raw.get("default_grid", DEFAULT_GRID)),
        entries=entries,
    )


# ----- custom evaluators -----

@lru_cache(maxsize=1)
def _odd_prime_ratio_table() -> np.ndarray:
    """ratio[r-1] = prod_{odd p <= p2(r)} p/(p-1) / loglog(r) where
    p2(r) is the r-th odd prime, for r = 1 .. floor(e^16)."""
    hi_r = int(math.exp(16.0))  # 8886110
    odd = primes_up_to(170_000_000)[1:]  # drop 2
    if odd.size < hi_r:
        raise ArithmeticError("prime sieve bound too small for the ratio table")
    odd = odd[:hi_r].astype(np.float64)
    log_product = np.cumsum(np.log(odd) - np.log(odd - 1.0))
    r = np.arange(1, hi_r + 1, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.exp(log_product) / np.log(np.log(r))
    ratio[:3] = -np.inf  # loglog undefined or negative below r = 4
    return ratio


def _eval_odd_prime_mertens_ratio(entry: ConstantCheck) -> Tuple[float, float]:
    table = _odd_prime_ratio_table()
    lo = max(4, int(math.ceil(entry.domain_lo)))
    hi = min(table.size, int(math.floor(entry.domain_hi)))
    window = table[lo - 1 : hi]
    idx = int(np.argmax(window))
    return float(window[idx]), float(lo + idx)


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
        return replace(
            entry,
            recomputed_sup=entry.claimed,
            sup_at=None,
            margin=0.0,
            verdict="pass",
        )

    if entry.kind == "custom":
        evaluator = _CUSTOM_EVALUATORS.get(entry.expression)
        if evaluator is None:
            raise ValueError(f"unknown custom evaluator {entry.expression!r}")
        sup, at = evaluator(entry)
        return _complete(entry, sup, at, tolerance)

    fn = compile_expression(entry.expression)

    if entry.kind in ("arithmetic", "value"):
        val = fn(2.0)
        if fn(3.0) != val:
            raise ValueError(
                f"entry {entry.name!r} is {entry.kind} but its expression depends on t"
            )
        return _complete(entry, val, None, tolerance)

    if entry.kind != "closed_form":
        raise ValueError(f"unknown entry kind {entry.kind!r}")

    maximize = entry.direction == "sup_le"
    unbounded = math.isinf(entry.domain_hi)
    if unbounded and not entry.tail_note:
        return replace(entry, verdict="unverifiable-by-grid")
    scan_hi = entry.scan_hi or (DEFAULT_SCAN_HI if unbounded else entry.domain_hi)
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


def _complete(
    entry: ConstantCheck,
    extremum: float,
    at: Optional[float],
    tolerance: float,
) -> ConstantCheck:
    if entry.direction == "sup_le":
        margin = extremum - entry.claimed
    elif entry.direction == "inf_ge":
        margin = entry.claimed - extremum
    elif entry.direction == "two_sided":
        margin = abs(extremum - entry.claimed)
    else:
        raise ValueError(f"unknown direction {entry.direction!r}")
    verdict = "pass" if margin <= tolerance else "exceed"
    return replace(
        entry,
        recomputed_sup=extremum,
        sup_at=at,
        margin=margin,
        verdict=verdict,
    )


def verify_all(
    catalog: Optional[Catalog] = None,
    grid: Optional[int] = None,
    tolerance: Optional[float] = None,
    names: Optional[List[str]] = None,
) -> List[ConstantCheck]:
    """Verify every entry (or the named subset), sorted by entry name."""
    cat = catalog or load_catalog()
    tol = cat.tolerance if tolerance is None else tolerance
    res = grid or cat.default_grid
    selected = cat.entries
    if names is not None:
        wanted = set(names)
        selected = tuple(e for e in cat.entries if e.name in wanted)
        missing = wanted - {e.name for e in selected}
        if missing:
            raise KeyError(f"no catalog entry named {sorted(missing)}")
    done = [verify_constant(e, grid=res, tolerance=tol) for e in selected]
    return sorted(done, key=lambda e: e.name)
