"""Explicit correction factors and assembled bounds for the four
unit-offset equations.

The module has three layers:

* scalar correction factors ``delta``, ``delta1``, ``eta`` (and their
  psi-path twins) together with the exponential correction helpers that
  the constant catalog evaluates symbolically;
* closed-form upper bounds: ``thm21_pi_bound`` for the count of primes
  surviving a repulsive sieve, ``pu_upper_eq32`` for the Mertens-type
  product, and ``assemble_M`` for the multiplier M of an equation
  solution;
* ``theorem_check``, which compares an exact solution (n, M) against
  the headline triple-log and omega-log bounds, reporting pass / fail /
  not-applicable.  It validates its arguments once, reads the kernel n1
  and omega(n1) in one pass over the factorization, and returns a
  ``TheoremCheck`` holding two ``SubCheck``s.  Both are NamedTuples:
  immutable, hashable, cheap to build and to pickle, and also plain
  tuples, so they index, iterate, unpack, and compare equal to a tuple
  of the same values.

Chain-grid reports (``chain_grid_report``) evaluate the envelope
inequalities that link the correction factors to their advertised
linear envelopes on a dense grid; they are the basis of the acceptance
sweep and deliberately report violations instead of hiding them.

Claimed constants live in the packaged catalog, which recomputes them.
This module keeps only those it evaluates at run time (the correction
coefficients, ``CHAIN_CONSTANTS``, ``CHAIN_CUTOFFS`` and the headline
constants); a test pins each one to its catalog claim.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional

import numpy as np

# factor and profile are unused here but stay importable only because
# perfbench wraps bounds.factor and bounds.profile.
from .arith import (Factorization, _integer, dedekind_psi, euler_phi, factor, profile,
                    unitary_phi, unitary_sigma)

# 30-digit literals: B0 = gamma^2 - 2*gamma1 must reproduce 0.478809...
EULER_GAMMA = 0.577215664901532860606512090082
STIELTJES_GAMMA1 = -0.0728158454836767248605863758749
EIGHT_GAMMA = 8.0 * EULER_GAMMA
STIELTJES_B0 = EULER_GAMMA**2 - 2.0 * STIELTJES_GAMMA1

EIGHT_EGAMMA = 8.0 * math.exp(EULER_GAMMA)

# Correction constants of the four parallel derivations.  The first pair
# scales log log t, the second pair scales log t + log log t.
DELTA_CORRECTION = 1.01011
DELTA_CORRECTION_PSI = 1.00807
ETA_CORRECTION = 1.04204
ETA_CORRECTION_PSI = 1.03398

VARIANTS = ("phi", "uphi", "psi", "usigma")
TOTIENT_VARIANTS = ("phi", "uphi")

# Headline constants: M is bounded by TRIPLE_LOG[v] * logloglog(arg) and
# by OMEGA_LOG[v] * loglog(omega of the squarefree kernel).
TRIPLE_LOG_CONSTANTS = {
    "phi": 15.76515,
    "uphi": 19.44947,
    "psi": 15.52051,
    "usigma": 18.87067,
}
OMEGA_LOG_CONSTANTS = {
    "phi": 16.03235,
    "uphi": 19.77911,
    "psi": 15.72775,
    "usigma": 19.40333,
}
OMEGA_MINIMUM = 4

_E = math.e
_EXP_CAP = 700.0


# ----- correction factors -----

def _correction_quotient(t: float, c: float, widened: bool) -> float:
    """Shared core of delta and eta.

    (1 + 1/t)(1 + 1/(2t^3)) over the product of three denominator
    factors; `widened` switches the last factor's numerator from
    c*loglog t to c*(log t + loglog t).
    """
    t = float(t)
    if not _E < t < math.inf:
        raise ValueError(f"t = {t} out of range: need a finite t > e")
    lt = math.log(t)
    llt = math.log(lt)
    extra = (lt + llt) if widened else llt
    f1 = 1.0 - (lt - EIGHT_GAMMA) / t
    f2 = 1.0 - lt / t
    f3 = 1.0 - c * extra / (t * lt)
    if f1 <= 0.0 or f2 <= 0.0 or f3 <= 0.0:
        raise ValueError(f"denominator factor vanishes at t = {t}")
    num = (1.0 + 1.0 / t) * (1.0 + 0.5 / t**3)
    return num / (f1 * f1 * f2 * f3)


def delta(t: float) -> float:
    """Totient-path correction factor; tends to 1 as t grows."""
    return _correction_quotient(t, DELTA_CORRECTION, widened=False)


def delta_psi(t: float) -> float:
    """Psi-path twin of delta (smaller log-log coefficient)."""
    return _correction_quotient(t, DELTA_CORRECTION_PSI, widened=False)


def eta(t: float) -> float:
    """Omega-path correction factor: delta with c*(log t + loglog t)
    in place of c*loglog t.  Always >= delta(t) on the shared domain."""
    return _correction_quotient(t, ETA_CORRECTION, widened=True)


def eta_psi(t: float) -> float:
    """Psi-path twin of eta."""
    return _correction_quotient(t, ETA_CORRECTION_PSI, widened=True)


def delta1(t: float) -> float:
    """Quadratic remainder collected when log delta(t) is expanded:

        (log t - 8g)^2 / (t^2 (1 - |log t - 8g|/t))
      + (log t)^2 / (2 t^2 (1 - log t / t))

    with g the Euler-Mascheroni constant.
    """
    t = float(t)
    if not _E < t < math.inf:
        raise ValueError(f"t = {t} out of range: need a finite t > e")
    lt = math.log(t)
    gap = lt - EIGHT_GAMMA
    d1 = 1.0 - abs(gap) / t
    d2 = 1.0 - lt / t
    if d1 <= 0.0 or d2 <= 0.0:
        raise ValueError(f"denominator factor vanishes at t = {t}")
    return gap * gap / (t * t * d1) + lt * lt / (2.0 * t * t * d2)


# ----- exponential correction helpers (also exposed to the catalog) -----

def half_inverse_expm1(t: float) -> float:
    """1 / (2(e^t - 1)), flushed to 0 once e^t overflows a float."""
    if t > _EXP_CAP:
        return 0.0
    return 0.5 / math.expm1(t)


def exp_correction(t: float) -> float:
    """exp(1/(t log t) + 1/t + 1/(2(e^t - 1))): the exact factor that
    widens a truncated prime product to its Mertens envelope.  Its
    exponent is below 1.233076/t for t >= 73."""
    if not 1.0 < t < math.inf:
        raise ValueError(f"t = {t} out of range: need a finite t > 1")
    return math.exp(1.0 / (t * math.log(t)) + 1.0 / t + half_inverse_expm1(t))


def boundary_log_count(t: float) -> float:
    """The solution L of L + log L = t: up to 80 iterations of
    L -> t - log L, stopping early at an exact float fixed point.

    The map is deterministic, so once one step returns its input every
    later step does too, and the early stop returns what 80 steps would.
    A t whose iterates never settle (a 2-cycle of neighbouring floats)
    runs all 80.  A t that is not finite is refused, since t = inf would
    iterate to NaN.

    L is the logarithm of the prime count in the boundary case where
    the count equals e^t divided by its own logarithm.
    """
    if not 1.0 < t < math.inf:
        raise ValueError(f"t = {t} out of range: need a finite t > 1")
    level = t - math.log(t)
    for _ in range(80):
        level, last = t - math.log(level), level
        if level == last:
            break
    return level


def epsilon_boundary_factor(t: float) -> float:
    """exp(1/(t log t) + 1/L + 1/(2(e^t - 1))) with L = boundary_log_count(t):
    the (1 + epsilon) correction at the boundary prime count."""
    if not 1.0 < t < math.inf:
        raise ValueError(f"t = {t} out of range: need a finite t > 1")
    level = boundary_log_count(t)
    return math.exp(
        1.0 / (t * math.log(t)) + 1.0 / level + half_inverse_expm1(t)
    )


def epsilon_correction(x2: float, r: int) -> float:
    """The correction epsilon with 1 + epsilon =
    exp(1/(log x2 loglog x2) + 1/log r + 1/(2(x2 - 1)))."""
    if not x2 > _E:
        raise ValueError(f"x2 = {x2} out of range: need x2 > e")
    if r < OMEGA_MINIMUM:
        raise ValueError(f"r = {r} out of range: need r >= {OMEGA_MINIMUM}")
    lx = math.log(x2)
    arg = 1.0 / (lx * math.log(lx)) + 1.0 / math.log(r)
    if x2 - 1.0 < 1e300:
        arg += 0.5 / (x2 - 1.0)
    return math.expm1(arg)


# ----- closed-form upper bounds -----

def thm21_pi_bound(x: float, p_u: float, proof_form: bool = False) -> float:
    """Upper bound for the number of primes up to x surviving a
    repulsive sieve with Mertens product p_u:

        8 e^g x (1 + 1/log x)(1 + 1/(2 log^3 x))
        / (p_u log x (1 - (loglog x - 8g)/log x)^2 (1 - loglog x/log x))

    `proof_form` replaces the 1/2 coefficient of 1/log^3 x by 0.49.
    """
    x = float(x)
    if not 0.0 < p_u < math.inf:
        raise ValueError(f"p_u = {p_u} out of range: need a finite p_u > 0")
    t = math.log(x)
    if not _E < t < math.inf:
        raise ValueError(f"x = {x} out of range: need a finite x > e^e")
    u = math.log(t)
    f1 = 1.0 - (u - EIGHT_GAMMA) / t
    f2 = 1.0 - u / t
    if f1 <= 0.0 or f2 <= 0.0:
        raise ValueError(f"denominator factor vanishes at x = {x}")
    cubic = 1.0 + (0.49 if proof_form else 0.5) / t**3
    return (
        EIGHT_EGAMMA * x * (1.0 + 1.0 / t) * cubic
        / (p_u * t * f1 * f1 * f2)
    )


def pu_upper_eq32(x: float, theta_u: float) -> float:
    """Upper bound 8 e^g * delta(log x) * loglog(theta_u) for the
    Mertens product of a repulsive prime set with weighted sum theta_u.
    Requires theta_u > e so the iterated logarithm is positive."""
    x = float(x)
    theta_u = float(theta_u)
    if not _E < theta_u < math.inf:
        raise ValueError(f"theta_u = {theta_u} out of range: need a finite theta_u > e")
    t = math.log(x)
    return EIGHT_EGAMMA * delta(t) * math.log(math.log(theta_u))


# ----- chain-grid reports -----

# envelope constants per (correction, kind); kind "log" bounds
# log f(t) < (3 log t - c)/t, kind "linear" bounds f(t) < 1 + (3 log t - c)/t
CHAIN_CONSTANTS = {
    ("delta", "log"): 7.75695,
    ("delta", "linear"): 7.55957,
    ("delta_psi", "log"): 7.78512,
    ("delta_psi", "linear"): 7.59129,
    ("eta", "log"): 7.05655,
    ("eta", "linear"): 6.80452,
    ("eta_psi", "log"): 7.08521,
    ("eta_psi", "linear"): 6.8383,
}

CHAIN_CUTOFFS = {"delta": 73.0, "delta_psi": 95.0, "eta": 72.0, "eta_psi": 93.0}

_CORRECTION_FNS = {
    "delta": delta,
    "delta_psi": delta_psi,
    "eta": eta,
    "eta_psi": eta_psi,
}


def chain_margin(t: float, correction: str = "delta", kind: str = "log") -> float:
    """Envelope minus correction at t; positive means the chain
    inequality holds there."""
    c = CHAIN_CONSTANTS[(correction, kind)]
    f = _CORRECTION_FNS[correction](t)
    envelope = (3.0 * math.log(t) - c) / t
    if kind == "log":
        return envelope - math.log(f)
    return 1.0 + envelope - f


@dataclass(frozen=True)
class ChainGridReport:
    """Minimum chain margin over a log-spaced grid, with violation
    bookkeeping.  A violation is a grid point with margin <= 0."""

    correction: str
    kind: str
    lo: float
    hi: float
    points: int
    min_margin: float
    argmin: float
    violations: int
    first_violation: Optional[float]
    last_violation: Optional[float]

    def __bool__(self) -> bool:
        return self.violations == 0


def chain_grid_report(
    correction: str = "delta",
    kind: str = "log",
    lo: Optional[float] = None,
    hi: float = 1.0e6,
    points: int = 20001,
) -> ChainGridReport:
    """Evaluate chain_margin over a log-spaced grid of `points` values
    spanning [lo, hi] (lo defaults to the path cutoff)."""
    if (correction, kind) not in CHAIN_CONSTANTS:
        raise ValueError(f"unknown chain {correction!r}/{kind!r}")
    if lo is None:
        lo = CHAIN_CUTOFFS[correction]
    if not (0.0 < lo < hi < math.inf and points >= 2):
        raise ValueError(f"bad grid [{lo}, {hi}] with {points} points")
    grid = np.geomspace(lo, hi, points)
    grid[0], grid[-1] = lo, hi
    min_margin = math.inf
    argmin = lo
    violations = 0
    first = last = None
    for t in grid:
        m = chain_margin(float(t), correction, kind)
        if m < min_margin:
            min_margin, argmin = m, float(t)
        if m <= 0.0:
            violations += 1
            if first is None:
                first = float(t)
            last = float(t)
    return ChainGridReport(
        correction=correction,
        kind=kind,
        lo=float(lo),
        hi=float(hi),
        points=points,
        min_margin=min_margin,
        argmin=argmin,
        violations=violations,
        first_violation=first,
        last_violation=last,
    )


# ----- exact multiplier and its assembled upper bound -----

def _check_variant_sign(variant: str, sign: int) -> None:
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if _integer("sign", sign) not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")


_VARIANT_FNS = {
    "phi": euler_phi,
    "uphi": unitary_phi,
    "psi": dedekind_psi,
    "usigma": unitary_sigma,
}


def solve_m(f: Factorization, variant: str, sign: int) -> Optional[int]:
    """Exact multiplier M of the variant equation at n = f.value, or None.

    Totient variants solve M * f(n) = n + sign; the psi and unitary
    sigma variants solve f(n) = M * n + sign.
    """
    _check_variant_sign(variant, sign)
    return _solve_m(f, variant, sign)


def _solve_m(f: Factorization, variant: str, sign: int) -> Optional[int]:
    # solve_m after its variant and sign checks, which the caller has made
    n = f.value
    if n < 2:
        raise ValueError(f"n = {n} out of range: need n >= 2")
    value = _VARIANT_FNS[variant](f)
    if variant in TOTIENT_VARIANTS:
        num, den = n + sign, value
    else:
        num, den = value - sign, n
    if num <= 0 or num % den != 0:
        return None
    return num // den


def assemble_M_exact(f: Factorization, variant: str, sign: int) -> Fraction:
    """Exact assembled upper bound on the multiplier M of n = f.value.

    Totient variants: (1 + 1/n) * prod(p/(p-1) over unitary primes)
    * prod(p^2/(p^2-1) over repeated primes); psi/usigma variants:
    1/n + prod((p+1)/p) * prod((p^2+1)/p^2), over the primes of f.
    """
    _check_variant_sign(variant, sign)
    n = f.value
    if n == 1:
        raise ValueError("n = 1 has no multiplier bound")
    totient = variant in TOTIENT_VARIANTS
    num = den = 1  # the product over the primes of f, as num/den
    for p, e in f.pairs:
        q = p if e == 1 else p * p
        num *= q if totient else q + 1
        den *= q - 1 if totient else q
    if totient:
        # (1 + 1/n) multiplies the whole product: the additive split
        # 1/n + prod(...) undercounts the equality case n = 15, M = 2.
        return Fraction((n + 1) * num, n * den)
    return Fraction(den + n * num, n * den)


def assemble_M(f: Factorization, variant: str, sign: int) -> float:
    """Float form of assemble_M_exact."""
    return float(assemble_M_exact(f, variant, sign))


# ----- theorem-style check of a solution -----

_E_E = math.exp(math.e)


class SubCheck(NamedTuple):
    """One bound comparison: M against constant * iterated log."""

    name: str
    applicable: bool
    argument: float
    bound: Optional[float]
    holds: Optional[bool]


class TheoremCheck(NamedTuple):
    """Combined verdict for a solution (n, M) of one variant equation.

    status is "pass" when every applicable bound holds, "fail" when an
    applicable bound is violated with M >= 2, and "not_applicable" when
    no bound applies (or only M = 1 cases are violated: those carry no
    content since the bounds target M >= 2).  bool() is False only for
    "fail".
    """

    n: int
    m: int
    variant: str
    sign: int
    status: str
    triple_log: SubCheck
    omega_log: SubCheck

    def __bool__(self) -> bool:
        return self.status != "fail"


def theorem_check(
    f: Factorization,
    m: int,
    variant: str,
    sign: int,
    verify_solution: bool = True,
) -> TheoremCheck:
    """Check the exact solution (n, M), n = f.value, against the headline bounds.

    The triple-log path compares M with c1 * logloglog(n) (totient and
    psi variants) or c1 * logloglog(n1) (unitary variants); it applies
    only when the argument exceeds e^e.  The omega path compares M with
    c2 * loglog(omega(n1)) and applies only when omega(n1) >= 4.  The
    kernel n1 is the product of the primes of f with exponent 1, and
    omega(n1) is their count.  With verify_solution (default) the pair
    must satisfy the equation exactly (as solve_m computes it), otherwise
    ValueError.
    """
    _check_variant_sign(variant, sign)
    if _integer("m", m) < 1:
        raise ValueError(f"m = {m} out of range: need m >= 1")
    n = f.value
    if verify_solution:
        expected = _solve_m(f, variant, sign)
        if expected != m:
            raise ValueError(
                f"(n, m) = ({n}, {m}) does not solve the "
                f"{variant}/{sign:+d} equation (exact m: {expected})"
            )

    kernel, r = 1, 0  # n1 and omega(n1)
    for p, e in f.pairs:
        if e == 1:
            kernel *= p
            r += 1

    tri_arg = n if variant in ("phi", "psi") else kernel
    if tri_arg > _E_E:
        tri_val = math.log(math.log(math.log(tri_arg)))
        tri_bound = TRIPLE_LOG_CONSTANTS[variant] * tri_val
        tri_holds = m < tri_bound
        tri = SubCheck("triple_log", True, tri_val, tri_bound, tri_holds)
    else:
        tri_holds = None
        tri = SubCheck("triple_log", False, float(tri_arg), None, None)

    if r >= OMEGA_MINIMUM:
        om_bound = OMEGA_LOG_CONSTANTS[variant] * math.log(math.log(r))
        om_holds = m < om_bound
        om = SubCheck("omega_log", True, float(r), om_bound, om_holds)
    else:
        om_holds = None
        om = SubCheck("omega_log", False, float(r), None, None)

    # holds is None where a bound does not apply
    if tri_holds is None and om_holds is None:
        status = "not_applicable"
    elif tri_holds is not False and om_holds is not False:
        status = "pass"
    elif m == 1:
        status = "not_applicable"
    else:
        status = "fail"
    return TheoremCheck(n, m, variant, sign, status, tri, om)
