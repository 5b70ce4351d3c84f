"""Gamma-family special functions and generic numerical utilities.

The incomplete gamma here differs from the scipy one in a single way that
matters for this package: the shape argument may be zero or negative.  The
integral Gamma(a, x) = int_x^inf t^(a-1) e^(-t) dt converges for every real
a as long as x > 0, and negative shapes show up routinely in the limited
moment formulas of the composite models.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy import integrate as _integrate
from scipy import optimize as _optimize
from scipy import special as _special

__all__ = [
    "QuadratureError",
    "BracketError",
    "QuadratureResult",
    "ln_gamma",
    "upper_incomplete_gamma",
    "lower_incomplete_gamma",
    "adaptive_quadrature",
    "find_root_bracketed",
]

# Hybrid absolute/relative target: converged means the combined error
# estimate stays within a small constant factor of max(tol, tol * |value|).
QUAD_TOL = 1e-10
QUAD_LIMIT = 200  # subintervals quadpack may use per panel
ROOT_RTOL = 1e-13  # relative tolerance of find_root_bracketed

_LOG_DBL_MAX = math.log(math.sqrt(2.0) * 2.0**1022)  # ~709.08, safely below overflow


class QuadratureError(RuntimeError):
    """Quadrature failed to reach the requested tolerance within budget."""


class BracketError(ValueError):
    """Root bracket endpoints do not straddle a sign change."""


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    abs_error_estimate: float
    evaluations: int

    def __post_init__(self) -> None:
        if not self.abs_error_estimate >= 0.0:
            raise ValueError("abs_error_estimate must be nonnegative")
        if self.evaluations < 1:
            raise ValueError("evaluations must be at least 1")


def ln_gamma(a: float) -> float:
    """Natural log of Gamma(a) for a > 0."""
    if not a > 0.0:
        raise ValueError(f"ln_gamma requires a > 0, got {a}")
    return math.lgamma(a)


def _as_batch(x) -> tuple[np.ndarray, bool]:
    """x as a 1-d float array, and whether it came in as a scalar."""
    arr = np.asarray(x, dtype=float)
    return np.atleast_1d(arr), arr.ndim == 0


def _maybe_scalar(out: np.ndarray, scalar: bool):
    return float(out[0]) if scalar else out


def _on_support(x, support: Callable, f: Callable, fill: float = 0.0):
    """f on the elements of x where support(x) holds, fill elsewhere.

    A float x gives a float, an array an array.
    """
    arr, scalar = _as_batch(x)
    out = np.full(arr.shape, fill)
    mask = support(arr)
    out[mask] = f(arr[mask])
    return _maybe_scalar(out, scalar)


def _upper_positive(a: float, x: np.ndarray) -> np.ndarray:
    # Unregularized Gamma(a, x) for a > 0, x >= 0, computed in log space so a
    # large Gamma(a) cannot overflow an otherwise moderate result.
    with np.errstate(divide="ignore"):
        log_val = math.lgamma(a) + np.log(_special.gammaincc(a, x))
    big = log_val > _LOG_DBL_MAX
    if big.any():
        raise OverflowError(
            f"upper_incomplete_gamma({a}, {x[big][0]}) exceeds float range"
        )
    return np.exp(log_val)


def upper_incomplete_gamma(a: float, x):
    """Unregularized upper incomplete gamma Gamma(a, x), any real shape a.

    Elementwise over x: a float x gives a float, an array an array.  For
    a <= 0 the value is obtained from the recurrence

        Gamma(a, x) = (Gamma(a + 1, x) - x^a e^(-x)) / a

    applied repeatedly until the shape is lifted into (0, 1], where the
    standard positive-shape routine takes over.  Shape zero is the
    exponential integral E1(x).

    Raises ValueError for x < 0, and for x == 0 when a <= 0 (the integral
    diverges at the origin there).  Raises OverflowError when the result
    exceeds the double range.
    """
    arr, scalar = _as_batch(x)
    if math.isnan(a) or np.isnan(arr).any():
        raise ValueError("upper_incomplete_gamma requires finite arguments")
    if (arr < 0.0).any():
        raise ValueError(f"upper_incomplete_gamma requires x >= 0, got x={arr.min()}")
    if a <= 0.0 and (arr == 0.0).any():
        raise ValueError(f"upper_incomplete_gamma diverges at x=0 for a={a} <= 0")
    if a > 0.0:
        return _maybe_scalar(_upper_positive(a, arr), scalar)  # Gamma(a, 0) = Gamma(a)
    if a == 0.0:
        return _maybe_scalar(_special.exp1(arr), scalar)

    # Step the recurrence down from a chain head the direct routines can
    # evaluate.  Negative integer shapes pass through shape zero, where the
    # recurrence divides by zero, so their chain starts at E1 instead.
    # Shapes within a few ulp of an integer are snapped onto it: the
    # recurrence is ill-conditioned that close, and the snap perturbs the
    # result by a comparable relative amount.
    nearest = round(a)
    if abs(a - nearest) <= 4.0 * sys.float_info.epsilon * max(1.0, -a):
        n = int(-nearest)
        head = 0.0
        value = _special.exp1(arr)
    else:
        n = int(math.ceil(-a))
        head = a + n  # in (0, 1), bounded away from the ends by the snap
        value = _upper_positive(head, arr)
    log_x = np.log(arr)
    for i in range(n):
        s = head - 1.0 - i  # current shape being recovered
        term = np.exp(s * log_x - arr)
        value = (value - term) / s
        if np.isinf(value).any():
            raise OverflowError(
                f"upper_incomplete_gamma({a}, {x}) exceeds float range"
            )
    return _maybe_scalar(value, scalar)


def lower_incomplete_gamma(a: float, x):
    """Unregularized lower incomplete gamma for a > 0, x >= 0.

    Elementwise over x: a float x gives a float, an array an array.
    """
    if not a > 0.0:
        raise ValueError(f"lower_incomplete_gamma requires a > 0, got {a}")
    arr, scalar = _as_batch(x)
    if (arr < 0.0).any():
        raise ValueError(f"lower_incomplete_gamma requires x >= 0, got x={arr.min()}")
    with np.errstate(divide="ignore"):
        value = np.exp(math.lgamma(a) + np.log(_special.gammainc(a, arr)))
    return _maybe_scalar(value, scalar)


def adaptive_quadrature(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    *,
    breakpoints: Sequence[float] | None = None,
    tol: float = QUAD_TOL,
) -> QuadratureResult:
    """Integrate f over (lo, hi), hi may be inf.

    Interior breakpoints (kinks of piecewise integrands) split the integral
    so the adaptive rule never straddles them.  Non-convergence within the
    subdivision budget raises QuadratureError rather than returning a value
    of unknown quality.
    """
    if not lo < hi:
        raise ValueError(f"adaptive_quadrature requires lo < hi, got [{lo}, {hi}]")
    pts = sorted(p for p in (breakpoints or ()) if lo < p < hi)
    edges = [lo, *pts, hi]
    total = 0.0
    err = 0.0
    neval = 0
    for a, b in zip(edges[:-1], edges[1:]):
        val, abserr, info, *tail = _integrate.quad(
            f, a, b, epsabs=tol, epsrel=tol, limit=QUAD_LIMIT, full_output=1
        )
        if tail:  # quadpack appended a warning message
            raise QuadratureError(
                f"quadrature on [{a}, {b}] did not converge: {tail[0]}"
            )
        total += val
        err += abserr
        neval += int(info["neval"])
    # quadpack error estimates are conservative upper bounds and they add
    # across split panels, so a strict comparison against tol rejects results
    # that are far more accurate than requested; allow modest headroom.
    if err > 10.0 * max(tol, tol * abs(total)):
        raise QuadratureError(
            f"quadrature error estimate {err:.3e} exceeds tolerance for "
            f"integral over [{lo}, {hi}] (value {total:.6e})"
        )
    return QuadratureResult(value=total, abs_error_estimate=err, evaluations=neval)


def find_root_bracketed(f: Callable[[float], float], lo: float, hi: float) -> float:
    """Root of f in [lo, hi]; endpoints must straddle a sign change.

    Brent-style interpolation with a bisection safeguard, so convergence is
    guaranteed on a valid bracket.
    """
    if not lo < hi:
        raise ValueError(f"find_root_bracketed requires lo < hi, got [{lo}, {hi}]")
    flo = f(lo)
    fhi = f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if math.copysign(1.0, flo) == math.copysign(1.0, fhi):
        raise BracketError(
            f"f({lo})={flo:.6e} and f({hi})={fhi:.6e} do not bracket a root"
        )
    return float(_optimize.brentq(f, lo, hi, xtol=1e-300, rtol=ROOT_RTOL))
