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

__all__ = [
    "QuadratureError",
    "QuadratureResult",
    "upper_incomplete_gamma",
    "lower_incomplete_gamma",
    "adaptive_quadrature",
    "find_roots_bracketed",
]

# Hybrid absolute/relative target: converged means the combined error
# estimate stays within a small constant factor of max(tol, tol * |value|).
QUAD_TOL = 1e-10
QUAD_LIMIT = 200  # subintervals quadpack may use per panel
ROOT_RTOL = 1e-13  # relative tolerance of find_roots_bracketed
_ROOT_XTOL = 1e-300  # its absolute tolerance, tiny so that ROOT_RTOL governs
_ROOT_MAXITER = 100  # brentq's default iteration budget

_LOG_DBL_MAX = math.log(math.sqrt(2.0) * 2.0**1022)  # ~709.08, safely below overflow


class QuadratureError(RuntimeError):
    """Quadrature failed to reach the requested tolerance within budget."""


@dataclass(frozen=True)
class QuadratureResult:
    value: float  # read by verify_composite and bench/workloads.py's pricing-curves check


def _is_integer(value) -> bool:
    """Whether value is an int or a numpy integer; a bool is neither."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _as_batch(x) -> tuple[np.ndarray, bool]:
    """x as a 1-d float array, and whether it came in as a scalar."""
    arr = np.asarray(x, dtype=float)
    return np.atleast_1d(arr), arr.ndim == 0


def _maybe_scalar(out: np.ndarray, scalar: bool):
    return float(out[0]) if scalar else out


def _on_support(x, support: Callable, f: Callable, fill: float = 0.0):
    """f on the elements of x where support(x) holds, NaN at NaN, fill elsewhere.

    A float x gives a float, an array an array.
    """
    arr, scalar = _as_batch(x)
    out = np.full(arr.shape, fill)
    mask = support(arr)
    out[mask] = f(arr[mask])
    out[np.isnan(arr)] = np.nan
    return _maybe_scalar(out, scalar)


def _scipy_special():
    """scipy.special, imported by its first caller.

    It costs about 26 MB and 0.3 s at import, and exp-family fits and
    simulations and a density without a limited moment never call it, so
    no module imports it at load.
    """
    from scipy import special

    return special


def _upper_positive(a: float, x: np.ndarray) -> np.ndarray:
    # Unregularized Gamma(a, x) for a > 0, x >= 0, computed in log space so a
    # large Gamma(a) cannot overflow an otherwise moderate result.
    with np.errstate(divide="ignore"):
        log_val = math.lgamma(a) + np.log(_scipy_special().gammaincc(a, x))
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

    Raises ValueError for a shape that is not finite, for x NaN or x < 0,
    and for x == 0 when a <= 0 (the integral diverges at the origin there).
    Raises OverflowError when the result exceeds the double range.
    """
    arr, scalar = _as_batch(x)
    if not math.isfinite(a) or np.isnan(arr).any():
        raise ValueError(f"upper_incomplete_gamma requires a finite shape and no NaN x, got a={a}")
    if (arr < 0.0).any():
        raise ValueError(f"upper_incomplete_gamma requires x >= 0, got x={arr.min()}")
    if a <= 0.0 and (arr == 0.0).any():
        raise ValueError(f"upper_incomplete_gamma diverges at x=0 for a={a} <= 0")
    if a > 0.0:
        return _maybe_scalar(_upper_positive(a, arr), scalar)  # Gamma(a, 0) = Gamma(a)
    if a == 0.0:
        return _maybe_scalar(_scipy_special().exp1(arr), scalar)

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
        value = _scipy_special().exp1(arr)
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
    """Unregularized lower incomplete gamma for finite a > 0, x >= 0.

    Elementwise over x: a float x gives a float, an array an array.
    """
    if not 0.0 < a < math.inf:
        raise ValueError(f"lower_incomplete_gamma requires finite a > 0, got {a}")
    arr, scalar = _as_batch(x)
    if np.isnan(arr).any():
        raise ValueError("lower_incomplete_gamma requires no NaN x")
    if (arr < 0.0).any():
        raise ValueError(f"lower_incomplete_gamma requires x >= 0, got x={arr.min()}")
    with np.errstate(divide="ignore"):
        value = np.exp(math.lgamma(a) + np.log(_scipy_special().gammainc(a, arr)))
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
    # Imported here, by its one user, as _scipy_special imports scipy.special:
    # scipy.integrate imports scipy.optimize, and beyond scipy.special they
    # cost about 26 MB and 0.3 s at import that the fit, compare and simulate
    # paths never use.
    from scipy import integrate

    pts = sorted(p for p in (breakpoints or ()) if lo < p < hi)
    edges = [lo, *pts, hi]
    total = 0.0
    err = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        val, abserr, _, *tail = integrate.quad(
            f, a, b, epsabs=tol, epsrel=tol, limit=QUAD_LIMIT, full_output=1
        )
        if tail:  # quadpack appended a warning message
            raise QuadratureError(
                f"quadrature on [{a}, {b}] did not converge: {tail[0]}"
            )
        total += val
        err += abserr
    # quadpack error estimates are conservative upper bounds and they add
    # across split panels, so a strict comparison against tol rejects results
    # that are far more accurate than requested; allow modest headroom.
    if err > 10.0 * max(tol, tol * abs(total)):
        raise QuadratureError(
            f"quadrature error estimate {err:.3e} exceeds tolerance for "
            f"integral over [{lo}, {hi}] (value {total:.6e})"
        )
    return QuadratureResult(value=total)


def _brent_steps(xpre: float, xcur: float, fpre: float, fcur: float):
    """brentq.c's iteration from a bracket whose ends have opposite signs.

    A generator: it yields each point to evaluate, is sent the function's
    value there, and returns the root.  The names and the statements are
    brentq.c's; a zero divisor in the extrapolation, which gives C an
    infinite or NaN step, takes the bisection as C's test then does.
    """
    xblk = fblk = spre = scur = 0.0
    for _ in range(_ROOT_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (_ROOT_XTOL + ROOT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        stry = math.inf
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                divisor = dblk * dpre * (fblk - fpre)
                if divisor != 0.0:
                    stry = -fcur * (fblk * dblk - fpre * dpre) / divisor
        limit = 3 * abs(sbis) - delta
        if 2 * abs(stry) < (abs(spre) if abs(spre) < limit else limit):  # C's MIN
            spre, scur = scur, stry  # good short step
        else:
            spre = scur = sbis  # bisect
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = yield xcur
    raise RuntimeError(f"Failed to converge after {_ROOT_MAXITER} iterations, value is {xcur}")


def find_roots_bracketed(f: Callable, lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """Roots of many brackets at once: lane i's root in [lo[i], hi[i]].

    f(x, lanes) gives lane lanes[j]'s function at x[j].  The lanes run in
    lockstep: each round calls f once, over every lane still running, and
    each lane then takes one step of scipy's C brentq (Brent 1973) in float
    arithmetic, with xtol _ROOT_XTOL and rtol ROOT_RTOL, so its root has
    brentq's bits.  Each end is evaluated once, and an end where f is 0 is
    the root.  Returns (root, ok); ok is False, and root NaN, for a lane
    brentq refuses: a NaN value, or ends of one sign by their sign bits,
    even where the product of the end values underflows.  Raises
    ValueError naming the first lane without lo < hi, and RuntimeError
    when a lane has not converged within brentq's 100 iterations.
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    bad = np.flatnonzero(~(lo < hi))
    if bad.size:
        lane = bad[0]
        raise ValueError(
            f"find_roots_bracketed requires lo < hi, got [{lo[lane]}, {hi[lane]}] in lane {lane}"
        )
    size = lo.size
    ends = f(np.concatenate((lo, hi)), np.concatenate((np.arange(size),) * 2)).tolist()
    root = np.full(size, np.nan)
    ok = np.zeros(size, dtype=bool)
    running = []  # (lane, its steps, the point it waits on)

    def step(lane, steps, value):
        try:
            running.append((lane, steps, steps.send(value)))
        except StopIteration as converged:
            root[lane] = converged.value

    brackets = zip(lo.tolist(), hi.tolist(), ends[:size], ends[size:])
    for lane, (xa, xb, fa, fb) in enumerate(brackets):
        if math.isnan(fa) or math.isnan(fb):
            continue
        ok[lane] = True
        if fa == 0.0 or fb == 0.0:
            root[lane] = xa if fa == 0.0 else xb
        elif math.copysign(1.0, fa) != math.copysign(1.0, fb):
            step(lane, _brent_steps(xa, xb, fa, fb), None)
        else:
            ok[lane] = False
    while running:
        lanes, _, x = zip(*running)
        values = f(np.array(x), np.array(lanes)).tolist()
        rounds, running = running, []
        for (lane, steps, _), value in zip(rounds, values):
            if math.isnan(value):
                ok[lane] = False
            else:
                step(lane, steps, value)
    return root, ok
