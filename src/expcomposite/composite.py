"""Two-piece composite densities and the power-transform machinery.

A composite density splices a light-bodied head f1 on [0, theta) to a
Pareto-type tail f2 on [theta, inf), both weighted by one normalizing
constant c:

    pdf(x) = c * f1(x)   for 0 <= x < theta
    pdf(x) = c * f2(x)   for x >= theta

Conventions used throughout: the head cdf F1 is the full distribution
function of the head family on [0, inf); the tail cdf F2 is the
distribution function of the tail piece on its own support, so
F2(theta) = 0 and the tail carries probability mass exactly c.  Partial
moment functions follow the same split: the head one integrates
x^r * f1 from 0, the tail one from theta.

The power transform Y = X**(1/eta) maps a composite parent X to an
exponentiated composite with density

    c * f_i(y**eta) * eta * y**(eta - 1)

and piece boundary theta**(1/eta).  The transformed density is itself a
composite (see as_composite_spec), which is what makes repeated
exponentiation close under composition of the exponents.

Piece callables stored on a CompositeSpec must accept scalars or numpy
arrays, and every piece is given in closed form: the moment engine only
does arithmetic on them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .special import _as_batch, _maybe_scalar, adaptive_quadrature

__all__ = [
    "InfiniteMomentError",
    "LimitedMomentQuery",
    "CompositeSpec",
    "ExponentiatedComposite",
    "VerificationReport",
    "exponentiate",
    "as_composite_spec",
    "verify_composite",
]

# Relative step for the central-difference derivative checks.
DERIVATIVE_STEP_REL = 1e-6

# Relative tolerances of verify_composite, sized for models whose
# constants are stored at printed precision.  Exactly solved constants land
# orders of magnitude below these.
CONTINUITY_TOL = 1e-5
DERIVATIVE_TOL = 1e-4
NORMALIZATION_TOL = 1e-5


class InfiniteMomentError(ValueError):
    """Requested moment diverges: t/eta reaches the tail decay exponent."""


@dataclass(frozen=True)
class LimitedMomentQuery:
    """Order t and cap b of a limited moment E[(Y ^ b)^t].

    The cap may be a float or an array of caps.  Order zero is admitted
    because the answer is then exactly one, and so is cap zero, where the
    capped variable is zero.
    """

    order: float
    cap: float | np.ndarray

    def __post_init__(self) -> None:
        if not 0.0 <= self.order < math.inf:
            raise ValueError(f"limited-moment order must be finite and >= 0, got {self.order}")
        if not np.all(np.asarray(self.cap, dtype=float) >= 0.0):
            raise ValueError(f"limited-moment cap must be >= 0, got {self.cap}")


@dataclass(frozen=True)
class CompositeSpec:
    """Pieces and auxiliary functions of one composite density.

    Every field is required: the two piece densities, the breakpoint, the
    normalizing constant, the two cdfs, the tail survival, the two log
    densities, the two quantile inverses and the two partial moments, all
    in closed form.

    tail_moment_sup is the supremum of r with E[X^r] finite (the Pareto
    decay exponent of the tail piece).  Moment routines compare against it
    instead of attempting a divergent integral.
    """

    head_density: Callable
    tail_density: Callable
    breakpoint: float
    norm_const: float
    head_cdf: Callable
    tail_cdf: Callable
    tail_sf: Callable  # 1 - tail_cdf, without the cancellation
    # log densities take log(x), not x, so y**eta never has to be formed
    head_log_density: Callable  # log_x -> log f1(x)
    tail_log_density: Callable  # log_x -> log f2(x)
    head_ppf: Callable  # inverse of head_cdf
    tail_ppf: Callable  # inverse of tail_cdf
    head_partial_moment: Callable  # (u, r) -> int_0^u x^r f1
    tail_partial_moment: Callable  # (u, r) -> int_theta^u x^r f2
    tail_moment_sup: float

    def __post_init__(self) -> None:
        if not self.breakpoint > 0.0:
            raise ValueError(f"breakpoint must be > 0, got {self.breakpoint}")
        if not 0.0 < self.norm_const <= 1.0:
            raise ValueError(
                f"normalizing constant must lie in (0, 1], got {self.norm_const}"
            )
        if not self.tail_moment_sup > 0.0:
            raise ValueError("tail_moment_sup must be positive")


@dataclass(frozen=True)
class ExponentiatedComposite:
    """Distribution of Y = X**(1/exponent) for a composite parent X."""

    parent: CompositeSpec
    exponent: float

    def __post_init__(self) -> None:
        if not 0.0 < self.exponent < math.inf:
            raise ValueError(f"exponent must be positive and finite, got {self.exponent}")

    @property
    def breakpoint(self) -> float:
        """Piece boundary of the transformed density, theta**(1/eta)."""
        return self.parent.breakpoint ** (1.0 / self.exponent)

    @property
    def head_mass(self) -> float:
        return self.parent.norm_const * float(
            self.parent.head_cdf(self.parent.breakpoint)
        )

    # -- density ----------------------------------------------------------

    def _pdf_at_zero(self) -> float:
        if self.exponent > 1.0:
            return 0.0
        with np.errstate(all="ignore"):
            f10 = float(np.asarray(self.parent.head_density(0.0)))
        if math.isnan(f10):
            return 0.0
        if self.exponent == 1.0:
            return self.parent.norm_const * f10
        return math.inf if f10 > 0.0 else 0.0

    def _transformed(self, piece: Callable, y):
        """c * f(y**eta) * eta * y**(eta - 1) for one parent piece f."""
        eta = self.exponent
        with np.errstate(over="ignore", invalid="ignore"):
            dens = np.asarray(piece(y**eta), dtype=float)
        return _power_jacobian_times(self.parent.norm_const * dens, y, eta)

    def pdf(self, y):
        """Density of Y; zero for y < 0, tail branch at exactly y = breakpoint."""
        arr, scalar = _as_batch(y)
        out = np.zeros(arr.shape)
        yb = self.breakpoint
        head = (arr > 0.0) & (arr < yb)
        tail = arr >= yb
        if head.any():
            out[head] = self._transformed(self.parent.head_density, arr[head])
        if tail.any():
            out[tail] = self._transformed(self.parent.tail_density, arr[tail])
        zero = arr == 0.0
        if zero.any():
            out[zero] = self._pdf_at_zero()
        out[np.isnan(arr)] = np.nan
        return _maybe_scalar(out, scalar)

    def log_pdf(self, y):
        """log pdf(y) in log space; -inf where the density vanishes."""
        arr, scalar = _as_batch(y)
        out = np.full(arr.shape, -math.inf)
        eta = self.exponent
        log_c = math.log(self.parent.norm_const)
        log_eta = math.log(eta)
        yb = self.breakpoint
        head = (arr > 0.0) & (arr < yb)
        tail = arr >= yb
        for mask, log_piece in (
            (head, self.parent.head_log_density),
            (tail, self.parent.tail_log_density),
        ):
            if not mask.any():
                continue
            log_y = np.log(arr[mask])
            out[mask] = log_c + log_piece(eta * log_y) + log_eta + (eta - 1.0) * log_y
        out[np.isnan(arr)] = np.nan
        return _maybe_scalar(out, scalar)

    # -- distribution function and inverse --------------------------------

    def cdf(self, y):
        arr, scalar = _as_batch(y)
        out = np.zeros(arr.shape)
        eta = self.exponent
        c = self.parent.norm_const
        yb = self.breakpoint
        theta = self.parent.breakpoint
        f1_theta = float(self.parent.head_cdf(theta))
        f2_theta = float(self.parent.tail_cdf(theta))
        head = (arr > 0.0) & (arr < yb)
        tail = arr >= yb
        if head.any():
            out[head] = c * self.parent.head_cdf(arr[head] ** eta)
        if tail.any():
            out[tail] = c * f1_theta + c * (
                self.parent.tail_cdf(arr[tail] ** eta) - f2_theta
            )
        out[np.isnan(arr)] = np.nan
        return _maybe_scalar(np.clip(out, 0.0, 1.0), scalar)

    def quantile(self, u):
        """Inverse cdf on (0, 1) through the parent's piece quantiles.

        Raises OverflowError where a quantile exceeds the float range.
        """
        arr, scalar = _as_batch(u)
        if not np.all((arr > 0.0) & (arr < 1.0)):
            raise ValueError("quantile requires probabilities strictly inside (0, 1)")
        c = self.parent.norm_const
        hm = self.head_mass
        f2_theta = float(self.parent.tail_cdf(self.parent.breakpoint))
        x = np.empty(arr.shape)
        head = arr < hm
        tail = ~head
        if head.any():
            x[head] = self.parent.head_ppf(arr[head] / c)
        if tail.any():
            x[tail] = self.parent.tail_ppf((arr[tail] - hm) / c + f2_theta)
        with np.errstate(over="ignore"):
            y = x ** (1.0 / self.exponent)
        if not np.all(np.isfinite(y)):
            raise OverflowError(
                f"quantile x**(1/{self.exponent:g}) exceeds the float range"
            )
        return _maybe_scalar(y, scalar)

    def sample(self, n: int, seed: int) -> np.ndarray:
        """n inversion draws from a seeded generator; same seed, same draws."""
        if not (isinstance(n, (int, np.integer)) and n >= 1):
            raise ValueError(f"sample size must be a positive integer, got {n}")
        rng = np.random.default_rng(seed)
        return np.asarray(self.quantile(rng.random(int(n))))

    # -- moments -----------------------------------------------------------

    def moment(self, t: float) -> float:
        """E[Y^t] from the parent's partial moments, s = t/eta:

            c * [H(theta, s) + T(inf, s) - T(theta, s)]

        H and T are the head and tail partial moments.  Raises
        InfiniteMomentError when t/eta reaches the tail exponent.
        """
        _require_finite_moment(t, self.exponent, self.parent.tail_moment_sup)
        s = t / self.exponent
        parent = self.parent
        theta = parent.breakpoint
        return parent.norm_const * (
            float(parent.head_partial_moment(theta, s))
            + float(parent.tail_partial_moment(math.inf, s))
            - float(parent.tail_partial_moment(theta, s))
        )

    def limited_moment(self, q):
        """E[(Y ^ b)^t], elementwise over the cap b like pdf and cdf.

        Accepts a LimitedMomentQuery or an (order, cap) pair.  With
        s = t/eta, u1 = min(b**eta, theta) and u2 = max(b**eta, theta), one
        identity covers caps on both sides of the breakpoint:

            c * [H(u1, s) + T(u2, s) - T(theta, s)
                 + b**t * (F1(theta) - F1(u1) + S2(u2))]

        H and T are the head and tail partial moments, S2 = 1 - F2 the tail
        survival, and c times the last bracket is P(Y > b).  Order zero
        gives exactly one, and a positive order at cap zero exactly zero.
        Raises OverflowError where b**eta or the result leaves the float
        range.
        """
        if not isinstance(q, LimitedMomentQuery):
            q = LimitedMomentQuery(*q)
        t = q.order
        b, scalar = _as_batch(q.cap)
        if t == 0.0:
            return _maybe_scalar(np.ones(b.shape), scalar)
        eta = self.exponent
        s = t / eta
        parent = self.parent
        theta = parent.breakpoint
        c = parent.norm_const
        # an overflow in here leaves a non-finite value, refused below
        with np.errstate(over="ignore", invalid="ignore"):
            x = b**eta
            if np.isinf(x).any():  # would pass for an infinite cap
                raise OverflowError(f"cap**{eta:g} exceeds the float range")
            u1 = np.minimum(x, theta)
            u2 = np.maximum(x, theta)
            survival = (
                float(parent.head_cdf(theta)) - parent.head_cdf(u1) + parent.tail_sf(u2)
            )
            out = c * (
                parent.head_partial_moment(u1, s)
                + parent.tail_partial_moment(u2, s)
                - float(parent.tail_partial_moment(theta, s))
                + _cap_power_times(b, t, survival)
            )
        if not np.isfinite(out).all():
            raise OverflowError(f"limited moment of order {t} exceeds the float range")
        return _maybe_scalar(out, scalar)


def _power_jacobian_times(dens, y, eta: float):
    """dens * eta * y**(eta - 1): a density of X = Y**eta carried to Y.

    y**eta can overflow (or the jacobian blow up at tiny y when eta < 1)
    while the density underflows to 0; the density always wins, so a
    vanished density forces a zero product instead of 0 * inf = nan.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return np.where(dens == 0.0, 0.0, dens * eta * y ** (eta - 1.0))


def _cap_power_times(b: np.ndarray, t: float, w: np.ndarray) -> np.ndarray:
    """b**t * w, through logs where b**t alone overflows but the product need not."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        bt = b**t
        return np.where(np.isinf(bt), np.exp(t * np.log(b) + np.log(w)), bt * w)


def _require_finite_moment(t: float, eta: float, sup: float) -> None:
    """Reject t <= 0 and orders whose moment diverges (t/eta >= sup)."""
    if not t > 0.0:
        raise ValueError(f"moment order must be > 0, got {t}")
    if t / eta >= sup:
        raise InfiniteMomentError(
            f"moment of order {t} diverges: t/eta = {t / eta} "
            f"reaches the tail exponent {sup}"
        )


@dataclass(frozen=True)
class VerificationReport:
    """Smoothness and normalization diagnostics at the piece boundary."""

    continuity_gap: float  # |g1 - g2| / g1 at the breakpoint
    derivative_gap: float  # |g1' - g2'| / max(1, |g1'|), central differences
    normalization_defect: float  # |integral of pdf - 1|
    # plain class attributes, not fields: every report uses these thresholds
    continuity_tol = CONTINUITY_TOL
    derivative_tol = DERIVATIVE_TOL
    normalization_tol = NORMALIZATION_TOL

    @property
    def continuity_ok(self) -> bool:
        return self.continuity_gap <= self.continuity_tol

    @property
    def derivative_ok(self) -> bool:
        return self.derivative_gap <= self.derivative_tol

    @property
    def normalization_ok(self) -> bool:
        return self.normalization_defect <= self.normalization_tol

    @property
    def passed(self) -> bool:
        return self.continuity_ok and self.derivative_ok and self.normalization_ok


def verify_composite(d: ExponentiatedComposite) -> VerificationReport:
    """Measure continuity/differentiability gaps at the breakpoint and the
    normalization defect.  Always returns the diagnostics; the fixed
    thresholds only classify them."""
    u = d.breakpoint
    g1 = lambda y: float(d._transformed(d.parent.head_density, y))
    g2 = lambda y: float(d._transformed(d.parent.tail_density, y))
    g1u = g1(u)
    g2u = g2(u)
    denom = g1u if g1u > 0.0 else 1.0
    continuity_gap = abs(g1u - g2u) / denom

    h = DERIVATIVE_STEP_REL * u
    d1 = (g1(u + h) - g1(u - h)) / (2.0 * h)
    d2 = (g2(u + h) - g2(u - h)) / (2.0 * h)
    derivative_gap = abs(d1 - d2) / max(1.0, abs(d1))

    total = adaptive_quadrature(
        lambda y: float(d.pdf(y)), 0.0, math.inf, breakpoints=[u]
    )
    normalization_defect = abs(total.value - 1.0)

    return VerificationReport(
        continuity_gap=continuity_gap,
        derivative_gap=derivative_gap,
        normalization_defect=normalization_defect,
    )


def as_composite_spec(d: ExponentiatedComposite) -> CompositeSpec:
    """Materialize the transformed density as a composite in its own right.

    The transformed head and tail pieces are again proper densities (the
    head on [0, inf), the tail on [breakpoint, inf)), the normalizing
    constant carries over unchanged, and every auxiliary function composes
    with the power map.  This is the closure property that makes repeated
    exponentiation associative.
    """
    parent = d.parent
    eta = d.exponent
    inv = 1.0 / eta

    def promote(piece):
        def density(y):
            y = np.asarray(y)
            with np.errstate(over="ignore", invalid="ignore"):
                dens = piece(y**eta)
            return _power_jacobian_times(dens, y, eta)

        return density

    def promote_log(log_piece):
        log_eta = math.log(eta)
        return lambda log_y: log_piece(eta * log_y) + log_eta + (eta - 1.0) * log_y

    def promote_cdf(cdf):
        return lambda u: cdf(np.asarray(u) ** eta)

    def promote_ppf(ppf):
        return lambda p: np.asarray(ppf(p)) ** inv

    def promote_partial(partial):
        return lambda u, r: partial(u**eta, r / eta)

    return CompositeSpec(
        head_density=promote(parent.head_density),
        tail_density=promote(parent.tail_density),
        breakpoint=parent.breakpoint**inv,
        norm_const=parent.norm_const,
        head_cdf=promote_cdf(parent.head_cdf),
        tail_cdf=promote_cdf(parent.tail_cdf),
        tail_sf=promote_cdf(parent.tail_sf),
        head_log_density=promote_log(parent.head_log_density),
        tail_log_density=promote_log(parent.tail_log_density),
        head_ppf=promote_ppf(parent.head_ppf),
        tail_ppf=promote_ppf(parent.tail_ppf),
        head_partial_moment=promote_partial(parent.head_partial_moment),
        tail_partial_moment=promote_partial(parent.tail_partial_moment),
        tail_moment_sup=eta * parent.tail_moment_sup,
    )


def exponentiate(parent, eta: float) -> ExponentiatedComposite:
    """Distribution of X**(1/eta).

    Accepts a CompositeSpec or an already exponentiated composite; the
    latter is first materialized back into piece form, so composing two
    exponentiations exercises the closure rather than a shortcut on the
    exponents.
    """
    if isinstance(parent, ExponentiatedComposite):
        return ExponentiatedComposite(as_composite_spec(parent), eta)
    return ExponentiatedComposite(parent, eta)
