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

and piece boundary theta**(1/eta).  Y**(1/a) = X**(1/(a*eta)), so
exponentiating again multiplies the exponents: for Y ~ d, Y**(1/a) is
ExponentiatedComposite(d.parent, a * d.exponent).

Each formula is written once.  _power_density and _power_log_density
carry a parent piece to Y, for the densities here and, over parameter
columns, for models.log_pdf_rows.  pdf, log_pdf and cdf split y between
head and tail in one place, and the raw moment E[Y^t] is the limited
moment E[min(Y, b)^t] at the cap b = inf.

Piece callables stored on a CompositeSpec must accept scalars or numpy
arrays, and every piece is given in closed form: the moment engine only
does arithmetic on them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .special import _as_batch, _is_integer, _maybe_scalar, adaptive_quadrature

__all__ = [
    "InfiniteMomentError",
    "CompositeSpec",
    "ExponentiatedComposite",
    "VerificationReport",
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
        if not 0.0 < self.breakpoint < math.inf:
            raise ValueError(f"breakpoint must be positive and finite, got {self.breakpoint}")
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
        try:
            self.breakpoint
        except OverflowError:
            raise OverflowError(
                f"breakpoint theta**(1/eta) exceeds the float range at "
                f"theta = {self.parent.breakpoint:g}, eta = {self.exponent:g}"
            ) from None

    @property
    def breakpoint(self) -> float:
        """Piece boundary of the transformed density, theta**(1/eta)."""
        return self.parent.breakpoint ** (1.0 / self.exponent)

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

    def _by_piece(self, y, head: Callable, tail: Callable, fill: float, at_zero: Callable):
        """Elementwise over y: on y > 0, head(y) below the breakpoint and tail(y)
        from it on; at_zero() at y = 0, fill below zero and NaN at NaN."""
        arr, scalar = _as_batch(y)
        out = np.full(arr.shape, fill)
        yb = self.breakpoint
        positive = arr > 0.0  # a breakpoint underflowed to 0 leaves y = 0 to at_zero
        for mask, formula in ((positive & (arr < yb), head), (positive & (arr >= yb), tail)):
            if mask.any():
                out[mask] = formula(arr[mask])
        zero = arr == 0.0
        if zero.any():
            out[zero] = at_zero()
        out[np.isnan(arr)] = np.nan
        return _maybe_scalar(out, scalar)

    def pdf(self, y):
        """Density of Y; zero for y < 0, tail branch at exactly y = breakpoint."""
        parent, eta = self.parent, self.exponent
        c = parent.norm_const
        return self._by_piece(
            y,
            lambda a: _power_density(parent.head_density, a, eta, c, parent.head_log_density),
            lambda a: _power_density(parent.tail_density, a, eta, c, parent.tail_log_density),
            0.0,
            self._pdf_at_zero,
        )

    def log_pdf(self, y):
        """log pdf(y) in log space; -inf where the density vanishes."""
        parent, eta = self.parent, self.exponent
        log_eta, log_c = math.log(eta), math.log(parent.norm_const)

        def at_zero() -> float:
            at = self._pdf_at_zero()
            return math.log(at) if at > 0.0 else -math.inf

        return self._by_piece(
            y,
            lambda a: _power_log_density(parent.head_log_density, np.log(a), eta, log_eta, log_c),
            lambda a: _power_log_density(parent.tail_log_density, np.log(a), eta, log_eta, log_c),
            -math.inf,
            at_zero,
        )

    # -- distribution function and inverse --------------------------------

    def cdf(self, y):
        parent, eta = self.parent, self.exponent
        c = parent.norm_const
        theta = parent.breakpoint
        f1_theta = float(parent.head_cdf(theta))
        f2_theta = float(parent.tail_cdf(theta))
        # c <= 1 keeps the head inside [0, 1]; the tail's sum can round past
        # 1.  a**eta past the float range is inf, where the tail cdf is 1.
        with np.errstate(over="ignore"):
            return self._by_piece(
                y,
                lambda a: c * parent.head_cdf(a**eta),
                lambda a: np.clip(
                    c * f1_theta + c * (parent.tail_cdf(a**eta) - f2_theta), 0.0, 1.0
                ),
                0.0,
                lambda: 0.0,
            )

    def quantile(self, u):
        """Inverse cdf on (0, 1) through the parent's piece quantiles.

        Raises OverflowError where a quantile exceeds the float range.
        """
        arr, scalar = _as_batch(u)
        if not np.all((arr > 0.0) & (arr < 1.0)):
            raise ValueError("quantile requires probabilities strictly inside (0, 1)")
        parent = self.parent
        c = parent.norm_const
        head_mass = c * float(parent.head_cdf(parent.breakpoint))
        f2_theta = float(parent.tail_cdf(parent.breakpoint))
        x = np.empty(arr.shape)
        head = arr < head_mass
        tail = ~head
        with np.errstate(over="ignore"):
            if head.any():
                x[head] = parent.head_ppf(arr[head] / c)
            if tail.any():
                x[tail] = parent.tail_ppf((arr[tail] - head_mass) / c + f2_theta)
            y = x ** (1.0 / self.exponent)
        if not np.all(np.isfinite(y)):
            raise OverflowError(
                f"quantile x**(1/{self.exponent:g}) exceeds the float range"
            )
        return _maybe_scalar(y, scalar)

    def sample(self, n: int, seed) -> np.ndarray:
        """n inversion draws from a seeded generator; same seed, same draws.

        A sequence of seeds gives a (seeds, n) matrix whose row i is
        sample(n, seed[i]), inverted in one quantile call; an empty one gives
        a (0, n) matrix.  n and each seed must be an int or a numpy integer,
        not a bool.
        """
        if not (_is_integer(n) and n >= 1):
            raise ValueError(f"sample size must be a positive integer, got {n}")
        one = not np.iterable(seed)
        if one and not _is_integer(seed):
            raise ValueError(f"seed must be an integer or a sequence of them, got {seed!r}")
        seeds = [seed] if one else list(seed)
        for i, s in enumerate(seeds):
            if not _is_integer(s):
                raise ValueError(f"seed {i} of the sequence must be an integer, got {s!r}")
        u = np.array([np.random.default_rng(s).random(int(n)) for s in seeds])
        u = u.reshape(len(seeds), int(n))
        y = np.asarray(self.quantile(u))
        return y[0] if one else y

    # -- moments -----------------------------------------------------------

    def moment(self, t: float) -> float:
        """E[Y^t], the limited moment at an infinite cap.

        Raises ValueError for t <= 0 and InfiniteMomentError when t/eta
        reaches the tail exponent.
        """
        _require_finite_moment(t, self.exponent, self.parent.tail_moment_sup)
        return self.limited_moment(t, math.inf)

    def limited_moment(self, t: float, b):
        """E[(Y ^ b)^t] of order t, elementwise over the cap b like pdf and cdf.

        With s = t/eta, u1 = min(b**eta, theta) and u2 = max(b**eta, theta),
        one identity covers caps on both sides of the breakpoint:

            c * [H(u1, s) + T(u2, s) - T(theta, s)
                 + b**t * (F1(theta) - F1(u1) + S2(u2))]

        H and T are the head and tail partial moments, S2 = 1 - F2 the tail
        survival, and c times the last bracket is P(Y > b).  At b = inf
        that bracket is exactly zero and the identity is the raw moment.
        Order zero gives exactly one, and a positive order at cap zero
        exactly zero.  Raises ValueError for a negative or infinite order
        or a negative cap, InfiniteMomentError for an infinite cap at an
        order whose moment diverges, and OverflowError where a finite
        b**eta or the result leaves the float range.
        """
        if not 0.0 <= t < math.inf:
            raise ValueError(f"limited-moment order must be finite and >= 0, got {t}")
        arr, scalar = _as_batch(b)
        if not np.all(arr >= 0.0):
            raise ValueError(f"limited-moment cap must be >= 0, got {b}")
        b = arr
        if t == 0.0:
            return _maybe_scalar(np.ones(b.shape), scalar)
        eta = self.exponent
        parent = self.parent
        if np.isinf(b).any():
            _require_finite_moment(t, eta, parent.tail_moment_sup)
        s = t / eta
        theta = parent.breakpoint
        c = parent.norm_const
        # an overflow in here leaves a non-finite value, refused below
        with np.errstate(over="ignore", invalid="ignore"):
            x = b**eta
            if (np.isinf(x) & np.isfinite(b)).any():
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


def _power_density(piece: Callable, y, eta: float, c: float, log_piece: Callable):
    """c * f(y**eta) * eta * y**(eta - 1): a density f of X = Y**eta carried to Y.

    y**eta can overflow (or the jacobian blow up at tiny y when eta < 1)
    while the density underflows to 0; the density always wins, so a
    vanished density forces a zero product instead of 0 * inf = nan.
    Where y**eta overflows at a finite y, f(inf) = 0 would lose a density
    that may still be representable: there log_piece, the log density of X
    from log x, gives it through _power_log_density.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        x = y**eta
        dens = c * np.asarray(piece(x), dtype=float)
        vanished = dens == 0.0
        out = np.where(vanished, 0.0, dens * eta * y ** (eta - 1.0))
    # count_nonzero: a quarter of any()'s cost on a scalar pdf's one-element arrays
    if np.count_nonzero(vanished):
        big = vanished & np.isinf(x) & np.isfinite(y)
        log_y = np.log(np.asarray(y)[big])
        out[big] = np.exp(_power_log_density(log_piece, log_y, eta, math.log(eta), math.log(c)))
    return out


def _power_log_density(log_piece: Callable, log_y, eta, log_eta, log_c: float):
    """The log of _power_density from log y, given the log density of X.

    eta and log_eta = log(eta) may be columns, one row a parameter set,
    that broadcast against log_y.  At y = inf the density has vanished, so
    the answer is -inf even where the jacobian's log climbs to +inf and
    the sum would be nan.
    """
    with np.errstate(invalid="ignore"):
        out = log_c + log_piece(eta * log_y) + log_eta + (eta - 1.0) * log_y
    return np.where(np.isposinf(log_y), -math.inf, out)


def _cap_power_times(b: np.ndarray, t: float, w: np.ndarray) -> np.ndarray:
    """b**t * w, through logs where b**t alone overflows but the product need
    not; zero where w is, so an infinite cap with no mass beyond adds 0."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        bt = b**t
        out = np.where(np.isinf(bt), np.exp(t * np.log(b) + np.log(w)), bt * w)
    return np.where(w == 0.0, 0.0, out)


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
    derivative_gap: float  # |g1' - g2'| / max(1, |g1'|) on Y/breakpoint's density
    normalization_defect: float  # |integral of pdf - 1|

    @property
    def continuity_ok(self) -> bool:
        return self.continuity_gap <= CONTINUITY_TOL

    @property
    def derivative_ok(self) -> bool:
        return self.derivative_gap <= DERIVATIVE_TOL

    @property
    def normalization_ok(self) -> bool:
        return self.normalization_defect <= NORMALIZATION_TOL

    @property
    def passed(self) -> bool:
        return self.continuity_ok and self.derivative_ok and self.normalization_ok


def verify_composite(d: ExponentiatedComposite) -> VerificationReport:
    """Measure continuity/differentiability gaps at the breakpoint and the
    normalization defect.  Always returns the diagnostics; the fixed
    thresholds only classify them.  Theta scales X, so each is taken where
    it is the same at every theta: the gaps on the density of Y/u, u the
    breakpoint, at 1, and the mass on that of X/theta, split at 1, both from
    the pieces' log densities so that u may under- or overflow."""
    eta, parent = d.exponent, d.parent
    log_c = math.log(parent.norm_const)
    log_theta = math.log(parent.breakpoint)
    head, tail = parent.head_log_density, parent.tail_log_density

    def density(log_piece: Callable, log_unit: float, power: float, s: float) -> float:
        """Density at s of X**(1/power) / exp(log_unit) on one piece."""
        log_g = _power_log_density(log_piece, log_unit + math.log(s), power, math.log(power), log_c)
        return math.exp(float(log_g) + log_unit)

    g1 = lambda s: density(head, log_theta / eta, eta, s)
    g2 = lambda s: density(tail, log_theta / eta, eta, s)
    g1u, g2u = g1(1.0), g2(1.0)
    continuity_gap = abs(g1u - g2u) / (g1u if g1u > 0.0 else 1.0)

    h = DERIVATIVE_STEP_REL
    d1 = (g1(1.0 + h) - g1(1.0 - h)) / (2.0 * h)
    d2 = (g2(1.0 + h) - g2(1.0 - h)) / (2.0 * h)
    derivative_gap = abs(d1 - d2) / max(1.0, abs(d1))

    # Y/u = (X/theta)**(1/eta) exactly, so this is Y's mass, without the
    # jacobian's singularity at 0 that eta < 1 gives Y/u
    g = lambda r: density(head if r < 1.0 else tail, log_theta, 1.0, r)
    total = adaptive_quadrature(g, 0.0, math.inf, breakpoints=[1.0])
    normalization_defect = abs(total.value - 1.0)

    return VerificationReport(
        continuity_gap=continuity_gap,
        derivative_gap=derivative_gap,
        normalization_defect=normalization_defect,
    )
