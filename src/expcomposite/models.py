"""Model catalog: the two special composite families and plain baselines.

The inverse gamma-Pareto composite has an inverse gamma head with shape
alpha and scale k*theta and a Pareto tail with exponent alpha - k; the
exponential-Pareto composite has an exponential head with rate
(alpha + 1)/theta and a Pareto tail with exponent alpha.  In both, the
shape constants are universal numbers fixed by the smoothness conditions
at the breakpoint, so theta is the only free parameter of the parent and
the exponentiated family adds the power exponent eta as a second one.

Shape constants are stored at their published precision.  Normalizing
constants are computed once from the shapes at machine precision, since
a constant truncated to three decimals would leak a visible
normalization defect into every integral and sample; the recorded values
are kept alongside and checked against the exact ones in tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cache, partial

import numpy as np

from .composite import CompositeSpec, ExponentiatedComposite, _power_log_density
from .special import (
    _on_support,
    _scipy_special,
    lower_incomplete_gamma,
    upper_incomplete_gamma,
)

__all__ = [
    "IG_PARETO",
    "EXP_PARETO",
    "ModelId",
    "build",
    "log_pdf_rows",
    "ig_pareto_spec",
    "exp_pareto_spec",
    "ig_pareto_normalizer",
    "exp_pareto_normalizer",
    "moment_closed_form",
    "WeibullDensity",
    "InverseGammaDensity",
]

@dataclass(frozen=True)
class IgParetoConstants:
    """Published constants of the inverse gamma-Pareto composite.

    a is recorded for completeness only; no formula here consumes it.  At
    the printed precision it coincides with alpha - k, the Pareto tail
    exponent.
    """

    c: float = 0.711384
    k: float = 0.144351
    alpha: float = 0.308298
    a: float = 0.163947


@dataclass(frozen=True)
class ExpParetoConstants:
    """Published constants of the exponential-Pareto composite.

    alpha is the root of (alpha+1) e^-(alpha+1) = alpha (the continuity
    condition at the breakpoint); c is 1/(2 - e^-(alpha+1)) rounded to
    three decimals.
    """

    c: float = 0.574
    alpha: float = 0.349976


IG_PARETO = IgParetoConstants()
EXP_PARETO = ExpParetoConstants()


class ModelId(Enum):
    EXP_IG_PARETO = "exp-ig-pareto"
    EXP_EXP_PARETO = "exp-exp-pareto"
    IG_PARETO_1P = "ig-pareto-1p"
    EXP_PARETO_1P = "exp-pareto-1p"
    WEIBULL = "weibull"
    INVERSE_GAMMA = "inverse-gamma"

    @property
    def param_count(self) -> int:
        """1 when the exponent is fixed, else 2."""
        return 2 if self.fixed_exponent is None else 1

    @property
    def is_composite(self) -> bool:
        return self in _COMPOSITE

    @property
    def composite_family(self) -> str:
        """'ig' or 'exp' for composite ids; raises otherwise."""
        try:
            return _COMPOSITE[self][0]
        except KeyError:
            raise ValueError(f"{self} is not a composite family") from None

    @property
    def fixed_exponent(self) -> float | None:
        """1.0 for the one-parameter variants, else None."""
        return _COMPOSITE.get(self, (None, None))[1]


# composite id -> (head family, fixed exponent or None)
_COMPOSITE = {
    ModelId.EXP_IG_PARETO: ("ig", None),
    ModelId.EXP_EXP_PARETO: ("exp", None),
    ModelId.IG_PARETO_1P: ("ig", 1.0),
    ModelId.EXP_PARETO_1P: ("exp", 1.0),
}


# -- normalizers and exactly solved constants -----------------------------


@cache
def exp_pareto_normalizer() -> float:
    """Exact c = 1/(2 - e^-(alpha+1)) for the shape constant alpha."""
    return 1.0 / (2.0 - math.exp(-(EXP_PARETO.alpha + 1.0)))


@cache
def ig_pareto_normalizer() -> float:
    """Exact c = Gamma(alpha) / (Gamma(alpha) + Gamma(alpha, k))."""
    g = math.exp(math.lgamma(IG_PARETO.alpha))
    gk = upper_incomplete_gamma(IG_PARETO.alpha, IG_PARETO.k)
    return g / (g + gk)


# -- composite spec builders ----------------------------------------------


def ig_pareto_spec(theta: float) -> CompositeSpec:
    """Inverse gamma-Pareto parent at scale theta, with the exact normalizer.

    The published truncated normalizer can be studied through
    dataclasses.replace(spec, norm_const=IG_PARETO.c).
    """
    _check_theta(theta)
    alpha = IG_PARETO.alpha
    log_beta, beta = _ig_head(theta)
    head = InverseGammaDensity(alpha, beta)

    def head_partial_moment(u, r):
        scale = math.exp(r * log_beta - math.lgamma(alpha))
        return _on_support(
            u, _positive, lambda up: scale * upper_incomplete_gamma(alpha - r, beta / up)
        )

    def head_ppf(q):
        return beta / _scipy_special().gammainccinv(alpha, np.asarray(q, dtype=float))

    return CompositeSpec(
        head_density=head.pdf,
        breakpoint=theta,
        norm_const=ig_pareto_normalizer(),
        head_cdf=head.cdf,
        head_partial_moment=head_partial_moment,
        head_log_density=partial(_ig_head_log_density, log_beta=log_beta, beta=beta),
        head_ppf=head_ppf,
        **_pareto_tail(theta, alpha - IG_PARETO.k),
    )


def exp_pareto_spec(theta: float) -> CompositeSpec:
    """Exponential-Pareto parent at scale theta, with the exact normalizer."""
    _check_theta(theta)
    alpha = EXP_PARETO.alpha
    log_rate, rate = _exp_head(theta)

    def head_density(x):
        # closed at 0, where the one-parameter variant's density is c * rate
        return _on_support(x, _nonnegative, lambda xp: rate * np.exp(-rate * xp))

    def head_cdf(u):
        return _on_support(u, _positive, lambda up: -np.expm1(-rate * up))

    def head_partial_moment(u, r):
        scale = math.exp(-r * log_rate)
        return _on_support(
            u, _positive, lambda up: scale * lower_incomplete_gamma(r + 1.0, rate * up)
        )

    def head_ppf(q):
        return -np.log1p(-np.asarray(q, dtype=float)) / rate

    return CompositeSpec(
        head_density=head_density,
        breakpoint=theta,
        norm_const=exp_pareto_normalizer(),
        head_cdf=head_cdf,
        head_partial_moment=head_partial_moment,
        head_log_density=partial(_exp_head_log_density, log_rate=log_rate, rate=rate),
        head_ppf=head_ppf,
        **_pareto_tail(theta, alpha),
    )


# -- piece log densities ----------------------------------------------------
#
# Each takes log x and its piece's parameters, which may be columns (one row
# a parameter set) as well as floats: a spec binds its own, and log_pdf_rows
# passes a column per parameter, so both evaluate the same formula.


def _ig_head(theta: float) -> tuple[float, float]:
    """(log beta, beta) of the inverse gamma head at breakpoint theta."""
    beta = IG_PARETO.k * theta
    if beta == 0.0:
        raise ValueError(f"theta = {theta} underflows the head scale k*theta to 0")
    return math.log(beta), beta


def _ig_head_log_density(log_x, log_beta, beta):
    alpha = IG_PARETO.alpha
    log_x = np.asarray(log_x, dtype=float)
    # 1/x past the float range is inf, where the log density is -inf
    with np.errstate(over="ignore"):
        return alpha * log_beta - (alpha + 1.0) * log_x - beta * np.exp(-log_x) - math.lgamma(alpha)


def _exp_head(theta: float) -> tuple[float, float]:
    """(log rate, rate) of the exponential head at breakpoint theta."""
    rate = (EXP_PARETO.alpha + 1.0) / theta
    return math.log(rate), rate


def _exp_head_log_density(log_x, log_rate, rate):
    log_x = np.asarray(log_x, dtype=float)
    with np.errstate(over="ignore"):
        return log_rate - rate * np.exp(log_x)


def _pareto_log_density(log_x, log_theta, exponent: float):
    log_x = np.asarray(log_x, dtype=float)
    return math.log(exponent) + exponent * log_theta - (exponent + 1.0) * log_x


def _check_theta(theta: float) -> None:
    if not 0.0 < theta < math.inf:
        raise ValueError(f"theta must be positive and finite, got {theta}")


def _positive(a: np.ndarray) -> np.ndarray:
    return a > 0.0


def _nonnegative(a: np.ndarray) -> np.ndarray:
    return a >= 0.0


def _finite_nonnegative(a: np.ndarray) -> np.ndarray:
    return (a >= 0.0) & (a < math.inf)


def _pareto_tail(theta: float, exponent: float) -> dict:
    """The CompositeSpec tail fields of a Pareto tail on [theta, inf).

    The density is exponent * theta^exponent * x^-(exponent+1); its
    formula holds for every x > 0, so the smoothness checks can evaluate
    it just below theta.  The cdf, survival and partial moment count
    mass from theta on.  exponent is also the tail's moment supremum.
    """
    log_theta = math.log(theta)

    def above(a):
        return a > theta

    def log_sf(ua):
        return exponent * (log_theta - np.log(ua))

    def tail_density(x):
        return _on_support(
            x,
            _positive,
            lambda xp: exponent
            * np.exp(exponent * log_theta - (exponent + 1.0) * np.log(xp)),
        )

    def tail_cdf(u):
        return _on_support(u, above, lambda ua: -np.expm1(log_sf(ua)))

    def tail_sf(u):
        return _on_support(u, above, lambda ua: np.exp(log_sf(ua)), fill=1.0)

    def tail_partial_moment(u, r):
        # int_theta^u x^r f2(x) dx; u = inf gives exponent * theta^r /
        # (exponent - r) when r < exponent.  Written as theta^d *
        # expm1(d * log(u/theta)) / d with d = r - exponent, so r near the
        # exponent loses no digits to cancellation.
        scale = exponent * math.exp(exponent * log_theta)
        d = r - exponent

        def moment(ua):
            log_ratio = np.log(ua) - log_theta
            if d == 0.0:
                return scale * log_ratio
            return scale * math.exp(d * log_theta) * np.expm1(d * log_ratio) / d

        return _on_support(u, above, moment)

    def tail_ppf(q):
        return theta * (1.0 - np.asarray(q, dtype=float)) ** (-1.0 / exponent)

    return dict(
        tail_density=tail_density,
        tail_cdf=tail_cdf,
        tail_sf=tail_sf,
        tail_partial_moment=tail_partial_moment,
        tail_log_density=partial(_pareto_log_density, log_theta=log_theta, exponent=exponent),
        tail_ppf=tail_ppf,
        tail_moment_sup=exponent,
    )


# -- baselines -------------------------------------------------------------


@dataclass(frozen=True)
class WeibullDensity:
    """Weibull(shape, scale) with cdf 1 - exp(-(y/scale)^shape)."""

    shape: float
    scale: float

    def __post_init__(self) -> None:
        if not (0.0 < self.shape < math.inf and 0.0 < self.scale < math.inf):
            raise ValueError("Weibull shape and scale must be positive and finite")

    def pdf(self, y):
        def density(yp):
            # z and its powers can overflow where the exponential has
            # vanished; the exponential wins, so the product is 0, not inf * 0
            with np.errstate(over="ignore", invalid="ignore"):
                z = np.abs(yp) / self.scale  # abs: -0.0 counts as 0
                decay = np.exp(-(z**self.shape))
                return np.where(
                    decay == 0.0, 0.0, (self.shape / self.scale) * z ** (self.shape - 1.0) * decay
                )

        # at y = 0 the formula gives the density's limit: 1/scale for shape
        # 1, inf below and 0 above; at y = inf it would give inf * 0
        with np.errstate(divide="ignore"):
            return _on_support(y, _finite_nonnegative, density)

    def log_pdf(self, y):
        def log_density(yp):
            log_z = np.log(yp) - math.log(self.scale)
            # at shape 1 the power term is 0 even at y = 0, where 0 * -inf
            # would give nan
            power = (self.shape - 1.0) * log_z if self.shape != 1.0 else 0.0
            with np.errstate(over="ignore"):  # (y/scale)^shape = inf: -inf
                return (
                    math.log(self.shape)
                    - math.log(self.scale)
                    + power
                    - np.exp(self.shape * log_z)
                )

        # log(pdf(0)): +inf below shape 1, -log(scale) at shape 1, -inf above
        with np.errstate(divide="ignore"):
            return _on_support(y, _finite_nonnegative, log_density, fill=-math.inf)

    def cdf(self, y):
        with np.errstate(over="ignore"):  # (y/scale)^shape = inf: cdf 1
            return _on_support(
                y, _positive, lambda yp: -np.expm1(-((yp / self.scale) ** self.shape))
            )


@dataclass(frozen=True)
class InverseGammaDensity:
    """Inverse gamma with density scale^shape x^-(shape+1) e^(-scale/x) / Gamma(shape)."""

    shape: float
    scale: float

    def __post_init__(self) -> None:
        if not (0.0 < self.shape < math.inf and 0.0 < self.scale < math.inf):
            raise ValueError("inverse gamma shape and scale must be positive and finite")

    def _ratio(self, yp: np.ndarray) -> np.ndarray:
        # scale/y past the float range is inf, where the density and cdf are 0
        with np.errstate(over="ignore"):
            return self.scale / yp

    def _log_density(self, yp: np.ndarray) -> np.ndarray:
        return (
            self.shape * math.log(self.scale)
            - (self.shape + 1.0) * np.log(yp)
            - self._ratio(yp)
            - math.lgamma(self.shape)
        )

    def pdf(self, y):
        return _on_support(y, _positive, lambda yp: np.exp(self._log_density(yp)))

    def log_pdf(self, y):
        return _on_support(y, _positive, self._log_density, fill=-math.inf)

    def cdf(self, y):
        return _on_support(
            y, _positive, lambda yp: _scipy_special().gammaincc(self.shape, self._ratio(yp))
        )


# -- catalog entry points --------------------------------------------------


def build(model: ModelId, theta: float, eta: float = 1.0) -> ExponentiatedComposite:
    """The composite family `model` at breakpoint theta and exponent eta.

    The one-parameter variants require eta == 1.  A baseline id raises
    ValueError: WeibullDensity and InverseGammaDensity take their own
    (shape, scale).
    """
    spec = _HEADS[model.composite_family][0](theta)
    fixed = model.fixed_exponent
    if fixed is not None and eta != fixed:
        raise ValueError(f"{model.value} fixes eta = {fixed}, got {eta}")
    return ExponentiatedComposite(spec, eta)


# head family -> (spec builder, head parameters at theta, head log density,
# tail exponent, normalizer)
_HEADS = {
    "ig": (ig_pareto_spec, _ig_head, _ig_head_log_density, IG_PARETO.alpha - IG_PARETO.k,
           ig_pareto_normalizer),
    "exp": (exp_pareto_spec, _exp_head, _exp_head_log_density, EXP_PARETO.alpha,
            exp_pareto_normalizer),
}


def log_pdf_rows(model: ModelId, thetas, etas, y: np.ndarray) -> np.ndarray:
    """build(model, thetas[i], etas[i]).log_pdf(y[i]) for every row i of a
    (rows, n) matrix of positive finite observations, in one pass.

    Each row's parameters come from the math calls its spec makes, and the
    pieces are the spec's formulas over parameter columns, so every value
    has the bits log_pdf gives it.
    """
    _, head_params, head_log_density, exponent, normalizer = _HEADS[model.composite_family]
    head = np.array([head_params(theta) for theta in thetas])
    log_theta = np.array([math.log(theta) for theta in thetas])[:, None]
    eta = np.array(etas, dtype=float)[:, None]
    log_eta = np.array([math.log(e) for e in etas])[:, None]
    split = np.array([theta ** (1.0 / e) for theta, e in zip(thetas, etas)])[:, None]
    log_c = math.log(normalizer())
    log_y = np.log(y)
    head_log = _power_log_density(
        lambda log_x: head_log_density(log_x, head[:, :1], head[:, 1:]), log_y, eta, log_eta, log_c
    )
    tail_log = _power_log_density(
        lambda log_x: _pareto_log_density(log_x, log_theta, exponent), log_y, eta, log_eta, log_c
    )
    return np.where(y < split, head_log, tail_log)


# bench/workloads.py's pricing-curves calls it; bench/tracing.py times it as a layer
def moment_closed_form(model: ModelId, theta: float, eta: float, t: float) -> float:
    """E[Y^t] of a composite family in closed form, build(...).moment(t).

    Finite exactly when t/eta stays below the Pareto tail exponent
    (alpha - k for the inverse gamma head family, alpha for the
    exponential one); otherwise InfiniteMomentError, boundary included.
    """
    return build(model, theta, eta).moment(t)

