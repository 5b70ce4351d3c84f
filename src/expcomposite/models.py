"""Model catalog: the two special composite families and plain baselines.

The inverse gamma-Pareto composite has an inverse gamma head with shape
alpha and scale k*theta and a Pareto tail with exponent alpha - k; the
exponential-Pareto composite has an exponential head with rate
(alpha + 1)/theta and a Pareto tail with exponent alpha.  In both, the
shape constants are universal numbers fixed by the smoothness conditions
at the breakpoint, so theta is the only free parameter of the parent and
the exponentiated family adds the power exponent eta as a second one.

Shape constants are stored at their published precision.  Normalizing
constants are recomputed from the shapes at machine precision when a
model is built, since a constant truncated to three decimals would leak a
visible normalization defect into every integral and sample; the recorded
values are kept alongside and checked against the exact ones in tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy import special as _special

from .composite import CompositeSpec, ExponentiatedComposite
from .special import (
    _as_batch,
    _maybe_scalar,
    find_root_bracketed,
    ln_gamma,
    lower_incomplete_gamma,
    upper_incomplete_gamma,
)

__all__ = [
    "IgParetoConstants",
    "ExpParetoConstants",
    "IG_PARETO",
    "EXP_PARETO",
    "ModelId",
    "build",
    "ig_pareto_spec",
    "exp_pareto_spec",
    "ig_pareto_normalizer",
    "exp_pareto_normalizer",
    "exp_pareto_alpha_exact",
    "ig_pareto_k_exact",
    "moment_closed_form",
    "limited_moment_closed_form",
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
        return _PARAM_COUNT[self]

    @property
    def is_composite(self) -> bool:
        return self in _COMPOSITE_FAMILY

    @property
    def composite_family(self) -> str:
        """'ig' or 'exp' for composite ids; raises otherwise."""
        try:
            return _COMPOSITE_FAMILY[self]
        except KeyError:
            raise ValueError(f"{self} is not a composite family") from None

    @property
    def fixed_exponent(self) -> float | None:
        """1.0 for the one-parameter variants, else None."""
        return 1.0 if self in (ModelId.IG_PARETO_1P, ModelId.EXP_PARETO_1P) else None


_PARAM_COUNT = {
    ModelId.EXP_IG_PARETO: 2,
    ModelId.EXP_EXP_PARETO: 2,
    ModelId.IG_PARETO_1P: 1,
    ModelId.EXP_PARETO_1P: 1,
    ModelId.WEIBULL: 2,
    ModelId.INVERSE_GAMMA: 2,
}

_COMPOSITE_FAMILY = {
    ModelId.EXP_IG_PARETO: "ig",
    ModelId.IG_PARETO_1P: "ig",
    ModelId.EXP_EXP_PARETO: "exp",
    ModelId.EXP_PARETO_1P: "exp",
}


# -- normalizers and exactly solved constants -----------------------------


def exp_pareto_normalizer(constants: ExpParetoConstants = EXP_PARETO) -> float:
    """Exact c = 1/(2 - e^-(alpha+1)) for the given shape constant."""
    return 1.0 / (2.0 - math.exp(-(constants.alpha + 1.0)))


def ig_pareto_normalizer(constants: IgParetoConstants = IG_PARETO) -> float:
    """Exact c = Gamma(alpha) / (Gamma(alpha) + Gamma(alpha, k))."""
    g = math.exp(ln_gamma(constants.alpha))
    gk = upper_incomplete_gamma(constants.alpha, constants.k)
    return g / (g + gk)


def exp_pareto_alpha_exact() -> float:
    """Machine-precision root of the continuity identity near the published
    alpha; useful when a spec with vanishing smoothness gaps is wanted."""
    return find_root_bracketed(
        lambda a: (a + 1.0) * math.exp(-(a + 1.0)) - a, 0.2, 0.5
    )


def ig_pareto_k_exact(alpha: float = IG_PARETO.alpha) -> float:
    """Machine-precision k solving the continuity condition
    k^alpha e^-k / Gamma(alpha) = alpha - k for the given alpha."""
    g = math.exp(ln_gamma(alpha))
    return find_root_bracketed(
        lambda k: k**alpha * math.exp(-k) / g - (alpha - k), 0.05, 0.3
    )


# -- composite spec builders ----------------------------------------------


def ig_pareto_spec(
    theta: float,
    *,
    constants: IgParetoConstants = IG_PARETO,
    norm_const: float | None = None,
) -> CompositeSpec:
    """Inverse gamma-Pareto parent at scale theta.

    norm_const overrides the exact normalizer (to study the published
    truncated value, for instance).
    """
    if not theta > 0.0:
        raise ValueError(f"theta must be > 0, got {theta}")
    alpha = constants.alpha
    k = constants.k
    a2 = alpha - k  # Pareto tail exponent
    beta = k * theta
    log_beta = math.log(beta)
    lg = ln_gamma(alpha)
    log_theta = math.log(theta)
    c = ig_pareto_normalizer(constants) if norm_const is None else norm_const

    def head_density(x):
        arr, scalar = _as_batch(x)
        out = np.zeros(arr.shape)
        pos = arr > 0.0
        xp = arr[pos]
        out[pos] = np.exp(
            alpha * log_beta - (alpha + 1.0) * np.log(xp) - beta / xp - lg
        )
        return _maybe_scalar(out, scalar)

    def tail_density(x):
        arr, scalar = _as_batch(x)
        out = np.zeros(arr.shape)
        pos = arr > 0.0
        out[pos] = a2 * np.exp(a2 * log_theta - (a2 + 1.0) * np.log(arr[pos]))
        return _maybe_scalar(out, scalar)

    def head_cdf(u):
        arr, scalar = _as_batch(u)
        out = np.zeros(arr.shape)
        pos = arr > 0.0
        out[pos] = _special.gammaincc(alpha, beta / arr[pos])
        return _maybe_scalar(out, scalar)

    def tail_cdf(u):
        arr, scalar = _as_batch(u)
        out = np.zeros(arr.shape)
        above = arr > theta
        out[above] = -np.expm1(a2 * (log_theta - np.log(arr[above])))
        return _maybe_scalar(out, scalar)

    def head_partial_moment(u, r):
        arr, scalar = _as_batch(u)
        out = np.zeros(arr.shape)
        pos = arr > 0.0
        out[pos] = math.exp(r * log_beta - lg) * upper_incomplete_gamma(
            alpha - r, beta / arr[pos]
        )
        return _maybe_scalar(out, scalar)

    def tail_partial_moment(u, r):
        return _pareto_partial(u, r, theta, a2, log_theta)

    def tail_sf(u):
        return _pareto_sf(u, theta, a2, log_theta)

    def head_log_density(log_x):
        log_x = np.asarray(log_x, dtype=float)
        return alpha * log_beta - (alpha + 1.0) * log_x - beta * np.exp(-log_x) - lg

    def tail_log_density(log_x):
        log_x = np.asarray(log_x, dtype=float)
        return math.log(a2) + a2 * log_theta - (a2 + 1.0) * log_x

    def head_ppf(q):
        return beta / _special.gammainccinv(alpha, np.asarray(q, dtype=float))

    def tail_ppf(q):
        return theta * (1.0 - np.asarray(q, dtype=float)) ** (-1.0 / a2)

    return CompositeSpec(
        head_density=head_density,
        tail_density=tail_density,
        breakpoint=theta,
        norm_const=c,
        head_cdf=head_cdf,
        tail_cdf=tail_cdf,
        tail_sf=tail_sf,
        head_partial_moment=head_partial_moment,
        tail_partial_moment=tail_partial_moment,
        head_log_density=head_log_density,
        tail_log_density=tail_log_density,
        head_ppf=head_ppf,
        tail_ppf=tail_ppf,
        tail_moment_sup=a2,
        label="ig-pareto",
    )


def exp_pareto_spec(
    theta: float,
    *,
    constants: ExpParetoConstants = EXP_PARETO,
    norm_const: float | None = None,
) -> CompositeSpec:
    """Exponential-Pareto parent at scale theta."""
    if not theta > 0.0:
        raise ValueError(f"theta must be > 0, got {theta}")
    alpha = constants.alpha
    rate = (alpha + 1.0) / theta
    log_rate = math.log(rate)
    log_theta = math.log(theta)
    c = exp_pareto_normalizer(constants) if norm_const is None else norm_const

    def head_density(x):
        arr, scalar = _as_batch(x)
        out = np.zeros(arr.shape)
        ok = arr >= 0.0
        out[ok] = rate * np.exp(-rate * arr[ok])
        return _maybe_scalar(out, scalar)

    def tail_density(x):
        arr, scalar = _as_batch(x)
        out = np.zeros(arr.shape)
        pos = arr > 0.0
        out[pos] = alpha * np.exp(alpha * log_theta - (alpha + 1.0) * np.log(arr[pos]))
        return _maybe_scalar(out, scalar)

    def head_cdf(u):
        arr, scalar = _as_batch(u)
        out = np.zeros(arr.shape)
        pos = arr > 0.0
        out[pos] = -np.expm1(-rate * arr[pos])
        return _maybe_scalar(out, scalar)

    def tail_cdf(u):
        arr, scalar = _as_batch(u)
        out = np.zeros(arr.shape)
        above = arr > theta
        out[above] = -np.expm1(alpha * (log_theta - np.log(arr[above])))
        return _maybe_scalar(out, scalar)

    def head_partial_moment(u, r):
        arr, scalar = _as_batch(u)
        out = np.zeros(arr.shape)
        pos = arr > 0.0
        out[pos] = math.exp(-r * log_rate) * lower_incomplete_gamma(
            r + 1.0, rate * arr[pos]
        )
        return _maybe_scalar(out, scalar)

    def tail_partial_moment(u, r):
        return _pareto_partial(u, r, theta, alpha, log_theta)

    def tail_sf(u):
        return _pareto_sf(u, theta, alpha, log_theta)

    def head_log_density(log_x):
        log_x = np.asarray(log_x, dtype=float)
        with np.errstate(over="ignore"):
            return log_rate - rate * np.exp(log_x)

    def tail_log_density(log_x):
        log_x = np.asarray(log_x, dtype=float)
        return math.log(alpha) + alpha * log_theta - (alpha + 1.0) * log_x

    def head_ppf(q):
        return -np.log1p(-np.asarray(q, dtype=float)) / rate

    def tail_ppf(q):
        return theta * (1.0 - np.asarray(q, dtype=float)) ** (-1.0 / alpha)

    return CompositeSpec(
        head_density=head_density,
        tail_density=tail_density,
        breakpoint=theta,
        norm_const=c,
        head_cdf=head_cdf,
        tail_cdf=tail_cdf,
        tail_sf=tail_sf,
        head_partial_moment=head_partial_moment,
        tail_partial_moment=tail_partial_moment,
        head_log_density=head_log_density,
        tail_log_density=tail_log_density,
        head_ppf=head_ppf,
        tail_ppf=tail_ppf,
        tail_moment_sup=alpha,
        label="exp-pareto",
    )


def _pareto_partial(u, r: float, theta: float, exponent: float, log_theta: float):
    """int_theta^u x^r * exponent * theta^exponent * x^-(exponent+1) dx.

    Elementwise over u; u = inf gives the raw-moment tail term
    exponent * theta^r / (exponent - r) when r < exponent.  Written as
    theta^d * expm1(d * log(u/theta)) / d with d = r - exponent, so r near
    the exponent loses no digits to cancellation.
    """
    arr, scalar = _as_batch(u)
    out = np.zeros(arr.shape)
    above = arr > theta
    scale = exponent * math.exp(exponent * log_theta)
    log_ratio = np.log(arr[above]) - log_theta
    d = r - exponent
    if d == 0.0:
        out[above] = scale * log_ratio
    else:
        out[above] = scale * math.exp(d * log_theta) * np.expm1(d * log_ratio) / d
    return _maybe_scalar(out, scalar)


def _pareto_sf(u, theta: float, exponent: float, log_theta: float):
    """Pareto tail survival (theta/u)^exponent, one at and below theta."""
    arr, scalar = _as_batch(u)
    out = np.ones(arr.shape)
    above = arr > theta
    out[above] = np.exp(exponent * (log_theta - np.log(arr[above])))
    return _maybe_scalar(out, scalar)


# -- baselines -------------------------------------------------------------


@dataclass(frozen=True)
class WeibullDensity:
    """Weibull(shape, scale) with cdf 1 - exp(-(y/scale)^shape)."""

    shape: float
    scale: float

    def __post_init__(self) -> None:
        if not (self.shape > 0.0 and self.scale > 0.0):
            raise ValueError("Weibull shape and scale must be positive")

    def pdf(self, y):
        arr, scalar = _as_batch(y)
        out = np.zeros(arr.shape)
        pos = arr > 0.0
        z = arr[pos] / self.scale
        out[pos] = (self.shape / self.scale) * z ** (self.shape - 1.0) * np.exp(
            -(z**self.shape)
        )
        zero = arr == 0.0
        if zero.any():
            if self.shape == 1.0:
                out[zero] = 1.0 / self.scale
            elif self.shape < 1.0:
                out[zero] = math.inf
        return _maybe_scalar(out, scalar)

    def log_pdf(self, y):
        arr, scalar = _as_batch(y)
        out = np.full(arr.shape, -math.inf)
        pos = arr > 0.0
        log_z = np.log(arr[pos]) - math.log(self.scale)
        out[pos] = (
            math.log(self.shape)
            - math.log(self.scale)
            + (self.shape - 1.0) * log_z
            - np.exp(self.shape * log_z)
        )
        return _maybe_scalar(out, scalar)

    def cdf(self, y):
        arr, scalar = _as_batch(y)
        out = np.zeros(arr.shape)
        pos = arr > 0.0
        out[pos] = -np.expm1(-((arr[pos] / self.scale) ** self.shape))
        return _maybe_scalar(out, scalar)


@dataclass(frozen=True)
class InverseGammaDensity:
    """Inverse gamma with density scale^shape x^-(shape+1) e^(-scale/x) / Gamma(shape)."""

    shape: float
    scale: float

    def __post_init__(self) -> None:
        if not (self.shape > 0.0 and self.scale > 0.0):
            raise ValueError("inverse gamma shape and scale must be positive")

    def pdf(self, y):
        arr, scalar = _as_batch(y)
        out = np.zeros(arr.shape)
        pos = arr > 0.0
        yp = arr[pos]
        out[pos] = np.exp(
            self.shape * math.log(self.scale)
            - (self.shape + 1.0) * np.log(yp)
            - self.scale / yp
            - ln_gamma(self.shape)
        )
        return _maybe_scalar(out, scalar)

    def log_pdf(self, y):
        arr, scalar = _as_batch(y)
        out = np.full(arr.shape, -math.inf)
        pos = arr > 0.0
        yp = arr[pos]
        out[pos] = (
            self.shape * math.log(self.scale)
            - (self.shape + 1.0) * np.log(yp)
            - self.scale / yp
            - ln_gamma(self.shape)
        )
        return _maybe_scalar(out, scalar)

    def cdf(self, y):
        arr, scalar = _as_batch(y)
        out = np.zeros(arr.shape)
        pos = arr > 0.0
        out[pos] = _special.gammaincc(self.shape, self.scale / arr[pos])
        return _maybe_scalar(out, scalar)


# -- catalog entry points --------------------------------------------------


def build(model: ModelId, theta: float, eta: float = 1.0):
    """Instantiate a model.

    Composite families take (theta, eta) and return an
    ExponentiatedComposite; the one-parameter variants require eta == 1.
    Baselines reinterpret the two positional parameters as (shape, scale)
    and return a plain density object.
    """
    if model is ModelId.WEIBULL:
        return WeibullDensity(shape=theta, scale=eta)
    if model is ModelId.INVERSE_GAMMA:
        return InverseGammaDensity(shape=theta, scale=eta)
    if not theta > 0.0:
        raise ValueError(f"theta must be > 0, got {theta}")
    if not eta > 0.0:
        raise ValueError(f"eta must be > 0, got {eta}")
    fixed = model.fixed_exponent
    if fixed is not None and eta != fixed:
        raise ValueError(f"{model.value} fixes eta = {fixed}, got {eta}")
    family = model.composite_family
    spec = ig_pareto_spec(theta) if family == "ig" else exp_pareto_spec(theta)
    return ExponentiatedComposite(spec, eta)


def _require_composite(model: ModelId) -> None:
    if not model.is_composite:
        raise ValueError(f"closed forms are defined for composite families, not {model}")


def moment_closed_form(model: ModelId, theta: float, eta: float, t: float) -> float:
    """E[Y^t] of a composite family in closed form.

    Finite exactly when t/eta stays below the Pareto tail exponent
    (alpha - k for the inverse gamma head family, alpha for the
    exponential one); otherwise InfiniteMomentError, boundary included.
    """
    _require_composite(model)
    return build(model, theta, eta).moment(t)


def limited_moment_closed_form(
    model: ModelId, theta: float, eta: float, t: float, b: float
) -> float:
    """E[(Y ^ b)^t] of a composite family in closed form.

    Finite for every order, including orders whose raw moment diverges.
    """
    _require_composite(model)
    return build(model, theta, eta).limited_moment((t, b))
