"""Maximum-likelihood fitting by the exact profile likelihood.

For the composite families the likelihood has a closed-form maximizer in
the breakpoint parameter once the transform exponent and the head count m
are fixed, so fitting reduces to a one-dimensional search over the
exponent: for each exponent, find the unique split m consistent with the
order statistics and plug in the profiled breakpoint.  A coarse pass of
log-spaced exponents brackets each peak of this profile likelihood, and
Brent's method solves the analytic profile score to zero in the bracket.

The Weibull and inverse-gamma reference fits solve their usual one-variable
score equations by bracketed root finding.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np
from scipy.special import digamma

from .models import (
    EXP_PARETO,
    IG_PARETO,
    InverseGammaDensity,
    ModelId,
    WeibullDensity,
    build,
    exp_pareto_normalizer,
    ig_pareto_normalizer,
)
from .special import find_root_bracketed

__all__ = [
    "BaselineFitResult",
    "FitFailureError",
    "FitResult",
    "fit",
]

# Log-spaced exponents (first, last, count) of the coarse pass that brackets
# the profile's peaks, and of the wide pass run when the coarse pass's best
# exponent is one of its ends: both about 16 exponents per decade.  Neither
# end of the wide pass admits a split on float data: past 1e20 every z < 1
# gives z^eta == 0, below 1e-20 every z^eta rounds to 1.
_COARSE_PASS = (0.05, 20.0, 40)
_WIDE_PASS = (1e-20, 1e20, 640)
# Cells (exponents x observations) per block of the profile scan: a block's
# float temporary (one row beyond n = 8192) stays in cache and in the memory
# the C heap keeps between calls.  Temporaries past the heap-trim threshold
# fault in fresh pages on some fits and not others, 30% apart in time.
_SCAN_BLOCK = 8192


class FitFailureError(RuntimeError):
    """Raised when no candidate exponent admits a valid breakpoint split, or
    the fitted breakpoint parameter leaves the normal float range."""


@dataclass(frozen=True)
class FitResult:
    """Fitted composite model: breakpoint theta, exponent eta, head count m."""

    model: ModelId
    theta: float
    eta: float
    m: int
    nll: float
    n: int
    p: int

    @property
    def breakpoint(self) -> float:
        """Splice point on the observed scale, theta ** (1 / eta)."""
        return self.theta ** (1.0 / self.eta)


@dataclass(frozen=True)
class BaselineFitResult:
    """Fitted two-parameter reference model (Weibull or inverse gamma)."""

    model: ModelId
    shape: float
    scale: float
    nll: float
    n: int
    p: int


# -- closed-form breakpoint profiles ---------------------------------------
#
# With the exponent and the head count m fixed, each family's likelihood has
# a closed-form maximizer in theta.  The helpers take the head power sum and
# work on floats and on (exponents x m) arrays alike.


def _exp_theta(head_sum, m, n):
    """Exp-family breakpoint (alpha+1) sum_{i<=m} y_i^eta / ((alpha+1) m - alpha n).

    A stationary point only where the denominator is positive.
    """
    alpha = EXP_PARETO.alpha
    return (alpha + 1.0) * head_sum / ((alpha + 1.0) * m - alpha * n)


def _ig_theta(inv_sum, m, n):
    """Ig-family breakpoint (alpha m + (alpha-k)(n-m)) / (k sum_{i<=m} y_i^-eta)."""
    alpha, k = IG_PARETO.alpha, IG_PARETO.k
    return (alpha * m + (alpha - k) * (n - m)) / (k * inv_sum)


# -- profile likelihood and profile score ----------------------------------
#
# fit() rescales the sorted sample by its maximum before the search.  Both
# profile formulas are exactly scale equivariant (theta scales by s^eta) and
# the log-likelihood shifts by the exponent-independent constant -n log s,
# so the argmax is unchanged while z = y/s <= 1 keeps z^eta from
# overflowing at large exponents.
#
# The log-likelihood helpers continue the sum ll0 of the normalizer and
# Jacobian terms with the family's head and tail terms at the profiled
# split: m head points, head power sum, head and tail sums of log z.  The
# profile score is, by the envelope theorem, the partial derivative in eta at
# the profiled theta and split; head_dot sums p_i log z_i over head powers p_i.


def _exp_loglik(ll0, etas, m, th, head_sum, head_log, tail_log, n):
    alpha = EXP_PARETO.alpha
    return (
        ll0
        + m * math.log(alpha + 1.0)
        - m * np.log(th)
        - (alpha + 1.0) * head_sum / th
        + (n - m) * math.log(alpha)
        + (n - m) * alpha * np.log(th)
        - (alpha + 1.0) * etas * tail_log
    )


def _ig_loglik(ll0, etas, m, th, inv_sum, head_log, tail_log, n):
    alpha, k = IG_PARETO.alpha, IG_PARETO.k
    a2 = alpha - k
    return (
        ll0
        + m * alpha * (math.log(k) + np.log(th))
        - (alpha + 1.0) * etas * head_log
        - k * th * inv_sum
        - m * math.lgamma(alpha)
        + (n - m) * (math.log(a2) + a2 * np.log(th))
        - (a2 + 1.0) * etas * tail_log
    )


def _exp_score(eta, th, head_dot, head_log, tail_log, n):
    a1 = EXP_PARETO.alpha + 1.0
    return n / eta + (head_log + tail_log) - a1 * head_dot / th - a1 * tail_log


def _ig_score(eta, th, inv_dot, head_log, tail_log, n):
    alpha, k = IG_PARETO.alpha, IG_PARETO.k
    tail = (alpha - k + 1.0) * tail_log
    return n / eta + (head_log + tail_log) - (alpha + 1.0) * head_log + k * th * inv_dot - tail


# Each family's log normalizer is computed once, at import: the ig one
# evaluates an incomplete gamma.
_FAMILIES = {
    "exp": (math.log(exp_pareto_normalizer()), _exp_theta, _exp_loglik, _exp_score),
    "ig": (math.log(ig_pareto_normalizer()), _ig_theta, _ig_loglik, _ig_score),
}


def _first_split(profile, head_sums, powers, n):
    """(found, m - 1) of the first valid split m of each row of powers z^eta.

    head_sums[..., m - 1] is the head power sum of split m, which is valid
    when its profiled theta is finite, positive (so the exp-family
    denominator is positive) and in [z_m^eta, z_{m+1}^eta].
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        Th = profile(head_sums[..., :-1], np.arange(1, n), n)
        ok = np.isfinite(Th) & (Th > 0.0) & (powers[..., :-1] <= Th) & (Th <= powers[..., 1:])
    return ok.any(axis=-1), np.argmax(ok, axis=-1)


def _scan(family, etas, logz, prefix_log):
    """Profile log-likelihood of each exponent at its first valid split.

    Row i holds z^etas[i].  Returns (ll, m, found), ll = -inf where no m is
    valid.  The rows are scanned in blocks of about _SCAN_BLOCK cells, so
    the temporaries stay small whatever n and the number of exponents are.
    """
    log_norm, profile, loglik, _ = _FAMILIES[family]
    n = logz.size
    found = np.empty(etas.size, dtype=bool)
    first = np.empty(etas.size, dtype=np.intp)
    head_sum = np.empty(etas.size)
    rows = max(1, _SCAN_BLOCK // n)
    for lo in range(0, etas.size, rows):
        block = slice(lo, lo + rows)
        E = np.outer(etas[block], logz)
        with np.errstate(over="ignore", divide="ignore"):
            W = np.exp(E)
            # head power sums of z^eta (exp) or 1 / z^eta (ig, built in E's
            # buffer): the powers _score sums, so both see the same sums
            power = W if family == "exp" else np.divide(1.0, W, out=E)
            S = np.cumsum(power, axis=1)
        found[block], first[block] = _first_split(profile, S, W, n)
        head_sum[block] = S[np.arange(S.shape[0]), first[block]]
    m = first + 1
    total_log = prefix_log[-1]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # the same elementwise formula as Th, so th is Th at the chosen split
        th = profile(head_sum, m, n)
        head_log = prefix_log[m]
        ll0 = n * log_norm + n * np.log(etas) + (etas - 1.0) * total_log
        ll = loglik(ll0, etas, m, th, head_sum, head_log, total_log - head_log, n)
    return np.where(found, ll, -np.inf), m, found


def _score(family, eta, logz, prefix_log):
    """Profile score d ell_p / d eta at one exponent, 0.0 where no split is valid.

    One exp, one cumsum, the split test and one dot product.  A root solve
    stops where the score reads 0.0; that root's ll of -inf then loses.
    """
    _, profile, _, score = _FAMILIES[family]
    n = logz.size
    with np.errstate(over="ignore", divide="ignore"):
        W = np.exp(eta * logz)
        power = W if family == "exp" else 1.0 / W
    S = np.cumsum(power)
    found, first = _first_split(profile, S, W, n)
    if not found:
        return 0.0
    m = int(first) + 1
    head_log, head_dot = float(prefix_log[m]), float(np.dot(power[:m], logz[:m]))
    th = profile(float(S[first]), m, n)
    return score(eta, th, head_dot, head_log, float(prefix_log[-1]) - head_log, n)


def _search(family, logz, prefix_log):
    """(eta, m) maximizing the profile likelihood, or None.

    The coarse pass scans 0.05 to 20; when its best exponent is an end, or
    none has a valid split (argmax of all -inf is 0), the wide pass over
    1e-20 to 1e20 replaces it.  Each local peak of the pass is bracketed by
    its neighbours and the profile score solved there; the best root wins
    unless the best scanned exponent is better.
    """
    etas = np.geomspace(*_COARSE_PASS)
    ll, m, found = _scan(family, etas, logz, prefix_log)
    if int(np.argmax(ll)) in (0, etas.size - 1):
        etas = np.geomspace(*_WIDE_PASS)
        ll, m, found = _scan(family, etas, logz, prefix_log)
    if not found.any():
        return None
    left = np.concatenate(([-np.inf], ll[:-1]))
    right = np.concatenate((ll[1:], [-np.inf]))
    fits = []
    for peak in np.flatnonzero((ll > left) & (ll >= right)):
        lo, hi = etas[max(peak - 1, 0)], etas[min(peak + 1, etas.size - 1)]
        try:
            root = find_root_bracketed(
                lambda eta: _score(family, eta, logz, prefix_log), float(lo), float(hi)
            )
        except ValueError:  # brentq refuses it: the score has one sign there
            continue
        ll_root, m_root, _ = _scan(family, np.array([root]), logz, prefix_log)
        fits.append((ll_root[0], root, int(m_root[0])))
    best = int(np.argmax(ll))  # ties resolve to the smallest exponent
    fits.append((ll[best], float(etas[best]), int(m[best])))
    return max(fits, key=lambda f: f[0])[1:]


def fit(model: ModelId, y):
    """Fit a model by maximum likelihood.

    Composite models maximize the profile likelihood over the exponent and
    return a FitResult whose nll is recomputed from the fitted density on
    the original data scale.  One-parameter variants pin the exponent to 1.
    The Weibull and inverse-gamma baselines return a BaselineFitResult.

    Raises FitFailureError when no exponent admits a valid split, or when
    the profiled theta at the fitted exponent leaves the normal float
    range on the data's scale.
    """
    arr = np.sort(np.asarray(y, dtype=float).ravel())
    n = arr.size
    if n < 10:
        raise ValueError(f"need at least 10 observations, got {n}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("observations must be finite")
    if not arr[0] > 0.0:
        raise ValueError("observations must be strictly positive")
    # the composite and Weibull fits take logs of y / max(y), so it must stay normal
    if not arr[0] / arr[-1] >= sys.float_info.min:
        raise ValueError("observations must span less than the float range (min / max underflows)")

    if not model.is_composite:
        fit_shape_scale, density = _BASELINES[model]
        shape, scale = fit_shape_scale(arr)
        nll = -float(np.sum(density(shape=shape, scale=scale).log_pdf(arr)))
        return BaselineFitResult(
            model=model, shape=shape, scale=scale, nll=nll, n=n, p=model.param_count
        )

    family = model.composite_family
    logz = np.log(arr / float(arr[-1]))
    prefix_log = np.concatenate(([0.0], np.cumsum(logz)))

    fixed = model.fixed_exponent
    if fixed is not None:
        _, m, found = _scan(family, np.array([fixed]), logz, prefix_log)
        if not found[0]:
            raise FitFailureError(
                f"{model.value}: no valid breakpoint split at the fixed exponent"
            )
        eta_hat, m_hat = fixed, int(m[0])
    else:
        best = _search(family, logz, prefix_log)
        if best is None:
            raise FitFailureError(
                f"{model.value}: no exponent admits a valid breakpoint split"
            )
        eta_hat, m_hat = best

    # The search ran on y / max(y); on the data's own scale the head power
    # sum can overflow or underflow (an ig sum of 0 gives theta = inf).  A
    # subnormal theta is refused too: the exp head rate (alpha+1)/theta
    # overflows there.
    profile = _FAMILIES[family][1]
    power = eta_hat if family == "exp" else -eta_hat
    with np.errstate(over="ignore", divide="ignore"):
        theta_hat = float(profile(np.sum(arr[:m_hat] ** power), m_hat, n))
    if not sys.float_info.min <= theta_hat < math.inf:
        raise FitFailureError(
            f"{model.value}: the profiled theta = y_b^eta at eta={eta_hat:g} "
            f"leaves the normal float range ({theta_hat:g}); rescale the data"
        )
    instance = build(model, theta_hat, eta_hat)
    nll = -float(np.sum(instance.log_pdf(arr)))
    return FitResult(
        model=model,
        theta=theta_hat,
        eta=eta_hat,
        m=m_hat,
        nll=nll,
        n=n,
        p=model.param_count,
    )


# -- reference-model fits --------------------------------------------------


def _bracket(f, lo, hi, *, factor, sign, name):
    """Widen [lo, hi] by factor until sign * f is negative at lo, positive at hi.

    Each end moves at most 200 times; FitFailureError names the end that
    found no sign change.
    """
    for _ in range(200):
        if sign * f(lo) < 0.0:
            break
        lo /= factor
    else:
        raise FitFailureError(f"{name}: shape equation has no lower bracket")
    for _ in range(200):
        if sign * f(hi) > 0.0:
            break
        hi *= factor
    else:
        raise FitFailureError(f"{name}: shape equation has no upper bracket")
    return lo, hi


def _fit_weibull(arr: np.ndarray) -> tuple[float, float]:
    # Shape score is increasing in the shape; data rescaled by the maximum
    # so z**shape stays bounded while the bracket expands.
    s = float(arr[-1])
    z = arr / s
    logz = np.log(z)
    mean_log = float(np.mean(logz))

    def score(shape: float) -> float:
        w = z**shape
        return float(np.sum(w * logz) / np.sum(w) - 1.0 / shape - mean_log)

    lo, hi = _bracket(score, 0.5, 2.0, factor=2.0, sign=1.0, name="weibull")
    shape = find_root_bracketed(score, lo, hi)
    scale = s * float(np.mean(z**shape)) ** (1.0 / shape)
    return shape, scale


def _fit_inverse_gamma(arr: np.ndarray) -> tuple[float, float]:
    # log(a) - digamma(a) falls from +inf to 0, so the shape equation
    # log(a) - digamma(a) = log(mean(1/y)) + mean(log y) has a unique root
    # whenever the right side is positive (strict unless y is constant).
    mean_inv = float(np.mean(1.0 / arr))
    mean_log = float(np.mean(np.log(arr)))
    rhs = math.log(mean_inv) + mean_log
    if not rhs > 0.0:
        raise FitFailureError("inverse gamma: degenerate sample, no shape root")

    def h(a: float) -> float:
        return math.log(a) - float(digamma(a)) - rhs

    lo, hi = _bracket(h, 0.5, 10.0, factor=10.0, sign=-1.0, name="inverse gamma")
    shape = find_root_bracketed(h, lo, hi)
    scale = shape / mean_inv
    return shape, scale


# baseline id -> (its (shape, scale) fit, its density)
_BASELINES = {
    ModelId.WEIBULL: (_fit_weibull, WeibullDensity),
    ModelId.INVERSE_GAMMA: (_fit_inverse_gamma, InverseGammaDensity),
}
