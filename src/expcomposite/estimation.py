"""Maximum-likelihood fitting by profile grid search.

For the composite families the likelihood has a closed-form maximizer in
the breakpoint parameter once the transform exponent and the head count m
are fixed, so fitting reduces to a one-dimensional sweep over the exponent:
for each candidate, scan m for the unique split consistent with the order
statistics, plug in the profiled breakpoint, and keep the candidate with
the largest likelihood.  Two refinement passes shrink the exponent step
tenfold around the incumbent.

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
    "EtaGrid",
    "FitFailureError",
    "FitResult",
    "fit",
    "theta_profile_exp_pareto",
    "theta_profile_ig_pareto",
]

MIN_GRID_POINTS = 10
# The coarse pass walks the grid bounds in steps of COARSE_STEP; each of the
# REFINEMENT_ROUNDS rounds divides the step by ten and re-scans one old step
# to either side of the incumbent, for a final resolution of 5e-4.
COARSE_STEP = 0.05
REFINEMENT_ROUNDS = 2
# Cells (exponents x observations) per block of the profile scan.  A float
# temporary of a block is then at most 64 KB up to n = 8192 (a block is one
# row beyond): it stays in cache and in the memory the C heap keeps between
# calls.  A whole 400 x n grid at once has each fit at n = 100-200 fault in
# 1-2 MB of fresh pages, at n = 100 in some processes and not in others,
# so that the same fits run 30% apart.
_SCAN_BLOCK = 8192


class FitFailureError(RuntimeError):
    """Raised when no candidate exponent admits a valid breakpoint split, or
    the fitted breakpoint parameter leaves the normal float range."""


@dataclass(frozen=True)
class EtaGrid:
    """Bounds of the search over the transform exponent."""

    lower: float = 0.05
    upper: float = 20.0

    def __post_init__(self) -> None:
        if not self.lower > 0.0:
            raise ValueError(f"grid lower bound must be > 0, got {self.lower}")
        if not self.lower < self.upper < math.inf:
            raise ValueError(
                f"grid upper bound must be finite and exceed the lower bound, got {self.upper}"
            )
        if self.points().size < MIN_GRID_POINTS:
            raise ValueError(f"grid must contain at least {MIN_GRID_POINTS} points")

    def points(self) -> np.ndarray:
        """Ascending candidate exponents of the coarse pass."""
        # 1e-9 slack keeps the endpoint when (upper - lower) / step rounds down.
        count = int(math.floor((self.upper - self.lower) / COARSE_STEP + 1e-9))
        pts = self.lower + COARSE_STEP * np.arange(count + 1)
        return np.minimum(pts, self.upper)


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
    """Exp-family breakpoint from sum_{i<=m} y_i^eta (theta_profile_exp_pareto)."""
    alpha = EXP_PARETO.alpha
    return (alpha + 1.0) * head_sum / ((alpha + 1.0) * m - alpha * n)


def _ig_theta(inv_sum, m, n):
    """Ig-family breakpoint from sum_{i<=m} y_i^(-eta) (theta_profile_ig_pareto)."""
    alpha, k = IG_PARETO.alpha, IG_PARETO.k
    return (alpha * m + (alpha - k) * (n - m)) / (k * inv_sum)


def _check_profile_args(m: int, n: int) -> None:
    if not (isinstance(m, (int, np.integer)) and 1 <= m <= n - 1):
        raise ValueError(f"m must be an integer in [1, n-1], got m={m} with n={n}")


def theta_profile_exp_pareto(eta: float, m: int, y) -> float:
    """Likelihood-maximizing breakpoint for the exponential head family.

    With the exponent and head count fixed, the stationary point is
    (alpha+1) * sum_{i<=m} y_i^eta / ((alpha+1) m - alpha n).  The
    denominator must be positive, i.e. m > alpha n / (alpha + 1).
    """
    arr = np.asarray(y, dtype=float)
    n = arr.size
    _check_profile_args(m, n)
    alpha = EXP_PARETO.alpha
    if (alpha + 1.0) * m <= alpha * n:
        raise ValueError(
            f"head count m={m} is too small for n={n}: the profile denominator "
            "(alpha+1)m - alpha*n must be positive"
        )
    return _exp_theta(float(np.sum(arr[:m] ** eta)), m, n)


def theta_profile_ig_pareto(eta: float, m: int, y) -> float:
    """Likelihood-maximizing breakpoint for the inverse-gamma head family.

    Stationary point of the fixed-(eta, m) likelihood:
    (alpha m + (alpha - k)(n - m)) / (k * sum_{i<=m} y_i^(-eta)).
    """
    arr = np.asarray(y, dtype=float)
    n = arr.size
    _check_profile_args(m, n)
    return _ig_theta(float(np.sum(arr[:m] ** (-eta))), m, n)


# -- vectorized per-exponent scan ------------------------------------------
#
# fit() rescales the sorted sample by its maximum before scanning.  Both
# profile formulas are exactly scale equivariant (theta scales by s^eta) and
# the log-likelihood shifts by the exponent-independent constant -n log s,
# so the argmax is unchanged while z = y/s <= 1 keeps z^eta from
# overflowing at large exponents.
#
# The log-likelihood helpers continue the sum ll0 of the normalizer and
# Jacobian terms with the family's head and tail terms at the profiled
# split: m head points, head power sum, head and tail sums of log z.


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


_FAMILIES = {
    "exp": (exp_pareto_normalizer, _exp_theta, _exp_loglik),
    "ig": (ig_pareto_normalizer, _ig_theta, _ig_loglik),
}


def _scan(family, etas, logz, prefix_log, total_log):
    """Profile log-likelihood of each exponent at its first valid split.

    Row i holds z^etas[i].  The split m is valid when the profiled theta is
    finite, positive and lies in [z_m^eta, z_{m+1}^eta]; a positive theta
    implies a positive exp-family denominator, since the head sum is
    positive.  Returns (ll, m, found), ll = -inf where no m is valid.

    The rows are scanned in blocks of about _SCAN_BLOCK cells, so the
    temporaries stay small whatever n and the number of exponents are.
    """
    normalizer, profile, loglik = _FAMILIES[family]
    n = logz.size
    splits = np.arange(1, n)
    found = np.empty(etas.size, dtype=bool)
    first = np.empty(etas.size, dtype=np.intp)
    head_sum = np.empty(etas.size)
    rows = max(1, _SCAN_BLOCK // n)
    for lo in range(0, etas.size, rows):
        block = slice(lo, lo + rows)
        E = np.outer(etas[block], logz)
        with np.errstate(over="ignore"):
            W = np.exp(E)
            # head power sums of z^eta (exp) or z^-eta (ig, built in E's buffer)
            power = W if family == "exp" else np.exp(np.negative(E, out=E), out=E)
            S = np.cumsum(power, axis=1)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            Th = profile(S[:, :-1], splits, n)
            ok = np.isfinite(Th) & (Th > 0.0) & (W[:, :-1] <= Th) & (Th <= W[:, 1:])
        found[block] = ok.any(axis=1)
        first[block] = np.argmax(ok, axis=1)
        head_sum[block] = S[np.arange(S.shape[0]), first[block]]
    m = first + 1
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # the same elementwise formula as Th, so th is Th at the chosen split
        th = profile(head_sum, m, n)
        head_log = prefix_log[m]
        ll0 = n * math.log(normalizer()) + n * np.log(etas) + (etas - 1.0) * total_log
        ll = loglik(ll0, etas, m, th, head_sum, head_log, total_log - head_log, n)
    return np.where(found, ll, -np.inf), m, found


def _best_candidate(family, etas, logz, prefix_log, total_log):
    """Scan an ascending exponent batch; (ll, eta, m) of the winner or None."""
    ll, m, found = _scan(family, etas, logz, prefix_log, total_log)
    if not found.any():
        return None
    i = int(np.argmax(ll))  # ties resolve to the smallest exponent
    return float(ll[i]), float(etas[i]), int(m[i])


def fit(model: ModelId, y, grid: EtaGrid | None = None):
    """Fit a model by maximum likelihood.

    Composite models run the profile grid search and return a FitResult
    whose nll is recomputed from the fitted density on the original data
    scale.  One-parameter variants pin the exponent to 1 and ignore the
    grid, as do the Weibull and inverse-gamma baselines, which return a
    BaselineFitResult instead.

    Raises FitFailureError when every candidate exponent fails to admit a
    valid split, or when the profiled theta at the winning exponent leaves
    the normal float range on the data's scale.
    """
    arr = np.sort(np.asarray(y, dtype=float).ravel())
    n = arr.size
    if n < 10:
        raise ValueError(f"need at least 10 observations, got {n}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("observations must be finite")
    if not arr[0] > 0.0:
        raise ValueError("observations must be strictly positive")

    if model is ModelId.WEIBULL:
        return _fit_weibull(arr)
    if model is ModelId.INVERSE_GAMMA:
        return _fit_inverse_gamma(arr)

    family = model.composite_family
    grid = EtaGrid() if grid is None else grid
    logz = np.log(arr / float(arr[-1]))
    prefix_log = np.concatenate(([0.0], np.cumsum(logz)))
    total_log = float(prefix_log[-1])

    fixed = model.fixed_exponent
    if fixed is not None:
        best = _best_candidate(family, np.array([fixed]), logz, prefix_log, total_log)
        if best is None:
            raise FitFailureError(
                f"{model.value}: no valid breakpoint split at the fixed exponent"
            )
    else:
        best = _best_candidate(family, grid.points(), logz, prefix_log, total_log)
        if best is None:
            raise FitFailureError(
                f"{model.value}: no exponent in [{grid.lower}, {grid.upper}] "
                "admits a valid breakpoint split"
            )
        step = COARSE_STEP
        for _ in range(REFINEMENT_ROUNDS):
            step /= 10.0
            cand = best[1] + step * np.arange(-10, 11)
            cand = np.unique(np.clip(cand, grid.lower, grid.upper))
            local = _best_candidate(family, cand, logz, prefix_log, total_log)
            # incumbent is in the candidate set, so the likelihood never drops
            if local is not None and (
                local[0] > best[0] or (local[0] == best[0] and local[1] < best[1])
            ):
                best = local

    _, eta_hat, m_hat = best
    profile = (
        theta_profile_exp_pareto if family == "exp" else theta_profile_ig_pareto
    )
    # The scan ran on y / max(y); on the data's own scale the head power
    # sum can overflow or underflow (an ig sum of 0 divides by zero).  A
    # subnormal theta is refused too: the exp head rate (alpha+1)/theta
    # overflows there.
    with np.errstate(over="ignore"):
        try:
            theta_hat = profile(eta_hat, m_hat, arr)
        except ZeroDivisionError:
            theta_hat = math.inf
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


def _fit_weibull(arr: np.ndarray) -> BaselineFitResult:
    # Shape score is increasing in the shape; data rescaled by the maximum
    # so z**shape stays bounded while the bracket expands.
    n = arr.size
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
    dens = WeibullDensity(shape=shape, scale=scale)
    nll = -float(np.sum(dens.log_pdf(arr)))
    return BaselineFitResult(
        model=ModelId.WEIBULL, shape=shape, scale=scale, nll=nll, n=n, p=2
    )


def _fit_inverse_gamma(arr: np.ndarray) -> BaselineFitResult:
    # log(a) - digamma(a) falls from +inf to 0, so the shape equation
    # log(a) - digamma(a) = log(mean(1/y)) + mean(log y) has a unique root
    # whenever the right side is positive (strict unless y is constant).
    n = arr.size
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
    dens = InverseGammaDensity(shape=shape, scale=scale)
    nll = -float(np.sum(dens.log_pdf(arr)))
    return BaselineFitResult(
        model=ModelId.INVERSE_GAMMA, shape=shape, scale=scale, nll=nll, n=n, p=2
    )
