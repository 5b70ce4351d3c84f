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
    "detect_m",
    "fit",
    "theta_profile_exp_pareto",
    "theta_profile_ig_pareto",
]

MIN_GRID_POINTS = 10


class FitFailureError(RuntimeError):
    """Raised when no candidate exponent admits a valid breakpoint split."""


@dataclass(frozen=True)
class EtaGrid:
    """Search grid for the transform exponent.

    The coarse pass walks [lower, upper] in steps of coarse_step; each
    refinement round divides the step by ten and re-scans one old step to
    either side of the incumbent, clipped to the original bounds.  The
    defaults give a final resolution of 5e-4.
    """

    lower: float = 0.05
    upper: float = 20.0
    coarse_step: float = 0.05
    refinement_rounds: int = 2

    def __post_init__(self) -> None:
        if not self.lower > 0.0:
            raise ValueError(f"grid lower bound must be > 0, got {self.lower}")
        if not self.upper > self.lower:
            raise ValueError("grid upper bound must exceed the lower bound")
        if not self.coarse_step > 0.0:
            raise ValueError("grid step must be > 0")
        if self.refinement_rounds < 0:
            raise ValueError("refinement_rounds must be >= 0")
        if self.points().size < MIN_GRID_POINTS:
            raise ValueError(f"grid must contain at least {MIN_GRID_POINTS} points")

    def points(self) -> np.ndarray:
        """Ascending candidate exponents of the coarse pass."""
        # 1e-9 slack keeps the endpoint when (upper - lower) / step rounds down.
        count = int(math.floor((self.upper - self.lower) / self.coarse_step + 1e-9))
        pts = self.lower + self.coarse_step * np.arange(count + 1)
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
    denom = (alpha + 1.0) * m - alpha * n
    if denom <= 0.0:
        raise ValueError(
            f"head count m={m} is too small for n={n}: the profile denominator "
            f"(alpha+1)m - alpha*n = {denom:.6g} must be positive"
        )
    return (alpha + 1.0) * float(np.sum(arr[:m] ** eta)) / denom


def theta_profile_ig_pareto(eta: float, m: int, y) -> float:
    """Likelihood-maximizing breakpoint for the inverse-gamma head family.

    Stationary point of the fixed-(eta, m) likelihood:
    (alpha m + (alpha - k)(n - m)) / (k * sum_{i<=m} y_i^(-eta)).
    """
    arr = np.asarray(y, dtype=float)
    n = arr.size
    _check_profile_args(m, n)
    alpha, k = IG_PARETO.alpha, IG_PARETO.k
    denom = k * float(np.sum(arr[:m] ** (-eta)))
    return (alpha * m + (alpha - k) * (n - m)) / denom


def detect_m(eta: float, y, profile):
    """Smallest m whose profiled breakpoint lands between y_m^eta and y_{m+1}^eta.

    y must be sorted ascending and strictly positive.  Returns (m, theta)
    or None when no split qualifies; candidate m values whose profile is
    undefined are skipped.
    """
    arr = np.asarray(y, dtype=float)
    n = arr.size
    if n < 2:
        raise ValueError("need at least two observations to split")
    if not arr[0] > 0.0:
        raise ValueError("observations must be strictly positive")
    if np.any(np.diff(arr) < 0.0):
        raise ValueError("sample must be sorted ascending")
    powers = arr**eta
    for m in range(1, n):
        try:
            th = profile(eta, m, arr)
        except ValueError:
            continue
        if not (math.isfinite(th) and th > 0.0):
            continue
        if powers[m - 1] <= th <= powers[m]:
            return m, th
    return None


# -- vectorized per-exponent scan ------------------------------------------
#
# fit() rescales the sorted sample by its maximum before scanning.  Both
# profile formulas are exactly scale equivariant (theta scales by s^eta) and
# the log-likelihood shifts by the exponent-independent constant -n log s,
# so the argmax is unchanged while z = y/s <= 1 keeps z^eta from
# overflowing at large exponents.


def _scan_exp(etas, z, logz, prefix_log, total_log):
    alpha = EXP_PARETO.alpha
    logc = math.log(exp_pareto_normalizer())
    n = z.size
    W = np.exp(np.outer(etas, logz))
    S = np.cumsum(W, axis=1)
    ms = np.arange(1, n)
    denom = (alpha + 1.0) * ms - alpha * n
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        Th = (alpha + 1.0) * S[:, :-1] / denom
        ok = (
            (denom > 0.0)
            & np.isfinite(Th)
            & (Th > 0.0)
            & (W[:, :-1] <= Th)
            & (Th <= W[:, 1:])
        )
        found = ok.any(axis=1)
        first = np.argmax(ok, axis=1)
        rows = np.arange(etas.size)
        m_sel = first + 1
        th = Th[rows, first]
        S_m = S[rows, first]
        tail_logsum = total_log - prefix_log[m_sel]
        ll = (
            n * logc
            + n * np.log(etas)
            + (etas - 1.0) * total_log
            + m_sel * math.log(alpha + 1.0)
            - m_sel * np.log(th)
            - (alpha + 1.0) * S_m / th
            + (n - m_sel) * math.log(alpha)
            + (n - m_sel) * alpha * np.log(th)
            - (alpha + 1.0) * etas * tail_logsum
        )
    return np.where(found, ll, -np.inf), m_sel, th, found


def _scan_ig(etas, z, logz, prefix_log, total_log):
    alpha, k = IG_PARETO.alpha, IG_PARETO.k
    a2 = alpha - k
    logc = math.log(ig_pareto_normalizer())
    lgam = math.lgamma(alpha)
    n = z.size
    E = np.outer(etas, logz)
    with np.errstate(over="ignore"):
        W = np.exp(E)
        V = np.exp(-E)
        Sv = np.cumsum(V, axis=1)
    ms = np.arange(1, n)
    num = alpha * ms + a2 * (n - ms)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        Th = num / (k * Sv[:, :-1])
        ok = np.isfinite(Th) & (Th > 0.0) & (W[:, :-1] <= Th) & (Th <= W[:, 1:])
        found = ok.any(axis=1)
        first = np.argmax(ok, axis=1)
        rows = np.arange(etas.size)
        m_sel = first + 1
        th = Th[rows, first]
        Sv_m = Sv[rows, first]
        head_logsum = prefix_log[m_sel]
        tail_logsum = total_log - head_logsum
        ll = (
            n * logc
            + n * np.log(etas)
            + (etas - 1.0) * total_log
            + m_sel * alpha * (math.log(k) + np.log(th))
            - (alpha + 1.0) * etas * head_logsum
            - k * th * Sv_m
            - m_sel * lgam
            + (n - m_sel) * (math.log(a2) + a2 * np.log(th))
            - (a2 + 1.0) * etas * tail_logsum
        )
    return np.where(found, ll, -np.inf), m_sel, th, found


_SCANNERS = {"exp": _scan_exp, "ig": _scan_ig}


def _best_candidate(family, etas, z, logz, prefix_log, total_log):
    """Scan an ascending exponent batch; (ll, eta, m) of the winner or None."""
    ll, m_sel, _, found = _SCANNERS[family](etas, z, logz, prefix_log, total_log)
    if not found.any():
        return None
    i = int(np.argmax(ll))  # ties resolve to the smallest exponent
    return float(ll[i]), float(etas[i]), int(m_sel[i])


def fit(model: ModelId, y, grid: EtaGrid | None = None):
    """Fit a model by maximum likelihood.

    Composite models run the profile grid search and return a FitResult
    whose nll is recomputed from the fitted density on the original data
    scale.  One-parameter variants pin the exponent to 1 and ignore the
    grid, as do the Weibull and inverse-gamma baselines, which return a
    BaselineFitResult instead.

    Raises FitFailureError when every candidate exponent fails to admit a
    valid split.
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
    scale = float(arr[-1])
    z = arr / scale
    logz = np.log(z)
    prefix_log = np.concatenate(([0.0], np.cumsum(logz)))
    total_log = float(prefix_log[-1])

    fixed = model.fixed_exponent
    if fixed is not None:
        best = _best_candidate(
            family, np.array([fixed]), z, logz, prefix_log, total_log
        )
        if best is None:
            raise FitFailureError(
                f"{model.value}: no valid breakpoint split at the fixed exponent"
            )
    else:
        best = _best_candidate(family, grid.points(), z, logz, prefix_log, total_log)
        if best is None:
            raise FitFailureError(
                f"{model.value}: no exponent in [{grid.lower}, {grid.upper}] "
                "admits a valid breakpoint split"
            )
        step = grid.coarse_step
        for _ in range(grid.refinement_rounds):
            new_step = step / 10.0
            cand = best[1] + new_step * np.arange(-10, 11)
            cand = np.unique(np.clip(cand, grid.lower, grid.upper))
            local = _best_candidate(family, cand, z, logz, prefix_log, total_log)
            # incumbent is in the candidate set, so the likelihood never drops
            if local is not None and (
                local[0] > best[0] or (local[0] == best[0] and local[1] < best[1])
            ):
                best = local
            step = new_step

    _, eta_hat, m_hat = best
    profile = (
        theta_profile_exp_pareto if family == "exp" else theta_profile_ig_pareto
    )
    theta_hat = profile(eta_hat, m_hat, arr)
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

    lo, hi = 0.5, 2.0
    for _ in range(200):
        if score(lo) < 0.0:
            break
        lo /= 2.0
    else:
        raise FitFailureError("weibull: shape equation has no lower bracket")
    for _ in range(200):
        if score(hi) > 0.0:
            break
        hi *= 2.0
    else:
        raise FitFailureError("weibull: shape equation has no upper bracket")
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

    lo, hi = 0.5, 10.0
    for _ in range(200):
        if h(lo) > 0.0:
            break
        lo /= 10.0
    else:
        raise FitFailureError("inverse gamma: shape equation has no lower bracket")
    for _ in range(200):
        if h(hi) < 0.0:
            break
        hi *= 10.0
    else:
        raise FitFailureError("inverse gamma: shape equation has no upper bracket")
    shape = find_root_bracketed(h, lo, hi)
    scale = shape / mean_inv
    dens = InverseGammaDensity(shape=shape, scale=scale)
    nll = -float(np.sum(dens.log_pdf(arr)))
    return BaselineFitResult(
        model=ModelId.INVERSE_GAMMA, shape=shape, scale=scale, nll=nll, n=n, p=2
    )
