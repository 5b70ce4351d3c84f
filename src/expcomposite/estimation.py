"""Maximum-likelihood fitting by the exact profile likelihood.

For the composite families the likelihood has a closed-form maximizer in
the breakpoint parameter once the transform exponent and the head count m
are fixed, so fitting reduces to a one-dimensional search over the
exponent: for each exponent, find the unique split m consistent with the
order statistics and plug in the profiled breakpoint.  A coarse pass of
log-spaced exponents brackets each peak of this profile likelihood, and
Brent's method solves the analytic profile score to zero in the bracket.
fit_batch fits many samples of one size at once: their scans share blocks,
and the brackets of all samples are solved in lockstep, one profile-score
pass a round; fit is its one-sample case, so both give the same bits.
Each row's nll sums its row of one log-density sweep over the batch
(models.log_pdf_rows).

The Weibull and inverse-gamma reference fits solve their usual one-variable
score equations by bracketed root finding, each as one lane of the same
lockstep solver.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .models import (
    EXP_PARETO,
    IG_PARETO,
    InverseGammaDensity,
    ModelId,
    WeibullDensity,
    exp_pareto_normalizer,
    ig_pareto_normalizer,
    log_pdf_rows,
)
from .special import _scipy_special, find_roots_bracketed

__all__ = [
    "BaselineFitResult",
    "FitFailureError",
    "FitResult",
    "fit",
    "fit_batch",
]

# Log-spaced exponents of the coarse pass that brackets the profile's peaks,
# and of the wide pass run when the coarse pass's best exponent is one of its
# ends: both about 16 exponents per decade, built once.  Neither end of the
# wide pass admits a split on float data: past 1e20 every z < 1 gives
# z^eta == 0, below 1e-20 every z^eta rounds to 1.
_COARSE_PASS = np.geomspace(0.05, 20.0, 40)
_WIDE_PASS = np.geomspace(1e-20, 1e20, 640)
# Cells (exponents x observations) per block of the profile scan: a block's
# float temporary (a chunk of one row beyond n = 8192) stays in cache and in
# the memory the C heap keeps between calls.  That memory shrinks where the
# heap's free top passes glibc's trim threshold, which stays at 128 KB until
# the process frees an mmapped chunk larger than that and then becomes twice
# that chunk's size: below it, freed scan temporaries go back to the kernel
# and the next block faults them in again.  A process that imported
# scipy.special has freed such a chunk; an exp-family recovery study that
# never imports it takes about 700-1700 minor faults per operation, not 0.
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
# the breakpoint's m-only factor, and work on floats and on (exponents x m)
# arrays alike.


def _exp_factor(m, n):
    """The m-only factor (alpha+1) m - alpha n of the exp-family breakpoint."""
    alpha = EXP_PARETO.alpha
    return (alpha + 1.0) * m - alpha * n


def _exp_theta_at(head_sum, factor):
    """Exp-family breakpoint (alpha+1) sum_{i<=m} y_i^eta / ((alpha+1) m - alpha n).

    A stationary point only where the factor is positive.
    """
    return (EXP_PARETO.alpha + 1.0) * head_sum / factor


def _ig_factor(m, n):
    """The m-only factor alpha m + (alpha-k)(n-m) of the ig-family breakpoint."""
    alpha, k = IG_PARETO.alpha, IG_PARETO.k
    return alpha * m + (alpha - k) * (n - m)


def _ig_theta_at(inv_sum, factor):
    """Ig-family breakpoint (alpha m + (alpha-k)(n-m)) / (k sum_{i<=m} y_i^-eta)."""
    return factor / (IG_PARETO.k * inv_sum)


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


# Per family: the normalizer, the breakpoint's m-only factor, the breakpoint
# from (head sum, factor), the profile log-likelihood and the profile score.
# Each normalizer is computed on its first call and cached: the ig one
# evaluates an incomplete gamma, so an exp-family fit never imports
# scipy.special.
_FAMILIES = {
    "exp": (exp_pareto_normalizer, _exp_factor, _exp_theta_at, _exp_loglik, _exp_score),
    "ig": (ig_pareto_normalizer, _ig_factor, _ig_theta_at, _ig_loglik, _ig_score),
}


def _first_split(theta_at, head_sums, powers, factors, lo):
    """(found, m - 1) of the first valid split m of each row of one chunk.

    The chunk holds columns lo to lo + k - 1 of the rows: head_sums[:, j]
    is the head power sum of split m = lo + j + 1 and powers[:, j] its
    z_m^eta; factors[m - 1] is the m-only factor of the breakpoint.  It
    tests the chunk's first k - 1 splits, as the last one reads the next
    chunk's first power.  A split is valid when its profiled theta is
    positive (so the exp-family denominator is positive) and in
    [z_m^eta, z_{m+1}^eta]: the powers lie in [0, 1], so a theta of inf
    fails the upper test, and NaN fails every test.  m - 1 is lo where no
    split is valid.  Its temporaries die at its return, so the heap's top
    stays where the scan's chunks keep it; it runs under the caller's
    errstate.
    """
    Th = theta_at(head_sums[:, :-1], factors[lo : lo + head_sums.shape[1] - 1])
    ok = (Th > 0.0) & (powers[:, :-1] <= Th) & (Th <= powers[:, 1:])
    at = np.argmax(ok, axis=1)
    return ok[np.arange(ok.shape[0]), at], lo + at


def _scan(family, etas, reps, logz, prefix_log, *, score=False):
    """Profile log-likelihood of each row at its first valid split.

    Row i is replicate reps[i], a row of logz, at exponent etas[i].  Returns
    (ll, m, found), ll = -inf and m = 1 where no m is valid.  With
    score=True it returns the profile score d ell_p / d eta instead, 0.0
    where no m is valid: a root solve stops where the score reads 0.0, and
    that root's ll of -inf then loses.

    A block holds at most _SCAN_BLOCK cells.  Rows that fit are scanned
    whole, several to a block; one replicate's logz row is broadcast, not
    copied.  A longer row runs alone in chunks of _SCAN_BLOCK columns (at
    least 2), each sharing its last column with the next, and stops at the
    first chunk that holds a valid split; a row with none is scanned to its
    end.  Each chunk's cumsum restarts from the carried head sum, added into
    its first power, so every head sum has the bits of one cumsum over the
    row.  So the temporaries stay small whatever n and the number of rows
    are, apart from two n-long rows: the breakpoint's m-only factors and,
    with score=True, the head powers, whose dot with log z stays one
    contiguous BLAS dot.
    """
    normalizer, factor, theta_at, loglik, profile_score = _FAMILIES[family]
    n = logz.shape[1]
    found = np.empty(etas.size, dtype=bool)
    first = np.empty(etas.size, dtype=np.intp)
    head_sum = np.empty(etas.size)
    head_dot = np.empty(etas.size)
    rows = max(1, _SCAN_BLOCK // n)
    width = n if n <= _SCAN_BLOCK else max(_SCAN_BLOCK, 2)
    factors = factor(np.arange(1, n), n)
    heads = np.empty(n) if score and width < n else None
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for lo in range(0, etas.size, rows):
            block = slice(lo, lo + rows)
            # a view where the block's rows share one replicate's logz row
            Z = logz[reps[lo]] if logz.shape[0] == 1 or rows == 1 else logz[reps[block]]
            c0 = 0
            while True:
                c1 = min(n, c0 + width)
                E = etas[block, None] * Z[..., c0:c1]
                W = np.exp(E)
                # head power sums of z^eta (exp) or 1 / z^eta (ig, built in
                # E's buffer), the powers head_dot sums too
                power = W if family == "exp" else np.divide(1.0, W, out=E)
                if c0:  # carry + p rounds as p + carry, cumsum's next add
                    S = power.copy()
                    S[:, 0] += carry
                    np.cumsum(S, axis=1, out=S)
                else:
                    S = np.cumsum(power, axis=1)
                hit, at = _first_split(theta_at, S, W, factors, c0)
                if heads is not None:
                    heads[c0:c1] = power[0]
                if c1 == n or hit.all():
                    break
                carry, c0 = S[:, -2], c1 - 1
            found[block] = hit
            first[block] = np.where(hit, at, 0)
            head_sum[block] = S[np.arange(S.shape[0]), at - c0]
            if score:  # one BLAS dot a row, as for a lone sample
                H = power if heads is None else heads[None, :]
                for i in np.flatnonzero(hit):
                    k = first[lo + i] + 1
                    head_dot[lo + i] = np.dot(H[i, :k], (Z if Z.ndim == 1 else Z[i])[:k])
        m = first + 1
        total_log = prefix_log[reps, -1]
        head_log = prefix_log[reps, m]
        # the same elementwise formula as Th, so th is Th at the chosen split
        th = theta_at(head_sum, factors[first])
        if score:
            tail_log = total_log - head_log
            return np.where(found, profile_score(etas, th, head_dot, head_log, tail_log, n), 0.0)
        ll0 = n * math.log(normalizer()) + n * np.log(etas) + (etas - 1.0) * total_log
        ll = loglik(ll0, etas, m, th, head_sum, head_log, total_log - head_log, n)
    return np.where(found, ll, -np.inf), m, found


def _search(family, logz, prefix_log):
    """Per replicate (row of logz): its (eta, m) maximizing the profile
    likelihood, or None; and a mask of the replicates that ran the wide pass.

    The coarse pass scans 0.05 to 20; where its best exponent is an end, or
    none has a valid split (argmax of all -inf is 0), the wide pass over
    1e-20 to 1e20 replaces it.  Each local peak of a replicate's pass is
    bracketed by its neighbours, and the brackets of all replicates solve
    the profile score in lockstep.  Each peak offers its root and its
    scanned exponent: a replicate's fit is the first maximum of its roots,
    then its scanned peaks, both in peak order, so a root beats a scanned
    exponent it ties, and the smallest of tied scanned exponents wins.  A
    pass's ll is finite at a valid split and -inf elsewhere, never NaN, so a
    replicate has a peak (its pass's first maximum) iff it has a valid split.
    """

    def scan_pass(etas, rows):
        """_scan's (ll, m) of each replicate of rows at every exponent of etas."""
        grid = np.tile(etas, rows.size), np.repeat(rows, etas.size)
        ll, m, _ = _scan(family, *grid, logz, prefix_log)
        return ll.reshape(rows.size, etas.size), m.reshape(rows.size, etas.size)

    reps = np.arange(logz.shape[0])
    ll, m = scan_pass(_COARSE_PASS, reps)
    top = np.argmax(ll, axis=1)
    wide = (top == 0) | (top == _COARSE_PASS.size - 1)
    passes = [(_COARSE_PASS, reps[~wide], ll[~wide], m[~wide])]
    if wide.any():
        passes.append((_WIDE_PASS, reps[wide], *scan_pass(_WIDE_PASS, reps[wide])))
    peaks = []  # per pass, the (replicate, lo, hi, ll, eta, m) of each local peak
    for etas, rows, ll, m in passes:
        edge = np.full((rows.size, 1), -np.inf)
        left, right = np.hstack((edge, ll[:, :-1])), np.hstack((ll[:, 1:], edge))
        row, peak = np.nonzero((ll > left) & (ll >= right))
        lo, hi = etas[np.maximum(peak - 1, 0)], etas[np.minimum(peak + 1, etas.size - 1)]
        peaks.append((rows[row], lo, hi, ll[row, peak], etas[peak], m[row, peak]))
    lane_rep, lo, hi, *peak_scan = map(np.concatenate, zip(*peaks))
    root, ok = find_roots_bracketed(
        lambda x, lanes: _scan(family, x, lane_rep[lanes], logz, prefix_log, score=True), lo, hi
    )
    ll_root, m_root, _ = _scan(family, root[ok], lane_rep[ok], logz, prefix_log)
    candidates = [[] for _ in reps]  # (ll, eta, m) of each replicate's roots, then scanned peaks
    for rep, ll_c, eta, m_c in itertools.chain(
        zip(lane_rep[ok], ll_root, root[ok], m_root), zip(lane_rep, *peak_scan)
    ):
        candidates[rep].append((ll_c, float(eta), int(m_c)))
    return [max(c, key=lambda f: f[0])[1:] if c else None for c in candidates], wide


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
    (outcome,), _ = _fit_sorted(model, np.sort(np.asarray(y, dtype=float).ravel())[None, :])
    if isinstance(outcome, FitFailureError):
        raise outcome
    return outcome


def fit_batch(model: ModelId, samples):
    """fit on each row of an (R, n) matrix of samples, all rows in one pass.

    Returns (outcomes, wide): outcomes[i] is row i's result, or the
    FitFailureError fit raises for it, with fit's bits and message, and
    wide[i] tells whether row i's exponent search ran the wide pass.
    Raises ValueError, as fit does, when any row is not a valid sample.
    """
    arr = np.asarray(samples, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"samples must be a (replicates, n) matrix, got shape {arr.shape}")
    return _fit_sorted(model, np.sort(arr, axis=1))


def _caught(f, *args):
    """f(*args), or the FitFailureError it raises."""
    try:
        return f(*args)
    except FitFailureError as exc:
        return exc


def _fit_sorted(model, arr):
    """fit_batch on a matrix whose rows are sorted."""
    count, n = arr.shape
    if n < 10:
        raise ValueError(f"need at least 10 observations, got {n}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("observations must be finite")
    if not np.all(arr[:, 0] > 0.0):
        raise ValueError("observations must be strictly positive")
    # the composite and Weibull fits take logs of y / max(y), so it must stay normal
    if not np.all(arr[:, 0] / arr[:, -1] >= sys.float_info.min):
        raise ValueError("observations must span less than the float range (min / max underflows)")
    if not model.is_composite:
        return [_caught(_fit_baseline, model, row) for row in arr], np.zeros(count, dtype=bool)
    best, wide = _split_search(model, arr)
    return _fit_results(model, arr, best), wide


def _split_search(model, arr):
    """Per sorted row, the (eta, m) its profile likelihood peaks at, or None
    where no exponent admits a valid split; and the mask of rows whose
    search ran the wide pass."""
    count = arr.shape[0]
    family = model.composite_family
    logz = np.log(arr / arr[:, -1:])
    prefix_log = np.hstack((np.zeros((count, 1)), np.cumsum(logz, axis=1)))
    fixed = model.fixed_exponent
    if fixed is None:
        return _search(family, logz, prefix_log)
    _, m, found = _scan(family, np.full(count, fixed), np.arange(count), logz, prefix_log)
    best = [(fixed, int(m_i)) if ok else None for m_i, ok in zip(m, found)]
    return best, np.zeros(count, dtype=bool)


def _fit_results(model, arr, best):
    """Each sorted row's FitResult at the (eta, m) its search found, or the
    FitFailureError that refuses it: no valid split, or a theta outside the
    normal float range.  One log-density pass over the rows that pass gives
    every nll."""
    family = model.composite_family
    _, factor, theta_at, _, _ = _FAMILIES[family]
    n, p = arr.shape[1], model.param_count
    if model.fixed_exponent is None:
        no_split = f"{model.value}: no exponent admits a valid breakpoint split"
    else:
        no_split = f"{model.value}: no valid breakpoint split at the fixed exponent"
    outcomes = []
    kept = []  # (row, theta, eta, m) of each row that passes
    # The search ran on y / max(y); on the data's own scale the head power
    # sum can overflow or underflow (an ig sum of 0 gives theta = inf).  A
    # subnormal theta is refused too: the exp head rate (alpha+1)/theta
    # overflows there.
    with np.errstate(over="ignore", divide="ignore"):
        for i, (row, fitted) in enumerate(zip(arr, best)):
            if fitted is None:
                outcomes.append(FitFailureError(no_split))
                continue
            eta, m = fitted
            power = eta if family == "exp" else -eta
            # np.sum's own pairwise reduction, without its wrapper
            theta = float(theta_at(np.add.reduce(row[:m] ** power), factor(m, n)))
            if not sys.float_info.min <= theta < math.inf:
                outcomes.append(FitFailureError(
                    f"{model.value}: the profiled theta = y_b^eta at eta={eta:g} "
                    f"leaves the normal float range ({theta:g}); rescale the data"
                ))
                continue
            outcomes.append(None)
            kept.append((i, theta, eta, m))
    if kept:
        rows, thetas, etas, ms = zip(*kept)
        nlls = -np.sum(log_pdf_rows(model, thetas, etas, arr[list(rows)]), axis=1)
        for i, theta, eta, m, nll in zip(rows, thetas, etas, ms, nlls.tolist()):
            outcomes[i] = FitResult(model=model, theta=theta, eta=eta, m=m, nll=nll, n=n, p=p)
    return outcomes


def _fit_baseline(model, row):
    """BaselineFitResult of a sorted sample."""
    fit_shape_scale, density = _BASELINES[model]
    shape, scale = fit_shape_scale(row)
    nll = -float(np.sum(density(shape=shape, scale=scale).log_pdf(row)))
    return BaselineFitResult(
        model=model, shape=shape, scale=scale, nll=nll, n=row.size, p=model.param_count
    )


# -- reference-model fits --------------------------------------------------


def _shape_root(f, lo, hi, *, factor, name):
    """Root of the increasing scalar f, once [lo, hi] is widened by factor
    until f is negative at lo, positive at hi.

    Each end moves at most 200 times; FitFailureError names the end that
    found no sign change.  The root is solved as one lane, and no point is
    evaluated twice; a score that turns NaN gives a NaN shape, which the
    baseline density refuses.
    """
    f = functools.cache(f)  # the solver starts from the ends the widening evaluated
    for _ in range(200):
        if f(lo) < 0.0:
            break
        lo /= factor
    else:
        raise FitFailureError(f"{name}: shape equation has no lower bracket")
    for _ in range(200):
        if f(hi) > 0.0:
            break
        hi *= factor
    else:
        raise FitFailureError(f"{name}: shape equation has no upper bracket")
    root, _ = find_roots_bracketed(lambda x, _: np.array([f(v) for v in x.tolist()]), [lo], [hi])
    return float(root[0])


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

    shape = _shape_root(score, 0.5, 2.0, factor=2.0, name="weibull")
    scale = s * float(np.mean(z**shape)) ** (1.0 / shape)
    return shape, scale


def _fit_inverse_gamma(arr: np.ndarray) -> tuple[float, float]:
    # digamma(a) - log(a) rises from -inf to 0, so the shape equation
    # log(a) - digamma(a) = log(mean(1/y)) + mean(log y) has a unique root
    # whenever the right side is positive (strict unless y is constant).
    mean_inv = float(np.mean(1.0 / arr))
    mean_log = float(np.mean(np.log(arr)))
    rhs = math.log(mean_inv) + mean_log
    if not rhs > 0.0:
        raise FitFailureError("inverse gamma: degenerate sample, no shape root")

    # the shape equation negated, so that it increases: rounding is symmetric
    # under negation, so each value is the negation of log(a) - digamma(a) - rhs
    digamma = _scipy_special().digamma

    def h(a: float) -> float:
        return float(digamma(a)) - math.log(a) + rhs

    shape = _shape_root(h, 0.5, 10.0, factor=10.0, name="inverse gamma")
    scale = shape / mean_inv
    return shape, scale


# baseline id -> (its (shape, scale) fit, its density)
_BASELINES = {
    ModelId.WEIBULL: (_fit_weibull, WeibullDensity),
    ModelId.INVERSE_GAMMA: (_fit_inverse_gamma, InverseGammaDensity),
}
