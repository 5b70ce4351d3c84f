"""Maximum-likelihood fitting by the exact profile likelihood.

For the composite families the likelihood has a closed-form maximizer in
the breakpoint parameter once the transform exponent and the head count m
are fixed, so fitting reduces to a one-dimensional search over the
exponent: for each exponent, find the unique split m consistent with the
order statistics and plug in the profiled breakpoint.

This profile likelihood ell_p is concave in the exponent, up to the
printed constants.  The first valid split m never rises as eta grows: for
exp the lower test z_m^eta <= theta_m reads c_{m-1} <= (alpha+1)
sum_{i<m} (z_i / z_m)^eta, c the breakpoint's m-only factor, whose right
side falls as eta grows; for ig, k (1 + sum_{i<m} (z_m / z_i)^eta) <= c_m,
whose left side grows.  Each piece ell_m with c_m > 0 is strictly concave
(log sum_i z_i^eta is convex, Boyd & Vandenberghe, section 3.1.5), and the
pieces meet in value and slope where m changes, because the head and tail
densities do at the splice: (alpha+1) e^-(alpha+1) = alpha for exp.  With
the printed constants they meet to verify_composite's continuity gap, 1.5e-6
(exp) and 6.1e-7 (ig) in log density.  So a coarse pass of 9 log-spaced
exponents brackets the one peak, and a safeguarded Newton iteration
(rtsafe) solves the analytic profile score to zero in the bracket, from the
scanned peak, with the score's closed-form slope.  fit_batch fits many
samples of one size at once: their scans share blocks, and the brackets of
all samples are solved in lockstep as numpy arrays, one profile-score pass
a round, which also gives each point's profile likelihood and split; fit
is its one-sample case, so both give the same bits.
Each row's nll sums its row of one log-density sweep over the batch
(models.log_pdf_rows).

The Weibull and inverse-gamma reference fits solve their usual one-variable
score equations by bracketed root finding, each as one lane of
special.find_roots_bracketed, a port of scipy's brentq.
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
from .special import _ROOT_MAXITER, ROOT_RTOL, _scipy_special, find_roots_bracketed

__all__ = [
    "BaselineFitResult",
    "FitFailureError",
    "FitResult",
    "fit",
    "fit_batch",
]

# Log-spaced exponents of the coarse pass that brackets the profile's peak,
# and of the wide pass run where its scores put the peak past its ends: both
# at a step of a factor of about 2.1, built once.  Neither end of the wide
# pass admits a split on float data: past 1e20 every z < 1 gives
# z^eta == 0, below 1e-20 every z^eta rounds to 1.
_COARSE_PASS = np.geomspace(0.05, 20.0, 9)
_WIDE_PASS = np.geomspace(1e-20, 1e20, 124)
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


def _scan(family, etas, reps, logz, prefix_log):
    """Profile log-likelihood and score of each row at its first valid split.

    Row i is replicate reps[i], a row of logz, at exponent etas[i].  Returns
    (ll, m, found, score, slope): ll = -inf and m = 1 where no m is valid;
    the profile score d ell_p / d eta and its slope, the second derivative
    -n / eta^2 - c_m Var_w(log z) of ell_m at the split, where c_m is the
    breakpoint's m-only factor and w the head powers over their sum: it is
    negative at every valid split, as c_m > 0 there.  Both read 0.0 where no
    m is valid: a root solve stops where the score reads 0.0, and that
    root's ll of -inf then loses.

    A block holds at most _SCAN_BLOCK cells.  Rows that fit are scanned
    whole, several to a block; one replicate's logz row is broadcast, not
    copied.  A longer row runs alone in chunks of _SCAN_BLOCK columns (at
    least 2), each sharing its last column with the next, and stops at the
    first chunk that holds a valid split; a row with none is scanned to its
    end.  Each chunk's cumsum restarts from the carried head sum, added into
    its first power, so every head sum has the bits of one cumsum over the
    row.  The head sums of p log z and of p (log z - mean)^2, p the head
    powers and mean the first sum over the head power sum, are pairwise
    sums over all n columns with the powers past the split zeroed: masked
    in a block of whole rows, and in an n-long row of a long row's powers.
    So the temporaries stay small whatever n and the number of rows are,
    apart from n-long rows: the breakpoint's m-only factors, the head powers
    and their products.
    """
    normalizer, factor, theta_at, loglik, profile_score = _FAMILIES[family]
    n = logz.shape[1]
    found = np.empty(etas.size, dtype=bool)
    first = np.empty(etas.size, dtype=np.intp)
    head_sum = np.empty(etas.size)
    head_dot = np.empty(etas.size)  # head sums of p log z and p (log z - mean)^2
    head_var = np.empty(etas.size)
    rows = max(1, _SCAN_BLOCK // n)
    width = n if n <= _SCAN_BLOCK else max(_SCAN_BLOCK, 2)
    factors = factor(np.arange(1, n), n)
    heads = np.empty(n) if width < n else None
    # a long row's products for the score's sums, allocated once as heads is:
    # an n-long temporary a row raised the peak RSS of a 20 000-row compare
    spread = np.empty((1, n)) if heads is not None else None
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
                # E's buffer), the powers p the score's sums weigh too
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
            # n-long pairwise sums, the powers past the head zeroed
            if heads is None:
                P = np.where(np.arange(n) <= at[:, None], power, 0.0)
            else:
                heads[at[0] + 1 :] = 0.0
                P = heads[None, :]
            T = P * Z if spread is None else np.multiply(P, Z, out=spread)
            dot = np.add.reduce(T, axis=1)
            # the spread of log z about its weighted head mean
            np.subtract(Z, (dot / head_sum[block])[:, None], out=T)
            T *= T
            T *= P
            head_dot[block] = dot
            head_var[block] = np.add.reduce(T, axis=1)
        m = first + 1
        total_log = prefix_log[reps, -1]
        head_log = prefix_log[reps, m]
        tail_log = total_log - head_log
        # the same elementwise formula as Th, so th is Th at the chosen split
        th = theta_at(head_sum, factors[first])
        ll0 = n * math.log(normalizer()) + n * np.log(etas) + (etas - 1.0) * total_log
        ll = np.where(found, loglik(ll0, etas, m, th, head_sum, head_log, tail_log, n), -np.inf)
        slope = -n / etas**2 - factors[first] * (head_var / head_sum)
        return (
            ll,
            m,
            found,
            np.where(found, profile_score(etas, th, head_dot, head_log, tail_log, n), 0.0),
            np.where(found, slope, 0.0),
        )


def _newton_roots(evaluate, x, ll, m, f, df):
    """Root of the profile score in each lane's bracket [x[0, i], x[1, i]],
    by a safeguarded Newton iteration from x[2, i] (rtsafe, Press et al.,
    Numerical Recipes, section 9.4), all lanes in lockstep.

    ll, m, f and df hold _scan's ll, m, score and slope at the three points
    x of each lane, as the pass that found the brackets gave them.
    evaluate(x, lanes) gives _scan's (ll, m, found, score, slope) of lane
    lanes[j] at x[j]; each round calls it once, over every lane still
    running.  As in brentq's contract, a lane has a root only where its
    ends' scores differ in sign bit, or one of them is 0.0, which is then
    the root.  Each evaluated point replaces the bracket end whose score has
    its sign.  The next point is the Newton step, or the bracket's midpoint
    where that step leaves the bracket, where the slope is not negative, or
    where the step is longer than half the step before last.  A lane stops
    at a point whose score is 0.0 or whose next step is at most ROOT_RTOL of
    it: that point is its root, with the ll and m of the round that
    evaluated it.

    Returns (root, ll, m, ok); ok is False, and root NaN, where the ends
    hold no sign change or a score is NaN.  Raises RuntimeError when a lane
    has not converged within _ROOT_MAXITER rounds.
    """
    size = x.shape[1]
    f_lo, f_hi = f[0], f[1]
    ok = ~np.isnan(f_lo) & ~np.isnan(f_hi)
    ok &= (f_lo == 0.0) | (f_hi == 0.0) | (np.signbit(f_lo) != np.signbit(f_hi))
    sign_lo = np.signbit(f_lo)
    lo, hi = x[0].copy(), x[1].copy()
    # each lane's current point: an end where the score is 0.0, else the start
    at = np.where(f_lo == 0.0, 0, np.where(f_hi == 0.0, 1, 2)), np.arange(size)
    x, ll, m, f, df = x[at], ll[at], m[at], f[at], df[at]
    ok &= ~np.isnan(f)
    last = hi - lo  # the step to the current point
    before = last.copy()  # the step before it
    i = np.flatnonzero(ok & (at[0] == 2))  # the lanes still running
    rounds = 0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        while i.size:
            xi, fi, dfi = x[i], f[i], df[i]
            low = np.signbit(fi) == sign_lo[i]
            lo[i] = np.where(low, xi, lo[i])
            hi[i] = np.where(low, hi[i], xi)
            newton = xi - fi / dfi
            good = (dfi < 0.0) & (lo[i] <= newton) & (newton <= hi[i])
            good &= np.abs(2.0 * fi) <= np.abs(before[i] * dfi)
            nxt = np.where(good, newton, 0.5 * (lo[i] + hi[i]))
            before[i], last[i] = last[i], nxt - xi
            going = (fi != 0.0) & (np.abs(nxt - xi) > ROOT_RTOL * np.abs(xi))
            i = i[going]
            if not i.size:
                break
            rounds += 1
            if rounds > _ROOT_MAXITER:
                raise RuntimeError(f"Failed to converge after {_ROOT_MAXITER} iterations")
            x[i] = nxt[going]
            ll[i], m[i], _, f[i], df[i] = evaluate(x[i], i)
            ok[i[np.isnan(f[i])]] = False
            i = i[ok[i]]
    return np.where(ok, x, np.nan), ll, m, ok


def _search(family, logz, prefix_log):
    """Per replicate (row of logz): its (eta, m) maximizing the profile
    likelihood, or None; and a mask of the replicates that ran the wide pass.

    The coarse pass scores 9 exponents from 0.05 to 20.  The profile is
    concave, so its peak lies below 0.05 where the best exponent is 0.05 and
    its score is negative, above 20 where the best is 20 and its score is
    positive; there, and where no exponent has a valid split, the wide pass
    over 1e-20 to 1e20 replaces it.  Each local peak of a replicate's pass
    is bracketed by its neighbours, and the brackets of all replicates
    solve the profile score in lockstep by _newton_roots, each from its
    peak, with the pass's own values at the bracket's three points.  Each
    peak offers its root and its scanned exponent: a replicate's fit is the
    first maximum of its roots, then its scanned peaks, both in peak order,
    so a root beats a scanned exponent it ties, and the smallest of tied
    scanned exponents wins.  A pass's ll is finite at a valid split and -inf
    elsewhere, never NaN, so a replicate has a peak (its pass's first
    maximum) iff it has a valid split.  The concave profile gives a pass one
    local peak; several occur only on constructed profiles, and a bracket of
    the 9-exponent pass spans 1.5 in log eta, so it solves both of two peaks
    only where they lie well over that apart.
    """

    def scan_pass(etas, rows):
        """_scan's (ll, m, score, slope) of each replicate of rows at every
        exponent of etas, as (rows, exponents) tables."""
        grid = np.tile(etas, rows.size), np.repeat(rows, etas.size)
        ll, m, _, score, slope = _scan(family, *grid, logz, prefix_log)
        return [a.reshape(rows.size, etas.size) for a in (ll, m, score, slope)]

    reps = np.arange(logz.shape[0])
    table = scan_pass(_COARSE_PASS, reps)
    ll, _, score, _ = table
    top, end = np.argmax(ll, axis=1), _COARSE_PASS.size - 1
    # no valid split, or the best exponent is an end whose score points out
    wide = np.isneginf(ll[reps, top]) | ((top == 0) & (score[:, 0] < 0.0))
    wide |= (top == end) & (score[:, end] > 0.0)
    passes = [(_COARSE_PASS, reps[~wide], [a[~wide] for a in table])]
    if wide.any():
        passes.append((_WIDE_PASS, reps[wide], scan_pass(_WIDE_PASS, reps[wide])))
    lanes = []  # per pass, each local peak's replicate, and the pass at its (lo, hi, peak)
    for etas, rows, table in passes:
        ll = table[0]
        edge = np.full((rows.size, 1), -np.inf)
        left, right = np.hstack((edge, ll[:, :-1])), np.hstack((ll[:, 1:], edge))
        row, peak = np.nonzero((ll > left) & (ll >= right))
        cols = np.stack((np.maximum(peak - 1, 0), np.minimum(peak + 1, etas.size - 1), peak))
        lanes.append((rows[row], etas[cols], *(a[row, cols] for a in table)))
    lane_rep, x, ll, m, score, slope = (np.concatenate(a, axis=-1) for a in zip(*lanes))
    root, ll_root, m_root, ok = _newton_roots(
        lambda x, lanes: _scan(family, x, lane_rep[lanes], logz, prefix_log),
        x, ll, m, score, slope,
    )
    candidates = [[] for _ in reps]  # (ll, eta, m) of each replicate's roots, then scanned peaks
    for rep, ll_c, eta, m_c in itertools.chain(
        zip(lane_rep[ok], ll_root[ok], root[ok], m_root[ok]), zip(lane_rep, ll[2], x[2], m[2])
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
    _, m, found, _, _ = _scan(family, np.full(count, fixed), np.arange(count), logz, prefix_log)
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
