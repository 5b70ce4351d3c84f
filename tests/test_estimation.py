"""Profile formulas, split detection, profile-score search, baseline fitters."""

import math
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.stats as st
from hypothesis import given, settings, strategies as hst
from scipy.optimize import minimize_scalar
from scipy.special import digamma

from expcomposite import estimation
from expcomposite.estimation import (
    FitFailureError,
    FitResult,
    _scan,
    fit,
    fit_batch,
)
from expcomposite.models import (
    EXP_PARETO,
    IG_PARETO,
    InverseGammaDensity,
    ModelId,
    WeibullDensity,
    build,
    exp_pareto_spec,
    ig_pareto_spec,
)
from test_special import find_root_bracketed

SAMPLE = build(ModelId.EXP_EXP_PARETO, 1.0, 0.8).sample(200, seed=7)
SAMPLE_IG = build(ModelId.EXP_IG_PARETO, 1.0, 0.8).sample(200, seed=11)
SAMPLE_2000 = build(ModelId.EXP_IG_PARETO, 1.0, 2.0).sample(2000, seed=3)


# -- profiled breakpoint formulas ------------------------------------------
#
# theta_profile_* apply the closed forms to a raw sample with argument
# checks; they are the oracles the scan and the fit are held to.  The closed
# forms take (head sum, m, n); the estimator forms the same expression as
# theta_at(head sum, factor(m, n)).


def _exp_theta(head_sum, m, n):
    """Exp-family breakpoint (alpha+1) sum_{i<=m} y_i^eta / ((alpha+1) m - alpha n)."""
    alpha = EXP_PARETO.alpha
    return (alpha + 1.0) * head_sum / ((alpha + 1.0) * m - alpha * n)


def _ig_theta(inv_sum, m, n):
    """Ig-family breakpoint (alpha m + (alpha-k)(n-m)) / (k sum_{i<=m} y_i^-eta)."""
    alpha, k = IG_PARETO.alpha, IG_PARETO.k
    return (alpha * m + (alpha - k) * (n - m)) / (k * inv_sum)


PROFILE_THETA = {"exp": _exp_theta, "ig": _ig_theta}


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



def test_exp_profile_worked_example():
    th = theta_profile_exp_pareto(1.0, 2, (1.0, 2.0, 3.0, 4.0))
    assert th == pytest.approx(3.1152142074754163, rel=1e-12)
    assert round(th, 5) == 3.11521


def test_exp_profile_denominator_guard():
    # m = 1, n = 4 puts (alpha+1)m - alpha*n below zero
    with pytest.raises(ValueError, match="denominator"):
        theta_profile_exp_pareto(1.0, 1, (1.0, 2.0, 3.0, 4.0))


@pytest.mark.parametrize(
    "profile", [theta_profile_exp_pareto, theta_profile_ig_pareto]
)
def test_profile_argument_validation(profile):
    y = (1.0, 2.0, 3.0, 4.0)
    for bad_m in (0, 4, 2.5):
        with pytest.raises(ValueError):
            profile(1.0, bad_m, y)


def _fixed_split_loglik(family, theta, eta, m, y):
    # membership is held at the given m while theta varies; branch selection
    # must not snap back to the breakpoint, hence raw spec densities
    spec = ig_pareto_spec(theta) if family == "ig" else exp_pareto_spec(theta)
    x = np.asarray(y) ** eta
    ll = y.size * math.log(spec.norm_const)
    ll += float(np.sum(np.log([spec.head_density(v) for v in x[:m]])))
    ll += float(np.sum(np.log([spec.tail_density(v) for v in x[m:]])))
    ll += y.size * math.log(eta) + (eta - 1.0) * float(np.sum(np.log(y)))
    return ll


@pytest.mark.parametrize(
    "family,profile,data",
    [
        ("exp", theta_profile_exp_pareto, SAMPLE),
        ("ig", theta_profile_ig_pareto, SAMPLE_IG),
    ],
)
def test_profile_maximizes_fixed_split_likelihood(family, profile, data):
    y = np.sort(data)
    eta, m = 1.1, 120
    th = profile(eta, m, y)
    grid = th * np.linspace(0.9, 1.1, 401)
    lls = [_fixed_split_loglik(family, t, eta, m, y) for t in grid]
    best = grid[int(np.argmax(lls))]
    assert best == pytest.approx(th, rel=1.1 * 0.2 / 400)
    assert _fixed_split_loglik(family, th, eta, m, y) >= max(lls)


# -- split detection -------------------------------------------------------
#
# detect_m is the scalar oracle for the vectorized scan in fit.


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


def test_detect_m_worked_example():
    got = detect_m(1.0, (1.0, 2.0, 3.0, 4.0), theta_profile_exp_pareto)
    assert got is not None
    m, th = got
    assert m == 3
    assert th == pytest.approx(3.056521752255829, rel=1e-12)
    assert 3.0 <= th <= 4.0


def test_detect_m_validation():
    with pytest.raises(ValueError):
        detect_m(1.0, (3.0, 2.0, 1.0, 4.0), theta_profile_exp_pareto)
    with pytest.raises(ValueError):
        detect_m(1.0, (0.0, 1.0, 2.0), theta_profile_exp_pareto)
    with pytest.raises(ValueError):
        detect_m(1.0, (1.0,), theta_profile_exp_pareto)


def test_detect_m_none_for_degenerate_sample():
    assert detect_m(1.0, np.full(12, 5.0), theta_profile_exp_pareto) is None


def test_detect_m_agrees_with_exhaustive_scan():
    y = np.sort(SAMPLE)
    for eta in (0.6, 0.8, 1.0, 1.3):
        got = detect_m(eta, y, theta_profile_exp_pareto)
        powers = y**eta
        wanted = None
        for m in range(1, y.size):
            try:
                th = theta_profile_exp_pareto(eta, m, y)
            except ValueError:
                continue
            if powers[m - 1] <= th <= powers[m]:
                wanted = (m, th)
                break
        assert got == wanted and got is not None


# -- profile-likelihood fitting --------------------------------------------


def test_fit_input_validation():
    with pytest.raises(ValueError):
        fit(ModelId.EXP_EXP_PARETO, np.arange(1.0, 6.0))  # n < 10
    bad = np.r_[SAMPLE[:20], np.nan]
    with pytest.raises(ValueError):
        fit(ModelId.EXP_EXP_PARETO, bad)
    with pytest.raises(ValueError):
        fit(ModelId.EXP_EXP_PARETO, np.r_[SAMPLE[:20], -1.0])
    # SAMPLE ** 40 spans more than 1e-308 from its minimum to its maximum
    for model in ModelId:
        with pytest.raises(ValueError, match="float range"):
            fit(model, SAMPLE**40)


def test_fit_failure_on_degenerate_data():
    flat = np.full(12, 5.0)
    for model in (ModelId.EXP_EXP_PARETO, ModelId.EXP_IG_PARETO):
        with pytest.raises(FitFailureError):
            fit(model, flat)


@pytest.mark.parametrize(
    "model,scale",
    [
        (model, scale)
        for model in (ModelId.EXP_EXP_PARETO, ModelId.EXP_IG_PARETO)
        for scale in (1e70, 1e-70)
    ]
    # a subnormal theta, whose exp head rate (alpha+1)/theta overflows
    + [(ModelId.EXP_EXP_PARETO, 1e-60)],
)
def test_fit_refuses_theta_outside_float_range(model, scale):
    # the scan runs on y / max(y) and finds a split, but theta = y_b^eta at
    # the fitted eta near 5 overflows (or underflows) on the data's scale
    y = build(model, 1.0, 5.0).sample(200, seed=1) * scale
    with pytest.raises(FitFailureError, match="leaves the normal float range"):
        fit(model, y)


def test_fit_recovers_truth_loosely():
    y = build(ModelId.EXP_EXP_PARETO, 1.0, 0.8).sample(400, seed=3)
    res = fit(ModelId.EXP_EXP_PARETO, y)
    assert 0.6 < res.eta < 1.0
    assert 0.7 < res.theta < 1.4
    assert 1 <= res.m <= 399
    assert (res.n, res.p) == (400, 2)
    # the fitted likelihood should not lose to the generating parameters
    truth_nll = -float(np.sum(build(ModelId.EXP_EXP_PARETO, 1.0, 0.8).log_pdf(y)))
    assert res.nll <= truth_nll + 0.5


def test_fit_nll_recomputation_and_breakpoint():
    res = fit(ModelId.EXP_EXP_PARETO, SAMPLE)
    dens = build(ModelId.EXP_EXP_PARETO, res.theta, res.eta)
    assert res.nll == pytest.approx(-float(np.sum(dens.log_pdf(np.sort(SAMPLE)))), rel=1e-12)
    assert res.breakpoint == pytest.approx(res.theta ** (1.0 / res.eta), rel=1e-15)


def test_fit_is_exactly_scale_stable():
    # fit rescales by the maximum, but log(s y / max(s y)) is log(y / max y)
    # only to the last bit (2 of SAMPLE's 200 differ at s = 7.3), so the
    # fitted exponent moves by a few ulps: at most 7.1e-15 relative over
    # these 400 cases.  (The name dates from an assertion of equal bits.)
    for model in (ModelId.EXP_EXP_PARETO, ModelId.EXP_IG_PARETO):
        for seed in range(40):
            y = build(model, 1.0, 0.8).sample(200, seed=seed)
            base = fit(model, y)
            for s in (1e-6, 0.37, 7.3, 1e3, 1e8):
                scaled = fit(model, s * y)
                assert abs(scaled.eta / base.eta - 1.0) <= 1e-14
                assert scaled.m == base.m
                assert scaled.theta == pytest.approx(base.theta * s**base.eta, rel=1e-12)


def test_fit_ignores_input_order():
    rng = np.random.default_rng(5)
    shuffled = rng.permutation(SAMPLE)
    a, b = fit(ModelId.EXP_EXP_PARETO, SAMPLE), fit(ModelId.EXP_EXP_PARETO, shuffled)
    assert (a.eta, a.m, a.theta, a.nll) == (b.eta, b.m, b.theta, b.nll)


def test_one_parameter_variants_pin_the_exponent():
    for model, data in (
        (ModelId.EXP_PARETO_1P, SAMPLE),
        (ModelId.IG_PARETO_1P, SAMPLE_IG),
    ):
        res = fit(model, data)
        assert res.eta == 1.0
        assert res.p == 1


FAMILY_CASES = (
    (ModelId.EXP_EXP_PARETO, theta_profile_exp_pareto, SAMPLE),
    (ModelId.EXP_IG_PARETO, theta_profile_ig_pareto, SAMPLE_IG),
)


def old_grid_points(lower=0.05, upper=20.0, step=0.05):
    """Exponents of the fixed-step coarse pass the grid search used to scan."""
    # 1e-9 slack keeps the endpoint when (upper - lower) / step rounds down.
    count = int(math.floor((upper - lower) / step + 1e-9))
    return np.minimum(lower + step * np.arange(count + 1), upper)


def _oracle_nlls(model, profile, y, etas):
    """{eta: nll} at the split detect_m finds, for each exponent that has one."""
    out = {}
    for eta in etas:
        with np.errstate(over="ignore"):  # y**eta overflows at large eta
            got = detect_m(eta, y, profile)
        if got is not None:
            out[float(eta)] = -float(np.sum(build(model, got[1], eta).log_pdf(y)))
    return out


def test_fit_beats_the_scalar_reference_grid():
    # the fitted nll is at most the oracle's nll at every exponent the old
    # 0.05 grid search scanned: its coarse pass and its two tenfold
    # refinement rounds around the incumbent, over 0.5 to 1.45
    lower, upper = 0.5, 1.45
    for model, profile, data in FAMILY_CASES:
        y = np.sort(data)
        nlls = _oracle_nlls(model, profile, y, old_grid_points(lower, upper))
        step = 0.05
        for _ in range(2):
            incumbent = min(nlls, key=nlls.get)
            step /= 10.0
            cand = np.clip(incumbent + step * np.arange(-10, 11), lower, upper)
            nlls.update(_oracle_nlls(model, profile, y, np.unique(cand)))
        res = fit(model, data)
        assert all(res.nll <= v + 1e-12 * abs(v) for v in nlls.values())
        # the scan's split at the fitted exponent is the oracle's split
        m, th = detect_m(res.eta, y, profile)
        assert res.m == m
        assert res.theta == pytest.approx(th, rel=1e-12)


def _oracle_score(family, eta, y):
    """d ell_p / d eta by the envelope theorem, from plain sums on z = y / max y."""
    z = np.sort(y) / np.max(y)
    n = z.size
    profile = theta_profile_exp_pareto if family == "exp" else theta_profile_ig_pareto
    m, th = detect_m(eta, z, profile)
    logz = np.log(z)
    head, tail = logz[:m], logz[m:]
    if family == "exp":
        alpha = EXP_PARETO.alpha
        terms = (
            n / eta,
            logz.sum(),
            -(alpha + 1.0) * np.sum(z[:m] ** eta * head) / th,
            -(alpha + 1.0) * tail.sum(),
        )
    else:
        alpha, k = IG_PARETO.alpha, IG_PARETO.k
        terms = (
            n / eta,
            logz.sum(),
            -(alpha + 1.0) * head.sum(),
            k * th * np.sum(z[:m] ** (-eta) * head),
            -(alpha - k + 1.0) * tail.sum(),
        )
    return float(sum(terms)), float(sum(abs(t) for t in terms))


def _oracle_profile_ll(model, profile, y, eta):
    z = np.sort(y) / np.max(y)
    m, th = detect_m(eta, z, profile)
    return float(np.sum(build(model, th, eta).log_pdf(z)))


@pytest.mark.parametrize(
    "model,profile,data",
    FAMILY_CASES
    + (
        (ModelId.EXP_EXP_PARETO, theta_profile_exp_pareto, SAMPLE_2000),
        (ModelId.EXP_IG_PARETO, theta_profile_ig_pareto, SAMPLE_2000),
    ),
)
def test_profile_score_vanishes_at_the_fit(model, profile, data):
    family = model.composite_family
    res = fit(model, data)
    etas = estimation._COARSE_PASS
    assert etas[0] < res.eta < etas[-1]  # an interior maximum of the coarse pass
    score, size = _oracle_score(family, res.eta, data)
    # zero to rounding: the sum of terms of size ~size lands within a few
    # ulps of that size, plus the root's own tolerance times the curvature
    assert abs(score) <= 1e-13 * size
    # and the formula is the profile's derivative: central differences agree
    for eta in (0.7 * res.eta, 1.3 * res.eta):
        h = 1e-5 * eta
        diff = (
            _oracle_profile_ll(model, profile, data, eta + h)
            - _oracle_profile_ll(model, profile, data, eta - h)
        ) / (2.0 * h)
        assert _oracle_score(family, eta, data)[0] == pytest.approx(diff, rel=1e-6)


def test_refinement_never_hurts():
    # the fit never loses to the best exponent of the old 0.05 coarse pass
    for model, profile, data in FAMILY_CASES:
        coarse = _oracle_nlls(model, profile, np.sort(data), old_grid_points())
        assert fit(model, data).nll <= min(coarse.values()) + 1e-9


def test_a_peak_beyond_the_coarse_pass_is_the_mle():
    # Peaks past the coarse pass's ends: 20 for the eta=30 samples and their
    # square roots, 0.05 for SAMPLE (eta 0.8) raised to the 20th power, as
    # (SAMPLE**10)**2.  The wide pass finds them: y^a fits to eta/a, and the
    # profile score vanishes at every fit.
    samples = (
        build(ModelId.EXP_EXP_PARETO, 1.0, 30.0).sample(200, seed=1),
        build(ModelId.EXP_IG_PARETO, 1.0, 30.0).sample(200, seed=1),
        SAMPLE**10,
    )
    for model in (ModelId.EXP_EXP_PARETO, ModelId.EXP_IG_PARETO):
        family = model.composite_family
        for y in samples:
            eta = fit(model, y).eta
            for a in (1.0, 0.5, 2.0):
                res = fit(model, y**a)
                assert res.eta == pytest.approx(eta / a, rel=1e-12)
                score, size = _oracle_score(family, res.eta, y**a)
                assert abs(score) <= 1e-13 * size


@pytest.mark.parametrize("model,profile,data", FAMILY_CASES)
def test_an_interior_peak_scans_the_coarse_pass_only(monkeypatch, model, profile, data):
    # the wide pass runs only where the coarse pass's scores put the peak
    # past its ends; an interior fit scans the 9 exponents of the coarse
    # pass once, and then its one peak's lane, one exponent a Newton round
    rows = []
    real_scan = estimation._scan

    def recording_scan(family, etas, *args):
        rows.append(etas.size)
        return real_scan(family, etas, *args)

    monkeypatch.setattr(estimation, "_scan", recording_scan)
    _, wide = fit_batch(model, data[None, :])
    assert rows[0] == 9 and len(rows) > 1
    assert rows[1:] == [1] * (len(rows) - 1)
    assert not wide[0]


@pytest.mark.parametrize("model", [ModelId.EXP_EXP_PARETO, ModelId.EXP_IG_PARETO])
@pytest.mark.parametrize("true_eta", [0.07, 18.0])
def test_an_end_of_the_coarse_pass_whose_score_points_inward_brackets_the_peak(model, true_eta):
    # Where the coarse pass's best exponent is an end but its score points
    # into the pass, the concave profile peaks between that end and its
    # neighbour: the fit solves the score there and runs no wide pass.
    etas = estimation._COARSE_PASS
    checked = 0
    for seed in range(20):
        y = build(model, 1.0, true_eta).sample(50, seed=seed)
        ll, _, _, score, _ = _scan(*_scan_args(model.composite_family, y, etas))
        end = int(np.argmax(ll))
        if end not in (0, etas.size - 1) or (score[end] > 0.0) != (end == 0):
            continue
        (res,), wide = fit_batch(model, y[None, :])
        assert not wide[0]
        inner = etas[1] if end == 0 else etas[-2]
        assert min(inner, etas[end]) < res.eta < max(inner, etas[end])
        root, size = _oracle_score(model.composite_family, res.eta, y)
        assert abs(root) <= 1e-13 * size
        checked += 1
    assert checked >= 5


def _two_bumps(heights, centres, width=0.3, flat_below=0.0):
    """A profile with two bumps in log eta, its score and the score's slope;
    below flat_below the score reads +1, with slope 0, and holds no sign
    change."""

    def ell(eta):
        u = np.log(eta)
        return sum(h * np.exp(-0.5 * ((u - c) / width) ** 2) for h, c in zip(heights, centres))

    def bumps(eta):
        """d ell / d log eta and its derivative in log eta."""
        u = math.log(eta)
        du = ddu = 0.0
        for h, c in zip(heights, centres):
            g = h * math.exp(-0.5 * ((u - c) / width) ** 2)
            du += -g * (u - c) / width**2
            ddu += g * (((u - c) / width**2) ** 2 - 1.0 / width**2)
        return du, ddu

    def score(eta):
        if eta < flat_below:
            return 1.0
        return bumps(eta)[0] / eta

    def slope(eta):
        if eta < flat_below:
            return 0.0
        du, ddu = bumps(eta)
        return (ddu - du) / eta**2

    return ell, score, slope


def _record_newton_roots(mp):
    """Patch estimation._newton_roots through mp to record each call's
    (evaluate, lo, hi, (root, ll, m, ok)); returns the list of records."""
    calls = []
    real = estimation._newton_roots

    def recording(evaluate, x, *values):
        out = real(evaluate, x, *values)
        calls.append((evaluate, x[0], x[1], out))
        return out

    mp.setattr(estimation, "_newton_roots", recording)
    return calls


def _search_profiles(profiles):
    """estimation._search with replicate i's scan, score and slope replaced
    by profiles[i] = (ell, score, slope); returns its result and the (lo,
    hi, root, ok) of each bracket it solved."""

    def fake_scan(family, etas, reps, logz, prefix_log):
        ll = np.array([profiles[r][0](e) for e, r in zip(etas, reps)])
        out = ll, np.ones(etas.size, dtype=np.intp), np.ones(etas.size, dtype=bool)
        scores = [[profiles[r][k](float(e)) for e, r in zip(etas, reps)] for k in (1, 2)]
        return (*out, *map(np.array, scores))

    count = len(profiles)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(estimation, "_scan", fake_scan)
        calls = _record_newton_roots(mp)
        best, wide = estimation._search("exp", np.zeros((count, 10)), np.zeros((count, 11)))
    assert not wide.any()
    [(_, lo, hi, (root, _, _, ok))] = calls
    return best, list(zip(lo, hi, root, ok))


@settings(max_examples=30, deadline=None)
@given(
    first=hst.floats(min_value=math.log(0.1), max_value=math.log(0.3)),
    gap=hst.floats(min_value=2.0, max_value=3.0),
    heights=hst.tuples(
        hst.floats(min_value=1.0, max_value=3.0), hst.floats(min_value=1.0, max_value=3.0)
    ).filter(lambda h: abs(h[0] - h[1]) > 1e-3),
)
def test_search_solves_every_peak_of_a_bimodal_profile(first, gap, heights):
    # A constructed profile with two bumps in log eta stands in for the scan
    # and the score: every peak of the coarse pass is bracketed and solved,
    # and the higher root wins whichever side it lies on.  This checks the
    # lanes and the candidate rule, not the pass's resolution: a bracket of
    # the 9-exponent pass spans 1.5 in log eta, so with bumps 2 apart an end
    # can sit on the other bump's slope and hold no sign change.  The real
    # profile is concave, with one peak; here the pass has 40 exponents, a
    # bracket 0.31 wide.
    width = 0.3
    centres = (first, first + gap)
    ell, score, slope = _two_bumps(heights, centres, width)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(estimation, "_COARSE_PASS", np.geomspace(0.05, 20.0, 40))
        [(eta, m)], solved = _search_profiles([(ell, score, slope)])
    assert len(solved) == 2
    for (lo, hi, _, _), c in zip(solved, centres):
        assert lo < math.exp(c) < hi
    dense = np.geomspace(0.05, 20.0, 200_001)
    assert ell(eta) >= ell(dense).max()
    assert abs(score(eta)) <= 1e-9
    assert abs(math.log(eta) - centres[int(np.argmax(heights))]) < width


@pytest.mark.parametrize("heights", [(3.0, 1.0), (1.0, 3.0)])
def test_search_skips_a_peak_whose_score_keeps_one_sign(heights):
    # The same two-bump profile, but below the midpoint of the bumps the
    # score reads +1: the first peak's bracket holds no sign change.  The
    # search skips it and keeps the other root, or the best scanned
    # exponent where that is higher.
    width = 0.3
    centres = (math.log(0.2), math.log(0.2) + 2.5)
    midpoint = math.exp(sum(centres) / 2.0)
    ell, score, slope = _two_bumps(heights, centres, width, flat_below=midpoint)
    [(eta, m)], solved = _search_profiles([(ell, score, slope)])
    assert len(solved) == 2 and solved[0][1] < midpoint < solved[1][0]
    roots = [float(root) for _, _, root, ok in solved if ok]
    assert len(roots) == 1 and abs(math.log(roots[0]) - centres[1]) < width
    etas = estimation._COARSE_PASS
    best = float(etas[np.argmax(ell(etas))])
    assert eta == (best if heights[0] > heights[1] else roots[0])
    assert m == 1


def _newton_root(score, slope, lo, hi, start):
    """The root of one bracket by _newton_roots' iteration, one float at a
    time, or None where it finds none: its oracle, with the same arithmetic
    in the same order."""
    f_lo, f_hi = score(lo), score(hi)
    if math.isnan(f_lo) or math.isnan(f_hi):
        return None
    if f_lo == 0.0 or f_hi == 0.0:
        return lo if f_lo == 0.0 else hi
    if math.copysign(1.0, f_lo) == math.copysign(1.0, f_hi):
        return None
    x, f, df = start, score(start), slope(start)
    last = before = hi - lo
    for _ in range(estimation._ROOT_MAXITER + 1):
        if math.isnan(f):
            return None
        if math.copysign(1.0, f) == math.copysign(1.0, f_lo):
            lo = x
        else:
            hi = x
        nxt = 0.5 * (lo + hi)
        if df < 0.0 and lo <= x - f / df <= hi and abs(2.0 * f) <= abs(before * df):
            nxt = x - f / df
        before, last = last, nxt - x
        if f == 0.0 or abs(nxt - x) <= estimation.ROOT_RTOL * abs(x):
            return x
        x, f, df = nxt, score(nxt), slope(nxt)
    raise RuntimeError("no convergence")


def _per_bracket_search(ell, score, slope):
    """(eta, m) of a constructed profile as _newton_root finds it one bracket
    at a time: the oracle of the lockstep solve."""
    etas = estimation._COARSE_PASS
    ll = ell(etas)
    left = np.concatenate(([-np.inf], ll[:-1]))
    right = np.concatenate((ll[1:], [-np.inf]))
    fits = []
    for peak in np.flatnonzero((ll > left) & (ll >= right)):
        lo, hi = etas[max(peak - 1, 0)], etas[min(peak + 1, etas.size - 1)]
        root = _newton_root(score, slope, float(lo), float(hi), float(etas[peak]))
        if root is not None:
            fits.append((ell(np.array([root]))[0], root, 1))
    best = int(np.argmax(ll))
    fits.append((ll[best], float(etas[best]), 1))
    return max(fits, key=lambda f: f[0])[1:]


@settings(max_examples=20, deadline=None)
@given(
    profiles=hst.lists(
        hst.tuples(
            hst.floats(min_value=math.log(0.1), max_value=math.log(0.3)),
            hst.floats(min_value=2.0, max_value=3.0),
            hst.floats(min_value=1.0, max_value=3.0),
            hst.floats(min_value=1.0, max_value=3.0),
            hst.booleans(),
        ),
        min_size=2,
        max_size=5,
    )
)
def test_lockstep_search_solves_each_bimodal_profile_as_brentq_does(profiles):
    # Replicates with different two-bump profiles, some with a first peak
    # whose bracket holds no sign change, share one lockstep solve: each
    # gets the (eta, m) it gets alone, and that of the scalar Newton
    # iteration run on each bracket in turn.  (The name dates from the
    # Brent solver.)
    built = [
        _two_bumps((h1, h2), (first, first + gap), flat_below=math.exp(first + gap / 2) * flat)
        for first, gap, h1, h2, flat in profiles
    ]
    together, solved = _search_profiles(built)
    assert len(solved) == 2 * len(built)
    for profile, got in zip(built, together):
        [alone], _ = _search_profiles([profile])
        assert got == alone == _per_bracket_search(*profile)


@settings(max_examples=60, deadline=None)
@given(
    profiles=hst.lists(
        hst.tuples(
            hst.floats(min_value=math.log(0.1), max_value=math.log(0.3)),
            hst.floats(min_value=2.0, max_value=3.0),
            hst.sampled_from([1.0, 2.0, 3.0]),
            hst.sampled_from([1.0, 2.0, 3.0]),
            hst.sampled_from([0.0, 1.0, math.inf]),
            hst.integers(min_value=0, max_value=2),
        ),
        min_size=1,
        max_size=4,
    )
)
def test_search_breaks_exact_ties_as_the_per_bracket_rule_does(profiles):
    # Two-bump profiles rounded to a few decimals tie exactly: the scanned
    # exponents of a plateau, the two peaks of equal bumps, and a root whose
    # ll equals its peak's scanned ll.  A score that reads +1 below the
    # midpoint, or everywhere, leaves one peak or none a root.  A root wins
    # a tie with a scanned exponent, and among tied scanned exponents the
    # smallest wins.
    built = []
    for first, gap, h1, h2, flat, decimals in profiles:
        ell, score, slope = _two_bumps(
            (h1, h2), (first, first + gap), flat_below=math.exp(first + gap / 2) * flat
        )
        built.append(
            (lambda eta, ell=ell, decimals=decimals: np.round(ell(eta), decimals), score, slope)
        )
    together, _ = _search_profiles(built)
    assert together == [_per_bracket_search(*profile) for profile in built]


def _solved_lanes(model, y):
    """The evaluate, lo and hi that fit_batch of one sample hands
    _newton_roots, and the (root, ll, m, ok) it returns."""
    with pytest.MonkeyPatch.context() as mp:
        calls = _record_newton_roots(mp)
        fit_batch(model, y[None, :])
    [call] = calls
    return call


@settings(max_examples=30, deadline=None)
@given(
    family=hst.sampled_from(["exp", "ig"]),
    n=hst.integers(min_value=50, max_value=2000),
    true_eta=hst.floats(min_value=0.3, max_value=30.0),
    seed=hst.integers(min_value=0, max_value=2**16),
)
def test_newton_roots_are_brentq_roots_of_the_profile_score(family, n, true_eta, seed):
    # Each lane's root lies within 1e-12 of scipy's brentq root on the same
    # bracket of the real profile score, and its ll is not lower than the
    # brentq root's beyond rounding; a lane has a root iff brentq finds one.
    # Over 150 random samples the worst gaps were 9.4e-14 and 5.5e-15.
    model = ModelId.EXP_EXP_PARETO if family == "exp" else ModelId.EXP_IG_PARETO
    y = build(model, 1.0, true_eta).sample(n, seed=seed)
    evaluate, lo, hi, (root, ll, _, ok) = _solved_lanes(model, y)
    for lane in range(lo.size):

        def at(x):
            return evaluate(np.array([x]), np.array([lane]))

        try:
            want = find_root_bracketed(lambda x: at(x)[3][0], float(lo[lane]), float(hi[lane]))
        except ValueError:
            assert not ok[lane]
            continue
        assert ok[lane]
        assert abs(root[lane] - want) <= 1e-12 * want
        assert ll[lane] >= at(want)[0][0] - 1e-12 * abs(ll[lane])


# -- the profile is concave: one peak for the coarse pass to bracket -------
#
# The estimation docstring gives the argument; these tests hold its premise
# and its consequence on random samples.

PREMISE_SAMPLES = dict(
    family=hst.sampled_from(["exp", "ig"]),
    n=hst.integers(min_value=10, max_value=2000),
    true_eta=hst.floats(min_value=0.2, max_value=30.0),
    seed=hst.integers(min_value=0, max_value=2**16),
)


def _premise_sample(family, n, true_eta, seed):
    """The family's model and a sorted sample of it."""
    model = ModelId.EXP_EXP_PARETO if family == "exp" else ModelId.EXP_IG_PARETO
    return model, np.sort(build(model, 1.0, true_eta).sample(n, seed=seed))


def _premise_scan(family, n, true_eta, seed):
    """The sorted sample and _scan's (ll, m, found, score, slope) of it on a
    400-point grid over the coarse pass's range, up to the exponent past
    which z_1^eta underflows (z_1^-eta overflows for ig).  Past it the head
    powers are not the sample's, and the split found is a float artifact:
    at true eta 0.22, n = 77, seed 23777, z_1 is 1e-42, and the exp split
    rises from 20 to 24 near eta = 9.2."""
    _, y = _premise_sample(family, n, true_eta, seed)
    etas = np.geomspace(0.05, 20.0, 400)
    etas = etas[etas * math.log(y[-1] / y[0]) <= -math.log(sys.float_info.min)]
    return y, _scan(*_scan_args(family, y, etas))


@settings(max_examples=40, deadline=None)
@given(**PREMISE_SAMPLES)
def test_the_first_valid_split_never_rises_with_the_exponent(family, n, true_eta, seed):
    _, (_, m, found, _, _) = _premise_scan(family, n, true_eta, seed)
    assert np.all(np.diff(m[found]) <= 0)


@settings(max_examples=40, deadline=None)
@given(**PREMISE_SAMPLES)
def test_the_profile_score_changes_sign_at_most_once(family, n, true_eta, seed):
    # from + to -: past the first negative score, none is positive
    _, (_, _, found, score, _) = _premise_scan(family, n, true_eta, seed)
    score = score[found]
    falling = np.flatnonzero(score < 0.0)
    assert not falling.size or not np.any(score[falling[0] :] > 0.0)


def _density_nll(model, z, etas):
    """nll of the sorted sample z (max 1) under the composite at each
    exponent and the breakpoint of its first valid split, by the density
    alone; inf where no split is valid or build refuses the breakpoint."""
    family = model.composite_family
    n = z.size
    out = np.full(len(etas), np.inf)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for i, eta in enumerate(etas):
            heads = np.cumsum(z[:-1] ** (eta if family == "exp" else -eta))
            th = PROFILE_THETA[family](heads, np.arange(1, n), n)
            powers = z**eta
            ok = (th > 0.0) & (powers[:-1] <= th) & (th <= powers[1:])
            if ok.any():
                try:
                    density = build(model, float(th[np.argmax(ok)]), float(eta))
                except (ValueError, OverflowError):
                    continue
                out[i] = -np.sum(density.log_pdf(z))
    return out


@settings(max_examples=25, deadline=None)
@given(**PREMISE_SAMPLES)
def test_no_grid_and_polish_beats_the_fit(family, n, true_eta, seed):
    # The oracle: the density's nll on 2 000 exponents, then scipy's bounded
    # minimize_scalar over the best one's neighbours, never beats fit's nll
    # by more than rounding.  Over 700 random samples it beat it by at most
    # 4.1e-14 n.
    model, y = _premise_sample(family, n, true_eta, seed)
    z = y / y[-1]
    etas = np.geomspace(0.01, 1000.0, 2000)
    grid = _density_nll(model, z, etas)
    try:
        fitted = fit(model, y)
    except FitFailureError:
        assert np.all(np.isinf(grid))
        return
    best = int(np.argmin(grid))
    lo, hi = etas[max(best - 1, 0)], etas[min(best + 1, etas.size - 1)]
    polish = minimize_scalar(
        lambda eta: _density_nll(model, z, [eta])[0],
        bounds=(lo, hi),
        method="bounded",
        options={"xatol": 1e-12 * hi},
    )
    oracle = min(grid[best], polish.fun) + n * math.log(y[-1])
    assert oracle >= fitted.nll - 1e-12 * n


@pytest.mark.parametrize("model", [ModelId.EXP_EXP_PARETO, ModelId.EXP_IG_PARETO])
def test_a_fit_takes_at_most_five_score_passes_on_average(monkeypatch, model):
    # Every pass is a score pass: the coarse pass of 9 exponents, whose
    # values at each bracket's ends and peak start the Newton solve, then one
    # pass a Newton round.  A fit at n = 200 scans at most 16 rows and 6
    # passes on average (13.9 and 5.9 measured); the 40-exponent ll pass and
    # the score passes after it scanned about 46.7 rows.  (The name dates
    # from that search, which took at most five score passes.)
    passes, rows = [], []
    real_scan = estimation._scan

    def recording_scan(family, etas, *args):
        passes[-1] += 1
        rows[-1] += etas.size
        return real_scan(family, etas, *args)

    monkeypatch.setattr(estimation, "_scan", recording_scan)
    for seed in range(40):
        passes.append(0)
        rows.append(0)
        fit(model, build(model, 1.0, 0.8).sample(200, seed=seed))
    assert np.mean(rows) <= 16.0
    assert np.mean(passes) <= 6.0


@pytest.mark.parametrize(
    "model,data", [(ModelId.EXP_EXP_PARETO, SAMPLE), (ModelId.EXP_IG_PARETO, SAMPLE_IG)]
)
def test_the_score_slope_is_the_derivative_of_the_score(model, data):
    # -n / eta^2 - c_m Var_w(log z) against central differences of the
    # score, at exponents whose split holds on both sides
    args = _scan_args(model.composite_family, data, np.geomspace(0.3, 3.0, 25))
    _, m, found, score, slope = _scan(*args)
    etas, h = args[1], 1e-6 * args[1]
    _, m_up, _, up, _ = _scan(args[0], etas + h, *args[2:])
    _, m_down, _, down, _ = _scan(args[0], etas - h, *args[2:])
    same = found & (m_up == m) & (m_down == m)
    assert same.sum() >= 10
    assert np.all(slope[same] < 0.0)
    np.testing.assert_allclose(slope[same], ((up - down) / (2.0 * h))[same], rtol=1e-5)


def _fit_or_refusal(model, y):
    """fit's result, whose repr spells every float exactly, or its refusal."""
    try:
        return repr(fit(model, y))
    except FitFailureError as exc:
        return str(exc)


def _batch_fits(model, rows):
    outcomes, wide = fit_batch(model, np.array(rows))
    return [str(o) if isinstance(o, FitFailureError) else repr(o) for o in outcomes], wide


@settings(max_examples=20, deadline=None)
@given(
    model=hst.sampled_from(list(ModelId)),
    n=hst.integers(min_value=10, max_value=150),
    specs=hst.lists(
        hst.tuples(hst.sampled_from([0.3, 0.8, 5.0, 30.0]), hst.integers(0, 2**16)),
        min_size=1,
        max_size=5,
    ),
    degenerate=hst.sampled_from([None, 1.0, 1e160, 1e-160]),
    at=hst.integers(min_value=0, max_value=5),
)
def test_batch_fits_each_sample_as_fit_does(model, n, specs, degenerate, at):
    # Every replicate of a batch has fit's (eta, theta, m, nll) bit for bit,
    # or fit's refusal, and the wide-pass flag it has alone.  Samples at
    # eta 30 take the wide pass; a constant sample (degenerate = 1) has no
    # valid split, and samples scaled by 1e+-160 put theta out of range.
    gen = model if model.fixed_exponent is None and model.is_composite else ModelId.EXP_IG_PARETO
    rows = [build(gen, 1.0, eta).sample(n, seed=seed) for eta, seed in specs]
    if degenerate == 1.0:
        rows.insert(at % (len(rows) + 1), np.full(n, 2.0))
    elif degenerate is not None:
        rows.insert(at % (len(rows) + 1), rows[0] * degenerate)
    got, wide = _batch_fits(model, rows)
    assert got == [_fit_or_refusal(model, y) for y in rows]
    assert wide.tolist() == [bool(fit_batch(model, y[None, :])[1][0]) for y in rows]


@pytest.mark.parametrize("model", [ModelId.EXP_EXP_PARETO, ModelId.EXP_IG_PARETO])
def test_a_degenerate_sample_fails_alone_in_its_batch(model):
    # an interior fit, two wide-pass fits and a constant sample in one batch
    rows = [SAMPLE, build(model, 1.0, 30.0).sample(200, seed=1), np.full(200, 2.0), SAMPLE**20]
    got, wide = _batch_fits(model, rows)
    assert got == [_fit_or_refusal(model, y) for y in rows]
    assert got[2] == f"{model.value}: no exponent admits a valid breakpoint split"
    assert all(g.startswith("FitResult(") for i, g in enumerate(got) if i != 2)
    assert wide.tolist() == [False, True, True, True]


def test_batch_refuses_what_fit_refuses():
    good = build(ModelId.EXP_EXP_PARETO, 1.0, 0.8).sample(20, seed=1)
    for bad, message in (
        (np.full(20, np.inf), "finite"),
        (-good, "strictly positive"),
        (good[:9], "at least 10"),
    ):
        with pytest.raises(ValueError, match=message):
            fit(ModelId.EXP_EXP_PARETO, bad)
        if bad.size == good.size:
            with pytest.raises(ValueError, match=message):
                fit_batch(ModelId.EXP_EXP_PARETO, np.array([good, bad]))
    with pytest.raises(ValueError, match="matrix"):
        fit_batch(ModelId.EXP_EXP_PARETO, good)


def reference_fit_result(model, row, fitted):
    """The per-replicate result builder that _fit_results replaced, kept as
    its oracle: theta from the head power sum, then a composite built at
    (theta, eta) whose log_pdf over the sorted row gives the nll."""
    if fitted is None:
        if model.fixed_exponent is None:
            raise FitFailureError(f"{model.value}: no exponent admits a valid breakpoint split")
        raise FitFailureError(f"{model.value}: no valid breakpoint split at the fixed exponent")
    eta_hat, m_hat = fitted
    family = model.composite_family
    power = eta_hat if family == "exp" else -eta_hat
    profile = PROFILE_THETA[family]
    with np.errstate(over="ignore", divide="ignore"):
        theta_hat = float(profile(np.sum(row[:m_hat] ** power), m_hat, row.size))
    if not sys.float_info.min <= theta_hat < math.inf:
        raise FitFailureError(
            f"{model.value}: the profiled theta = y_b^eta at eta={eta_hat:g} "
            f"leaves the normal float range ({theta_hat:g}); rescale the data"
        )
    nll = -float(np.sum(build(model, theta_hat, eta_hat).log_pdf(row)))
    return FitResult(
        model=model, theta=theta_hat, eta=eta_hat, m=m_hat, nll=nll, n=row.size, p=model.param_count
    )


def _reference_outcome(model, row, fitted):
    """reference_fit_result's repr, or its refusal."""
    try:
        return repr(reference_fit_result(model, row, fitted))
    except FitFailureError as exc:
        return str(exc)


@settings(max_examples=30, deadline=None)
@given(
    model=hst.sampled_from([m for m in ModelId if m.is_composite]),
    n=hst.integers(min_value=10, max_value=2000),
    specs=hst.lists(
        hst.tuples(hst.floats(min_value=0.3, max_value=30.0), hst.integers(0, 2**16)),
        min_size=1,
        max_size=4,
    ),
    refused=hst.sampled_from([None, 1.0, 1e160, 1e-160]),
    at=hst.integers(min_value=0, max_value=4),
)
def test_batch_nll_is_the_density_nll(model, n, specs, refused, at):
    # One log-density pass over a batch gives each row the nll of its own
    # fitted composite, bit for bit, and the per-row builder's refusals.
    # Exponents near 30 take the wide pass; a constant row has no valid
    # split, and a row scaled by 1e+-160 may put theta out of range.
    gen = ModelId.EXP_EXP_PARETO if model.composite_family == "exp" else ModelId.EXP_IG_PARETO
    rows = [build(gen, 1.0, eta).sample(n, seed=seed) for eta, seed in specs]
    if refused == 1.0:
        rows.insert(at % (len(rows) + 1), np.full(n, 2.0))
    elif refused is not None:
        rows.insert(at % (len(rows) + 1), rows[0] * refused)
    arr = np.sort(np.array(rows), axis=1)
    best, _ = estimation._split_search(model, arr)
    want = [_reference_outcome(model, row, fitted) for row, fitted in zip(arr, best)]
    got, _ = _batch_fits(model, arr)
    assert got == want
    assert [_fit_or_refusal(model, row) for row in arr] == want
    for row, outcome in zip(arr, fit_batch(model, arr)[0]):
        if isinstance(outcome, FitResult):
            dens = build(model, outcome.theta, outcome.eta)
            assert outcome.nll == -float(np.sum(dens.log_pdf(row)))


@settings(max_examples=25, deadline=None)
@given(
    family=hst.sampled_from(["exp", "ig"]),
    true_eta=hst.floats(min_value=0.5, max_value=3.0),
    n=hst.integers(min_value=50, max_value=200),
    seed=hst.integers(min_value=0, max_value=2**16),
    s=hst.floats(min_value=0.1, max_value=10.0),
)
def test_fit_is_scale_equivariant(family, true_eta, n, seed, s):
    model = ModelId.EXP_EXP_PARETO if family == "exp" else ModelId.EXP_IG_PARETO
    y = build(model, 1.0, true_eta).sample(n, seed=seed)
    base, scaled = fit(model, y), fit(model, s * y)
    assert scaled.eta == pytest.approx(base.eta, rel=1e-12)
    assert scaled.theta == pytest.approx(s**base.eta * base.theta, rel=1e-12)


@settings(max_examples=25, deadline=None)
@given(
    family=hst.sampled_from(["exp", "ig"]),
    true_eta=hst.floats(min_value=0.5, max_value=3.0),
    n=hst.integers(min_value=50, max_value=200),
    seed=hst.integers(min_value=0, max_value=2**16),
    a=hst.floats(min_value=0.5, max_value=2.0),
)
def test_fit_is_power_equivariant(family, true_eta, n, seed, a):
    # Y -> Y^a is the same composite at exponent eta / a
    model = ModelId.EXP_EXP_PARETO if family == "exp" else ModelId.EXP_IG_PARETO
    y = build(model, 1.0, true_eta).sample(n, seed=seed)
    base, powered = fit(model, y), fit(model, y**a)
    assert powered.eta == pytest.approx(base.eta / a, rel=1e-12)


# Default fits, bit for bit (eta, theta, m, nll): any change to the search
# or to the arithmetic of the scan or the score shows here.
FROZEN_FITS = (
    (200, ModelId.EXP_EXP_PARETO, (0.7696111647065625, 1.0450185354102375, 85, 794.6981012371645)),
    (200, ModelId.EXP_IG_PARETO, (0.8792651748768638, 0.17223101294131235, 26, 840.351511191445)),
    (200, ModelId.EXP_PARETO_1P, (1.0, 0.8619648241730761, 77, 802.7884620545778)),
    (200, ModelId.IG_PARETO_1P, (1.0, 0.08796608587793991, 21, 842.467619468307)),
    (2000, ModelId.EXP_EXP_PARETO, (1.1323959714567038, 2.026856259288898, 850, 8503.478171000632)),
    (2000, ModelId.EXP_IG_PARETO, (2.012174250755945, 0.9231919597511425, 579, 8332.687520848809)),
    (2000, ModelId.EXP_PARETO_1P, (1.0, 2.0370882118266063, 885, 8519.34025596648)),
    (2000, ModelId.IG_PARETO_1P, (1.0, 2.1713897921993492, 902, 8768.367275625762)),
    # baselines store (shape, scale, nll)
    (200, ModelId.WEIBULL, (0.2089530057749274, 29.233647647755184, 861.7014966887724)),
    (200, ModelId.INVERSE_GAMMA, (0.18446124497984434, 0.012052840011108422, 832.5365552191054)),
    (2000, ModelId.WEIBULL, (0.21363952995262986, 39.15747262823079, 9720.253996410484)),
    (2000, ModelId.INVERSE_GAMMA, (0.38517838017933287, 0.48517196121245637, 8399.633182786305)),
)


FROZEN_SAMPLES = {200: SAMPLE, 2000: SAMPLE_2000}


@pytest.mark.parametrize("n,model,expected", FROZEN_FITS)
def test_default_fit_is_frozen(n, model, expected):
    res = fit(model, FROZEN_SAMPLES[n])
    if model.is_composite:
        assert (res.eta, res.theta, res.m, res.nll) == expected
    else:
        assert (res.shape, res.scale, res.nll) == expected


@pytest.mark.parametrize("family,data", [("exp", SAMPLE), ("ig", SAMPLE_IG)])
@pytest.mark.parametrize("block", [1, 450, 10**9])
def test_scan_is_the_same_in_any_row_blocks(monkeypatch, family, data, block):
    # 1 and 450 cells give one and two rows per block at n = 200, 10**9 one
    # block for the whole grid; every block size must give the same bits, of
    # the profile and of its score and slope.  Rows alternate between two replicates,
    # and each row has the bits of its replicate scanned alone.
    y = np.sort(np.stack((data, data**1.5)), axis=1)
    logz = np.log(y / y[:, -1:])
    prefix_log = np.hstack((np.zeros((2, 1)), np.cumsum(logz, axis=1)))
    etas = old_grid_points()
    reps = np.arange(etas.size) % 2
    args = (family, etas, reps, logz, prefix_log)
    expected = _scan(*args)
    for r in (0, 1):
        mine = reps == r
        alone = (family, etas[mine], reps[mine] * 0, logz[r : r + 1], prefix_log[r : r + 1])
        for got, want in zip(_scan(*alone), expected):
            assert got.tobytes() == want[mine].tobytes()
    monkeypatch.setattr(estimation, "_SCAN_BLOCK", block)
    for got, want in zip(_scan(*args), expected):
        assert got.tobytes() == want.tobytes()


def _scan_args(family, data, etas):
    """_scan's arguments for the rows of data, sorted, each at every exponent."""
    y = np.sort(np.atleast_2d(data), axis=1)
    logz = np.log(y / y[:, -1:])
    prefix_log = np.hstack((np.zeros((y.shape[0], 1)), np.cumsum(logz, axis=1)))
    reps = np.repeat(np.arange(y.shape[0]), etas.size)
    return family, np.tile(etas, y.shape[0]), reps, logz, prefix_log


@settings(max_examples=15, deadline=None)
@given(
    family=hst.sampled_from(["exp", "ig"]),
    true_eta=hst.floats(min_value=0.3, max_value=5.0),
    n=hst.integers(min_value=70, max_value=200),
    seed=hst.integers(min_value=0, max_value=2**16),
    etas=hst.lists(hst.floats(min_value=0.05, max_value=20.0), min_size=1, max_size=6),
)
def test_scan_is_the_same_in_any_column_chunks(family, true_eta, n, seed, etas):
    # Rows longer than _SCAN_BLOCK run in chunks of that many columns; every
    # chunk width gives the bits of one block over the whole grid, of the
    # profile and of its score and slope.  1e-20 and 1e20 admit no split, so their rows
    # are scanned to the end.  A block of m + 1 puts split m last in the first
    # chunk, whose test reads the overlap column; a block of m puts it first
    # in the second chunk, whose head sum starts from the carried one.
    model = ModelId.EXP_EXP_PARETO if family == "exp" else ModelId.EXP_IG_PARETO
    data = build(model, 1.0, true_eta).sample(n, seed=seed)
    etas = np.array([1e-20, true_eta, *etas, 1e20])
    args = _scan_args(family, np.stack((data, data**1.5)), etas)
    expected = _scan(*args)
    _, m, found = expected[:3]
    assert not found.all()
    blocks = {2, 3, 7, 64, 10**9} | {int(k) + d for k in m[found] for d in (0, 1)}
    for block in sorted(blocks):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(estimation, "_SCAN_BLOCK", block)
            for got, want in zip(_scan(*args), expected):
                assert got.tobytes() == want.tobytes(), block


@pytest.mark.parametrize("family,data", [("exp", SAMPLE), ("ig", SAMPLE_IG)])
@pytest.mark.parametrize("block", [2, 16, 199])
def test_a_long_row_is_tested_up_to_its_first_valid_split(monkeypatch, family, data, block):
    # Each _first_split call tests one chunk of one row: its columns lo to
    # hi - 1, the next chunk starting at hi - 1.  A row stops at the chunk
    # that holds its first valid split, and a row with none is tested on to
    # column n - 1.  A block of m + 1 holds split m in the first chunk.
    n = data.size
    spans = []
    real = estimation._first_split

    def recording(theta_at, head_sums, powers, factors, lo):
        spans.append((lo, lo + head_sums.shape[1]))
        return real(theta_at, head_sums, powers, factors, lo)

    monkeypatch.setattr(estimation, "_first_split", recording)
    etas = np.array([0.8, 1e20])
    (_, m, found, _, _), scanned = _scan(*_scan_args(family, data, etas)), list(spans)
    assert found.tolist() == [True, False] and m[1] == 1
    for first_chunk in (False, True):
        spans.clear()
        monkeypatch.setattr(estimation, "_SCAN_BLOCK", int(m[0]) + 1 if first_chunk else block)
        _scan(*_scan_args(family, data, etas))
        width = estimation._SCAN_BLOCK
        ends = list(range(width, n, width - 1))
        chunks = [(hi - width, hi) for hi in ends] + [(ends[-1] - 1 if ends else 0, n)]
        # split m is tested in the chunk whose columns hold m - 1 and m
        upto = next(i for i, (lo, hi) in enumerate(chunks) if lo <= m[0] - 1 < hi - 1)
        assert spans == chunks[: upto + 1] + chunks
        if first_chunk:
            assert spans[0] == (0, width) and upto == 0
    assert scanned == [(0, n)]


@pytest.mark.parametrize("family", ["exp", "ig"])
@pytest.mark.parametrize("wide", [False, True])
def test_scan_memory_stays_a_small_multiple_of_a_row(family, wide):
    # one long row over the coarse or the wide pass, whose rows past 1e17 or
    # so have no split and are scanned to their end: the chunks keep the
    # temporaries small, and only the breakpoint factors, the head powers
    # and their products are full rows
    model = ModelId.EXP_EXP_PARETO if family == "exp" else ModelId.EXP_IG_PARETO
    etas = estimation._WIDE_PASS[::8] if wide else estimation._COARSE_PASS
    args = _scan_args(family, build(model, 1.0, 0.8).sample(200_000, seed=2), etas)
    row_bytes = args[3].nbytes
    tracemalloc.start()
    try:
        _scan(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * row_bytes


@settings(max_examples=25)
@given(
    family=hst.sampled_from(["exp", "ig"]),
    true_eta=hst.floats(min_value=0.5, max_value=3.0),
    eta=hst.floats(min_value=0.2, max_value=6.0),
    n=hst.integers(min_value=10, max_value=120),
    seed=hst.integers(min_value=0, max_value=2**16),
)
def test_scan_picks_the_unique_valid_split(family, true_eta, eta, n, seed):
    model = ModelId.EXP_EXP_PARETO if family == "exp" else ModelId.EXP_IG_PARETO
    profile = theta_profile_exp_pareto if family == "exp" else theta_profile_ig_pareto
    y = np.sort(build(model, 1.0, true_eta).sample(n, seed=seed))
    z = y / y[-1]  # the scale fit hands to the scan
    powers = z**eta
    valid = []
    for m in range(1, n):
        try:
            th = profile(eta, m, z)
        except ValueError:
            continue
        if math.isfinite(th) and th > 0.0 and powers[m - 1] <= th <= powers[m]:
            valid.append(m)
    assert len(valid) <= 1
    logz = np.log(z)
    prefix_log = np.concatenate(([0.0], np.cumsum(logz)))
    ll, m_sel, found, _, _ = _scan(
        family, np.array([eta]), np.zeros(1, dtype=np.intp), logz[None, :], prefix_log[None, :]
    )
    assert bool(found[0]) == bool(valid)
    if valid:
        assert int(m_sel[0]) == valid[0] and math.isfinite(ll[0])
    else:
        assert ll[0] == -math.inf


# -- baseline fitters ------------------------------------------------------


def test_weibull_fit_matches_scipy():
    res = fit(ModelId.WEIBULL, SAMPLE)
    c, loc, scale = st.weibull_min.fit(SAMPLE, floc=0)
    assert loc == 0.0
    assert res.shape == pytest.approx(c, rel=1e-5)
    assert res.scale == pytest.approx(scale, rel=1e-5)
    dens = WeibullDensity(res.shape, res.scale)
    assert res.nll == pytest.approx(-float(np.sum(dens.log_pdf(SAMPLE))), rel=1e-12)
    assert (res.n, res.p) == (200, 2)


@pytest.mark.parametrize("root", [1e-3, 1.3, 400.0])
def test_shape_root_evaluates_each_point_once(root):
    # the solver starts from the bracket ends the widening evaluated
    seen = []

    def f(x):
        seen.append(x)
        return math.log(x / root)

    assert estimation._shape_root(f, 0.5, 2.0, factor=2.0, name="f") == pytest.approx(root)
    assert len(seen) == len(set(seen))


@pytest.mark.parametrize("model,message", [
    (ModelId.WEIBULL, "weibull: shape equation has no upper bracket"),
    (ModelId.INVERSE_GAMMA, "inverse gamma: degenerate sample, no shape root"),
])
def test_a_constant_sample_has_no_baseline_shape(model, message):
    # the Weibull score of a constant sample is -1/shape at every shape, and
    # its inverse gamma shape equation has a right side of 0
    with pytest.raises(FitFailureError, match=f"^{message}$"):
        fit(model, np.full(20, 3.0))


def test_fit_batch_returns_a_baseline_row_failure_with_the_others_fits():
    good = SAMPLE[:20]
    (failed, fitted), wide = fit_batch(ModelId.WEIBULL, np.array([np.full(20, 3.0), good]))
    assert isinstance(failed, FitFailureError)
    assert str(failed) == "weibull: shape equation has no upper bracket"
    assert fitted == fit(ModelId.WEIBULL, good)
    assert wide.tolist() == [False, False]


def test_inverse_gamma_fit_matches_scipy():
    res = fit(ModelId.INVERSE_GAMMA, SAMPLE_IG)
    # scipy's generic optimizer stops with a looser score residual, so it is
    # only a coarse cross-check; the exact-score solution must not lose to it
    a, loc, scale = st.invgamma.fit(SAMPLE_IG, floc=0)
    assert loc == 0.0
    assert res.shape == pytest.approx(a, rel=5e-4)
    assert res.scale == pytest.approx(scale, rel=5e-4)
    scipy_nll = -float(np.sum(st.invgamma(a, scale=scale).logpdf(SAMPLE_IG)))
    assert res.nll <= scipy_nll + 1e-9
    rhs = math.log(float(np.mean(1.0 / SAMPLE_IG))) + float(np.mean(np.log(SAMPLE_IG)))
    assert math.log(res.shape) - float(digamma(res.shape)) - rhs == pytest.approx(
        0.0, abs=1e-12
    )
    dens = InverseGammaDensity(res.shape, res.scale)
    assert res.nll == pytest.approx(-float(np.sum(dens.log_pdf(SAMPLE_IG))), rel=1e-12)
