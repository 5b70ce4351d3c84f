"""Profile formulas, split detection, grid search, baseline fitters."""

import math

import numpy as np
import pytest
import scipy.stats as st
from hypothesis import given, settings, strategies as hst
from scipy.special import digamma

from expcomposite import estimation
from expcomposite.estimation import (
    COARSE_STEP,
    REFINEMENT_ROUNDS,
    EtaGrid,
    FitFailureError,
    _scan,
    fit,
    theta_profile_exp_pareto,
    theta_profile_ig_pareto,
)
from expcomposite.models import (
    ModelId,
    build,
    exp_pareto_spec,
    ig_pareto_spec,
)

SAMPLE = build(ModelId.EXP_EXP_PARETO, 1.0, 0.8).sample(200, seed=7)
SAMPLE_IG = build(ModelId.EXP_IG_PARETO, 1.0, 0.8).sample(200, seed=11)


# -- profiled breakpoint formulas ------------------------------------------


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


# -- grid-search fitting ---------------------------------------------------


def test_fit_input_validation():
    with pytest.raises(ValueError):
        fit(ModelId.EXP_EXP_PARETO, np.arange(1.0, 6.0))  # n < 10
    bad = np.r_[SAMPLE[:20], np.nan]
    with pytest.raises(ValueError):
        fit(ModelId.EXP_EXP_PARETO, bad)
    with pytest.raises(ValueError):
        fit(ModelId.EXP_EXP_PARETO, np.r_[SAMPLE[:20], -1.0])


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
    s = 7.3
    for model, data in (
        (ModelId.EXP_EXP_PARETO, SAMPLE),
        (ModelId.EXP_IG_PARETO, SAMPLE_IG),
    ):
        base = fit(model, data)
        scaled = fit(model, s * data)
        # the internal rescale makes the scan see identical inputs
        assert scaled.eta == base.eta and scaled.m == base.m
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


def _oracle_best(model, profile, y, etas):
    """(nll, eta, m, theta) of the best exponent by detect_m, or None."""
    best = None
    for eta in etas:
        with np.errstate(over="ignore"):  # y**eta overflows at large eta
            got = detect_m(eta, y, profile)
        if got is None:
            continue
        m, th = got
        nll = -float(np.sum(build(model, th, eta).log_pdf(y)))
        if best is None or nll < best[0] - 1e-12:
            best = (nll, eta, m, th)
    return best


def test_fit_matches_scalar_reference_search():
    # the vectorized scan must agree with a plain loop over every candidate
    # fit scans: the coarse pass, then each refinement round around the winner
    grid = EtaGrid(lower=0.5, upper=1.45)
    for model, profile, data in FAMILY_CASES:
        y = np.sort(data)
        best = _oracle_best(model, profile, y, grid.points())
        step = COARSE_STEP
        for _ in range(REFINEMENT_ROUNDS):
            step /= 10.0
            cand = best[1] + step * np.arange(-10, 11)
            local = _oracle_best(
                model, profile, y, np.unique(np.clip(cand, grid.lower, grid.upper))
            )
            if local[0] < best[0] - 1e-12:
                best = local
        res = fit(model, data, grid=grid)
        assert res.eta == pytest.approx(best[1], abs=1e-12)
        assert res.m == best[2]
        assert res.theta == pytest.approx(best[3], rel=1e-10)
        assert res.nll == pytest.approx(best[0], rel=1e-10)


def test_refinement_never_hurts():
    # the refined fit never loses to the best coarse exponent
    for model, profile, data in FAMILY_CASES:
        coarse = _oracle_best(model, profile, np.sort(data), EtaGrid().points())
        assert fit(model, data).nll <= coarse[0] + 1e-9


# Default fits, bit for bit (eta, theta, m, nll): any change to the search
# candidates or to the scan's arithmetic shows here.
FROZEN_FITS = (
    (200, ModelId.EXP_EXP_PARETO, (0.7695000000000002, 1.0451102067345266, 85, 794.6981034919004)),
    (200, ModelId.EXP_IG_PARETO, (0.8795000000000002, 0.17201145871514786, 26, 840.351519965214)),
    (200, ModelId.EXP_PARETO_1P, (1.0, 0.8619648241730761, 77, 802.7884620545778)),
    (200, ModelId.IG_PARETO_1P, (1.0, 0.08796608587793991, 21, 842.467619468307)),
    (2000, ModelId.EXP_EXP_PARETO, (1.1325, 2.026844514703799, 850, 8503.47818002488)),
    (2000, ModelId.EXP_IG_PARETO, (2.0119999999999996, 0.9233525453804501, 579, 8332.687529374636)),
    (2000, ModelId.EXP_PARETO_1P, (1.0, 2.0370882118266063, 885, 8519.34025596648)),
    (2000, ModelId.IG_PARETO_1P, (1.0, 2.1713897921993492, 902, 8768.367275625762)),
)


FROZEN_SAMPLES = {200: SAMPLE, 2000: build(ModelId.EXP_IG_PARETO, 1.0, 2.0).sample(2000, seed=3)}


@pytest.mark.parametrize("n,model,expected", FROZEN_FITS)
def test_default_fit_is_frozen(n, model, expected):
    res = fit(model, FROZEN_SAMPLES[n])
    assert (res.eta, res.theta, res.m, res.nll) == expected


@pytest.mark.parametrize("family,data", [("exp", SAMPLE), ("ig", SAMPLE_IG)])
@pytest.mark.parametrize("block", [1, 450, 10**9])
def test_scan_is_the_same_in_any_row_blocks(monkeypatch, family, data, block):
    # 1 and 450 cells give one and two rows per block at n = 200, 10**9 one
    # block for the whole grid; every block size must give the same bits
    logz = np.log(np.sort(data) / data.max())
    prefix_log = np.concatenate(([0.0], np.cumsum(logz)))
    args = (family, EtaGrid().points(), logz, prefix_log, float(prefix_log[-1]))
    expected = _scan(*args)
    monkeypatch.setattr(estimation, "_SCAN_BLOCK", block)
    for got, want in zip(_scan(*args), expected):
        assert got.tobytes() == want.tobytes()


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
    total_log = float(prefix_log[-1])
    ll, m_sel, found = _scan(family, np.array([eta]), logz, prefix_log, total_log)
    assert bool(found[0]) == bool(valid)
    if valid:
        assert int(m_sel[0]) == valid[0] and math.isfinite(ll[0])
    else:
        assert ll[0] == -math.inf


# -- exponent grid ---------------------------------------------------------


def test_eta_grid_validation():
    with pytest.raises(ValueError):
        EtaGrid(lower=0.0)
    with pytest.raises(ValueError):
        EtaGrid(lower=2.0, upper=1.0)
    with pytest.raises(ValueError):
        EtaGrid(lower=1.0, upper=1.2)  # fewer than 10 points


def test_eta_grid_points_cover_range():
    g = EtaGrid()
    pts = g.points()
    assert pts[0] == g.lower
    assert pts[-1] == pytest.approx(g.upper, rel=1e-12)
    assert np.all(pts <= g.upper)
    assert np.all(np.diff(pts) > 0.0)
    assert np.max(np.diff(pts)) <= COARSE_STEP * (1.0 + 1e-12)


# -- baseline fitters ------------------------------------------------------


def test_weibull_fit_matches_scipy():
    res = fit(ModelId.WEIBULL, SAMPLE)
    c, loc, scale = st.weibull_min.fit(SAMPLE, floc=0)
    assert loc == 0.0
    assert res.shape == pytest.approx(c, rel=1e-5)
    assert res.scale == pytest.approx(scale, rel=1e-5)
    dens = build(ModelId.WEIBULL, res.shape, res.scale)
    assert res.nll == pytest.approx(-float(np.sum(dens.log_pdf(SAMPLE))), rel=1e-12)
    assert (res.n, res.p) == (200, 2)


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
    dens = build(ModelId.INVERSE_GAMMA, res.shape, res.scale)
    assert res.nll == pytest.approx(-float(np.sum(dens.log_pdf(SAMPLE_IG))), rel=1e-12)
