"""Profile formulas, split detection, grid search, baseline fitters."""

import math

import numpy as np
import pytest
import scipy.stats as st
from scipy.special import digamma

from expcomposite.estimation import (
    EtaGrid,
    FitFailureError,
    detect_m,
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


def test_fit_matches_scalar_reference_search():
    # the vectorized scan must agree with a plain loop over the same grid
    grid = EtaGrid(lower=0.5, upper=1.45, coarse_step=0.05, refinement_rounds=0)
    y = np.sort(SAMPLE)
    best = None
    for eta in grid.points():
        got = detect_m(eta, y, theta_profile_exp_pareto)
        if got is None:
            continue
        m, th = got
        nll = -float(np.sum(build(ModelId.EXP_EXP_PARETO, th, eta).log_pdf(y)))
        if best is None or nll < best[0] - 1e-12:
            best = (nll, eta, m, th)
    res = fit(ModelId.EXP_EXP_PARETO, SAMPLE, grid=grid)
    assert best is not None
    assert res.eta == pytest.approx(best[1], abs=1e-12)
    assert res.m == best[2]
    assert res.theta == pytest.approx(best[3], rel=1e-10)
    assert res.nll == pytest.approx(best[0], rel=1e-10)


def test_refinement_never_hurts():
    coarse = EtaGrid(refinement_rounds=0)
    fine = EtaGrid(refinement_rounds=2)
    for model, data in (
        (ModelId.EXP_EXP_PARETO, SAMPLE),
        (ModelId.EXP_IG_PARETO, SAMPLE_IG),
    ):
        assert fit(model, data, grid=fine).nll <= fit(model, data, grid=coarse).nll + 1e-9


# -- exponent grid ---------------------------------------------------------


def test_eta_grid_validation():
    with pytest.raises(ValueError):
        EtaGrid(lower=0.0)
    with pytest.raises(ValueError):
        EtaGrid(lower=2.0, upper=1.0)
    with pytest.raises(ValueError):
        EtaGrid(coarse_step=-0.1)
    with pytest.raises(ValueError):
        EtaGrid(lower=1.0, upper=1.2, coarse_step=0.1)  # fewer than 10 points


def test_eta_grid_points_cover_range():
    g = EtaGrid()
    pts = g.points()
    assert pts[0] == g.lower
    assert pts[-1] == pytest.approx(g.upper, rel=1e-12)
    assert np.all(pts <= g.upper)
    assert np.all(np.diff(pts) > 0.0)
    assert np.max(np.diff(pts)) <= g.coarse_step * (1.0 + 1e-12)


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
