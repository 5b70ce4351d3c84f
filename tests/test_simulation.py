"""Recovery-study machinery: seeding, aggregation, failure policy."""

import math

import numpy as np
import pytest

import expcomposite.simulation as sim
from expcomposite.estimation import FitFailureError, fit
from expcomposite.models import ModelId, build
from expcomposite.simulation import (
    RECOVERY_GRID,
    RECOVERY_SAMPLE_SIZES,
    Scenario,
    SimulationFailureError,
    SimulationReport,
    reproduce_recovery_tables,
    run_scenario,
)


def _scenario(**kw):
    base = dict(
        model=ModelId.EXP_EXP_PARETO,
        true_eta=0.8,
        true_theta=1.0,
        n=30,
        r=4,
        base_seed=100,
    )
    base.update(kw)
    return Scenario(**base)


def test_scenario_validation():
    with pytest.raises(ValueError):
        _scenario(model=ModelId.WEIBULL)
    with pytest.raises(ValueError):
        _scenario(true_eta=0.0)
    with pytest.raises(ValueError):
        _scenario(true_theta=-1.0)
    with pytest.raises(ValueError):
        _scenario(n=9)
    with pytest.raises(ValueError):
        _scenario(r=0)


def test_single_replicate_equals_direct_fit():
    sc = _scenario(r=1, n=60, base_seed=42)
    report = run_scenario(sc)
    sample = build(sc.model, sc.true_theta, sc.true_eta).sample(60, seed=42)
    direct = fit(sc.model, sample)
    assert report.eta_mean == direct.eta
    assert report.theta_mean == direct.theta
    assert math.isnan(report.eta_sd) and math.isnan(report.theta_sd)
    assert report.failures == 0


def test_replicates_use_consecutive_seeds():
    sc = _scenario(r=3, n=40, base_seed=500)
    report = run_scenario(sc)
    truth = build(sc.model, sc.true_theta, sc.true_eta)
    etas, thetas = [], []
    for i in range(3):
        res = fit(sc.model, truth.sample(40, seed=500 + i))
        etas.append(res.eta)
        thetas.append(res.theta)
    assert report.eta_mean == pytest.approx(np.mean(etas), rel=1e-15)
    assert report.theta_mean == pytest.approx(np.mean(thetas), rel=1e-15)
    assert report.eta_sd == pytest.approx(np.std(etas, ddof=1), rel=1e-12)
    assert report.theta_sd == pytest.approx(np.std(thetas, ddof=1), rel=1e-12)


def test_run_scenario_is_deterministic():
    sc = _scenario(r=5, n=50, base_seed=9)
    assert run_scenario(sc) == run_scenario(sc)


def test_failures_within_budget_are_excluded(monkeypatch):
    real_fit = fit
    calls = []

    def flaky(model, y):
        calls.append(1)
        if len(calls) == 1:  # first replicate only
            raise FitFailureError("forced")
        return real_fit(model, y)

    monkeypatch.setattr(sim, "fit", flaky)
    sc = _scenario(r=10, n=40, base_seed=77)
    report = run_scenario(sc)
    assert report.failures == 1
    # aggregates come from the nine surviving replicates
    truth = build(sc.model, sc.true_theta, sc.true_eta)
    kept = [real_fit(sc.model, truth.sample(40, seed=77 + i)).eta for i in range(1, 10)]
    assert report.eta_mean == pytest.approx(np.mean(kept), rel=1e-15)


def test_excessive_failures_abort(monkeypatch):
    def always_fail(model, y):
        raise FitFailureError("forced")

    monkeypatch.setattr(sim, "fit", always_fail)
    with pytest.raises(SimulationFailureError):
        run_scenario(_scenario(r=10))


def test_exactly_ten_percent_failures_pass(monkeypatch):
    real_fit = fit
    calls = []

    def flaky(model, y):
        calls.append(1)
        if len(calls) == 1:
            raise FitFailureError("forced")
        return real_fit(model, y)

    monkeypatch.setattr(sim, "fit", flaky)
    report = run_scenario(_scenario(r=10, n=40, base_seed=77))
    assert report.failures == 1  # 1/10 == MAX_FAILURE_FRACTION, not above it


def test_recovery_tables_structure():
    tables = reproduce_recovery_tables(123, r=2)
    assert len(tables) == len(RECOVERY_GRID) == 4
    for (true_eta, true_theta), reports in zip(RECOVERY_GRID, tables):
        assert [rep.scenario.n for rep in reports] == list(RECOVERY_SAMPLE_SIZES)
        for rep in reports:
            assert isinstance(rep, SimulationReport)
            sc = rep.scenario
            assert sc.model is ModelId.EXP_EXP_PARETO
            assert (sc.true_eta, sc.true_theta) == (true_eta, true_theta)
            assert sc.r == 2 and sc.base_seed == 123


def test_recovery_estimates_center_near_truth():
    # cheap sanity run; the tight published-value checks live in the
    # acceptance suite with full replicate counts
    sc = _scenario(r=60, n=100, base_seed=2024)
    report = run_scenario(sc)
    assert report.failures <= 6
    assert report.eta_mean == pytest.approx(0.8, abs=0.08)
    assert report.theta_mean == pytest.approx(1.0, abs=0.25)
    assert 0.0 < report.eta_sd < 0.3
    assert 0.0 < report.theta_sd < 0.8
