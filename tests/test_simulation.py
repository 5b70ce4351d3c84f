"""Recovery-study machinery: seeding, aggregation, failure policy."""

import math

import numpy as np
import pytest

import expcomposite.simulation as sim
from expcomposite import estimation
from expcomposite.estimation import FitFailureError, fit, fit_batch
from expcomposite.models import ModelId, build
from expcomposite.simulation import (
    MAX_FAILURE_FRACTION,
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


@pytest.mark.parametrize(
    "kw",
    [
        dict(true_eta=math.inf),
        dict(true_theta=math.inf),
        dict(true_eta=math.nan),
        dict(model=ModelId.EXP_IG_PARETO, true_theta=math.inf),
        dict(model=ModelId.EXP_PARETO_1P, true_eta=2.0),
    ],
)
def test_scenario_applies_builds_checks_at_construction(kw):
    # each once constructed and failed only inside run_scenario's build
    with pytest.raises(ValueError, match="finite|fixes eta"):
        _scenario(**kw)


@pytest.mark.parametrize("kw", [
    dict(n=50.0), dict(r=2.5), dict(base_seed=1.0), dict(n="50"),
    dict(n=True), dict(r=True), dict(base_seed=False),
])
def test_scenario_refuses_a_non_integer_count_at_construction(kw):
    # each once constructed and failed only inside run_scenario's sampling
    (name, value), = kw.items()
    with pytest.raises(ValueError, match=f"{name} must be an integer, got {value!r}"):
        _scenario(**kw)


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


def _failing_first(real_fit_batch):
    """fit_batch with the first replicate's fit replaced by a failure."""
    calls = []

    def flaky(model, samples):
        outcomes, wide = real_fit_batch(model, samples)
        calls.append(1)
        if len(calls) == 1:  # first replicate only
            outcomes[0] = FitFailureError("forced")
        return outcomes, wide

    return flaky


def test_failures_within_budget_are_excluded(monkeypatch):
    real_fit = fit
    monkeypatch.setattr(sim, "fit_batch", _failing_first(sim.fit_batch))
    sc = _scenario(r=10, n=40, base_seed=77)
    report = run_scenario(sc)
    assert report.failures == 1
    assert report.failed == ((77, "forced"),)
    # aggregates come from the nine surviving replicates
    truth = build(sc.model, sc.true_theta, sc.true_eta)
    kept = [real_fit(sc.model, truth.sample(40, seed=77 + i)).eta for i in range(1, 10)]
    assert report.eta_mean == pytest.approx(np.mean(kept), rel=1e-15)


def test_excessive_failures_abort(monkeypatch):
    def always_fail(model, samples):
        return [FitFailureError("forced")] * len(samples), np.zeros(len(samples), dtype=bool)

    monkeypatch.setattr(sim, "fit_batch", always_fail)
    with pytest.raises(SimulationFailureError):
        run_scenario(_scenario(r=10))


def test_exactly_ten_percent_failures_pass(monkeypatch):
    monkeypatch.setattr(sim, "fit_batch", _failing_first(sim.fit_batch))
    report = run_scenario(_scenario(r=10, n=40, base_seed=77))
    assert report.failures == 1  # 1/10 == MAX_FAILURE_FRACTION, not above it


def test_report_names_each_failed_replicate():
    # theta near the bottom of the float range: some replicates' profiled
    # theta underflows on the data's scale, and fit refuses them
    sc = _scenario(true_eta=5.0, true_theta=1e-200, n=50, r=40, base_seed=7)
    report = run_scenario(sc)
    truth = build(sc.model, sc.true_theta, sc.true_eta)
    failed = []
    for seed in range(7, 47):
        try:
            fit(sc.model, truth.sample(50, seed=seed))
        except FitFailureError as exc:
            failed.append((seed, str(exc)))
    assert 0 < len(failed) <= MAX_FAILURE_FRACTION * sc.r
    assert report.failed == tuple(failed) and report.failures == len(failed)


def test_report_counts_the_wide_passes():
    # at eta 20, the end of the coarse pass, about half the replicates widen it
    sc = _scenario(true_eta=20.0, n=25, r=12, base_seed=3)
    report = run_scenario(sc)
    truth = build(sc.model, sc.true_theta, sc.true_eta)
    wide = [fit_batch(sc.model, truth.sample(25, seed=3 + i)[None, :])[1][0] for i in range(12)]
    assert 0 < report.wide_passes == sum(wide) < 12
    assert run_scenario(_scenario(r=12)).wide_passes == 0


@pytest.mark.parametrize("block", [1, 450, 10**9])
def test_run_scenario_is_the_same_in_any_row_blocks(monkeypatch, block):
    # _SCAN_BLOCK sets both the replicates per batch and the rows per scan
    # block: one replicate and one row, two rows, or everything at once
    scenarios = [
        _scenario(r=12, n=40, base_seed=5),
        _scenario(true_eta=20.0, n=25, r=12, base_seed=3),
        _scenario(true_eta=5.0, true_theta=1e-200, n=50, r=40, base_seed=7),
    ]
    expected = [run_scenario(sc) for sc in scenarios]
    monkeypatch.setattr(estimation, "_SCAN_BLOCK", block)
    assert [run_scenario(sc) for sc in scenarios] == expected


def test_paired_scenarios_of_the_recovery_grid():
    # The grid's scenarios share their seeds, so their samples are exact
    # transforms of each other up to rounding.  theta=5 scales each sample,
    # which leaves the exponent estimates as they are; eta 0.8 -> 5 raises
    # each sample to the power 0.8/5, which maps each exponent estimate
    # eta -> 6.25 eta and leaves theta as it is.
    (lo_1, hi_1, lo_5, hi_5) = reproduce_recovery_tables(11, r=50)
    for lo, hi in ((lo_1, lo_5), (hi_1, hi_5)):  # theta 1 -> 5
        for a, b in zip(lo, hi):
            assert b.eta_mean == pytest.approx(a.eta_mean, rel=1e-14)
            assert b.eta_sd == pytest.approx(a.eta_sd, rel=1e-12)
            assert b.failures == a.failures == 0
    for lo, hi in ((lo_1, hi_1), (lo_5, hi_5)):  # eta 0.8 -> 5
        for a, b in zip(lo, hi):
            assert b.eta_mean == pytest.approx(6.25 * a.eta_mean, rel=1e-14)
            assert b.eta_sd == pytest.approx(6.25 * a.eta_sd, rel=1e-12)
            assert b.theta_mean == pytest.approx(a.theta_mean, rel=1e-14)
            assert b.theta_sd == pytest.approx(a.theta_sd, rel=1e-12)


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
