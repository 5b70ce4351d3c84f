"""End-to-end acceptance checks, one printed verdict line per criterion.

Run `pytest -s tests/test_acceptance.py` to see the verdict lines; each
test prints its line before asserting, so failures still report their
measured numbers.
"""

import dataclasses
import math
import time
from types import SimpleNamespace

import numpy as np

import expcomposite.cli as cli
from expcomposite.composite import (
    CONTINUITY_TOL,
    DERIVATIVE_TOL,
    NORMALIZATION_TOL,
    ExponentiatedComposite,
    InfiniteMomentError,
    verify_composite,
)
from expcomposite.gof import score
from expcomposite.models import (
    EXP_PARETO,
    IG_PARETO,
    ModelId,
    build,
    exp_pareto_normalizer,
    exp_pareto_spec,
    ig_pareto_spec,
    moment_closed_form,
)
from expcomposite.simulation import Scenario, run_scenario
from test_composite import moment_numeric, parent_moment, quadrature_partials
from test_estimation import theta_profile_exp_pareto, theta_profile_ig_pareto

BASE_SEED = 20260822


def _report(num: int, ok: bool, detail: str) -> bool:
    print(f"[acceptance {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b))


def test_acceptance_01_continuity_root_and_normalizer():
    a = EXP_PARETO.alpha
    resid = abs((a + 1.0) * math.exp(-(a + 1.0)) - a)
    cerr = abs(exp_pareto_normalizer() - 0.574)
    ok = resid <= 5e-6 and cerr <= 1e-3
    assert _report(
        1,
        ok,
        f"continuity residual {resid:.3g} (tol 5e-6), "
        f"normalizer offset {cerr:.3g} (tol 1e-3)",
    )


def test_acceptance_02_published_constants_verify():
    spec = dataclasses.replace(ig_pareto_spec(1.0), norm_const=IG_PARETO.c)
    rep = verify_composite(ExponentiatedComposite(spec, 1.0))
    detail = (
        f"continuity gap {rep.continuity_gap:.3g} (tol {CONTINUITY_TOL:g}), "
        f"derivative gap {rep.derivative_gap:.3g} (tol {DERIVATIVE_TOL:g}), "
        f"normalization defect {rep.normalization_defect:.3g} "
        f"(tol {NORMALIZATION_TOL:g})"
    )
    assert _report(2, rep.passed, detail)


def test_acceptance_03_closed_forms_match_quadrature():
    t0 = time.perf_counter()
    worst_raw = worst_lim = 0.0
    n_raw = n_lim = 0
    plans = (
        (ModelId.EXP_EXP_PARETO, exp_pareto_spec, EXP_PARETO.alpha),
        (ModelId.EXP_IG_PARETO, ig_pareto_spec, IG_PARETO.alpha - IG_PARETO.k),
    )
    for model, make_spec, bound in plans:
        for theta in (0.5, 1.0, 5.0):
            quad_spec = quadrature_partials(make_spec(theta))
            for eta in (0.5, 0.8, 1.0, 2.0, 5.0):
                d = build(model, theta, eta)
                d_quad = ExponentiatedComposite(quad_spec, eta)
                yb = theta ** (1.0 / eta)
                for t in (0.25, 0.5, 1.0):
                    if t / eta < bound:
                        closed = moment_closed_form(model, theta, eta, t)
                        numeric = moment_numeric(d, t, tol=1e-8)
                        worst_raw = max(worst_raw, _rel(closed, numeric))
                        n_raw += 1
                    for b in (0.5 * yb, yb, 2.0 * yb):
                        closed = d.limited_moment(t, b)
                        numeric = d_quad.limited_moment(t, b)
                        worst_lim = max(worst_lim, _rel(closed, numeric))
                        n_lim += 1
    elapsed = time.perf_counter() - t0
    ok = worst_raw <= 1e-6 and worst_lim <= 1e-6 and elapsed < 60.0
    assert _report(
        3,
        ok,
        f"{n_raw} finite raw moments worst rel {worst_raw:.3g}, "
        f"{n_lim} limited moments worst rel {worst_lim:.3g} "
        f"(tol 1e-6), {elapsed:.1f}s (budget 60s)",
    )


def test_acceptance_04_divergent_moments_refuse():
    al = EXP_PARETO.alpha
    raised = tried = 0
    finite_below = True
    for eta in (0.5, 0.8, 1.0, 2.0, 5.0):
        for t in (al * eta, 1.5 * al * eta, al * eta + 1.0):  # boundary first
            tried += 1
            try:
                moment_closed_form(ModelId.EXP_EXP_PARETO, 1.0, eta, t)
            except InfiniteMomentError:
                raised += 1
        d = build(ModelId.EXP_EXP_PARETO, 1.0, eta)
        tried += 1
        try:
            moment_numeric(d, al * eta)
        except InfiniteMomentError:
            raised += 1
        finite_below &= math.isfinite(
            moment_closed_form(ModelId.EXP_EXP_PARETO, 1.0, eta, 0.999 * al * eta)
        )
    ok = raised == tried and finite_below
    assert _report(
        4,
        ok,
        f"{raised}/{tried} divergent orders raised (boundary included), "
        f"orders just below stay finite: {finite_below}",
    )


def _fixed_split_loglik_grid(family, thetas, eta, m, y):
    # log-likelihood with membership pinned at m, constant terms dropped
    x = y**eta
    n = y.size
    if family == "exp":
        al = EXP_PARETO.alpha
        head_sum = float(np.sum(x[:m]))
        rate = (al + 1.0) / thetas
        return m * np.log(rate) - rate * head_sum + (n - m) * al * np.log(thetas)
    al, k = IG_PARETO.alpha, IG_PARETO.k
    inv_sum = float(np.sum(1.0 / x[:m]))
    return (m * al + (n - m) * (al - k)) * np.log(thetas) - k * thetas * inv_sum


def test_acceptance_05_profile_formula_beats_theta_grid():
    t0 = time.perf_counter()
    rng = np.random.default_rng(505)
    worst_steps = 0.0
    checked = 0
    for i in range(100):
        family = "exp" if i % 2 == 0 else "ig"
        model = ModelId.EXP_EXP_PARETO if family == "exp" else ModelId.EXP_IG_PARETO
        profile = (
            theta_profile_exp_pareto if family == "exp" else theta_profile_ig_pareto
        )
        n = int(rng.integers(10, 51))
        y = np.sort(build(model, 1.0, 1.0).sample(n, seed=9000 + i))
        eta = (0.6, 1.0, 1.7)[i % 3]
        al = EXP_PARETO.alpha
        min_m = math.floor(al * n / (al + 1.0)) + 1 if family == "exp" else 1
        m = min(max(min_m, n // 2), n - 1)
        th = profile(eta, m, y)
        step = 1e-4 * th
        thetas = th * (0.5 + 1e-4 * np.arange(10001))
        lls = _fixed_split_loglik_grid(family, thetas, eta, m, y)
        at_profile = float(_fixed_split_loglik_grid(family, np.array([th]), eta, m, y)[0])
        assert at_profile >= float(np.max(lls)) - 1e-8
        dev = abs(float(thetas[int(np.argmax(lls))]) - th) / step
        worst_steps = max(worst_steps, dev)
        checked += 1
    elapsed = time.perf_counter() - t0
    ok = worst_steps <= 1.0 and checked == 100 and elapsed < 60.0
    assert _report(
        5,
        ok,
        f"{checked} samples, grid maximizer within {worst_steps:.3f} grid steps "
        f"of the formula (tol 1 step), {elapsed:.1f}s (budget 60s)",
    )


def test_acceptance_06_recovery_sub_unit_exponent(tmp_path):
    report = run_scenario(
        Scenario(ModelId.EXP_EXP_PARETO, 0.8, 1.0, n=200, r=2000, base_seed=BASE_SEED)
    )
    d_eta = abs(report.eta_mean - 0.807355)
    d_th = abs(report.theta_mean - 1.000019)
    r_eta = report.eta_sd / 0.0554
    r_th = report.theta_sd / 0.1534
    full_ok = (
        d_eta <= 0.015
        and d_th <= 0.03
        and 0.8 <= r_eta <= 1.2
        and 0.8 <= r_th <= 1.2
        and report.failures == 0
    )
    # smoke leg through the CLI with doubled tolerances
    t0 = time.perf_counter()
    out = tmp_path / "smoke.csv"
    code = cli.main(
        ["simulate", "--model", "exp-exp-pareto", "--eta", "0.8", "--theta", "1.0",
         "--n", "200", "--r", "200", "--seed", str(BASE_SEED), "--out", str(out)]
    )
    smoke_elapsed = time.perf_counter() - t0
    import csv as _csv

    with open(out, newline="") as fh:
        smoke = next(iter(_csv.DictReader(fh)))
    s_eta = abs(float(smoke["eta_mean"]) - 0.807355)
    s_th = abs(float(smoke["theta_mean"]) - 1.000019)
    s_r_eta = float(smoke["eta_sd"]) / 0.0554
    s_r_th = float(smoke["theta_sd"]) / 0.1534
    smoke_ok = (
        code == 0
        and s_eta <= 0.03
        and s_th <= 0.06
        and 0.6 <= s_r_eta <= 1.4
        and 0.6 <= s_r_th <= 1.4
        and smoke_elapsed < 30.0
    )
    ok = full_ok and smoke_ok
    assert _report(
        6,
        ok,
        f"r=2000: |d eta| {d_eta:.4f} (tol 0.015), |d theta| {d_th:.4f} (tol 0.03), "
        f"sd ratios {r_eta:.3f}/{r_th:.3f} (0.8..1.2); cli r=200: "
        f"|d| {s_eta:.4f}/{s_th:.4f}, sd ratios {s_r_eta:.3f}/{s_r_th:.3f}, "
        f"{smoke_elapsed:.1f}s (budget 30s)",
    )


def test_acceptance_07_recovery_large_exponent(tmp_path):
    report = run_scenario(
        Scenario(ModelId.EXP_EXP_PARETO, 5.0, 5.0, n=200, r=2000, base_seed=BASE_SEED)
    )
    d_eta = abs(report.eta_mean - 5.046740)
    d_th = abs(report.theta_mean - 5.124653)
    full_ok = d_eta <= 0.07 and d_th <= 0.17 and report.failures == 0
    # one representative replicate through the fit pipeline
    sample = build(ModelId.EXP_EXP_PARETO, 5.0, 5.0).sample(200, seed=BASE_SEED)
    data = tmp_path / "sample.csv"
    data.write_text("\n".join(repr(float(v)) for v in sample) + "\n")
    out = tmp_path / "fit.csv"
    code = cli.main(
        ["fit", "--model", "exp-exp-pareto", str(data), "--out", str(out)]
    )
    import csv as _csv

    with open(out, newline="") as fh:
        row = next(iter(_csv.DictReader(fh)))
    from expcomposite.estimation import fit as _fit

    direct = _fit(ModelId.EXP_EXP_PARETO, sample)
    cli_ok = (
        code == 0
        and float(row["eta"]) == direct.eta
        and float(row["theta"]) == direct.theta
        and 3.5 <= direct.eta <= 6.5
        and 2.5 <= direct.theta <= 9.0
    )
    ok = full_ok and cli_ok
    assert _report(
        7,
        ok,
        f"r=2000: |d eta| {d_eta:.4f} (tol 0.07), |d theta| {d_th:.4f} (tol 0.17), "
        f"failures {report.failures}; cli fit replicate eta {direct.eta:.3f} "
        f"theta {direct.theta:.3f}, exact csv round trip: {cli_ok}",
    )


def test_acceptance_08_information_criteria():
    row = score(SimpleNamespace(model=ModelId.EXP_EXP_PARETO, nll=3961.018, p=2, n=2492))
    exact = (
        round(row.aic, 3) == 7926.036
        and round(row.bic, 3) == 7937.678
        and round(row.aicc, 3) == 7926.041
        and round(row.caic, 3) == 7939.678
    )
    rng = np.random.default_rng(88)
    worst = 0.0
    for _ in range(20):
        nll = float(rng.uniform(0.0, 5000.0))
        p = int(rng.integers(1, 7))
        n = int(rng.integers(p + 2, 5000))
        r = score(SimpleNamespace(model=ModelId.WEIBULL, nll=nll, p=p, n=n))
        worst = max(
            worst,
            abs(r.aic - (2 * nll + 2 * p)),
            abs(r.bic - (2 * nll + p * math.log(n))),
            abs(r.caic - (r.bic + p)),
            abs(r.aicc - (r.aic + (2.0 * p * p + 2.0 * p) / (n - p - 1))),
        )
    ok = exact and worst <= 1e-9
    assert _report(
        8,
        ok,
        f"reference row to 3 decimals: {exact}; 20 randomized identity checks "
        f"worst abs dev {worst:.3g} (tol 1e-9)",
    )


def test_acceptance_09_sampler_distribution():
    t0 = time.perf_counter()
    n = 100_000
    eps = math.sqrt(math.log(2.0 / 0.01) / (2.0 * n))
    worst_dkw = 0.0
    worst_z = 0.0
    combos = 0
    for model in (ModelId.EXP_EXP_PARETO, ModelId.EXP_IG_PARETO):
        for eta in (0.8, 5.0):
            d = build(model, 1.0, eta)
            y = np.sort(d.sample(n, seed=30_000 + combos))
            f = np.asarray(d.cdf(y))
            i = np.arange(1, n + 1)
            dkw = max(
                float(np.max(np.abs(f - i / n))),
                float(np.max(np.abs(f - (i - 1) / n))),
            )
            p_head = float(d.cdf(d.breakpoint))
            frac = float(np.mean(y < d.breakpoint))
            se = math.sqrt(p_head * (1.0 - p_head) / n)
            worst_dkw = max(worst_dkw, dkw)
            worst_z = max(worst_z, abs(frac - p_head) / se)
            combos += 1
    elapsed = time.perf_counter() - t0
    ok = worst_dkw <= eps and worst_z <= 3.0 and elapsed < 30.0 and combos == 4
    assert _report(
        9,
        ok,
        f"4 samplers of {n} draws: worst ecdf gap {worst_dkw:.5f} "
        f"(band {eps:.5f}), worst head-fraction z {worst_z:.2f} (tol 3), "
        f"{elapsed:.1f}s (budget 30s)",
    )


def test_acceptance_10_exponentiation_closure():
    eta1, eta2 = 1.6, 2.5
    worst_pdf = worst_cdf = 0.0
    for make_spec in (exp_pareto_spec, ig_pareto_spec):
        spec = make_spec(1.3)
        inner = ExponentiatedComposite(spec, eta1)
        direct = ExponentiatedComposite(spec, eta1 * eta2)
        ys = np.linspace(0.05, 6.0, 241)
        # the pdf and cdf of Y**(1/eta2) for Y ~ inner at ys, through Y's at ys**eta2
        two_step_pdf = inner.pdf(ys**eta2) * eta2 * ys ** (eta2 - 1.0)
        two_step_cdf = inner.cdf(ys**eta2)
        worst_pdf = max(worst_pdf, float(np.max(np.abs(two_step_pdf - direct.pdf(ys)))))
        worst_cdf = max(worst_cdf, float(np.max(np.abs(two_step_cdf - direct.cdf(ys)))))
    cases = (
        (exp_pareto_spec, 2.0, 0.5),
        (ig_pareto_spec, 2.0, 0.25),
        (exp_pareto_spec, 0.8, 0.25),
    )
    worst_mom = 0.0
    for make_spec, eta, t in cases:
        spec = make_spec(1.0)
        d = ExponentiatedComposite(spec, eta)
        a = moment_numeric(d, t, tol=1e-9)
        b = parent_moment(spec, t / eta, tol=1e-9)
        worst_mom = max(worst_mom, _rel(a, b))
    ok = worst_pdf <= 1e-12 and worst_cdf <= 1e-12 and worst_mom <= 1e-7
    assert _report(
        10,
        ok,
        f"two-step vs direct: pdf gap {worst_pdf:.3g}, cdf gap {worst_cdf:.3g} "
        f"(tol 1e-12); fractional-moment identity worst rel {worst_mom:.3g} "
        f"(tol 1e-7)",
    )
