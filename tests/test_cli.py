"""Command-line surface: ingestion, subcommands, exit codes, artifacts."""

import csv
import hashlib
import json
import math
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

import expcomposite.cli as cli
from expcomposite.cli import LITERATURE_ROWS, ingest_csv, main, replay_artifact
from expcomposite.estimation import EtaGrid, FitFailureError, fit
from expcomposite.gof import CRITERIA, score
from expcomposite.models import ModelId, build
from expcomposite.simulation import Scenario, run_scenario

CLAIMS = build(ModelId.EXP_EXP_PARETO, 1.0, 0.8).sample(80, seed=17)
NEAR_UNIT_EXPONENT = build(ModelId.EXP_PARETO_1P, 1.0, 1.0).sample(150, seed=21)


def write_csv(path, values, header=None):
    lines = [header] if header else []
    lines += [repr(float(v)) for v in values]
    path.write_text("\n".join(lines) + "\n")
    return path


def read_out(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# -- ingestion -------------------------------------------------------------


def test_ingest_plain_and_named_column_agree(tmp_path):
    a = write_csv(tmp_path / "a.csv", CLAIMS)
    b = write_csv(tmp_path / "b.csv", CLAIMS, header="amount")
    by_index = ingest_csv(a)
    by_name = ingest_csv(b, column="amount")
    by_index_with_header = ingest_csv(b)  # header auto-detected
    for ds in (by_index, by_name, by_index_with_header):
        # a 1-d float array in file order, exact through the repr round trip
        assert ds.values.dtype == float and ds.values.shape == (80,)
        assert ds.values.tolist() == CLAIMS.tolist()
    assert by_index.n == 80


def test_ingest_scales_values(tmp_path):
    p = write_csv(tmp_path / "a.csv", [1.0, 2.0, 4.0])
    ds = ingest_csv(p, scale=1000.0)
    assert ds.values.tolist() == [1000.0, 2000.0, 4000.0]
    with pytest.raises(ValueError, match="scale"):
        ingest_csv(p, scale=0.0)


def test_infinite_scale_names_the_flag(tmp_path, capsys):
    p = write_csv(tmp_path / "a.csv", CLAIMS)
    for scale in (math.inf, math.nan):
        with pytest.raises(ValueError, match="--scale must be positive and finite"):
            ingest_csv(p, scale=scale)
    assert main(["fit", str(p), "--model", "exp-exp-pareto", "--scale", "inf"]) == 1
    err = capsys.readouterr().err
    assert "--scale" in err and "row" not in err


def test_ingest_errors_name_the_row(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("amount\n1.5\noops\n2.0\n")
    with pytest.raises(ValueError, match="row 3.*oops"):
        ingest_csv(p, column="amount")
    p.write_text("1.5\n0.0\n")
    with pytest.raises(ValueError, match="row 2.*strictly positive"):
        ingest_csv(p)
    p.write_text("1.5\ninf\n")
    with pytest.raises(ValueError, match="row 2.*finite"):
        ingest_csv(p)
    p.write_text("1.5,9.0\n2.5\n")
    ingest_csv(p)  # ragged but column 0 exists everywhere
    with pytest.raises(ValueError, match="row 2: no column 1"):
        ingest_csv(p, column=1)


def test_ingest_structural_errors(tmp_path):
    with pytest.raises(ValueError, match="no such file"):
        ingest_csv(tmp_path / "missing.csv")
    p = tmp_path / "empty.csv"
    p.write_text("\n\n")
    with pytest.raises(ValueError, match="no data rows"):
        ingest_csv(p)
    p.write_text("amount\n")
    with pytest.raises(ValueError, match="no numeric data rows"):
        ingest_csv(p, column="amount")
    p.write_text("amount\n1.0\n")
    with pytest.raises(ValueError, match="not found in header"):
        ingest_csv(p, column="claims")
    with pytest.raises(ValueError, match="must be >= 0"):
        ingest_csv(p, column=-1)


def test_ingest_skips_blank_rows(tmp_path):
    p = tmp_path / "gaps.csv"
    p.write_text("1.0\n\n2.0\n   \n3.0\n")
    assert ingest_csv(p).values.tolist() == [1.0, 2.0, 3.0]


# -- fit subcommand --------------------------------------------------------


def test_fit_csv_matches_library(tmp_path, capsys):
    data = write_csv(tmp_path / "claims.csv", CLAIMS)
    out = tmp_path / "fit.csv"
    code = main(["fit", "--model", "exp-exp-pareto", str(data), "--out", str(out)])
    assert code == 0
    rows = read_out(out)
    assert len(rows) == 1
    row = rows[0]
    res = fit(ModelId.EXP_EXP_PARETO, CLAIMS, EtaGrid())
    gof = score(res)
    # repr round trip keeps the CSV floats exact
    assert float(row["theta"]) == res.theta
    assert float(row["eta"]) == res.eta
    assert int(row["m"]) == res.m
    assert float(row["breakpoint"]) == res.breakpoint
    assert float(row["nll"]) == res.nll
    assert float(row["bic"]) == gof.bic
    assert row["shape"] == "" and row["scale"] == ""
    printed = capsys.readouterr().out
    assert "theta" in printed and "nll" in printed


def test_fit_one_parameter_variant(tmp_path):
    data = write_csv(tmp_path / "claims.csv", CLAIMS)
    out = tmp_path / "fit.csv"
    assert main(["fit", "--model", "exp-pareto-1p", str(data), "--out", str(out)]) == 0
    row = read_out(out)[0]
    assert float(row["eta"]) == 1.0
    assert int(row["p"]) == 1


def test_fit_baseline_reports_shape_scale(tmp_path):
    data = write_csv(tmp_path / "claims.csv", CLAIMS)
    out = tmp_path / "fit.csv"
    assert main(["fit", "--model", "weibull", str(data), "--out", str(out)]) == 0
    row = read_out(out)[0]
    res = fit(ModelId.WEIBULL, CLAIMS)
    assert float(row["shape"]) == res.shape
    assert float(row["scale"]) == res.scale
    assert row["theta"] == "" and row["eta"] == "" and row["m"] == ""


def test_fit_respects_grid_flags(tmp_path):
    data = write_csv(tmp_path / "claims.csv", CLAIMS)
    out = tmp_path / "fit.csv"
    # the default fit's exponent lies below 1.0, so the bounds move the result
    argv = ["fit", "--model", "exp-exp-pareto", str(data), "--eta-min", "1.0",
            "--eta-max", "1.5", "--out", str(out)]
    assert main(argv) == 0
    row = read_out(out)[0]
    grid = EtaGrid(lower=1.0, upper=1.5)
    res = fit(ModelId.EXP_EXP_PARETO, CLAIMS, grid)
    assert float(row["eta"]) == res.eta
    assert res.eta != fit(ModelId.EXP_EXP_PARETO, CLAIMS).eta


def test_fit_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("1.0\nnope\n")
    assert main(["fit", "--model", "exp-exp-pareto", str(bad)]) == 1
    assert "row 2" in capsys.readouterr().err
    flat = write_csv(tmp_path / "flat.csv", [5.0] * 12)
    assert main(["fit", "--model", "exp-exp-pareto", str(flat)]) == 2
    assert "error" in capsys.readouterr().err
    data = write_csv(tmp_path / "claims.csv", CLAIMS)
    assert main(["fit", "--model", "exp-exp-pareto", str(data), "--eta-max", "inf"]) == 1
    assert "finite" in capsys.readouterr().err


def test_fit_rejects_unknown_model(tmp_path, capsys):
    data = write_csv(tmp_path / "claims.csv", CLAIMS)
    assert main(["fit", "--model", "lognormal", str(data)]) == 1
    capsys.readouterr()


# -- compare subcommand ----------------------------------------------------


def test_compare_ranks_and_criterion_flip(tmp_path, capsys):
    data = write_csv(tmp_path / "claims.csv", NEAR_UNIT_EXPONENT)
    out = tmp_path / "cmp.csv"
    models = "exp-exp-pareto,exp-pareto-1p"
    assert main(["compare", str(data), "--models", models, "--out", str(out)]) == 0
    by_bic = read_out(out)
    assert [r["rank"] for r in by_bic] == ["1", "2"]
    # data generated at a unit exponent: the pinned model wins on bic,
    # the free exponent can only help the raw likelihood
    assert by_bic[0]["model"] == "exp-pareto-1p"
    nll = {r["model"]: float(r["nll"]) for r in by_bic}
    assert nll["exp-exp-pareto"] <= nll["exp-pareto-1p"] + 1e-12
    assert main(["compare", str(data), "--models", models, "--criterion", "nll",
                 "--out", str(out)]) == 0
    by_nll = read_out(out)
    assert by_nll[0]["model"] == "exp-exp-pareto"
    capsys.readouterr()


def test_compare_all_models_smoke(tmp_path, capsys):
    data = write_csv(tmp_path / "claims.csv", CLAIMS[:60])
    out = tmp_path / "cmp.csv"
    assert main(["compare", str(data), "--out", str(out)]) == 0
    rows = read_out(out)
    assert {r["model"] for r in rows} == set(cli.ALL_MODEL_CHOICES)
    ok = [r for r in rows if r["status"] == "ok"]
    assert [int(r["rank"]) for r in ok] == list(range(1, len(ok) + 1))
    bics = [float(r["bic"]) for r in ok]
    assert bics == sorted(bics)
    capsys.readouterr()


def test_compare_literature_rows_are_injected_not_computed(tmp_path, capsys):
    data = write_csv(tmp_path / "claims.csv", CLAIMS)
    out = tmp_path / "cmp.csv"
    assert main(["compare", str(data), "--models",
                 "exp-exp-pareto,exp-pareto-1p", "--literature", "danish",
                 "--out", str(out)]) == 0
    rows = read_out(out)
    lit = {r["model"]: r for r in rows if r["source"] == "literature"}
    assert len(lit) == 2
    for frozen in LITERATURE_ROWS["danish"]:
        got = lit[frozen["model"]]
        assert float(got["nll"]) == frozen["nll"]
        assert float(got["bic"]) == frozen["bic"]
        assert int(got["p"]) == frozen["p"]
        assert got["rank"] != ""  # published rows join the ranking
    capsys.readouterr()


def test_compare_reports_partial_failures(tmp_path, capsys, monkeypatch):
    real_fit = fit

    def failing(model, y, grid=None):
        if model is ModelId.EXP_IG_PARETO:
            raise FitFailureError("forced failure")
        return real_fit(model, y, grid)

    monkeypatch.setattr(cli, "fit", failing)
    data = write_csv(tmp_path / "claims.csv", CLAIMS)
    out = tmp_path / "cmp.csv"
    assert main(["compare", str(data), "--models",
                 "exp-exp-pareto,exp-ig-pareto", "--out", str(out)]) == 0
    rows = read_out(out)
    by_model = {r["model"]: r for r in rows}
    assert by_model["exp-ig-pareto"]["status"] == "failed"
    assert by_model["exp-ig-pareto"]["rank"] == ""
    assert "forced failure" in by_model["exp-ig-pareto"]["note"]
    assert by_model["exp-exp-pareto"]["rank"] == "1"
    capsys.readouterr()


def test_compare_ties_keep_input_order(tmp_path, capsys, monkeypatch):
    # every model scores the same: the ranking must not reorder them
    def same_fit(model, y, grid=None):
        return SimpleNamespace(model=model, nll=100.0, p=2, n=50)

    monkeypatch.setattr(cli, "fit", same_fit)
    data = write_csv(tmp_path / "claims.csv", CLAIMS)
    out = tmp_path / "cmp.csv"
    for models in (["exp-exp-pareto", "weibull", "exp-ig-pareto"],
                   ["exp-ig-pareto", "exp-exp-pareto", "weibull"]):
        for criterion in CRITERIA:
            assert main(["compare", str(data), "--models", ",".join(models),
                         "--criterion", criterion, "--out", str(out)]) == 0
            assert [r["model"] for r in read_out(out)] == models
    capsys.readouterr()


def test_compare_replay_rejects_unknown_criterion(tmp_path, capsys):
    data = write_csv(tmp_path / "claims.csv", CLAIMS)
    art = tmp_path / "cmp.json"
    assert main(["compare", str(data), "--models", "exp-pareto-1p,weibull",
                 "--json", str(art)]) == 0
    payload = json.loads(art.read_text())
    payload["config"]["criterion"] = "hqc"
    art.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="criterion"):
        replay_artifact(art)
    capsys.readouterr()


def test_compare_lists_theta_overflow_as_failed(tmp_path, capsys):
    huge = build(ModelId.EXP_IG_PARETO, 1.0, 5.0).sample(200, seed=1) * 1e70
    data = write_csv(tmp_path / "huge.csv", huge)
    out = tmp_path / "cmp.csv"
    assert main(["compare", str(data), "--models",
                 "exp-ig-pareto,ig-pareto-1p", "--out", str(out)]) == 0
    by_model = {r["model"]: r for r in read_out(out)}
    assert by_model["exp-ig-pareto"]["status"] == "failed"
    assert "leaves the normal float range" in by_model["exp-ig-pareto"]["note"]
    assert by_model["ig-pareto-1p"]["rank"] == "1"
    capsys.readouterr()


def test_compare_total_failure_exits_two(tmp_path, capsys):
    flat = write_csv(tmp_path / "flat.csv", [5.0] * 12)
    code = main(["compare", str(flat), "--models", "exp-exp-pareto,exp-ig-pareto"])
    assert code == 2
    assert "every requested model failed" in capsys.readouterr().err


def test_compare_needs_two_models(tmp_path, capsys):
    data = write_csv(tmp_path / "claims.csv", CLAIMS)
    assert main(["compare", str(data), "--models", "exp-exp-pareto"]) == 1
    capsys.readouterr()


def test_compare_rejects_repeated_models(tmp_path, capsys):
    data = write_csv(tmp_path / "claims.csv", CLAIMS)
    assert main(["compare", str(data), "--models", "weibull,weibull"]) == 1
    assert "twice" in capsys.readouterr().err


# -- simulate subcommand ---------------------------------------------------


def test_simulate_matches_library_and_is_byte_stable(tmp_path, capsys):
    args = ["simulate", "--model", "exp-exp-pareto", "--eta", "0.8",
            "--theta", "1.0", "--n", "40", "--r", "3", "--seed", "11"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    row = read_out(out1)[0]
    report = run_scenario(
        Scenario(ModelId.EXP_EXP_PARETO, 0.8, 1.0, n=40, r=3, base_seed=11)
    )
    assert float(row["eta_mean"]) == report.eta_mean
    assert float(row["theta_mean"]) == report.theta_mean
    assert float(row["eta_sd"]) == report.eta_sd
    assert int(row["failures"]) == report.failures
    capsys.readouterr()


def test_simulate_recovery_grid_smoke(tmp_path, capsys):
    out = tmp_path / "grid.csv"
    assert main(["simulate", "--paper-tables", "--r", "2", "--seed", "3",
                 "--out", str(out)]) == 0
    rows = read_out(out)
    assert len(rows) == 12
    assert {r["model"] for r in rows} == {"exp-exp-pareto"}
    assert [int(r["n"]) for r in rows] == [50, 100, 200] * 4
    assert {(float(r["true_eta"]), float(r["true_theta"])) for r in rows} == {
        (0.8, 1.0), (5.0, 1.0), (0.8, 5.0), (5.0, 5.0)
    }
    capsys.readouterr()


def test_simulate_requires_scenario_flags(capsys):
    assert main(["simulate", "--eta", "0.8"]) == 1
    err = capsys.readouterr().err
    assert "--theta" in err and "--n" in err


# -- density subcommand ----------------------------------------------------


def test_density_shapes(tmp_path, capsys):
    out = tmp_path / "d.csv"
    assert main(["density", "--model", "exp-exp-pareto", "--theta", "1.0",
                 "--eta", "2.0", "--lo", "0.0", "--hi", "4.0",
                 "--points", "400", "--out", str(out)]) == 0
    pdf = np.array([float(r["pdf"]) for r in read_out(out)])
    # a hump: density rises then falls, one sign change in the differences
    signs = np.sign(np.diff(pdf))
    changes = np.count_nonzero(np.diff(signs[signs != 0.0]))
    assert changes == 1
    assert main(["density", "--model", "exp-exp-pareto", "--theta", "1.0",
                 "--eta", "0.5", "--lo", "0.1", "--hi", "4.0",
                 "--points", "200", "--out", str(out)]) == 0
    decreasing = np.array([float(r["pdf"]) for r in read_out(out)])
    assert np.all(np.diff(decreasing) < 0.0)
    capsys.readouterr()


def test_density_mass_integrates_to_one(tmp_path, capsys):
    out = tmp_path / "d.csv"
    assert main(["density", "--model", "exp-exp-pareto", "--theta", "1.0",
                 "--eta", "5.0", "--lo", "0.0", "--hi", "200.0",
                 "--points", "20001", "--out", str(out)]) == 0
    rows = read_out(out)
    ys = np.array([float(r["y"]) for r in rows])
    pdf = np.array([float(r["pdf"]) for r in rows])
    assert np.trapezoid(pdf, ys) == pytest.approx(1.0, rel=1e-3)
    capsys.readouterr()


def test_density_cdf_and_limited_moment_columns(tmp_path, capsys):
    out = tmp_path / "d.csv"
    assert main(["density", "--model", "exp-ig-pareto", "--theta", "1.2",
                 "--eta", "1.5", "--lo", "0.0", "--hi", "3.0", "--points", "7",
                 "--cdf", "--limited-moment", "1", "--out", str(out)]) == 0
    rows = read_out(out)
    dist = build(ModelId.EXP_IG_PARETO, 1.2, 1.5)
    assert float(rows[0]["limited_moment_t1"]) == 0.0  # cap at zero
    for r in rows[1:]:
        y = float(r["y"])
        assert float(r["cdf"]) == dist.cdf(y)
        want = build(ModelId.EXP_IG_PARETO, 1.2, 1.5).limited_moment((1.0, y))
        assert float(r["limited_moment_t1"]) == want
    capsys.readouterr()


def test_density_rejects_bad_ranges(capsys):
    base = ["density", "--model", "exp-exp-pareto", "--theta", "1.0"]
    assert main(base + ["--lo", "-1.0", "--hi", "2.0"]) == 1
    assert main(base + ["--lo", "2.0", "--hi", "1.0"]) == 1
    assert main(base + ["--lo", "0.0", "--hi", "1.0", "--points", "1"]) == 1
    assert main(base + ["--lo", "0", "--hi", "inf"]) == 1
    capsys.readouterr()


def test_density_infinite_limited_moment_order_exits_1(capsys):
    argv = ["density", "--model", "exp-exp-pareto", "--theta", "1", "--lo", "0",
            "--hi", "2", "--points", "3", "--limited-moment", "inf"]
    assert main(argv) == 1
    assert "error: limited-moment order must be finite" in capsys.readouterr().err


def test_density_limited_moment_overflow_exits_1(capsys):
    # E[(Y ^ 20)^400] leaves the float range; the library raises OverflowError
    argv = ["density", "--model", "exp-exp-pareto", "--theta", "1", "--lo", "0",
            "--hi", "20", "--points", "3", "--limited-moment", "400"]
    assert main(argv) == 1
    assert "error: limited moment of order 400" in capsys.readouterr().err


# -- artifacts and replay --------------------------------------------------


def test_json_artifact_and_replay(tmp_path, capsys):
    data = write_csv(tmp_path / "claims.csv", CLAIMS)
    art = tmp_path / "run.json"
    argv = ["fit", "--model", "exp-exp-pareto", str(data), "--json", str(art)]
    assert main(argv) == 0
    payload = json.loads(art.read_text())
    assert payload["timestamp"] is None
    assert payload["command"] == argv
    assert payload["config"]["model"] == "exp-exp-pareto"
    assert payload["config"]["grid"] == {"lower": 0.05, "upper": 20.0}
    replayed = replay_artifact(art)
    assert list(replayed.results) == payload["results"]
    capsys.readouterr()


def test_simulate_artifact_replays_identically(tmp_path, capsys):
    art = tmp_path / "sim.json"
    assert main(["simulate", "--eta", "0.8", "--theta", "1.0", "--n", "40",
                 "--r", "2", "--seed", "5", "--json", str(art)]) == 0
    payload = json.loads(art.read_text())
    assert list(replay_artifact(art).results) == payload["results"]
    capsys.readouterr()


def test_artifact_bytes_are_reproducible(tmp_path, capsys):
    data = write_csv(tmp_path / "claims.csv", CLAIMS)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["fit", "--model", "exp-pareto-1p", str(data)]
    assert main(argv + ["--json", str(a)]) == 0
    assert main(argv + ["--json", str(b)]) == 0
    # identical configs give identical bytes except for the echoed path
    assert json.loads(a.read_text())["results"] == json.loads(b.read_text())["results"]
    capsys.readouterr()


# sha256 of three CLI outputs, recorded when this test was written: the CSV
# writer, ingest and the density columns must not change one byte of them
PINNED_SHA256 = {
    "curve.csv": "e8e522a9154421057b2416b2fcebf1fb097da21693b0b9dc9457cfcc5a512ffd",
    "curve.json": "dada884e5c2cb4ea195b920fe601cca53a3ab75ad04399f37b4ba6bbe42433ba",
    "ranking.csv": "6beb037efd094ce0488b17d05b8b25b8d8bb30c2b42bf123a81ce53f03c10fcd",
}


def test_cli_output_bytes_are_pinned(tmp_path, monkeypatch, capsys):
    # relative paths, so the command echoed into the JSON artifact is fixed
    monkeypatch.chdir(tmp_path)
    write_csv(tmp_path / "claims.csv", build(ModelId.EXP_IG_PARETO, 1.0, 2.0).sample(400, seed=5))
    assert main(["density", "--model", "exp-ig-pareto", "--theta", "1.3", "--eta", "0.7",
                 "--lo", "0", "--hi", "6", "--points", "300", "--cdf",
                 "--limited-moment", "0.5", "--out", "curve.csv", "--json", "curve.json"]) == 0
    assert main(["compare", "claims.csv", "--literature", "danish", "--out", "ranking.csv"]) == 0
    got = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in PINNED_SHA256
    }
    assert got == PINNED_SHA256
    capsys.readouterr()


# -- top-level parser ------------------------------------------------------


def test_help_and_usage_exit_codes(capsys):
    assert main(["--help"]) == 0
    assert main([]) == 1
    assert main(["frobnicate"]) == 1
    assert main(["fit", "--bogus-flag"]) == 1
    capsys.readouterr()


def test_module_entry_point(tmp_path):
    out = tmp_path / "d.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "expcomposite", "density", "--model",
         "exp-exp-pareto", "--theta", "1.0", "--lo", "0.0", "--hi", "5.0",
         "--points", "50", "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert len(read_out(out)) == 50
