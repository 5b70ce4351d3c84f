"""Command-line surface: ingestion, subcommands, exit codes, artifacts."""

import contextlib
import csv
import hashlib
import io
import itertools
import json
import math
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import expcomposite.cli as cli
from expcomposite.cli import LITERATURE_ROWS, ingest_csv, main, replay_artifact
from expcomposite.estimation import FitFailureError, fit
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


def test_ingest_column_is_a_str_or_an_integer(tmp_path):
    p = tmp_path / "two.csv"
    p.write_text("1,2\n3,4\n")
    for column in (1, np.int64(1), "1", " 1 "):
        assert ingest_csv(p, column=column).values.tolist() == [2.0, 4.0]
    # int() would truncate these to an index: 1.7 and True read column 1,
    # -0.5 column 0
    for column in (1.7, True, -0.5, 1.0, None, [1]):
        with pytest.raises(ValueError, match=r"^column must be a str or an integer, got "):
            ingest_csv(p, column=column)
    with pytest.raises(ValueError, match=r"got 1\.7$"):
        ingest_csv(p, column=1.7)


def test_ingest_column_index_is_ascii_digits(tmp_path):
    # only a str of ASCII digits is an index: int() would read "1_0" as 10,
    # "+1" and "١" as 1 and "-1" as -1, so those headers could not be named
    names = ["a", "b", "c", "+1", "-1", "\u0661", "g", "h", "i", "j", "k", "1_0"]
    p = tmp_path / "wide.csv"
    p.write_text(",".join(names) + "\n"
                 + "".join(",".join(str(100 * i + j + 1) for j in range(12)) + "\n"
                           for i in range(3)))
    for column, j in (("1_0", 11), ("+1", 3), ("-1", 4), ("\u0661", 5),
                      ("10", 10), (" 1 ", 1), ("01", 1), (10, 10)):
        assert ingest_csv(p, column=column).values.tolist() == [j + 1, j + 101, j + 201]
    with pytest.raises(ValueError, match=r"column '\+2' not found in header"):
        ingest_csv(p, column="+2")


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


def test_ingest_row_numbers_are_csv_records(tmp_path):
    p = tmp_path / "records.csv"
    # blank records count
    p.write_text("1.0\n\n  ,\nbad\n")
    with pytest.raises(ValueError, match="^row 4: could not parse 'bad'"):
        ingest_csv(p)
    # a quoted cell that spans two lines is one record: 'bad' is on line 4
    p.write_text('"a\nb",x\n1.0,2\nbad,3\n')
    with pytest.raises(ValueError, match="^row 3: could not parse 'bad'"):
        ingest_csv(p)
    # the earliest failing record is named, whatever check it fails
    p.write_text("1.0,1\n2.0\n-1.0,1\nbad,1\n")
    with pytest.raises(ValueError, match="^row 2: no column 1"):
        ingest_csv(p, column=1)
    with pytest.raises(ValueError, match="^row 3: values must be strictly positive, got -1"):
        ingest_csv(p)


def test_a_short_first_record_is_refused_not_taken_for_a_header(tmp_path):
    p = tmp_path / "short.csv"
    p.write_text("5\n1,2\n3,4\n")
    with pytest.raises(ValueError, match="^row 1: no column 1$"):
        ingest_csv(p, column=1)
    # blank records before it count, and it is still refused
    p.write_text("\n ,\n5\n1,2\n")
    with pytest.raises(ValueError, match="^row 3: no column 1$"):
        ingest_csv(p, column=1)
    # a non-numeric or empty selected cell is still a header
    for header in ("id,amount", "5,amount", "5,"):
        p.write_text(f"{header}\n1,2\n3,4\n")
        assert ingest_csv(p, column=1).values.tolist() == [2.0, 4.0]


def test_an_unclosed_quote_names_its_record(tmp_path, capsys):
    # csv.reader reads a quote that is never closed on to the end of the
    # file as one field, and refuses it past its field size limit
    p = tmp_path / "unclosed.csv"
    p.write_text("1.0\n\n" + '"1.5\n' + "2.5\n" * 60_000)
    with pytest.raises(ValueError, match=r"unclosed\.csv: record 3: field larger than field limit"):
        ingest_csv(p)
    for command in (["fit", "--model", "exp-exp-pareto"], ["compare"]):
        assert main([*command, str(p)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "record 3" in err and "Traceback" not in err


def test_an_unclosed_quote_is_named_in_one_read(tmp_path, monkeypatch):
    # the record csv.reader refuses is numbered as it is read, not by
    # reading the file a second time
    p = tmp_path / "unclosed.csv"
    p.write_text("1.0\n\n" + '"1.5\n' + "2.5\n" * 60_000)
    opened = []

    def counting_open(file, *args, **kwargs):
        opened.append(file)
        return open(file, *args, **kwargs)

    monkeypatch.setattr(cli, "open", counting_open, raising=False)
    with pytest.raises(ValueError, match=r"unclosed\.csv: record 3: field larger than field limit"):
        ingest_csv(p)
    assert opened == [p]


def test_ingest_reads_a_byte_order_mark(tmp_path):
    # a spreadsheet's "CSV UTF-8" starts with U+FEFF, which is not part of
    # the first cell
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_text("1.5\n2.5\n3.5\n", encoding="utf-8")
    marked.write_text("1.5\n2.5\n3.5\n", encoding="utf-8-sig")
    assert ingest_csv(marked).values.tolist() == [1.5, 2.5, 3.5]
    marked.write_text("amount\n1.5\n", encoding="utf-8-sig")
    assert ingest_csv(marked, column="amount").values.tolist() == [1.5]
    # a plain UTF-8 file, non-ASCII header included, gives the same bits as
    # the row loop, whatever the locale's encoding
    text = "montant €,note\n" + "".join(f"{v!r},é\n" for v in CLAIMS.tolist())
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    want = reference_ingest(plain, "montant €").tobytes()
    assert want == CLAIMS.tobytes()
    for path in (plain, marked):
        assert ingest_csv(path, "montant €").values.tobytes() == want
        assert ingest_csv(path).values.tobytes() == want


def reference_ingest(path, column=0, scale=1.0):
    """The row loop that ingest_csv replaced, kept as its oracle: each
    record is checked for blankness, then its cell is stripped, parsed,
    scaled and checked, one record at a time."""
    if not 0.0 < scale < math.inf:
        raise ValueError(f"--scale must be positive and finite, got {scale}")
    p = Path(path)
    if not p.is_file():
        raise ValueError(f"no such file: {path}")
    text = column.strip() if isinstance(column, str) else None
    by_name = text is not None and not (text.isascii() and text.isdigit())
    if not by_name:
        idx = int(column)

    values = []
    with open(p, newline="", encoding="utf-8-sig") as fh:
        rows = (
            (rowno, row)
            for rowno, row in enumerate(csv.reader(fh), start=1)
            if any(cell.strip() for cell in row)
        )
        first = next(rows, None)
        if first is None:
            raise ValueError(f"{path}: file has no data rows")
        first_row = first[1]
        if by_name:
            names = [cell.strip() for cell in first_row]
            if text not in names:
                raise ValueError(f"column {text!r} not found in header {names}")
            idx = names.index(text)
        else:
            if idx < 0:
                raise ValueError(f"column index must be >= 0, got {idx}")
            try:
                if idx < len(first_row):  # a record too short is data
                    float(first_row[idx].strip())
            except ValueError:
                pass  # first row is a header
            else:
                rows = itertools.chain([first], rows)

        for rowno, row in rows:
            if idx >= len(row):
                raise ValueError(f"row {rowno}: no column {idx}")
            cell = row[idx].strip()
            try:
                v = float(cell)
            except ValueError:
                raise ValueError(
                    f"row {rowno}: could not parse {cell!r} as a number"
                ) from None
            v *= scale
            if not math.isfinite(v):
                raise ValueError(f"row {rowno}: value must be finite, got {cell!r}")
            if not v > 0.0:
                raise ValueError(f"row {rowno}: values must be strictly positive, got {v:g}")
            values.append(v)
    if not values:
        raise ValueError(f"{path}: no numeric data rows after the header")
    return np.array(values)


def ingest_outcome(ingest, path, column, scale):
    try:
        return np.asarray(ingest(path, column, scale)).tobytes()
    except ValueError as exc:
        return str(exc)


# cells that ingest keeps, and cells that are zero, negative, non-finite,
# out of float range, blank or not numbers at all
VALID_CELL = st.one_of(
    st.floats(min_value=1e-300, max_value=1e12).map(repr),
    st.integers(1, 10**6).map(str),
    st.sampled_from(["1_000", "+1.5", "0.5e1", "1E3", "1e10"]),
)
ODD_CELL = st.sampled_from([
    "1e-400", "-0.0", "0", "-2.5", "inf", "-Infinity", "nan", "+NaN", "infinity", "1e999",
    "", " ", "abc", "amount", "1.5.2", "1,5", 'a"b', "x\ny",
])


@st.composite
def csv_files(draw):
    """CSV text with blank rows, CRLF or LF line ends, padded and quoted
    cells (an embedded comma, quote or line end among them), ragged rows
    and an optional header; with a column by index or name, and a scale."""
    def cell():
        text = draw(ODD_CELL if draw(st.integers(0, 9)) == 0 else VALID_CELL)
        if any(c in text for c in ',"\n') or draw(st.integers(0, 3)) == 0:
            return '"' + text.replace('"', '""') + '"'
        return draw(st.sampled_from(["", " ", "\t"])) + text + draw(st.sampled_from(["", " "]))

    def row():
        # one row in ten is empty, one has only blank cells, one is ragged
        kind = draw(st.integers(0, 9))
        if kind == 0:
            return ""
        if kind == 1:
            return ",".join(draw(st.lists(st.sampled_from(["", " ", '""']), min_size=1, max_size=3)))
        size = draw(st.integers(1, 4)) if kind == 2 else width
        return ",".join(cell() for _ in range(size))

    width = draw(st.integers(1, 3))
    rows = [row() for _ in range(draw(st.integers(0, 15)))]
    if draw(st.integers(0, 2)):
        rows.insert(0, ",".join(["amount", " id", "note"][:width]))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    text = end.join(rows) + draw(st.sampled_from(["", end, end + end]))
    column = draw(st.one_of(st.integers(0, width), st.sampled_from(["amount", "id", "1", "claims"])))
    scale = draw(st.sampled_from([1.0, 1000.0, 1e-6, 0.1, 1e300]))
    return text, column, scale


@settings(max_examples=400)
@given(csv_files())
def test_ingest_matches_the_row_loop(tmp_path_factory, drawn):
    # the same value bytes, or the same error naming the same record
    text, column, scale = drawn
    path = tmp_path_factory.mktemp("ingest") / "claims.csv"
    path.write_bytes(text.encode())
    want = ingest_outcome(reference_ingest, path, column, scale)
    got = ingest_outcome(lambda *args: ingest_csv(*args).values, path, column, scale)
    assert got == want


# -- fit subcommand --------------------------------------------------------


def test_fit_csv_matches_library(tmp_path, capsys):
    data = write_csv(tmp_path / "claims.csv", CLAIMS)
    out = tmp_path / "fit.csv"
    code = main(["fit", "--model", "exp-exp-pareto", str(data), "--out", str(out)])
    assert code == 0
    rows = read_out(out)
    assert len(rows) == 1
    row = rows[0]
    res = fit(ModelId.EXP_EXP_PARETO, CLAIMS)
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


def test_fit_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("1.0\nnope\n")
    assert main(["fit", "--model", "exp-exp-pareto", str(bad)]) == 1
    assert "row 2" in capsys.readouterr().err
    flat = write_csv(tmp_path / "flat.csv", [5.0] * 12)
    assert main(["fit", "--model", "exp-exp-pareto", str(flat)]) == 2
    assert "error" in capsys.readouterr().err


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

    def failing(model, y):
        if model is ModelId.EXP_IG_PARETO:
            raise FitFailureError("forced failure")
        return real_fit(model, y)

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
    def same_fit(model, y):
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


def test_compare_total_failure_exits_two_with_literature_rows(tmp_path, capsys):
    # published rows are quoted, not fitted: they do not make a run succeed
    flat = write_csv(tmp_path / "flat.csv", [5.0] * 12)
    code = main(["compare", str(flat), "--models", "exp-exp-pareto,exp-ig-pareto",
                 "--literature", "danish"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "every requested model failed" in captured.err


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


def test_simulate_reports_wide_passes(tmp_path, capsys):
    # some replicates of this scenario take the wide pass, the others the
    # coarse one; the count is in the table, the CSV and the artifact
    args = ["simulate", "--eta", "18", "--theta", "1", "--n", "50", "--r", "20"]
    out, art = tmp_path / "wide.csv", tmp_path / "wide.json"
    assert main(args + ["--out", str(out), "--json", str(art)]) == 0
    assert "wide_passes" in capsys.readouterr().out.splitlines()[0]
    report = run_scenario(Scenario(ModelId.EXP_EXP_PARETO, 18.0, 1.0, n=50, r=20, base_seed=1))
    assert int(read_out(out)[0]["wide_passes"]) == report.wide_passes
    assert 0 < report.wide_passes < 20
    stored = json.loads(art.read_text())["results"]
    assert stored[0]["wide_passes"] == report.wide_passes
    assert list(replay_artifact(art).results) == stored


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
        want = build(ModelId.EXP_IG_PARETO, 1.2, 1.5).limited_moment(1.0, y)
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


def test_density_breakpoint_overflow_exits_1(capsys):
    argv = ["density", "--model", "exp-exp-pareto", "--theta", "1e100", "--eta", "0.05",
            "--lo", "0", "--hi", "1"]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        "error: breakpoint theta**(1/eta) exceeds the float range at theta = 1e+100, eta = 0.05\n"
    )


def test_density_head_scale_underflow_exits_1(capsys):
    # k * theta underflows to 0 at theta = 5e-324: one line naming theta
    argv = ["density", "--model", "exp-ig-pareto", "--theta", "5e-324", "--lo", "0", "--hi", "1"]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        "error: theta = 5e-324 underflows the head scale k*theta to 0\n"
    )


def test_density_head_rate_overflow_exits_1(capsys):
    # (alpha+1)/theta overflows at theta = 1e-310: one line naming theta
    argv = ["density", "--model", "exp-exp-pareto", "--theta", "1e-310", "--lo", "0", "--hi", "1"]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        "error: theta = 1e-310 overflows the head rate (alpha+1)/theta\n"
    )


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
    assert "grid" not in payload["config"]
    replayed = replay_artifact(art)
    assert list(replayed.results) == payload["results"]
    capsys.readouterr()


# one command line per subcommand; "{data}" stands for the claims CSV
REPLAY_ARGV = {
    "fit": ["fit", "{data}", "--model", "exp-exp-pareto"],
    "compare": ["compare", "{data}", "--models", "exp-pareto-1p,weibull",
                "--literature", "danish"],
    "simulate": ["simulate", "--eta", "0.8", "--theta", "1.0", "--n", "40",
                 "--r", "2", "--seed", "5"],
    "density": ["density", "--model", "exp-ig-pareto", "--theta", "1.3", "--lo", "0",
                "--hi", "6", "--points", "20", "--cdf", "--limited-moment", "0.5"],
}


def with_data(argv, data):
    return [str(data) if arg == "{data}" else arg for arg in argv]


@pytest.mark.parametrize("subcommand", sorted(REPLAY_ARGV))
def test_artifact_replays_identically(tmp_path, capsys, subcommand):
    data = write_csv(tmp_path / "claims.csv", CLAIMS)
    art = tmp_path / "run.json"
    assert main(with_data(REPLAY_ARGV[subcommand], data) + ["--json", str(art)]) == 0
    payload = json.loads(art.read_text())
    assert list(replay_artifact(art).results) == payload["results"]
    capsys.readouterr()


# a bad command line, and the edit (None deletes the key) that makes the
# config of a good one of the same subcommand just as bad
@pytest.mark.parametrize("bad_argv,edit", [
    (["compare", "{data}", "--models", ","], {"models": []}),
    (["compare", "{data}", "--models", "weibull"], {"models": ["weibull"]}),
    (["compare", "{data}", "--models", "weibull,weibull"], {"models": ["weibull", "weibull"]}),
    (["compare", "{data}", "--models", "weibull,gamma"], {"models": ["weibull", "gamma"]}),
    (["simulate", "--theta", "1.0", "--n", "40"], {"eta": None}),
    (["fit", "{data}", "--model", "gamma"], {"model": "gamma"}),
    (["simulate", "--model", "gamma", "--eta", "0.8", "--theta", "1.0", "--n", "40"],
     {"model": "gamma"}),
    (["simulate", "--model", "weibull", "--eta", "0.8", "--theta", "1.0", "--n", "40"],
     {"model": "weibull"}),
    (["density", "--model", "gamma", "--theta", "1.3", "--lo", "0", "--hi", "6"],
     {"model": "gamma"}),
    (["density", "--model", "weibull", "--theta", "1.3", "--lo", "0", "--hi", "6"],
     {"model": "weibull"}),
    (["compare", "{data}", "--criterion", "hqc"], {"criterion": "hqc"}),
    (["compare", "{data}", "--literature", "swedish"], {"literature": "swedish"}),
], ids=["no-models", "one-model", "repeated-model", "unknown-model", "simulate-without-eta",
        "fit-unknown-model", "simulate-unknown-model", "simulate-baseline-model",
        "density-unknown-model", "density-baseline-model", "unknown-criterion",
        "unknown-literature"])
def test_replay_refuses_what_main_refuses(tmp_path, capsys, bad_argv, edit):
    data = write_csv(tmp_path / "claims.csv", CLAIMS)
    assert main(with_data(bad_argv, data)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    message = err[len("error: "):].rstrip("\n")
    art = tmp_path / "run.json"
    assert main(with_data(REPLAY_ARGV[bad_argv[0]], data) + ["--json", str(art)]) == 0
    capsys.readouterr()
    payload = json.loads(art.read_text())
    for key, value in edit.items():
        if value is None:
            del payload["config"][key]
        else:
            payload["config"][key] = value
    art.write_text(json.dumps(payload))
    with pytest.raises(ValueError) as info:
        replay_artifact(art)
    assert str(info.value) == message


# every key an _exec_* step reads as config[key], per command line
REQUIRED_KEYS = {
    "fit": ("subcommand", "model", "data", "column", "scale"),
    "compare": ("subcommand", "models", "criterion", "data", "column", "scale"),
    "simulate": ("subcommand", "model", "r", "seed"),
    "density": ("subcommand", "model", "theta", "eta", "lo", "hi", "points"),
    "grid": ("subcommand", "r", "seed"),
}
REQUIRED_ARGV = {**REPLAY_ARGV, "grid": ["simulate", "--paper-tables", "--r", "2"]}


@pytest.mark.parametrize("argv_name,key", [
    (name, key) for name, keys in REQUIRED_KEYS.items() for key in keys
])
def test_replay_refuses_a_missing_key_by_name(tmp_path, capsys, argv_name, key):
    data = write_csv(tmp_path / "claims.csv", CLAIMS)
    art = tmp_path / "run.json"
    assert main(with_data(REQUIRED_ARGV[argv_name], data) + ["--json", str(art)]) == 0
    capsys.readouterr()
    payload = json.loads(art.read_text())
    del payload["config"][key]
    art.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=f"config has no key '{key}'"):
        replay_artifact(art)


@pytest.mark.parametrize("argv_name,key", [
    ("density", "thetta"),
    ("density", "out"),
    ("fit", "json"),
    ("fit", "help"),
    ("compare", "eta"),
    ("grid", "grid"),
])
def test_replay_refuses_a_key_no_flag_declares(tmp_path, capsys, argv_name, key):
    # an unknown key would be ignored, and --out or --json would not be honoured
    data = write_csv(tmp_path / "claims.csv", CLAIMS)
    art = tmp_path / "run.json"
    argv = with_data(REQUIRED_ARGV[argv_name], data)
    assert main(argv + ["--json", str(art)]) == 0
    capsys.readouterr()
    payload = json.loads(art.read_text())
    payload["config"][key] = "x.csv"
    art.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=f"^config key '{key}' is not an option of {argv[0]}$"):
        replay_artifact(art)


@pytest.mark.parametrize("argv_name,key,value", [
    ("density", "points", "20"),
    ("density", "theta", "1"),
    ("simulate", "r", 2.5),
    ("compare", "models", 5),
    ("compare", "models", "exp-exp-pareto,weibull"),
    ("fit", "data", 5),
    ("fit", "data", None),
    ("density", "points", True),
    ("density", "theta", None),
    ("density", "cdf", 1),
])
def test_replay_refuses_a_value_of_the_wrong_type_by_name(tmp_path, capsys, argv_name,
                                                          key, value):
    # argparse converts each value main sees; a hand-edited config is refused
    # with a ValueError naming the key, not a TypeError from inside _exec_*
    data = write_csv(tmp_path / "claims.csv", CLAIMS)
    art = tmp_path / "run.json"
    assert main(with_data(REPLAY_ARGV[argv_name], data) + ["--json", str(art)]) == 0
    capsys.readouterr()
    payload = json.loads(art.read_text())
    payload["config"][key] = value
    art.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=f"config key '{key}'"):
        replay_artifact(art)


@pytest.mark.parametrize("command", [5, "density", ["density", 5], None])
def test_replay_refuses_a_command_that_is_not_a_list_of_str(tmp_path, capsys, command):
    art = tmp_path / "run.json"
    assert main(REPLAY_ARGV["density"] + ["--json", str(art)]) == 0
    capsys.readouterr()
    payload = json.loads(art.read_text())
    payload["command"] = command
    art.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="the artifact's 'command' must be a list of str"):
        replay_artifact(art)
    # an artifact without a command replays with an empty one
    del payload["command"]
    art.write_text(json.dumps(payload))
    replayed = replay_artifact(art)
    assert replayed.command == () and list(replayed.results) == payload["results"]


@pytest.mark.parametrize("subcommand", ["frobnicate", ["fit"]])
def test_replay_refuses_an_unknown_subcommand(tmp_path, subcommand):
    art = tmp_path / "run.json"
    art.write_text(json.dumps({"config": {"subcommand": subcommand}}))
    with pytest.raises(ValueError, match="unknown subcommand in config"):
        replay_artifact(art)


@pytest.mark.parametrize("payload", [
    {"command": ["fit"]}, {"config": None}, {"config": []},
    [{"config": {"subcommand": "fit"}}], "config", None,
])
def test_replay_refuses_an_artifact_without_a_config(tmp_path, payload):
    art = tmp_path / "run.json"
    art.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="holds no config"):
        replay_artifact(art)


def test_replay_refuses_a_config_with_exponent_bounds(tmp_path, capsys):
    # an artifact written when the exponent search took bounds fails loudly
    # rather than replaying without them
    data = write_csv(tmp_path / "claims.csv", CLAIMS)
    art = tmp_path / "run.json"
    assert main(with_data(REPLAY_ARGV["fit"], data) + ["--json", str(art)]) == 0
    capsys.readouterr()
    payload = json.loads(art.read_text())
    payload["config"]["grid"] = {"lower": 0.05, "upper": 20.0}
    art.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="'grid'"):
        replay_artifact(art)


# the config that --json writes for each command line, recorded when this
# test was written; "{data}" stands for the claims CSV, passed as a relative
# path.  Compared as sorted JSON text, so 1.0 and 1 or True and 1 differ.
PINNED_CONFIGS = [
    (["fit", "{data}", "--model", "exp-exp-pareto"],
     {"subcommand": "fit", "data": "claims.csv", "column": "0", "scale": 1.0,
      "model": "exp-exp-pareto"}),
    (["compare", "{data}"],
     {"subcommand": "compare", "data": "claims.csv", "column": "0", "scale": 1.0,
      "models": ["exp-ig-pareto", "exp-exp-pareto", "ig-pareto-1p", "exp-pareto-1p",
                 "weibull", "inverse-gamma"],
      "criterion": "bic", "literature": None}),
    (["compare", "{data}", "--models", " exp-pareto-1p, ,weibull"],
     {"subcommand": "compare", "data": "claims.csv", "column": "0", "scale": 1.0,
      "models": ["exp-pareto-1p", "weibull"], "criterion": "bic", "literature": None}),
    (["simulate", "--eta", "0.8", "--theta", "1.0", "--n", "40", "--r", "2", "--seed", "5"],
     {"subcommand": "simulate", "model": "exp-exp-pareto", "eta": 0.8, "theta": 1.0,
      "n": 40, "r": 2, "seed": 5}),
    (["simulate", "--paper-tables", "--r", "2", "--seed", "3"],
     {"subcommand": "simulate", "r": 2, "seed": 3, "recovery_grid": True}),
    (["density", "--model", "exp-ig-pareto", "--theta", "1.3", "--lo", "0", "--hi", "6",
      "--points", "20"],
     {"subcommand": "density", "model": "exp-ig-pareto", "theta": 1.3, "eta": 1.0,
      "lo": 0.0, "hi": 6.0, "points": 20, "cdf": False, "limited_moment": None}),
]


@pytest.mark.parametrize("argv,config", PINNED_CONFIGS,
                         ids=["fit", "compare-default", "compare-models", "simulate",
                              "simulate-paper-tables", "density-bare"])
def test_artifact_config_is_pinned(tmp_path, monkeypatch, capsys, argv, config):
    monkeypatch.chdir(tmp_path)
    write_csv(tmp_path / "claims.csv", CLAIMS)
    assert main(with_data(argv, "claims.csv") + ["--json", "run.json"]) == 0
    capsys.readouterr()
    written = json.loads((tmp_path / "run.json").read_text())["config"]
    assert json.dumps(written, sort_keys=True) == json.dumps(config, sort_keys=True)


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


# sha256 of the stdout of the two commands above, and of the outputs of a
# curve whose pdf is inf at y = 0, recorded before the writers took columns:
# the table, and the CSV and JSON spelling of a non-finite cell, must not
# change one byte
PINNED_STDOUT_SHA256 = {
    "density": "98120f070b0c98f7b2ec633b0b3646ba9298917f925e496e47d95b91e71dd0dd",
    "compare": "f78874183de0cc77328ff50dd4b9a5334408b4086c39fd5f286dfff7fce080ec",
}
INFINITE_CELL_ARGV = ["density", "--model", "exp-exp-pareto", "--theta", "1", "--eta", "0.8",
                      "--lo", "0", "--hi", "6", "--points", "300", "--cdf",
                      "--limited-moment", "0.5"]
PINNED_NONFINITE_SHA256 = {
    "stdout": "cf6c2ba9aeb4894c99355c7594d4a7e012f0a203b9887514bd512132a2bb699a",
    "inf.csv": "677b5e0a096e9a98948521ef4fc8fdc128ee532e11e48f68d6afece2675af77c",
    "inf.json": "bbb0735322a3b432df18d2d926d8011d5731d0bf8ac013dd6e605488f35d9a93",
}


def sha256(text):
    return hashlib.sha256(text.encode() if isinstance(text, str) else text).hexdigest()


def test_cli_stdout_and_nonfinite_bytes_are_pinned(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    write_csv(tmp_path / "claims.csv", build(ModelId.EXP_IG_PARETO, 1.0, 2.0).sample(400, seed=5))
    capsys.readouterr()
    assert main(["density", "--model", "exp-ig-pareto", "--theta", "1.3", "--eta", "0.7",
                 "--lo", "0", "--hi", "6", "--points", "300", "--cdf",
                 "--limited-moment", "0.5"]) == 0
    stdout = {"density": sha256(capsys.readouterr().out)}
    assert main(["compare", "claims.csv", "--literature", "danish"]) == 0
    stdout["compare"] = sha256(capsys.readouterr().out)
    assert stdout == PINNED_STDOUT_SHA256
    assert main(INFINITE_CELL_ARGV + ["--out", "inf.csv", "--json", "inf.json"]) == 0
    got = {"stdout": sha256(capsys.readouterr().out)}
    got.update((name, sha256((tmp_path / name).read_bytes())) for name in ("inf.csv", "inf.json"))
    assert got == PINNED_NONFINITE_SHA256
    # the cell itself, in each spelling
    assert (tmp_path / "inf.csv").read_text().splitlines()[1].startswith("0.0,inf,")
    assert '"pdf": Infinity,' in (tmp_path / "inf.json").read_text()


def artifact_json(artifact):
    """The JSON artifact the writers make of a RunArtifact's command, config
    and columns."""
    spelled = [cli._machine_cells(column)[1] for column in artifact.columns.values()]
    chunks = cli._artifact_chunks(artifact.command, artifact.config, list(artifact.columns), spelled)
    return "".join(chunks)


def test_infinite_cell_replays(tmp_path, capsys):
    art = tmp_path / "inf.json"
    assert main(INFINITE_CELL_ARGV + ["--json", str(art)]) == 0
    capsys.readouterr()
    stored = json.loads(art.read_text())["results"]
    assert stored[0]["pdf"] == math.inf
    replayed = replay_artifact(art)
    assert list(replayed.results) == stored
    assert replayed.results[0]["pdf"] == math.inf
    # the replayed artifact writes the stored bytes back
    assert artifact_json(replayed) == art.read_text()


def test_csv_cells_are_quoted_as_the_csv_module_quotes_them(tmp_path, capsys, monkeypatch):
    # one quoting cause per cell: a comma, a quote, a line break, none
    messages = {
        ModelId.WEIBULL: "bad split, rescale",
        ModelId.INVERSE_GAMMA: 'theta is "inf"',
        ModelId.EXP_IG_PARETO: "no split\nrescale",
        ModelId.IG_PARETO_1P: "100% of rows",
    }

    def failing(model, y):
        if model in messages:
            raise FitFailureError(messages[model])
        return fit(model, y)

    monkeypatch.setattr(cli, "fit", failing)
    data = write_csv(tmp_path / "claims.csv", CLAIMS)
    out = tmp_path / "cmp.csv"
    models = ",".join(["exp-pareto-1p"] + [m.value for m in messages])
    assert main(["compare", str(data), "--models", models, "--out", str(out)]) == 0
    capsys.readouterr()
    assert {ModelId(r["model"]): r["note"] for r in read_out(out)[1:]} == messages
    with open(out, newline="") as fh:
        cells = list(csv.reader(fh))
    with open(tmp_path / "rewritten.csv", "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(cells)
    assert (tmp_path / "rewritten.csv").read_bytes() == out.read_bytes()


# The record-at-a-time writers that the column writers replaced, kept as the
# reference: the stdout, the CSV and the JSON artifact of any columns must
# equal theirs byte for byte.
def reference_outputs(command, config, records):
    def human(value):
        if value is None:
            return ""
        return f"{value:.6g}" if isinstance(value, float) else str(value)

    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        if config["subcommand"] == "fit":
            width = max(len(k) for k in records[0])
            for key, value in records[0].items():
                if value is not None:
                    print(f"{key.ljust(width)}  {human(value)}")
        else:
            keys = list(records[0])
            cells = [keys] + [[human(rec[k]) for k in keys] for rec in records]
            widths = [max(len(row[j]) for row in cells) for j in range(len(keys))]
            for row in cells:
                print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    table = io.StringIO(newline="")
    writer = csv.DictWriter(table, fieldnames=list(records[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(records)
    payload = {"command": list(command), "config": config, "results": records,
               "timestamp": None}
    return stdout.getvalue(), table.getvalue(), json.dumps(payload, indent=2, sort_keys=True) + "\n"


# the csv module of Python 3.11 leaves a lone carriage return unquoted, and
# later versions quote it; the writer here always quotes it.  Every result
# has at least two columns, so the csv module's quoting of a row that is one
# empty cell never applies.
TEXT = st.text(st.characters(blacklist_characters="\r"), max_size=8)
CELL = st.one_of(st.none(), TEXT, st.booleans(), st.integers(), st.floats())


@st.composite
def result_columns(draw):
    subcommand = draw(st.sampled_from(["fit", "density"]))
    rows = 1 if subcommand == "fit" else draw(st.integers(1, 12))
    names = draw(st.lists(st.text(st.characters(blacklist_characters="\r"), min_size=1,
                                  max_size=6), min_size=2, max_size=5, unique=True))
    columns = {
        name: draw(st.one_of(
            hnp.arrays(np.float64, rows, elements=st.floats()),
            st.lists(CELL, min_size=rows, max_size=rows),
        ))
        for name in names
    }
    return {"subcommand": subcommand}, columns


@given(result_columns())
def test_column_writers_match_the_record_writers(tmp_path_factory, drawn):
    config, columns = drawn
    work = tmp_path_factory.mktemp("writers")
    args = SimpleNamespace(out=work / "out.csv", json=work / "out.json")
    argv = ["density", "--out", "out.csv"]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert cli._emit(args, argv, config, columns) == 0
    artifact = cli.RunArtifact(tuple(argv), config, columns)
    want = reference_outputs(argv, config, list(artifact.results))
    with open(args.out, newline="") as fh:
        written = fh.read()
    assert (stdout.getvalue(), written, args.json.read_text()) == want
    assert artifact_json(artifact) == want[2]


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


_LOADED_AFTER_EACH_PATH = """
import sys
import expcomposite.cli as cli
from expcomposite.composite import verify_composite
from expcomposite.models import ModelId, build

def loaded(stage):
    mods = [m for m in ("scipy.optimize", "scipy.integrate") if m in sys.modules]
    print("loaded after", stage + ":", *mods)

data, out = sys.argv[1:]
loaded("import")
assert cli.main(["compare", data, "--out", out]) == 0
loaded("compare")
assert cli.main(["simulate", "--eta", "0.8", "--theta", "1.0", "--n", "40",
                 "--r", "3", "--out", out]) == 0
loaded("simulate")
verify_composite(build(ModelId.EXP_EXP_PARETO, 1.0, 0.8))
loaded("verify_composite")
"""


def test_quadrature_modules_load_only_with_the_first_quadrature(tmp_path):
    # scipy.integrate, which imports scipy.optimize, costs about 26 MB and
    # 0.3 s at import; the fit, compare and simulate paths never use it
    data = write_csv(tmp_path / "claims.csv", CLAIMS)
    proc = subprocess.run(
        [sys.executable, "-c", _LOADED_AFTER_EACH_PATH, str(data), str(tmp_path / "out.csv")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = [line for line in proc.stdout.splitlines() if line.startswith("loaded after")]
    assert loaded == [
        "loaded after import:",
        "loaded after compare:",
        "loaded after simulate:",
        "loaded after verify_composite: scipy.optimize scipy.integrate",
    ]


_SPECIAL_AFTER_EACH_PATH = """
import sys
import expcomposite.cli as cli
from expcomposite.models import ig_pareto_normalizer

def loaded(stage):
    special = "scipy.special" if "scipy.special" in sys.modules else "-"
    misses = ig_pareto_normalizer.cache_info().misses
    print("after", stage + ":", special, "ig normalizer", misses)

data, out, last = sys.argv[1:]
loaded("import")
assert cli.main(["simulate", "--eta", "0.8", "--theta", "1.0", "--n", "40",
                 "--r", "3", "--out", out]) == 0
loaded("simulate")
for model in ("exp-exp-pareto", "exp-pareto-1p", "weibull"):
    assert cli.main(["fit", data, "--model", model, "--out", out]) == 0
    loaded("fit " + model)
assert cli.main(["density", "--model", "exp-exp-pareto", "--theta", "1.0", "--eta", "0.8",
                 "--lo", "0", "--hi", "5", "--points", "50", "--cdf", "--out", out]) == 0
loaded("density")
assert cli.main(["fit", data, "--model", last, "--out", out]) == 0
loaded("fit " + last)
"""


@pytest.mark.parametrize("last, normalized", [("exp-ig-pareto", 1), ("inverse-gamma", 0)])
def test_scipy_special_loads_only_where_a_formula_needs_it(tmp_path, last, normalized):
    # scipy.special costs about 26 MB and 0.3 s at import; exp-family fits
    # and simulations and a density without a limited moment never call it,
    # while the ig normalizer and the inverse-gamma shape equation do
    data = write_csv(tmp_path / "claims.csv", CLAIMS)
    proc = subprocess.run(
        [sys.executable, "-c", _SPECIAL_AFTER_EACH_PATH, str(data), str(tmp_path / "out.csv"),
         last],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = [line for line in proc.stdout.splitlines() if line.startswith("after")]
    assert loaded == [
        "after import: - ig normalizer 0",
        "after simulate: - ig normalizer 0",
        "after fit exp-exp-pareto: - ig normalizer 0",
        "after fit exp-pareto-1p: - ig normalizer 0",
        "after fit weibull: - ig normalizer 0",
        "after density: - ig normalizer 0",
        f"after fit {last}: scipy.special ig normalizer {normalized}",
    ]
