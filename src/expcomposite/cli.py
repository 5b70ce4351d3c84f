"""Command-line surface: ingest claims CSVs, fit and compare models, run
recovery studies, and emit density curves as plot data.

Every subcommand is deterministic given its flags.  Machine outputs are
plain CSV (``--out``) or a JSON run artifact (``--json``); both carry
full-precision floats and no timestamps, so repeated runs with identical
flags write identical bytes.  CSV is the normative format.

Exit codes: 0 success, 1 usage or data error, 2 fit failure.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .estimation import FitFailureError, fit
from .gof import CRITERIA, score
from .models import ModelId, build
from .simulation import Scenario, reproduce_recovery_tables, run_scenario
from .special import _is_integer

__all__ = [
    "ClaimsDataset",
    "LITERATURE_ROWS",
    "RunArtifact",
    "build_parser",
    "ingest_csv",
    "main",
    "replay_artifact",
]

COMPOSITE_CHOICES = [m.value for m in ModelId if m.is_composite]
ALL_MODEL_CHOICES = [m.value for m in ModelId]
# the fields that score a compare row, fitted or quoted from the literature
SCORED = ("p", *CRITERIA)

# Published reference fits of two four-parameter composite models on the two
# classic claims datasets.  Quoted from the literature, labeled as such in
# the output, never recomputed here.
LITERATURE_ROWS = {
    "danish": (
        {"model": "weibull-inverse-weibull", "p": 4, "nll": 3820.0,
         "aic": 7648.0, "bic": 7671.3, "aicc": 7648.0, "caic": 7675.3},
        {"model": "weibull-pareto", "p": 4, "nll": 3823.7,
         "aic": 7655.4, "bic": 7678.6, "aicc": 7655.4, "caic": 7682.5},
    ),
    "norwegian": (
        {"model": "weibull-inverse-weibull", "p": 4, "nll": 750.9702,
         "aic": 1509.940, "bic": 1527.711, "aicc": 1510.005, "caic": 1531.711},
        {"model": "weibull-pareto", "p": 4, "nll": 1077.078,
         "aic": 2162.156, "bic": 2179.926, "aicc": 2162.220, "caic": 2183.926},
    ),
}


@dataclass(frozen=True)
class ClaimsDataset:
    """Strictly positive, finite claim amounts in file order."""

    values: np.ndarray  # 1-d float

    @property
    def n(self) -> int:  # the row count bench/tracing.py reports for cli.ingest_csv
        return self.values.size


@dataclass(frozen=True, eq=False)
class RunArtifact:
    """Persisted record of one CLI run: command echo, config, results.

    The timestamp is always null so that identical invocations produce
    identical bytes; re-running the stored config through replay_artifact
    reproduces the results.  The results are held as columns, a name ->
    cells mapping in which a float column is a numpy array.
    """

    command: tuple[str, ...]
    config: dict
    columns: dict

    @property
    def results(self) -> tuple[dict, ...]:
        """The result records, one dict per row; CI's replay step compares them."""
        cells = (c.tolist() if isinstance(c, np.ndarray) else c for c in self.columns.values())
        return tuple(dict(zip(self.columns, row)) for row in zip(*cells))


# -- ingestion -------------------------------------------------------------


def ingest_csv(path, column=0, scale: float = 1.0) -> ClaimsDataset:
    """Read one positive number per row from a CSV column.

    column is a 0-based index (an int or a numpy integer, not a bool) or a
    str.  A str whose stripped text is ASCII digits is an index; any other
    str names a header, so "1_0", "+1", "-1" and non-ASCII digits are names.
    Any other type is refused.  A header row is detected automatically when
    the selected cell of the first non-blank row is not numeric (a row too
    short to have that cell is data, and refused).  The file is read as
    UTF-8, with or without a byte-order mark.  Rows whose cells are all
    blank are skipped.  An error names the offending row as
    its 1-based CSV record number: blank records count, and a quoted cell
    that spans lines is one record, so a quote never closed is named by
    the record it opens.  Each cell is parsed by float() and then
    multiplied by scale.
    """
    if not 0.0 < scale < math.inf:
        raise ValueError(f"--scale must be positive and finite, got {scale}")
    if not (isinstance(column, str) or _is_integer(column)):
        raise ValueError(f"column must be a str or an integer, got {column!r}")
    p = Path(path)
    if not p.is_file():
        raise ValueError(f"no such file: {path}")
    text = column.strip() if isinstance(column, str) else None
    by_name = text is not None and not (text.isascii() and text.isdigit())
    if not by_name:
        idx = int(column)

    # zip draws each record before its number, so where the reader refuses a
    # record, the next number is that record's
    numbers = itertools.count(1)
    try:
        with open(p, newline="", encoding="utf-8-sig") as fh:
            records = zip(csv.reader(fh), numbers)
            for first, start in records:
                if any(cell.strip() for cell in first):
                    break
            else:
                raise ValueError(f"{path}: file has no data rows")
            if by_name:
                names = [cell.strip() for cell in first]
                if text not in names:
                    raise ValueError(f"column {text!r} not found in header {names}")
                idx = names.index(text)
                start += 1
            else:
                if idx < 0:
                    raise ValueError(f"column index must be >= 0, got {idx}")
                # a record too short for the column is data, refused below
                try:
                    if idx < len(first):
                        float(first[idx].strip())
                except ValueError:
                    start += 1  # first row is a header
                else:
                    records = itertools.chain([(first, start)], records)
            # record start + i holds cells[i]: its stripped cell, or where that
            # is empty or absent the record itself, or None for a blank record
            cells = [
                (row[idx].strip() if idx < len(row) else "")
                or (row if any(cell.strip() for cell in row) else None)
                for row, _ in records
            ]
    except csv.Error as exc:  # a quote never closed reads on to the field size limit
        raise ValueError(f"{path}: record {next(numbers)}: {exc}") from None
    data = [cell for cell in cells if cell is not None]
    if not data:
        raise ValueError(f"{path}: no numeric data rows after the header")
    try:
        values = np.fromiter(map(float, data), float, len(data))
        with np.errstate(over="ignore"):
            values *= scale
        valid = (np.isfinite(values) & (values > 0.0)).all()
    except (ValueError, TypeError):  # a cell float() refuses, or a record without one
        valid = False
    if not valid:
        # _check_cell applies the same parse and tests, so the first record
        # it refuses is the first that failed here
        for i, cell in enumerate(cells):
            if cell is not None:
                _check_cell(start + i, cell, idx, scale)
    return ClaimsDataset(values=values)


def _check_cell(rowno: int, cell, idx: int, scale: float) -> None:
    """Raise the error that names CSV record rowno if its cell, parsed by
    float() and multiplied by scale, is not a finite positive value.  cell
    is the stripped cell, or the record where that is empty or absent."""
    if isinstance(cell, list):
        if idx >= len(cell):
            raise ValueError(f"row {rowno}: no column {idx}")
        cell = ""
    try:
        v = float(cell)
    except ValueError:
        raise ValueError(f"row {rowno}: could not parse {cell!r} as a number") from None
    v *= scale
    if not math.isfinite(v):
        raise ValueError(f"row {rowno}: value must be finite, got {cell!r}")
    if not v > 0.0:
        raise ValueError(f"row {rowno}: values must be strictly positive, got {v:g}")


# -- config execution ------------------------------------------------------
#
# A config is the parsed command line: each flag's argparse dest is its
# config key, and _config only drops --out and --json (and, under
# --paper-tables, the single-scenario keys).  _run_config turns a config
# into result columns: a name -> cells mapping, every column of one length,
# in which a float column is a numpy array and any other column a list of
# None, str, int or float cells.  It dispatches through the one _EXEC table
# for both main and replay_artifact, and every check of a config lives in
# _run_config or the _exec_* step, so a persisted config reruns on the exact
# code path that produced it and is refused with the same message as the
# command line.


class _Config(dict):
    """A config whose missing key is refused with a ValueError naming it."""

    def __missing__(self, key):
        raise ValueError(f"config has no key {key!r}")


def _run_config(config: dict, parser) -> dict:
    config = _Config(config)
    sub = config["subcommand"]
    if not isinstance(sub, str) or sub not in _EXEC:
        raise ValueError(f"unknown subcommand in config: {sub!r}")
    actions = parser._actions[-1].choices[sub]._actions
    # a key no flag declares would be ignored, so it is refused
    declared = {a.dest for a in actions} - {"help", "out", "json"} | {"subcommand"}
    for key in config:
        if key not in declared:
            raise ValueError(f"config key {key!r} is not an option of {sub}")
    # argparse gives main's config the type each flag declares; a stored
    # config is checked against the same declarations.  An int stands for a
    # float, as on the command line, a JSON true is not a number, and a flag
    # that is not required and defaults to None may hold None.  A missing key
    # passes here and is refused where it is read.
    for a in actions:
        if a.dest not in config:
            continue
        value = config[a.dest]
        if a.const is True:  # a store_true flag
            kind, ok = "bool", isinstance(value, bool)
        elif a.type is _model_list:
            kind = "list of str"
            ok = isinstance(value, list) and all(isinstance(v, str) for v in value)
        else:
            kind = getattr(a.type, "__name__", "str")
            ok = isinstance(value, {int: int, float: (int, float)}.get(a.type, str))
            ok = ok and not isinstance(value, bool)
        if not (ok or value is None and a.default is None and not a.required):
            raise ValueError(f"config key {a.dest!r} must be a {kind}")
    return _EXEC[sub](config)


def _fit_record(result, row) -> dict:
    # a parameter the fitted model does not have is None: a composite has no
    # shape or scale, a baseline no theta, eta, m or breakpoint
    return {
        "model": result.model.value,
        **{k: getattr(result, k, None)
           for k in ("theta", "eta", "m", "breakpoint", "shape", "scale")},
        **{k: getattr(row, k) for k in ("nll", "n", "p", "aic", "bic", "aicc", "caic")},
    }


def _as_columns(records: list[dict]) -> dict:
    return {name: [rec[name] for rec in records] for name in records[0]}


def _model(name, choices: list[str]) -> ModelId:
    if name not in choices:
        raise ValueError(f"unknown model {name!r}; choices: {choices}")
    return ModelId(name)


def _exec_fit(config: dict) -> dict:
    model = _model(config["model"], ALL_MODEL_CHOICES)
    dataset = ingest_csv(config["data"], config["column"], config["scale"])
    result = fit(model, dataset.values)
    return _as_columns([_fit_record(result, score(result))])


def _exec_compare(config: dict) -> dict:
    models = config["models"]
    if len(models) < 2:
        raise ValueError("compare needs at least two models")
    for i, name in enumerate(models):
        _model(name, ALL_MODEL_CHOICES)
        if name in models[:i]:
            raise ValueError(f"model {name!r} is listed twice")
    criterion = config["criterion"]
    if criterion not in CRITERIA:
        raise ValueError(f"criterion must be one of {CRITERIA}, got {criterion!r}")
    lit = config.get("literature")
    if lit and lit not in LITERATURE_ROWS:
        raise ValueError(f"literature rows exist for {sorted(LITERATURE_ROWS)}, got {lit!r}")
    data = ingest_csv(config["data"], config["column"], config["scale"]).values

    def blank(model_name, source):
        return {"rank": None, "model": model_name, "source": source,
                **dict.fromkeys(SCORED), "status": "ok", "note": ""}

    records = []
    for name in models:
        model = ModelId(name)
        rec = blank(name, "fitted")
        try:
            row = score(fit(model, data))
        except (FitFailureError, ValueError) as exc:
            rec["status"] = "failed"
            rec["note"] = str(exc)
        else:
            rec.update((k, getattr(row, k)) for k in SCORED)
        records.append(rec)
    for base in LITERATURE_ROWS[lit] if lit else ():
        rec = blank(base["model"], "literature")
        rec.update((k, base[k]) for k in SCORED)
        records.append(rec)

    scored = [r for r in records if r["status"] == "ok"]
    # published rows are not fits: they cannot stand in for a failed one
    if all(r["source"] == "literature" for r in scored):
        raise FitFailureError("every requested model failed to fit")
    scored.sort(key=lambda r: r[criterion])
    for rank, rec in enumerate(scored, start=1):
        rec["rank"] = rank
    return _as_columns(scored + [r for r in records if r["status"] == "failed"])


def _exec_simulate(config: dict) -> dict:
    if config.get("recovery_grid"):
        tables = reproduce_recovery_tables(config["seed"], r=config["r"])
        reports = [report for table in tables for report in table]
    else:
        missing = [f"--{key}" for key in ("eta", "theta", "n") if config.get(key) is None]
        if missing:
            raise ValueError(
                f"simulate needs {' '.join(missing)} unless --paper-tables is given"
            )
        scenario = Scenario(
            model=_model(config["model"], COMPOSITE_CHOICES),
            true_eta=config["eta"],
            true_theta=config["theta"],
            n=config["n"],
            r=config["r"],
            base_seed=config["seed"],
        )
        reports = [run_scenario(scenario)]
    return _as_columns([
        {
            "model": rep.scenario.model.value,
            **{k: getattr(rep.scenario, k)
               for k in ("true_eta", "true_theta", "n", "r", "base_seed")},
            **{k: getattr(rep, k)
               for k in ("eta_mean", "theta_mean", "eta_sd", "theta_sd", "failures",
                         "wide_passes")},
        }
        for rep in reports
    ])


def _exec_density(config: dict) -> dict:
    model = _model(config["model"], COMPOSITE_CHOICES)
    theta, eta = config["theta"], config["eta"]
    lo, hi, points = config["lo"], config["hi"], config["points"]
    if not (0.0 <= lo < hi < math.inf):
        raise ValueError(f"invalid range: need 0 <= lo < hi < inf, got [{lo}, {hi}]")
    if points < 2:
        raise ValueError(f"need at least 2 points, got {points}")
    order = config.get("limited_moment")
    dist = build(model, theta, eta)
    ys = np.linspace(lo, hi, points)
    columns = {"y": ys, "pdf": dist.pdf(ys)}
    if config.get("cdf"):
        columns["cdf"] = dist.cdf(ys)
    if order is not None:
        columns[f"limited_moment_t{order:g}"] = dist.limited_moment(order, ys)
    return columns


_EXEC = {"fit": _exec_fit, "compare": _exec_compare,
         "simulate": _exec_simulate, "density": _exec_density}


# -- output ----------------------------------------------------------------
#
# Each column is formatted once, and the table, the CSV and the JSON
# artifact each fill one template per row with the formatted cells.  A cell
# reads as the csv and json modules would write it: f"{v:.6g}" in the table,
# repr in the CSV (None empty), and json.dumps in the JSON artifact, where
# inf is Infinity and nan is NaN.

# json's spelling of the floats that repr writes as inf, -inf and nan
_JSON_NONFINITE = {"inf": "Infinity", "-inf": "-Infinity", "nan": "NaN"}


def _human(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _csv_cell(value) -> str:
    # the csv module's minimal quoting: a cell holding a comma, a quote or a
    # line break is quoted, with its quotes doubled.  A bare carriage return
    # is quoted too, which the csv module of Python 3.11 does not do.
    text = "" if value is None else repr(value) if isinstance(value, float) else str(value)
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _table_cells(column) -> list[str]:
    if isinstance(column, np.ndarray):
        return [f"{v:.6g}" for v in column.tolist()]
    return [_human(v) for v in column]


def _machine_cells(column) -> tuple[list[str], list[str]]:
    """The CSV and JSON cells of one result column.

    The cells of a float array share one float repr.
    """
    if isinstance(column, np.ndarray):
        text = list(map(float.__repr__, column.tolist()))
        if np.isfinite(column).all():
            return text, text
        return text, [_JSON_NONFINITE.get(c, c) for c in text]
    return [_csv_cell(v) for v in column], [json.dumps(v) for v in column]


def _print_table(columns: dict) -> None:
    table = [_table_cells(column) for column in columns.values()]
    widths = [max(len(name), *map(len, cells)) for name, cells in zip(columns, table)]
    line = "  ".join(f"%-{w}s" for w in widths)
    rows = itertools.chain([tuple(columns)], zip(*table))
    sys.stdout.writelines((line % row).rstrip() + "\n" for row in rows)


def _print_block(columns: dict) -> None:
    width = max(map(len, columns))
    for name, (value,) in columns.items():
        if value is not None:
            print(f"{name.ljust(width)}  {_human(value)}")


def _write_csv(path, names: list[str], cells: list[list[str]]) -> None:
    line = ",".join(["%s"] * len(names)) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(line % tuple(map(_csv_cell, names)))
        fh.writelines(map(line.__mod__, zip(*cells)))


def _artifact_chunks(command, config: dict, names: list[str], spelled: list[list[str]]):
    """json.dumps(payload, indent=2, sort_keys=True) and a newline, in chunks.

    json writes the command and the config; each record is one template,
    its keys sorted, filled with the JSON cells of that row.
    """
    payload = {"command": list(command), "config": config, "results": [], "timestamp": None}
    # the only key at an indent of two spaces named "results" is the payload's
    head, _, tail = json.dumps(payload, indent=2, sort_keys=True).partition(
        '\n  "results": []'
    )
    order = sorted(range(len(names)), key=names.__getitem__)
    fields = ",\n".join(
        f"      {json.dumps(names[j]).replace('%', '%%')}: %s" for j in order
    )
    record = "\n    {\n" + fields + "\n    }"
    rows = zip(*(spelled[j] for j in order))
    yield f'{head}\n  "results": [' + record % next(rows)
    yield from map(("," + record).__mod__, rows)
    yield f"\n  ]{tail}\n"


def _emit(args, argv: list[str], config: dict, columns: dict) -> int:
    if config["subcommand"] == "fit":
        _print_block(columns)
    else:
        _print_table(columns)
    if args.out or args.json:
        names = list(columns)
        cells, spelled = zip(*map(_machine_cells, columns.values()))
        if args.out:
            _write_csv(args.out, names, cells)
        if args.json:
            with open(args.json, "w") as fh:
                fh.writelines(_artifact_chunks(argv, config, names, spelled))
    return 0


def replay_artifact(path) -> RunArtifact:
    """Re-run the config stored in a JSON artifact; returns a fresh artifact.

    Determinism means the new results equal the stored ones.
    """
    payload = json.loads(Path(path).read_text())
    config = payload.get("config") if isinstance(payload, dict) else None
    if not isinstance(config, dict):
        raise ValueError(f"{path}: the artifact holds no config")
    command = payload.get("command", [])
    if not (isinstance(command, list) and all(isinstance(arg, str) for arg in command)):
        raise ValueError(f"{path}: the artifact's 'command' must be a list of str")
    return RunArtifact(
        command=tuple(command),
        config=config,
        columns=_run_config(config, build_parser()),
    )


# -- argument parsing ------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    # usage and parse problems exit 1, reserving 2 for fit failures
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_io_flags(sub) -> None:
    sub.add_argument("--out", metavar="PATH", help="write results as CSV (machine format)")
    sub.add_argument("--json", metavar="PATH", help="write a JSON run artifact")


def _add_data_flags(sub) -> None:
    sub.add_argument("data", help="CSV file with one claim per row")
    sub.add_argument("--column", default="0",
                     help="CSV column: a 0-based index written in ASCII digits, "
                     "else a header name (default 0)")
    sub.add_argument("--scale", type=float, default=1.0,
                     help="multiply parsed values by this factor")


def _model_list(text: str) -> list[str]:
    return [name.strip() for name in text.split(",") if name.strip()]


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="expcomposite",
        description="Fit, compare, simulate, and tabulate composite "
        "claim-severity models with a power-transform exponent.",
    )
    subs = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    p_fit = subs.add_parser("fit", help="fit one model to a claims CSV")
    _add_data_flags(p_fit)
    p_fit.add_argument("--model", required=True,
                       help=f"model to fit, one of {', '.join(ALL_MODEL_CHOICES)}")
    _add_io_flags(p_fit)

    p_cmp = subs.add_parser("compare", help="fit several models and rank them")
    _add_data_flags(p_cmp)
    p_cmp.add_argument("--models", type=_model_list, default=",".join(ALL_MODEL_CHOICES),
                       help="comma-separated model list (default: all)")
    p_cmp.add_argument("--criterion", default="bic",
                       help=f"ranking criterion, one of {', '.join(CRITERIA)} (default bic)")
    p_cmp.add_argument("--literature",
                       help="append published four-parameter reference rows "
                       f"for the named dataset, one of {', '.join(sorted(LITERATURE_ROWS))}")
    _add_io_flags(p_cmp)

    p_sim = subs.add_parser("simulate", help="estimator-recovery study")
    p_sim.add_argument("--model", default="exp-exp-pareto",
                       help=f"true model, one of {', '.join(COMPOSITE_CHOICES)}")
    p_sim.add_argument("--eta", type=float, help="true exponent")
    p_sim.add_argument("--theta", type=float, help="true breakpoint parameter")
    p_sim.add_argument("--n", type=int, help="sample size per replicate")
    p_sim.add_argument("--r", type=int, default=2000, help="replicates (default 2000)")
    p_sim.add_argument("--seed", type=int, default=1, help="base seed (default 1)")
    # absent rather than False without the flag, as a scenario config has no such key
    p_sim.add_argument("--paper-tables", dest="recovery_grid", action="store_true",
                       default=argparse.SUPPRESS,
                       help="run the full 12-scenario recovery grid instead "
                       "of a single scenario")
    _add_io_flags(p_sim)

    p_den = subs.add_parser("density", help="emit density curve points as CSV")
    p_den.add_argument("--model", required=True,
                       help=f"one of {', '.join(COMPOSITE_CHOICES)}")
    p_den.add_argument("--theta", type=float, required=True)
    p_den.add_argument("--eta", type=float, default=1.0)
    p_den.add_argument("--lo", type=float, required=True, help="range start, >= 0")
    p_den.add_argument("--hi", type=float, required=True, help="range end")
    p_den.add_argument("--points", type=int, default=200)
    p_den.add_argument("--cdf", action="store_true", help="add a cdf column")
    p_den.add_argument("--limited-moment", type=float, metavar="ORDER",
                       help="add a column with E[min(Y, y)^ORDER] at each y")
    _add_io_flags(p_den)

    return parser


def _config(args) -> dict:
    """The JSON-safe config of one parsed command line; checked by _exec_*."""
    config = {k: v for k, v in vars(args).items() if k not in ("out", "json")}
    if config.get("recovery_grid"):
        # the grid fixes its own scenarios, so their flags stay out of the config
        config = {k: config[k] for k in ("subcommand", "r", "seed", "recovery_grid")}
    return config


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        config = _config(args)
        return _emit(args, argv, config, _run_config(config, parser))
    except FitFailureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
