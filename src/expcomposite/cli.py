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

from .estimation import BaselineFitResult, EtaGrid, FitFailureError, fit
from .gof import CRITERIA, _check_criterion, score
from .models import ModelId, build
from .simulation import Scenario, reproduce_recovery_tables, run_scenario

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
DEFAULT_COMPARE_MODELS = ",".join(ALL_MODEL_CHOICES)

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
    def n(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class RunArtifact:
    """Persisted record of one CLI run: command echo, config, results.

    The timestamp is always null so that identical invocations produce
    identical bytes; re-running the stored config through replay_artifact
    reproduces the results.
    """

    command: tuple[str, ...]
    config: dict
    results: tuple[dict, ...]

    def to_json(self) -> str:
        payload = {
            "command": list(self.command),
            "config": self.config,
            "results": [dict(r) for r in self.results],
            "timestamp": None,
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# -- ingestion -------------------------------------------------------------


def ingest_csv(path, column=0, scale: float = 1.0) -> ClaimsDataset:
    """Read one positive number per row from a CSV column.

    column is a 0-based index or a header name; a header row is detected
    automatically when the selected cell of the first row is not numeric.
    Errors name the 1-based file row that caused them.  Values are
    multiplied by scale after parsing.
    """
    if not 0.0 < scale < math.inf:
        raise ValueError(f"--scale must be positive and finite, got {scale}")
    p = Path(path)
    if not p.is_file():
        raise ValueError(f"no such file: {path}")
    by_name = True
    try:
        idx = int(column)
        by_name = False
    except (TypeError, ValueError):
        pass

    values: list[float] = []
    with open(p, newline="") as fh:
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
            wanted = str(column).strip()
            if wanted not in names:
                raise ValueError(f"column {wanted!r} not found in header {names}")
            idx = names.index(wanted)
        else:
            if idx < 0:
                raise ValueError(f"column index must be >= 0, got {idx}")
            cell = first_row[idx].strip() if idx < len(first_row) else ""
            try:
                float(cell)
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
    return ClaimsDataset(values=np.array(values))


# -- config execution ------------------------------------------------------
#
# Each subcommand reduces its flags to a JSON-safe config dict, and
# _run_config turns a config into result records.  replay_artifact goes
# through the same function, so a persisted config reruns on the exact
# code path that produced it.


def _run_config(config: dict) -> list[dict]:
    sub = config["subcommand"]
    if sub == "fit":
        return _exec_fit(config)
    if sub == "compare":
        return _exec_compare(config)
    if sub == "simulate":
        return _exec_simulate(config)
    if sub == "density":
        return _exec_density(config)
    raise ValueError(f"unknown subcommand in config: {sub!r}")


def _fit_record(result, row) -> dict:
    rec = {
        "model": result.model.value,
        "theta": None,
        "eta": None,
        "m": None,
        "breakpoint": None,
        "shape": None,
        "scale": None,
        "nll": row.nll,
        "n": row.n,
        "p": row.p,
        "aic": row.aic,
        "bic": row.bic,
        "aicc": row.aicc,
        "caic": row.caic,
    }
    if isinstance(result, BaselineFitResult):
        rec["shape"] = result.shape
        rec["scale"] = result.scale
    else:
        rec["theta"] = result.theta
        rec["eta"] = result.eta
        rec["m"] = result.m
        rec["breakpoint"] = result.breakpoint
    return rec


def _exec_fit(config: dict) -> list[dict]:
    dataset = ingest_csv(config["data"], config["column"], config["scale"])
    model = ModelId(config["model"])
    grid = EtaGrid(**config["grid"])
    result = fit(model, dataset.values, grid)
    return [_fit_record(result, score(result))]


def _exec_compare(config: dict) -> list[dict]:
    dataset = ingest_csv(config["data"], config["column"], config["scale"])
    grid = EtaGrid(**config["grid"])
    criterion = _check_criterion(config["criterion"])
    data = dataset.values

    def blank(model_name, source):
        return {
            "rank": None, "model": model_name, "source": source,
            "p": None, "nll": None, "aic": None, "bic": None,
            "aicc": None, "caic": None, "status": "ok", "note": "",
        }

    records = []
    for name in config["models"]:
        model = ModelId(name)
        rec = blank(name, "fitted")
        try:
            row = score(fit(model, data, grid))
        except (FitFailureError, ValueError) as exc:
            rec["status"] = "failed"
            rec["note"] = str(exc)
        else:
            rec.update(p=row.p, nll=row.nll, aic=row.aic, bic=row.bic,
                       aicc=row.aicc, caic=row.caic)
        records.append(rec)
    lit = config.get("literature")
    if lit:
        if lit not in LITERATURE_ROWS:
            raise ValueError(
                f"literature rows exist for {sorted(LITERATURE_ROWS)}, got {lit!r}"
            )
        for base in LITERATURE_ROWS[lit]:
            rec = blank(base["model"], "literature")
            rec.update({k: base[k] for k in ("p", "nll", "aic", "bic", "aicc", "caic")})
            records.append(rec)

    scored = [r for r in records if r["status"] == "ok"]
    if not scored:
        raise FitFailureError("every requested model failed to fit")
    scored.sort(key=lambda r: r[criterion])
    for rank, rec in enumerate(scored, start=1):
        rec["rank"] = rank
    return scored + [r for r in records if r["status"] == "failed"]


def _exec_simulate(config: dict) -> list[dict]:
    if config.get("recovery_grid"):
        tables = reproduce_recovery_tables(config["seed"], r=config["r"])
        reports = [report for table in tables for report in table]
    else:
        scenario = Scenario(
            model=ModelId(config["model"]),
            true_eta=config["eta"],
            true_theta=config["theta"],
            n=config["n"],
            r=config["r"],
            base_seed=config["seed"],
        )
        reports = [run_scenario(scenario)]
    return [
        {
            "model": rep.scenario.model.value,
            "true_eta": rep.scenario.true_eta,
            "true_theta": rep.scenario.true_theta,
            "n": rep.scenario.n,
            "r": rep.scenario.r,
            "base_seed": rep.scenario.base_seed,
            "eta_mean": rep.eta_mean,
            "theta_mean": rep.theta_mean,
            "eta_sd": rep.eta_sd,
            "theta_sd": rep.theta_sd,
            "failures": rep.failures,
        }
        for rep in reports
    ]


def _exec_density(config: dict) -> list[dict]:
    model = ModelId(config["model"])
    if not model.is_composite:
        raise ValueError("density curves are emitted for the composite models")
    theta, eta = config["theta"], config["eta"]
    lo, hi, points = config["lo"], config["hi"], config["points"]
    if not (0.0 <= lo < hi < math.inf):
        raise ValueError(f"invalid range: need 0 <= lo < hi < inf, got [{lo}, {hi}]")
    if points < 2:
        raise ValueError(f"need at least 2 points, got {points}")
    order = config.get("limited_moment")
    dist = build(model, theta, eta)
    ys = np.linspace(lo, hi, points)
    pdf = dist.pdf(ys)
    cdf = dist.cdf(ys) if config.get("cdf") else None
    if order is not None:
        lm = dist.limited_moment((order, ys))
    records = []
    for i, y in enumerate(ys):
        rec = {"y": float(y), "pdf": float(pdf[i])}
        if cdf is not None:
            rec["cdf"] = float(cdf[i])
        if order is not None:
            rec[f"limited_moment_t{order:g}"] = float(lm[i])
        records.append(rec)
    return records


# -- output ----------------------------------------------------------------


def _write_csv(path, records: list[dict]) -> None:
    # the csv module writes None as an empty cell and a float as its repr
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(records[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(records)


def _human(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _print_table(records: list[dict]) -> None:
    keys = list(records[0].keys())
    cells = [keys] + [[_human(rec.get(k)) for k in keys] for rec in records]
    widths = [max(len(row[j]) for row in cells) for j in range(len(keys))]
    for row in cells:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())


def _print_block(record: dict) -> None:
    width = max(len(k) for k in record)
    for key, value in record.items():
        if value is None:
            continue
        print(f"{key.ljust(width)}  {_human(value)}")


def _emit(args, argv: list[str], config: dict, records: list[dict]) -> int:
    if config["subcommand"] == "fit":
        _print_block(records[0])
    else:
        _print_table(records)
    out = getattr(args, "out", None)
    if out:
        _write_csv(out, records)
    json_path = getattr(args, "json", None)
    if json_path:
        artifact = RunArtifact(
            command=tuple(argv), config=config, results=tuple(records)
        )
        Path(json_path).write_text(artifact.to_json())
    return 0


def replay_artifact(path) -> RunArtifact:
    """Re-run the config stored in a JSON artifact; returns a fresh artifact.

    Determinism means the new results equal the stored ones.
    """
    payload = json.loads(Path(path).read_text())
    config = payload["config"]
    records = _run_config(config)
    return RunArtifact(
        command=tuple(payload.get("command", ())),
        config=config,
        results=tuple(records),
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


def _add_grid_flags(sub) -> None:
    sub.add_argument("--eta-min", type=float, default=0.05, help="exponent search lower bound")
    sub.add_argument("--eta-max", type=float, default=20.0, help="exponent search upper bound")


def _add_data_flags(sub) -> None:
    sub.add_argument("data", help="CSV file with one claim per row")
    sub.add_argument("--column", default="0",
                     help="CSV column, 0-based index or header name (default 0)")
    sub.add_argument("--scale", type=float, default=1.0,
                     help="multiply parsed values by this factor")


def _grid_config(args) -> dict:
    return {"lower": args.eta_min, "upper": args.eta_max}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="expcomposite",
        description="Fit, compare, simulate, and tabulate composite "
        "claim-severity models with a power-transform exponent.",
    )
    subs = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    p_fit = subs.add_parser("fit", help="fit one model to a claims CSV")
    _add_data_flags(p_fit)
    p_fit.add_argument("--model", required=True, choices=ALL_MODEL_CHOICES)
    _add_grid_flags(p_fit)
    _add_io_flags(p_fit)
    p_fit.set_defaults(handler=cmd_fit)

    p_cmp = subs.add_parser("compare", help="fit several models and rank them")
    _add_data_flags(p_cmp)
    p_cmp.add_argument("--models", default=DEFAULT_COMPARE_MODELS,
                       help="comma-separated model list (default: all)")
    p_cmp.add_argument("--criterion", choices=list(CRITERIA), default="bic",
                       help="ranking criterion (default bic)")
    p_cmp.add_argument("--literature", choices=sorted(LITERATURE_ROWS),
                       help="append published four-parameter reference rows "
                       "for the named dataset")
    _add_grid_flags(p_cmp)
    _add_io_flags(p_cmp)
    p_cmp.set_defaults(handler=cmd_compare)

    p_sim = subs.add_parser("simulate", help="estimator-recovery study")
    p_sim.add_argument("--model", choices=COMPOSITE_CHOICES, default="exp-exp-pareto")
    p_sim.add_argument("--eta", type=float, help="true exponent")
    p_sim.add_argument("--theta", type=float, help="true breakpoint parameter")
    p_sim.add_argument("--n", type=int, help="sample size per replicate")
    p_sim.add_argument("--r", type=int, default=2000, help="replicates (default 2000)")
    p_sim.add_argument("--seed", type=int, default=1, help="base seed (default 1)")
    p_sim.add_argument("--paper-tables", action="store_true",
                       help="run the full 12-scenario recovery grid instead "
                       "of a single scenario")
    _add_io_flags(p_sim)
    p_sim.set_defaults(handler=cmd_simulate)

    p_den = subs.add_parser("density", help="emit density curve points as CSV")
    p_den.add_argument("--model", required=True, choices=COMPOSITE_CHOICES)
    p_den.add_argument("--theta", type=float, required=True)
    p_den.add_argument("--eta", type=float, default=1.0)
    p_den.add_argument("--lo", type=float, required=True, help="range start, >= 0")
    p_den.add_argument("--hi", type=float, required=True, help="range end")
    p_den.add_argument("--points", type=int, default=200)
    p_den.add_argument("--cdf", action="store_true", help="add a cdf column")
    p_den.add_argument("--limited-moment", type=float, metavar="ORDER",
                       help="add a column with E[min(Y, y)^ORDER] at each y")
    _add_io_flags(p_den)
    p_den.set_defaults(handler=cmd_density)

    return parser


def cmd_fit(args, argv: list[str]) -> int:
    config = {
        "subcommand": "fit",
        "data": args.data,
        "column": args.column,
        "scale": args.scale,
        "model": args.model,
        "grid": _grid_config(args),
    }
    return _emit(args, argv, config, _run_config(config))


def cmd_compare(args, argv: list[str]) -> int:
    models = [name.strip() for name in args.models.split(",") if name.strip()]
    if len(models) < 2:
        raise ValueError("compare needs at least two models")
    for i, name in enumerate(models):
        if name not in ALL_MODEL_CHOICES:
            raise ValueError(f"unknown model {name!r}; choices: {ALL_MODEL_CHOICES}")
        if name in models[:i]:
            raise ValueError(f"model {name!r} is listed twice")
    config = {
        "subcommand": "compare",
        "data": args.data,
        "column": args.column,
        "scale": args.scale,
        "models": models,
        "criterion": args.criterion,
        "literature": args.literature,
        "grid": _grid_config(args),
    }
    return _emit(args, argv, config, _run_config(config))


def cmd_simulate(args, argv: list[str]) -> int:
    config = {
        "subcommand": "simulate",
        "r": args.r,
        "seed": args.seed,
    }
    if args.paper_tables:
        config["recovery_grid"] = True
    else:
        missing = [
            flag
            for flag, value in (("--eta", args.eta), ("--theta", args.theta), ("--n", args.n))
            if value is None
        ]
        if missing:
            raise ValueError(
                f"simulate needs {' '.join(missing)} unless --paper-tables is given"
            )
        config.update(model=args.model, eta=args.eta, theta=args.theta, n=args.n)
    return _emit(args, argv, config, _run_config(config))


def cmd_density(args, argv: list[str]) -> int:
    config = {
        "subcommand": "density",
        "model": args.model,
        "theta": args.theta,
        "eta": args.eta,
        "lo": args.lo,
        "hi": args.hi,
        "points": args.points,
        "cdf": bool(args.cdf),
        "limited_moment": args.limited_moment,
    }
    return _emit(args, argv, config, _run_config(config))


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return args.handler(args, argv)
    except FitFailureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
