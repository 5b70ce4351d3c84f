"""The benchmark's three workloads: inputs from a seed, operations, checks.

Constructing a workload is its set-up: it generates the inputs from the
seed and writes the files the program reads.  ``run(cycle, i)`` is one
timed operation and ``check(cycle, i, result)`` raises ``CheckFailed``
when the program's output is wrong.  Operations go in cycles of
``cycle_len``; a run always ends on a whole cycle, so every seed and run
length sees the same mix of operations.

Operations call the program through module attributes (``cli.main``,
``simulation.run_scenario``, ...), which the traced run rebinds.  The
checks use names bound at import, so they never pass through a span.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
from pathlib import Path

import expcomposite.cli as cli
import expcomposite.composite as composite
import expcomposite.models as models
import expcomposite.simulation as simulation
from expcomposite.models import EXP_PARETO, IG_PARETO, ModelId, build
from expcomposite.special import adaptive_quadrature


class CheckFailed(Exception):
    """An operation returned, but its output is wrong."""


def _cli(argv: list[str]) -> int:
    # the tables the CLI prints stay in memory, off the benchmark's stdout
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class ClaimsCompare:
    """``expcomposite compare`` of all six models by BIC on one claims CSV.

    One large fit: the dense (exponents x n) profile scan dominates both
    time and memory, so a chunked or continuous maximizer shows here.
    """

    name = "claims-compare"
    cycle_len = 1
    N = 20_000
    THETA, ETA = 1.0, 2.0
    # relative slack for float rounding when comparing two log-likelihoods
    NLL_RTOL = 1e-12

    def __init__(self, seed: int, tmp: Path) -> None:
        truth = build(ModelId.EXP_IG_PARETO, self.THETA, self.ETA)
        self.data = truth.sample(self.N, seed)
        self.csv = tmp / "claims.csv"
        self.csv.write_text("".join(f"{float(v)!r}\n" for v in self.data))
        self.out = tmp / "ranking.csv"
        self._truth_nll = None

    def run(self, cycle: int, i: int):
        return _cli(["compare", str(self.csv), "--criterion", "bic", "--out", str(self.out)])

    def check(self, cycle: int, i: int, code) -> None:
        if code != 0:
            raise CheckFailed(f"compare exited {code}")
        rows = _read_csv(self.out)
        if sorted(r["model"] for r in rows) != sorted(m.value for m in ModelId):
            raise CheckFailed(f"ranked models {[r['model'] for r in rows]}")
        if any(r["status"] != "ok" for r in rows):
            raise CheckFailed("a model failed to fit")
        bics = [float(r["bic"]) for r in rows]
        if bics != sorted(bics) or [int(r["rank"]) for r in rows] != list(range(1, 7)):
            raise CheckFailed("rows are not ranked by BIC")
        if self._truth_nll is None:
            truth = build(ModelId.EXP_IG_PARETO, self.THETA, self.ETA)
            self._truth_nll = -float(truth.log_pdf(self.data).sum())
        fitted = next(float(r["nll"]) for r in rows if r["model"] == "exp-ig-pareto")
        # any maximizer of the likelihood does at least as well as the truth
        if fitted > self._truth_nll + self.NLL_RTOL * abs(self._truth_nll):
            raise CheckFailed(
                f"exp-ig-pareto nll {fitted!r} exceeds the nll at the generating "
                f"parameters {self._truth_nll!r}"
            )


class RecoveryStudy:
    """One scenario of the paper's 12-scenario exp-exp-pareto recovery grid.

    Thousands of fits at n <= 200, where per-call overhead and inversion
    sampling dominate and memory stays small: the estimation layer used
    the opposite way from claims-compare.
    """

    name = "recovery-study"
    # Replicates per scenario.  An operation then lasts 0.15 to 0.5 s, long
    # enough to average over the few-second swings in machine speed seen on
    # shared hosts; at r=50 the median latency jumped between them.
    R = 200
    # Half-width of the band around the truth, in Monte Carlo standard
    # errors of the mean.  At R=200 the estimator's small-sample bias
    # reaches 3.6 standard errors (theta at n=50), and the largest |z| over
    # 12 seeds of the grid was 5.5.
    BAND_SE = 10.0

    def __init__(self, seed: int, tmp: Path) -> None:
        self.seed = seed
        self.scenarios = [
            (eta, theta, n)
            for eta, theta in simulation.RECOVERY_GRID
            for n in simulation.RECOVERY_SAMPLE_SIZES
        ]
        self.cycle_len = len(self.scenarios)
        self.replicates = 0
        self.fit_failures = 0

    def base_seed(self, cycle: int) -> int:
        # every scenario of a cycle shares one base seed, as in
        # reproduce_recovery_tables; cycles draw disjoint seed ranges
        return self.seed * 1_000_000 + cycle * self.R

    def run(self, cycle: int, i: int):
        eta, theta, n = self.scenarios[i]
        return simulation.run_scenario(
            simulation.Scenario(ModelId.EXP_EXP_PARETO, eta, theta, n, self.R, self.base_seed(cycle))
        )

    def check(self, cycle: int, i: int, report) -> None:
        eta, theta, _ = self.scenarios[i]
        self.replicates += self.R
        self.fit_failures += report.failures
        ok = self.R - report.failures
        for label, mean, sd, truth in (
            ("eta", report.eta_mean, report.eta_sd, eta),
            ("theta", report.theta_mean, report.theta_sd, theta),
        ):
            if not (math.isfinite(mean) and math.isfinite(sd) and sd > 0.0):
                raise CheckFailed(f"{label} mean {mean!r}, sd {sd!r}")
            band = self.BAND_SE * sd / math.sqrt(ok)
            if abs(mean - truth) > band:
                raise CheckFailed(
                    f"{label} mean {mean:.6g} is off the truth {truth:g} by more "
                    f"than {band:.3g} ({self.BAND_SE:g} standard errors)"
                )


class PricingCurves:
    """Density, cdf and limited-moment curve of one (model, theta, eta) point
    through ``expcomposite density`` with --out and --json, plus
    verify_composite and the finite raw moments in closed form.

    Never calls estimation, so a fitting change must leave it unchanged.
    Exercises the closed-form moments, the incomplete-gamma functions,
    quadrature and the CLI write path.
    """

    name = "pricing-curves"
    # curve points; an operation lasts about 0.25 s, which averages over
    # swings in machine speed (see RecoveryStudy.R)
    POINTS = 6000
    # (model, theta, eta, limited-moment order): both families, the
    # one-parameter variants, exponents on either side of 1, and orders on
    # either side of the head shape alpha*eta, where the inverse-gamma
    # limited moment switches to the negative-shape recurrence.  The seed
    # scales theta by up to 10%.  Theta is a scale parameter and the curve
    # range scales with it, so the work per operation does not depend on
    # the seed.  An odd count keeps the median latency inside one point's
    # cluster rather than in the gap between two.
    BASE = (
        (ModelId.EXP_IG_PARETO, 1.0, 2.0, 1.0),
        (ModelId.EXP_IG_PARETO, 0.7, 0.6, 0.5),
        (ModelId.EXP_EXP_PARETO, 1.0, 0.8, 1.0),
        (ModelId.EXP_EXP_PARETO, 3.0, 4.0, 0.5),
        (ModelId.IG_PARETO_1P, 2.0, 1.0, 0.25),
        (ModelId.EXP_PARETO_1P, 0.5, 1.0, 1.0),
        (ModelId.EXP_IG_PARETO, 2.0, 1.0, 0.2),
    )
    # rows whose y is a cap for the quadrature cross-check
    CAP_ROWS = (POINTS // 20, POINTS // 3, POINTS - 1)
    QUAD_TOL = 1e-9
    LIMITED_RTOL = 1e-6

    def __init__(self, seed: int, tmp: Path) -> None:
        rng = random.Random(seed)
        self.points = []
        for model, theta, eta, order in self.BASE:
            theta *= rng.uniform(0.9, 1.1)
            tail = IG_PARETO.alpha - IG_PARETO.k if model.composite_family == "ig" else EXP_PARETO.alpha
            raw_orders = tuple(f * eta * tail for f in (0.25, 0.5, 0.75))
            hi = 5.0 * theta ** (1.0 / eta)
            self.points.append((model, theta, eta, order, raw_orders, hi))
        self.cycle_len = len(self.points)
        self.out = tmp / "curve.csv"
        self.json = tmp / "curve.json"
        self._reference: dict[tuple[int, int], float] = {}

    def run(self, cycle: int, i: int):
        model, theta, eta, order, raw_orders, hi = self.points[i]
        code = _cli([
            "density", "--model", model.value, "--theta", repr(theta), "--eta", repr(eta),
            "--lo", "0", "--hi", repr(hi), "--points", str(self.POINTS),
            "--cdf", "--limited-moment", repr(order),
            "--out", str(self.out), "--json", str(self.json),
        ])
        report = composite.verify_composite(models.build(model, theta, eta))
        moments = [models.moment_closed_form(model, theta, eta, t) for t in raw_orders]
        return code, report, moments

    def _limited_reference(self, i: int, b: float) -> float:
        # E[min(Y, b)^t] = int_0^b y^t pdf + b^t (1 - int_0^b pdf), both
        # integrals by quadrature, independent of the closed forms
        model, theta, eta, order, _, _ = self.points[i]
        d = build(model, theta, eta)
        pts = [d.breakpoint] if d.breakpoint < b else None
        head = adaptive_quadrature(
            lambda y: y**order * float(d.pdf(y)), 0.0, b, breakpoints=pts, tol=self.QUAD_TOL
        ).value
        mass = adaptive_quadrature(
            lambda y: float(d.pdf(y)), 0.0, b, breakpoints=pts, tol=self.QUAD_TOL
        ).value
        return head + b**order * (1.0 - mass)

    def check(self, cycle: int, i: int, result) -> None:
        code, report, moments = result
        if code != 0:
            raise CheckFailed(f"density exited {code}")
        if not report.passed:
            raise CheckFailed(f"verify_composite failed: {report}")
        if not all(math.isfinite(m) and m > 0.0 for m in moments):
            raise CheckFailed(f"raw moments {moments}")
        rows = _read_csv(self.out)
        if len(rows) != self.POINTS:
            raise CheckFailed(f"{len(rows)} curve rows, expected {self.POINTS}")
        cdf = [float(r["cdf"]) for r in rows]
        if any(not 0.0 <= c <= 1.0 for c in cdf) or any(a > b for a, b in zip(cdf, cdf[1:])):
            raise CheckFailed("cdf column is not monotone within [0, 1]")
        column = next(k for k in rows[0] if k.startswith("limited_moment_t"))
        for row in self.CAP_ROWS:
            b = float(rows[row]["y"])
            key = (i, row)
            if key not in self._reference:
                self._reference[key] = self._limited_reference(i, b)
            ref = self._reference[key]
            got = float(rows[row][column])
            if not abs(got - ref) <= self.LIMITED_RTOL * abs(ref):
                raise CheckFailed(f"limited moment at cap {b!r}: {got!r}, quadrature {ref!r}")
        artifact = json.loads(self.json.read_text())
        if artifact["config"]["subcommand"] != "density" or len(artifact["results"]) != self.POINTS:
            raise CheckFailed("JSON artifact does not hold the curve")


WORKLOADS = {w.name: w for w in (ClaimsCompare, RecoveryStudy, PricingCurves)}
