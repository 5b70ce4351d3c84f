"""Estimator-recovery studies: simulate, refit, aggregate.

Each replicate draws a fresh sample from the true model with seed
base_seed + replicate index and refits it by maximum likelihood.
Replicates whose fit fails are counted and excluded from the aggregates;
a scenario aborts only when more than 10% of its replicates fail.
Aggregation runs in replicate order, so reports are deterministic for a
fixed base seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimation import FitFailureError, fit
from .models import ModelId, build

__all__ = [
    "Scenario",
    "SimulationFailureError",
    "SimulationReport",
    "reproduce_recovery_tables",
    "run_scenario",
]

MAX_FAILURE_FRACTION = 0.10


class SimulationFailureError(FitFailureError):
    """Raised when more than 10% of a scenario's replicates fail to fit."""


@dataclass(frozen=True)
class Scenario:
    """One recovery study: true parameters, sample size, replicate count."""

    model: ModelId
    true_eta: float
    true_theta: float
    n: int
    r: int
    base_seed: int

    def __post_init__(self) -> None:
        if not self.model.is_composite:
            raise ValueError(f"recovery studies need a composite model, got {self.model}")
        if not (self.true_eta > 0.0 and self.true_theta > 0.0):
            raise ValueError("true parameters must be positive")
        if self.n < 10:
            raise ValueError(f"sample size must be >= 10, got {self.n}")
        if self.r < 1:
            raise ValueError(f"replicate count must be >= 1, got {self.r}")


@dataclass(frozen=True)
class SimulationReport:
    """Aggregates over the successful replicates of one scenario.

    Standard deviations use the n-1 divisor and are NaN when fewer than
    two replicates succeed.
    """

    scenario: Scenario
    eta_mean: float
    theta_mean: float
    eta_sd: float
    theta_sd: float
    failures: int


def _sd(values: np.ndarray) -> float:
    if values.size < 2:
        return math.nan
    return float(np.std(values, ddof=1))


def run_scenario(scenario: Scenario) -> SimulationReport:
    """Run all replicates of a scenario and aggregate the estimates."""
    truth = build(scenario.model, scenario.true_theta, scenario.true_eta)
    etas: list[float] = []
    thetas: list[float] = []
    failures = 0
    for i in range(scenario.r):
        sample = truth.sample(scenario.n, seed=scenario.base_seed + i)
        try:
            result = fit(scenario.model, sample)
        except FitFailureError:
            failures += 1
            continue
        etas.append(result.eta)
        thetas.append(result.theta)
    if failures > MAX_FAILURE_FRACTION * scenario.r:
        raise SimulationFailureError(
            f"{failures} of {scenario.r} replicates failed to fit "
            f"(more than {MAX_FAILURE_FRACTION:.0%})"
        )
    eta_arr = np.array(etas)
    theta_arr = np.array(thetas)
    return SimulationReport(
        scenario=scenario,
        eta_mean=float(np.mean(eta_arr)),
        theta_mean=float(np.mean(theta_arr)),
        eta_sd=_sd(eta_arr),
        theta_sd=_sd(theta_arr),
        failures=failures,
    )


RECOVERY_GRID = ((0.8, 1.0), (5.0, 1.0), (0.8, 5.0), (5.0, 5.0))
RECOVERY_SAMPLE_SIZES = (50, 100, 200)
RECOVERY_REPLICATES = 2000


def reproduce_recovery_tables(
    base_seed: int, *, r: int = RECOVERY_REPLICATES
) -> list[list[SimulationReport]]:
    """Full recovery study for the exponential-head model.

    Four (eta, theta) settings, each at three sample sizes, r replicates
    apiece.  Returns one list of reports per setting, ordered by sample
    size.  The default r keeps the Monte Carlo error on the means near
    SD/45; smaller r gives a quick smoke version.
    """
    tables = []
    for true_eta, true_theta in RECOVERY_GRID:
        reports = [
            run_scenario(
                Scenario(
                    model=ModelId.EXP_EXP_PARETO,
                    true_eta=true_eta,
                    true_theta=true_theta,
                    n=n,
                    r=r,
                    base_seed=base_seed,
                )
            )
            for n in RECOVERY_SAMPLE_SIZES
        ]
        tables.append(reports)
    return tables
