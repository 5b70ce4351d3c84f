"""Estimator-recovery studies: simulate, refit, aggregate.

Each replicate draws a fresh sample from the true model with seed
base_seed + replicate index and refits it by maximum likelihood, as fit
would; the replicates are drawn and fitted in batches.  Replicates whose
fit fails are counted and excluded from the aggregates; a scenario aborts
only when more than 10% of its replicates fail.  Aggregation runs in
replicate order, so reports are deterministic for a fixed base seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import estimation
from .estimation import FitFailureError, fit_batch
from .models import ModelId, build
from .special import _is_integer

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
        build(self.model, self.true_theta, self.true_eta)  # build's checks of theta and eta
        for name in ("n", "r", "base_seed"):  # the rule sample applies to n
            value = getattr(self, name)
            if not _is_integer(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.n < 10:
            raise ValueError(f"sample size must be >= 10, got {self.n}")
        if self.r < 1:
            raise ValueError(f"replicate count must be >= 1, got {self.r}")


@dataclass(frozen=True)
class SimulationReport:
    """Aggregates over the successful replicates of one scenario.

    Standard deviations use the n-1 divisor and are NaN when fewer than
    two replicates succeed.  failed holds the (seed, message) of each
    failed replicate, and wide_passes counts the replicates whose exponent
    search ran the wide pass.
    """

    scenario: Scenario
    eta_mean: float
    theta_mean: float
    eta_sd: float
    theta_sd: float
    failures: int
    failed: tuple[tuple[int, str], ...]
    wide_passes: int


def _sd(values: np.ndarray) -> float:
    if values.size < 2:
        return math.nan
    return float(np.std(values, ddof=1))


def run_scenario(scenario: Scenario) -> SimulationReport:
    """Run all replicates of a scenario and aggregate the estimates.

    The replicates go through fit_batch in chunks of about the profile
    scan's block of cells, so memory stays bounded whatever r is.
    """
    truth = build(scenario.model, scenario.true_theta, scenario.true_eta)
    chunk = max(1, estimation._SCAN_BLOCK // scenario.n)
    etas: list[float] = []
    thetas: list[float] = []
    failed: list[tuple[int, str]] = []
    wide_passes = 0
    for lo in range(0, scenario.r, chunk):
        seeds = range(scenario.base_seed + lo, scenario.base_seed + min(lo + chunk, scenario.r))
        outcomes, wide = fit_batch(scenario.model, truth.sample(scenario.n, seeds))
        wide_passes += int(np.count_nonzero(wide))
        for seed, result in zip(seeds, outcomes):
            if isinstance(result, FitFailureError):
                failed.append((seed, str(result)))
                continue
            etas.append(result.eta)
            thetas.append(result.theta)
    failures = len(failed)
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
        failed=tuple(failed),
        wide_passes=wide_passes,
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
