"""Composite claim-severity distributions with a power-transform exponent.

Construction, closed-form moments and limited moments, inversion sampling,
profile-likelihood fitting, goodness-of-fit comparison, and Monte Carlo
recovery studies for two spliced families: an inverse-gamma head and an
exponential head, each welded to a Pareto tail at a breakpoint and then
raised to a power.
"""

from .composite import (
    CompositeSpec,
    ExponentiatedComposite,
    InfiniteMomentError,
    VerificationReport,
    verify_composite,
)
from .estimation import (
    BaselineFitResult,
    FitFailureError,
    FitResult,
    fit,
    fit_batch,
)
from .gof import CRITERIA, GofRow, score
from .models import (
    EXP_PARETO,
    IG_PARETO,
    InverseGammaDensity,
    ModelId,
    WeibullDensity,
    build,
    exp_pareto_normalizer,
    ig_pareto_normalizer,
)
from .simulation import (
    Scenario,
    SimulationFailureError,
    SimulationReport,
    reproduce_recovery_tables,
    run_scenario,
)

__version__ = "0.1.0"

__all__ = [
    "BaselineFitResult",
    "CompositeSpec",
    "CRITERIA",
    "EXP_PARETO",
    "ExponentiatedComposite",
    "FitFailureError",
    "FitResult",
    "GofRow",
    "IG_PARETO",
    "InfiniteMomentError",
    "InverseGammaDensity",
    "ModelId",
    "Scenario",
    "SimulationFailureError",
    "SimulationReport",
    "VerificationReport",
    "WeibullDensity",
    "build",
    "exp_pareto_normalizer",
    "fit",
    "fit_batch",
    "ig_pareto_normalizer",
    "reproduce_recovery_tables",
    "run_scenario",
    "score",
    "verify_composite",
    "__version__",
]
