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
    LimitedMomentQuery,
    VerificationReport,
    as_composite_spec,
    exponentiate,
    verify_composite,
)
from .estimation import (
    BaselineFitResult,
    EtaGrid,
    FitFailureError,
    FitResult,
    fit,
    theta_profile_exp_pareto,
    theta_profile_ig_pareto,
)
from .gof import CRITERIA, GofRow, compare, rankings, score
from .models import (
    EXP_PARETO,
    IG_PARETO,
    InverseGammaDensity,
    ModelId,
    WeibullDensity,
    build,
    exp_pareto_normalizer,
    ig_pareto_normalizer,
    limited_moment_closed_form,
    moment_closed_form,
)
from .simulation import (
    Scenario,
    SimulationFailureError,
    SimulationReport,
    reproduce_recovery_tables,
    run_scenario,
)
from .special import (
    QuadratureResult,
    adaptive_quadrature,
    find_root_bracketed,
    ln_gamma,
    lower_incomplete_gamma,
    upper_incomplete_gamma,
)

__version__ = "0.1.0"

__all__ = [
    "BaselineFitResult",
    "CompositeSpec",
    "CRITERIA",
    "EXP_PARETO",
    "EtaGrid",
    "ExponentiatedComposite",
    "FitFailureError",
    "FitResult",
    "GofRow",
    "IG_PARETO",
    "InfiniteMomentError",
    "InverseGammaDensity",
    "LimitedMomentQuery",
    "ModelId",
    "QuadratureResult",
    "Scenario",
    "SimulationFailureError",
    "SimulationReport",
    "VerificationReport",
    "WeibullDensity",
    "adaptive_quadrature",
    "as_composite_spec",
    "build",
    "compare",
    "exp_pareto_normalizer",
    "exponentiate",
    "find_root_bracketed",
    "fit",
    "ig_pareto_normalizer",
    "limited_moment_closed_form",
    "ln_gamma",
    "lower_incomplete_gamma",
    "moment_closed_form",
    "rankings",
    "reproduce_recovery_tables",
    "run_scenario",
    "score",
    "theta_profile_exp_pareto",
    "theta_profile_ig_pareto",
    "upper_incomplete_gamma",
    "verify_composite",
    "__version__",
]
