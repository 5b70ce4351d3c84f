"""Likelihood-based goodness-of-fit statistics.

Five statistics are computed from (nll, p, n): the negative log-likelihood
itself and the AIC, BIC, AICc, and CAIC penalized variants.  All are
"smaller is better"; the compare subcommand ranks on one of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .models import ModelId

__all__ = ["CRITERIA", "GofRow", "score"]

CRITERIA = ("nll", "aic", "bic", "aicc", "caic")


@dataclass(frozen=True)
class GofRow:
    """Scored model: parameter count, nll, and the four penalized criteria.

    Invariants: aic = 2 nll + 2p, bic = 2 nll + p ln n,
    caic = 2 nll + p (ln n + 1), aicc = aic + (2p^2 + 2p)/(n - p - 1).
    """

    model: ModelId
    p: int
    nll: float
    aic: float
    bic: float
    aicc: float
    caic: float
    n: int


def score(fit) -> GofRow:
    """Score a fitted model; requires n > p + 1 so the AICc penalty is finite."""
    n, p, nll = fit.n, fit.p, fit.nll
    if not n > p + 1:
        raise ValueError(
            f"small-sample criterion needs n > p + 1, got n={n} with p={p}"
        )
    log_n = math.log(n)
    aic = 2.0 * nll + 2.0 * p
    return GofRow(
        model=fit.model,
        p=p,
        nll=nll,
        aic=aic,
        bic=2.0 * nll + p * log_n,
        aicc=aic + (2.0 * p * p + 2.0 * p) / (n - p - 1),
        caic=2.0 * nll + p * (log_n + 1.0),
        n=n,
    )
