"""Information criteria."""

import math
from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as hst

from expcomposite.gof import GofRow, score
from expcomposite.models import ModelId


def _fit(nll, p, n, model=ModelId.EXP_EXP_PARETO):
    return SimpleNamespace(model=model, nll=nll, p=p, n=n)


def test_reference_row_large_sample():
    row = score(_fit(3961.018, 2, 2492))
    assert round(row.aic, 3) == 7926.036
    assert round(row.bic, 3) == 7937.678
    assert round(row.aicc, 3) == 7926.041
    assert round(row.caic, 3) == 7939.678


def test_reference_row_medium_sample():
    row = score(_fit(755.5741, 2, 628))
    assert round(row.aic, 3) == 1515.148
    assert round(row.bic, 3) == 1524.033
    assert round(row.aicc, 3) == 1515.167
    assert round(row.caic, 3) == 1526.033


def test_zero_parameter_row_is_all_zero():
    row = score(_fit(0.0, 0, 100))
    assert (row.nll, row.aic, row.bic, row.aicc, row.caic) == (0.0,) * 5


def test_small_sample_guard():
    with pytest.raises(ValueError, match="n > p \\+ 1"):
        score(_fit(10.0, 2, 3))
    score(_fit(10.0, 2, 4))  # smallest admissible n


@given(
    nll=hst.floats(-1e4, 1e4),
    p=hst.integers(0, 10),
    n_extra=hst.integers(1, 10**6),
)
def test_criterion_identities(nll, p, n_extra):
    n = p + 1 + n_extra
    row = score(_fit(nll, p, n))
    assert row.aic == pytest.approx(2.0 * nll + 2.0 * p, abs=1e-9)
    assert row.bic == pytest.approx(2.0 * nll + p * math.log(n), abs=1e-9)
    assert row.caic == pytest.approx(row.bic + p, abs=1e-9)
    assert row.aicc == pytest.approx(
        row.aic + (2.0 * p * p + 2.0 * p) / (n - p - 1), abs=1e-9
    )


def test_penalties_order_for_large_n():
    row = score(_fit(50.0, 2, 500))  # ln 500 > 2
    assert row.nll * 2 < row.aic < row.bic < row.caic
    assert row.aic < row.aicc < row.bic


def test_score_reads_duck_typed_fits():
    row = score(_fit(12.5, 1, 40, ModelId.IG_PARETO_1P))
    assert isinstance(row, GofRow)
    assert (row.model, row.p, row.n, row.nll) == (ModelId.IG_PARETO_1P, 1, 40, 12.5)
