import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq

from expcomposite.special import (
    ROOT_RTOL,
    _ROOT_XTOL,
    QuadratureError,
    QuadratureResult,
    adaptive_quadrature,
    find_roots_bracketed,
    lower_incomplete_gamma,
    upper_incomplete_gamma,
)

# reference values computed with 30-digit arbitrary-precision arithmetic
UPPER_GAMMA_ORACLE = {
    (-0.5, 1.0): 0.1781477117815607,
    (-1.5, 2.0): 0.011832994103345998,
    (-2.25, 0.5): 0.9724938777218113,
    (0.3, 0.7): 0.3982897603002755,
    (2.0, 3.5): 0.13588822540043324,
    (1.0, 1.0): 0.36787944117144233,
    (-1.0, 1.0): 0.14849550677592205,
    (-2.0, 0.25): 5.194946015650299,
    (-0.9999, 3.0): 0.0035477649446591696,
}
LOWER_GAMMA_ORACLE = {
    (0.3, 0.7): 2.593279227387315,
    (2.0, 3.5): 0.8641117745995668,
    (1.349976, 1.349976): 0.5472945531794325,
}


@pytest.mark.parametrize("key,expected", sorted(UPPER_GAMMA_ORACLE.items()))
def test_upper_incomplete_gamma_oracle(key, expected):
    a, x = key
    got = upper_incomplete_gamma(a, x)
    assert got == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("key,expected", sorted(LOWER_GAMMA_ORACLE.items()))
def test_lower_incomplete_gamma_oracle(key, expected):
    a, x = key
    assert lower_incomplete_gamma(a, x) == pytest.approx(expected, rel=1e-12)


def test_upper_gamma_at_zero_is_complete_gamma():
    for a in (0.3, 1.7, 4.0):
        assert upper_incomplete_gamma(a, 0.0) == pytest.approx(
            math.gamma(a), rel=1e-14
        )


def test_upper_gamma_shape_zero_is_exponential_integral():
    assert upper_incomplete_gamma(0.0, 1.5) == pytest.approx(
        0.10001958240663265, rel=1e-12
    )


def test_upper_gamma_input_validation():
    with pytest.raises(ValueError):
        upper_incomplete_gamma(0.5, -1.0)
    with pytest.raises(ValueError):
        upper_incomplete_gamma(-0.5, 0.0)
    with pytest.raises(ValueError):
        upper_incomplete_gamma(math.nan, 1.0)
    with pytest.raises(ValueError):
        upper_incomplete_gamma(1.0, math.nan)


@pytest.mark.parametrize("a", [math.inf, -math.inf])
def test_upper_gamma_refuses_an_infinite_shape(a):
    # -inf once escaped as OverflowError from int(), +inf as a silent value
    with pytest.raises(ValueError, match="finite shape"):
        upper_incomplete_gamma(a, 1.0)


def test_lower_gamma_requires_positive_shape():
    with pytest.raises(ValueError):
        lower_incomplete_gamma(-0.5, 1.0)


@pytest.mark.parametrize("a,x", [(math.inf, 1.0), (math.nan, 1.0), (1.0, math.nan)])
def test_lower_gamma_refuses_non_finite_shape_and_nan_x(a, x):
    # a = inf once gave nan with a RuntimeWarning, which the suite makes an error
    with pytest.raises(ValueError):
        lower_incomplete_gamma(a, x)


@given(
    a=st.floats(min_value=-3.0, max_value=3.0),
    x=st.floats(min_value=0.05, max_value=20.0),
)
def test_upper_gamma_recurrence(a, x):
    # Gamma(a+1, x) = a Gamma(a, x) + x^a e^(-x), valid for every real a
    lhs = upper_incomplete_gamma(a + 1.0, x)
    rhs = a * upper_incomplete_gamma(a, x) + math.exp(a * math.log(x) - x)
    scale = max(abs(lhs), abs(rhs), 1e-290)
    assert abs(lhs - rhs) <= 1e-10 * scale


@given(a=st.floats(min_value=0.05, max_value=30.0), x=st.floats(min_value=0.0, max_value=40.0))
def test_lower_plus_upper_is_complete(a, x):
    total = lower_incomplete_gamma(a, x) + upper_incomplete_gamma(a, x)
    assert total == pytest.approx(math.gamma(a), rel=1e-12)


def test_quadrature_exponential_tail():
    res = adaptive_quadrature(lambda x: math.exp(-x), 0.0, math.inf)
    assert isinstance(res, QuadratureResult)
    assert res.value == pytest.approx(1.0, abs=1e-12)


def test_quadrature_endpoint_singularity():
    res = adaptive_quadrature(lambda x: x**-0.5, 0.0, 1.0)
    assert res.value == pytest.approx(2.0, rel=1e-9)


def test_quadrature_breakpoints_split_discontinuity():
    f = lambda x: 1.0 if x < 1.0 else 0.25
    res = adaptive_quadrature(f, 0.0, 3.0, breakpoints=[1.0])
    assert res.value == pytest.approx(1.5, rel=1e-12)


def test_quadrature_ignores_breakpoints_outside_range():
    res = adaptive_quadrature(lambda x: x, 0.0, 1.0, breakpoints=[5.0, -2.0])
    assert res.value == pytest.approx(0.5, rel=1e-12)


def test_quadrature_reports_divergence():
    with pytest.raises(QuadratureError):
        adaptive_quadrature(lambda x: 1.0 / x, 0.0, 1.0)


def find_root_bracketed(f, lo: float, hi: float) -> float:
    """scipy's brentq with the solver's tolerances: the oracle of find_roots_bracketed.

    brentq evaluates each end once, returns an end where f is 0, and raises
    ValueError where f is NaN or has one sign at both ends.
    """
    return float(brentq(f, lo, hi, xtol=_ROOT_XTOL, rtol=ROOT_RTOL))


def _lanes(*funcs):
    """f(x, lanes) of find_roots_bracketed, lane i being the scalar funcs[i]."""
    return lambda x, lanes: np.array([funcs[i](v) for v, i in zip(x.tolist(), lanes.tolist())])


def test_root_cosine():
    root, ok = find_roots_bracketed(_lanes(math.cos), [0.0], [3.0])
    assert ok.tolist() == [True]
    assert root[0] == pytest.approx(math.pi / 2.0, rel=1e-13)


def test_root_evaluates_each_end_once():
    calls = []

    def f(x):
        calls.append(x)
        return math.cos(x)

    root, _ = find_roots_bracketed(_lanes(f), [0.0], [3.0])
    assert root[0] == find_roots_bracketed(_lanes(math.cos), [0.0], [3.0])[0][0]
    assert calls.count(0.0) == 1
    assert calls.count(3.0) == 1


def test_root_endpoint_shortcut():
    root, ok = find_roots_bracketed(
        _lanes(lambda x: x - 2.0, lambda x: x - 5.0), [2.0, 2.0], [5.0, 5.0]
    )
    assert root.tolist() == [2.0, 5.0] and ok.all()


def test_root_requires_sign_change():
    root, ok = find_roots_bracketed(_lanes(lambda x: 1.0 + x * x), [-1.0], [1.0])
    assert not ok[0] and math.isnan(root[0])


def test_root_compares_signs_not_the_product_of_the_ends():
    # 1e-200 * 1e-200 underflows to 0, yet the ends have one sign
    root, ok = find_roots_bracketed(_lanes(lambda x: 1e-200), [0.0], [1.0])
    assert not ok[0] and math.isnan(root[0])


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("nan_at", [0.0, 1.0])
def test_root_refuses_nan_at_an_end(sign, nan_at):
    def f(x):
        return math.nan if x == nan_at else sign * (x - 0.5)

    # the second lane, solved alongside, is not disturbed
    root, ok = find_roots_bracketed(_lanes(f, math.cos), [0.0, 0.0], [1.0, 3.0])
    assert ok.tolist() == [False, True] and math.isnan(root[0])
    assert root[1] == find_roots_bracketed(_lanes(math.cos), [0.0], [3.0])[0][0]


def test_root_refuses_a_lane_that_turns_nan_mid_solve():
    # the ends are finite, the first secant step lands on the NaN stretch
    def f(x):
        return math.nan if 0.25 < x < 0.35 else x - 0.3

    with pytest.raises(ValueError):
        find_root_bracketed(f, 0.0, 1.0)
    root, ok = find_roots_bracketed(_lanes(f, math.cos), [0.0, 1.0], [1.0, 2.0])
    assert ok.tolist() == [False, True] and math.isnan(root[0])
    assert root[1] == find_root_bracketed(math.cos, 1.0, 2.0)


@given(target=st.floats(min_value=-5.0, max_value=5.0))
def test_root_linear_exact(target):
    root, ok = find_roots_bracketed(_lanes(lambda x: x - target), [-6.0], [6.0])
    assert ok[0] and root[0] == pytest.approx(target, abs=1e-12)


@pytest.mark.parametrize("bad", [(1.0, 0.0), (0.5, 0.5), (math.nan, 1.0)])
def test_roots_require_lo_below_hi(bad):
    calls = []

    def f(x, lanes):
        calls.append(x)
        return np.cos(x)

    with pytest.raises(ValueError, match=r"requires lo < hi, got \[.*\] in lane 1"):
        find_roots_bracketed(f, [0.0, bad[0], 0.0], [3.0, bad[1], 2.0])
    assert calls == []


def _lane_function(kind, a, b, scale):
    """A family of test functions: smooth, flat (0 over a stretch), tiny
    (products underflow), NaN past a point, and one sign throughout."""
    if kind == 0:
        return lambda x: ((x - a) * (x + b) + 0.1) * (x - b)
    if kind == 1:
        return lambda x: 0.0 if abs(x - a) < 0.3 else x - a
    if kind == 2:
        return lambda x: scale * math.tanh(3.0 * (x - a))
    if kind == 3:
        return lambda x: math.nan if x > b else x - a
    return lambda x: 1.0 + (x - a) ** 2


@settings(max_examples=40, deadline=None)
@given(
    brackets=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=4),
            st.floats(min_value=-2.0, max_value=2.0),
            st.floats(min_value=-2.0, max_value=2.0),
            st.sampled_from([1.0, 1e-200, 1e200]),
            st.floats(min_value=-3.0, max_value=-0.1),
            st.floats(min_value=0.1, max_value=3.0),
        ),
        min_size=1,
        max_size=8,
    )
)
def test_lockstep_roots_are_brentq_roots(brackets):
    # every lane has the root find_root_bracketed gives its bracket, bit for
    # bit, or is refused where find_root_bracketed raises ValueError
    funcs = [_lane_function(kind, a, b, scale) for kind, a, b, scale, _, _ in brackets]
    lo = [lo for *_, lo, _ in brackets]
    hi = [hi for *_, hi in brackets]
    calls = []

    def f(x, lanes):
        calls.append(len(lanes))
        return np.array([funcs[lane](v) for v, lane in zip(x.tolist(), lanes.tolist())])

    root, ok = find_roots_bracketed(f, lo, hi)
    for g, a, b, r, solved in zip(funcs, lo, hi, root.tolist(), ok.tolist()):
        try:
            want = find_root_bracketed(g, a, b)
        except ValueError:
            assert not solved and math.isnan(r)
        else:
            assert solved and r == want
    # one call for both ends of every bracket, then one a round
    assert calls[0] == 2 * len(brackets) and calls[1:] == sorted(calls[1:], reverse=True)


def test_quadrature_polynomial_with_numpy_callable():
    res = adaptive_quadrature(lambda x: 3.0 * np.square(x), 0.0, 2.0)
    assert res.value == pytest.approx(8.0, rel=1e-12)
