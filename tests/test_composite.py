import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from expcomposite.composite import (
    CompositeSpec,
    ExponentiatedComposite,
    InfiniteMomentError,
    LimitedMomentQuery,
    _require_finite_moment,
    as_composite_spec,
    exponentiate,
    verify_composite,
)
from expcomposite.models import ModelId, build, exp_pareto_spec, ig_pareto_spec
from expcomposite.special import (
    QUAD_TOL,
    _as_batch,
    _maybe_scalar,
    adaptive_quadrature,
    lower_incomplete_gamma,
)

# -- quadrature oracles for the moment engine ------------------------------


def moment_numeric(d: ExponentiatedComposite, t: float, tol: float = QUAD_TOL) -> float:
    """E[Y^t] by quadrature on the y scale.

    Divergence is decided by comparing t/eta with the declared tail
    exponent, never by integrating.
    """
    _require_finite_moment(t, d.exponent, d.parent.tail_moment_sup)
    res = adaptive_quadrature(
        lambda y: y**t * float(d.pdf(y)),
        0.0,
        math.inf,
        breakpoints=[d.breakpoint],
        tol=tol,
    )
    return res.value


def parent_moment(spec: CompositeSpec, r: float, tol: float = QUAD_TOL) -> float:
    """Fractional parent moment E[X^r] by quadrature on the x scale."""
    _require_finite_moment(r, 1.0, spec.tail_moment_sup)
    c = spec.norm_const
    head = adaptive_quadrature(
        lambda x: x**r * float(spec.head_density(x)), 0.0, spec.breakpoint, tol=tol
    )
    tail = adaptive_quadrature(
        lambda x: x**r * float(spec.tail_density(x)),
        spec.breakpoint,
        math.inf,
        tol=tol,
    )
    return c * (head.value + tail.value)


def quadrature_partials(spec: CompositeSpec) -> CompositeSpec:
    """spec with its partial moments integrated by adaptive quadrature.

    The reference the closed-form partials are checked against.  A tail
    integral over more than two decades is taken in w = log(x).
    """
    theta = spec.breakpoint

    def head(v: float, r: float) -> float:
        if v == 0.0:
            return 0.0
        return adaptive_quadrature(
            lambda x: x**r * float(spec.head_density(x)), 0.0, v
        ).value

    def tail(v: float, r: float) -> float:
        if v == theta:
            return 0.0
        if 100.0 < v / theta < math.inf:
            # x = e^w turns many decades of algebraic decay into a short
            # exponential-decay integral the adaptive rule certifies easily
            return adaptive_quadrature(
                lambda w: math.exp((r + 1.0) * w) * float(spec.tail_density(math.exp(w))),
                math.log(theta),
                math.log(v),
            ).value
        return adaptive_quadrature(
            lambda x: x**r * float(spec.tail_density(x)), theta, v
        ).value

    def elementwise(f):
        # a float u gives a float, an array an array, like the closed forms
        def partial(u, r):
            arr, scalar = _as_batch(u)
            out = np.array([f(float(v), r) for v in arr.ravel()]).reshape(arr.shape)
            return _maybe_scalar(out, scalar)

        return partial

    return dataclasses.replace(
        spec, head_partial_moment=elementwise(head), tail_partial_moment=elementwise(tail)
    )


# A hand-built spliced density that is NOT calibrated for smoothness:
# exponential head with an arbitrary rate, Pareto tail with an arbitrary
# exponent.  The machinery contracts (mass, cdf/quantile, partial moments)
# must hold for it anyway; only verify_composite should complain.  Its
# partial moments are closed forms of their own, checked against
# quadrature_partials.


def rough_spec(theta=2.0, rate=0.7, tail_exp=1.3) -> CompositeSpec:
    c = 1.0 / (1.0 + (1.0 - math.exp(-rate * theta)))

    def head_density(x):
        return rate * np.exp(-rate * np.asarray(x, dtype=float))

    def tail_density(x):
        x = np.asarray(x, dtype=float)
        return tail_exp * theta**tail_exp * x ** (-tail_exp - 1.0)

    def head_cdf(u):
        return -np.expm1(-rate * np.asarray(u, dtype=float))

    def tail_cdf(u):
        return 1.0 - tail_sf(u)

    def tail_sf(u):
        return (theta / np.asarray(u, dtype=float)) ** tail_exp

    def head_log_density(log_x):
        return math.log(rate) - rate * np.exp(log_x)

    def tail_log_density(log_x):
        return math.log(tail_exp) + tail_exp * math.log(theta) - (tail_exp + 1.0) * log_x

    def head_ppf(q):
        return -np.log1p(-np.asarray(q, dtype=float)) / rate

    def tail_ppf(q):
        return theta * (1.0 - np.asarray(q, dtype=float)) ** (-1.0 / tail_exp)

    def head_partial_moment(u, r):
        return rate**-r * lower_incomplete_gamma(r + 1.0, rate * np.asarray(u, dtype=float))

    def tail_partial_moment(u, r):
        u = np.asarray(u, dtype=float)
        d = r - tail_exp
        if d == 0.0:
            return tail_exp * theta**tail_exp * np.log(u / theta)
        return tail_exp * theta**tail_exp * (u**d - theta**d) / d

    return CompositeSpec(
        head_density=head_density,
        tail_density=tail_density,
        breakpoint=theta,
        norm_const=c,
        head_cdf=head_cdf,
        tail_cdf=tail_cdf,
        tail_sf=tail_sf,
        head_log_density=head_log_density,
        tail_log_density=tail_log_density,
        head_ppf=head_ppf,
        tail_ppf=tail_ppf,
        head_partial_moment=head_partial_moment,
        tail_partial_moment=tail_partial_moment,
        tail_moment_sup=tail_exp,
    )


def test_spec_validation():
    with pytest.raises(ValueError):
        rough_spec(theta=-1.0)
    with pytest.raises(ValueError):
        dataclasses.replace(rough_spec(), norm_const=1.5)


def test_total_mass_is_one():
    for spec in (rough_spec(), rough_spec(theta=0.4, rate=2.2, tail_exp=0.4)):
        # c*F1(theta) + c*(F2(inf) - F2(theta))
        theta = spec.breakpoint
        mass = spec.norm_const * (
            float(spec.head_cdf(theta))
            + float(spec.tail_cdf(math.inf))
            - float(spec.tail_cdf(theta))
        )
        assert mass == pytest.approx(1.0, abs=1e-12)


def test_limited_moment_query_validation():
    with pytest.raises(ValueError):
        LimitedMomentQuery(order=-0.5, cap=1.0)
    for cap in (-1.0, math.nan):
        with pytest.raises(ValueError):
            LimitedMomentQuery(order=1.0, cap=cap)
    for caps in ([2.0, -1.0], [1.0, math.nan], [math.nan]):
        with pytest.raises(ValueError):
            LimitedMomentQuery(order=1.0, cap=np.array(caps))
    # cap zero is admitted: the capped variable is zero there
    d = ExponentiatedComposite(rough_spec(), 1.4)
    assert d.limited_moment(LimitedMomentQuery(order=1.0, cap=0.0)) == 0.0
    got = d.limited_moment(LimitedMomentQuery(order=1.0, cap=np.array([1.0, 0.0])))
    assert got[0] == d.limited_moment((1.0, 1.0)) and got[1] == 0.0


def test_limited_moment_query_requires_finite_order():
    with pytest.raises(ValueError, match="finite"):
        LimitedMomentQuery(order=math.inf, cap=1.0)


def test_exponent_validation():
    with pytest.raises(ValueError):
        ExponentiatedComposite(rough_spec(), 0.0)
    with pytest.raises(ValueError):
        ExponentiatedComposite(rough_spec(), -2.0)
    with pytest.raises(ValueError, match="finite"):
        ExponentiatedComposite(rough_spec(), math.inf)


def test_pdf_is_change_of_variables():
    spec = rough_spec()
    eta = 1.7
    d = ExponentiatedComposite(spec, eta)
    c = spec.norm_const
    for y in (0.3, 0.9, d.breakpoint, 2.1, 7.0):
        x = y**eta
        piece = spec.head_density if x < spec.breakpoint else spec.tail_density
        expected = c * float(piece(x)) * eta * y ** (eta - 1.0)
        assert d.pdf(y) == pytest.approx(expected, rel=1e-14)


def test_pdf_nan_propagates_and_zero_handled():
    d = ExponentiatedComposite(rough_spec(), 2.0)
    out = d.pdf(np.array([math.nan, 0.0, 1.0]))
    assert math.isnan(out[0])
    assert out[1] == 0.0  # exponent > 1 pins the transformed density to 0
    assert out[2] > 0.0


def test_cdf_from_quadrature():
    d = ExponentiatedComposite(rough_spec(), 0.8)
    for y in (0.5, d.breakpoint, 5.0):
        num = adaptive_quadrature(
            lambda s: float(d.pdf(s)), 0.0, y, breakpoints=[d.breakpoint]
        )
        assert d.cdf(y) == pytest.approx(num.value, rel=1e-9)


def test_cdf_limits_and_monotonicity():
    d = ExponentiatedComposite(rough_spec(), 1.3)
    ys = np.linspace(0.0, 30.0, 200)
    vals = d.cdf(ys)
    assert vals[0] == 0.0
    assert np.all(np.diff(vals) >= 0.0)
    assert vals[-1] <= 1.0


@given(
    parent=st.sampled_from(
        [rough_spec(), exp_pareto_spec(1.0), ig_pareto_spec(1.0)]
    ),
    u=st.floats(min_value=0.001, max_value=0.999),
    eta=st.floats(min_value=0.3, max_value=4.0),
)
def test_quantile_round_trip(parent, u, eta):
    # every wired ppf, the hand-built one and both families', inverts its cdf
    d = ExponentiatedComposite(parent, eta)
    y = d.quantile(u)
    assert d.cdf(y) == pytest.approx(u, abs=1e-9)


def test_quantile_rejects_endpoints():
    d = ExponentiatedComposite(rough_spec(), 1.0)
    for u in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(ValueError):
            d.quantile(u)


def test_sampling_deterministic_and_plausible():
    d = ExponentiatedComposite(rough_spec(), 2.0)
    a = d.sample(4000, seed=11)
    b = d.sample(4000, seed=11)
    assert np.array_equal(a, b)
    assert a.shape == (4000,)
    head_frac = float(np.mean(a < d.breakpoint))
    assert head_frac == pytest.approx(d.cdf(d.breakpoint), abs=0.03)
    with pytest.raises(ValueError):
        d.sample(0, seed=1)


def test_sampling_overflow_raises():
    # at eta = 0.05 the tail draws x ** 20 leave the float range
    d = build(ModelId.EXP_IG_PARETO, 1.0, 0.05)
    with pytest.raises(OverflowError):
        d.sample(200, seed=1)
    with pytest.raises(OverflowError):
        d.quantile(np.array([0.01, 0.999]))
    assert math.isfinite(d.quantile(0.01))


@settings(max_examples=30, deadline=None)
@given(
    model=st.sampled_from([ModelId.EXP_EXP_PARETO, ModelId.EXP_IG_PARETO]),
    theta=st.floats(min_value=0.1, max_value=10.0),
    eta=st.floats(min_value=0.5, max_value=3.0),
    a=st.floats(min_value=0.5, max_value=2.0),
    n=st.integers(min_value=1, max_value=200),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_sample_maps_under_powers(model, theta, eta, a, n, seed):
    # Y^a is the composite at exponent eta / a, draw for draw
    lhs = build(model, theta, eta / a).sample(n, seed)
    rhs = build(model, theta, eta).sample(n, seed) ** a
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=0.0)


def test_rough_spec_partials_match_quadrature():
    spec = rough_spec()
    quad = quadrature_partials(spec)
    theta = spec.breakpoint
    for r in (0.0, 0.7, 1.3, 2.5):
        for u in (0.0, 0.3, 1.2, theta):
            got = float(spec.head_partial_moment(u, r))
            assert got == pytest.approx(float(quad.head_partial_moment(u, r)), rel=1e-9)
        # the last cap takes the oracle's log-substitution branch
        for u in (theta, 4.5, 60.0, 1e5):
            got = float(spec.tail_partial_moment(u, r))
            assert got == pytest.approx(float(quad.tail_partial_moment(u, r)), rel=1e-9)
        if r < spec.tail_moment_sup:
            got = float(spec.tail_partial_moment(math.inf, r))
            want = float(quad.tail_partial_moment(math.inf, r))
            assert got == pytest.approx(want, rel=1e-9)


def test_moment_numeric_vs_parent_moment():
    # transformed t-th moment equals the parent moment of order t / eta
    spec = rough_spec()
    for eta, t in ((2.0, 1.0), (0.8, 0.25), (5.0, 2.0)):
        d = ExponentiatedComposite(spec, eta)
        want = parent_moment(spec, t / eta)
        assert moment_numeric(d, t) == pytest.approx(want, rel=1e-7)
        assert d.moment(t) == pytest.approx(want, rel=1e-7)
        assert ExponentiatedComposite(quadrature_partials(spec), eta).moment(
            t
        ) == pytest.approx(want, rel=1e-7)


def test_moment_divergence_guard():
    spec = rough_spec(tail_exp=1.3)
    d = ExponentiatedComposite(spec, 2.0)
    with pytest.raises(InfiniteMomentError):
        moment_numeric(d, 2.6)  # t / eta == tail_moment_sup exactly
    with pytest.raises(InfiniteMomentError):
        moment_numeric(d, 3.1)
    with pytest.raises(InfiniteMomentError):
        d.moment(2.6)
    with pytest.raises(InfiniteMomentError):
        parent_moment(spec, 1.3)


def test_limited_moment_order_zero_is_one():
    d = ExponentiatedComposite(rough_spec(), 1.4)
    for cap in (0.2, d.breakpoint, 9.0):
        assert d.limited_moment(LimitedMomentQuery(0.0, cap)) == pytest.approx(
            1.0, abs=1e-12
        )


@pytest.mark.parametrize("model", [ModelId.EXP_EXP_PARETO, ModelId.EXP_IG_PARETO, None])
def test_limited_moment_at_cap_zero_is_exact(model):
    # E[(Y ^ 0)^t] is +0.0 for t > 0 and 1.0 for t = 0, scalar or array,
    # without a floating-point warning
    for theta in (0.05, 1.0, 40.0):
        for eta in (0.2, 1.0, 7.5):
            if model is None:
                d = ExponentiatedComposite(rough_spec(theta=theta), eta)
            else:
                d = build(model, theta, eta)
            for t in (0.0, 0.3, 1.0, 5.0):
                want = 1.0 if t == 0.0 else 0.0
                with np.errstate(all="raise"):
                    scalar = d.limited_moment((t, 0.0))
                    array = d.limited_moment((t, np.array([0.0, d.breakpoint, 0.0])))
                assert isinstance(scalar, float)
                assert math.copysign(1.0, scalar) == 1.0 and scalar == want
                assert array[0] == array[2] == want
                assert math.copysign(1.0, array[0]) == 1.0
                assert array[1] == d.limited_moment((t, d.breakpoint))


def test_limited_moment_accepts_tuple():
    d = ExponentiatedComposite(rough_spec(), 1.4)
    q = LimitedMomentQuery(0.5, 2.0)
    assert d.limited_moment((0.5, 2.0)) == d.limited_moment(q)


@given(
    theta=st.floats(0.05, 20.0),
    eta=st.floats(0.2, 8.0),
    t=st.floats(0.0, 4.0),
    caps=st.lists(st.floats(1e-3, 1e6), min_size=1, max_size=8),
)
@settings(max_examples=30)
def test_limited_moment_array_matches_scalar_calls(theta, eta, t, caps):
    # the CLI fills a whole column with one array call; each entry must be
    # bitwise the value a scalar call gives
    for model in (ModelId.EXP_EXP_PARETO, ModelId.EXP_IG_PARETO):
        d = build(model, theta, eta)
        bs = np.array([*caps, d.breakpoint])
        got = d.limited_moment((t, bs))
        assert isinstance(got, np.ndarray) and got.shape == bs.shape
        assert got.tolist() == [d.limited_moment((t, float(b))) for b in bs]


@given(
    theta=st.floats(0.3, 5.0),
    eta=st.floats(0.5, 5.0),
    t=st.floats(0.1, 2.0),
    ratio=st.floats(0.2, 20.0),
)
@settings(max_examples=10)
def test_limited_moment_closed_partials_match_quadrature(theta, eta, t, ratio):
    for make_spec in (exp_pareto_spec, ig_pareto_spec):
        spec = make_spec(theta)
        b = ratio * spec.breakpoint ** (1.0 / eta)
        closed = ExponentiatedComposite(spec, eta).limited_moment((t, b))
        quad = ExponentiatedComposite(quadrature_partials(spec), eta).limited_moment((t, b))
        assert closed == pytest.approx(quad, rel=1e-8)


def test_limited_moment_vs_quadrature_all_branches():
    d = ExponentiatedComposite(rough_spec(), 1.6)
    yb = d.breakpoint
    t = 0.75
    for cap in (0.5 * yb, yb, 2.0 * yb):
        got = d.limited_moment(LimitedMomentQuery(t, cap))
        head = adaptive_quadrature(
            lambda y: y**t * float(d.pdf(y)),
            0.0,
            cap,
            breakpoints=[yb] if cap > yb else None,
        )
        want = head.value + cap**t * (1.0 - float(d.cdf(cap)))
        assert got == pytest.approx(want, rel=1e-8)


def test_limited_moment_branch_continuity():
    d = ExponentiatedComposite(rough_spec(), 0.9)
    yb = d.breakpoint
    t = 1.2
    eps = 1e-9
    below = d.limited_moment(LimitedMomentQuery(t, yb * (1.0 - eps)))
    at = d.limited_moment(LimitedMomentQuery(t, yb))
    above = d.limited_moment(LimitedMomentQuery(t, yb * (1.0 + eps)))
    assert below == pytest.approx(at, rel=1e-7)
    assert above == pytest.approx(at, rel=1e-7)


def test_limited_moment_grows_to_full_moment():
    d = ExponentiatedComposite(rough_spec(tail_exp=1.3), 2.0)
    t = 1.0  # t / eta = 0.5 < 1.3, the full moment exists
    full = moment_numeric(d, t)
    caps = [2.0, 8.0, 32.0, 128.0, 100000.0]
    vals = [d.limited_moment(LimitedMomentQuery(t, b)) for b in caps]
    assert all(x < y for x, y in zip(vals, vals[1:]))
    assert vals[-1] == pytest.approx(full, rel=1e-2)


def test_log_pdf_matches_log_of_pdf():
    d = ExponentiatedComposite(rough_spec(), 2.5)
    ys = np.array([0.2, 0.8, 1.5, 4.0])
    assert np.allclose(d.log_pdf(ys), np.log(d.pdf(ys)), rtol=1e-12)


def test_log_pdf_survives_underflow():
    # far tail: pdf underflows to 0 but the log form stays finite
    d = build(ModelId.EXP_EXP_PARETO, 1.0, 20.0)
    y = 1e60
    assert d.pdf(y) == 0.0
    lp = d.log_pdf(y)
    assert math.isfinite(lp) and lp < -700.0


def test_verify_passes_calibrated_models():
    assert verify_composite(build(ModelId.EXP_IG_PARETO, 1.0, 1.0)).passed
    assert verify_composite(build(ModelId.EXP_EXP_PARETO, 3.0, 2.0)).passed


def test_verify_flags_rough_splice():
    report = verify_composite(ExponentiatedComposite(rough_spec(), 1.0))
    assert not report.continuity_ok
    assert not report.passed
    # normalization is fine by construction of the weight
    assert report.normalization_ok


def test_verify_flags_bad_normalization():
    spec = rough_spec()
    bad = dataclasses.replace(spec, norm_const=spec.norm_const * 0.9)
    report = verify_composite(ExponentiatedComposite(bad, 1.0))
    assert not report.normalization_ok


def test_as_composite_spec_round_trip():
    d = build(ModelId.EXP_EXP_PARETO, 2.0, 1.5)
    mat = as_composite_spec(d)
    assert mat.breakpoint == pytest.approx(d.breakpoint)
    assert mat.norm_const == d.parent.norm_const
    flat = ExponentiatedComposite(mat, 1.0)
    ys = np.array([0.4, 1.0, mat.breakpoint, 3.0, 10.0])
    assert np.allclose(flat.pdf(ys), d.pdf(ys), rtol=1e-12)
    assert np.allclose(flat.cdf(ys), d.cdf(ys), rtol=1e-12)
    us = np.array([0.1, 0.5, 0.9])
    assert np.allclose(flat.quantile(us), d.quantile(us), rtol=1e-9)


def test_exponentiate_composes_through_materialization():
    spec = exp_pareto_spec(2.0)
    inner = exponentiate(spec, 1.6)
    two_step = exponentiate(inner, 2.0)
    one_step = exponentiate(spec, 3.2)
    ys = np.array([0.3, 0.9, 1.1, 2.0, 5.0])
    a = np.array([float(two_step.pdf(v)) for v in ys])
    b = one_step.pdf(ys)
    assert np.allclose(a, b, rtol=1e-12)


def test_materialized_log_pdf_matches_direct():
    # the promoted log densities carry the far tail and the deep head, where
    # the pieces under- and overflow, through a materialized spec
    ys = np.array([1e60, 0.05, 0.5, 2.0])
    for make_spec in (exp_pareto_spec, ig_pareto_spec):
        spec = make_spec(1.0)
        two_step = exponentiate(exponentiate(spec, 4.0), 5.0)
        one_step = exponentiate(spec, 20.0)
        for method in ("log_pdf", "pdf"):
            got = getattr(two_step, method)(ys)
            want = getattr(one_step, method)(ys)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


def test_exponentiate_identity():
    spec = ig_pareto_spec(1.0)
    d = exponentiate(spec, 1.0)
    ys = np.array([0.2, 1.0, 4.0])
    assert np.allclose(d.pdf(ys), spec.norm_const * np.where(
        ys < spec.breakpoint, spec.head_density(ys), spec.tail_density(ys)
    ), rtol=1e-12)


def test_scalar_and_array_conventions():
    d = build(ModelId.EXP_IG_PARETO, 1.0, 2.0)
    assert isinstance(d.pdf(1.5), float)
    assert isinstance(d.cdf(1.5), float)
    assert isinstance(d.quantile(0.5), float)
    arr = d.pdf(np.array([0.5, 1.5]))
    assert arr.shape == (2,)
