"""Model catalog: constants, spot values, closed-form moments, baselines.

Frozen reference numbers were produced with mpmath at 40 digits from the
stored constants, independently of the scipy routines the package uses.
"""

import math

import numpy as np
import pytest
import scipy.stats as st
from hypothesis import given, strategies as hst

from expcomposite import models
from expcomposite.composite import (
    ExponentiatedComposite,
    InfiniteMomentError,
    verify_composite,
)
from expcomposite.models import (
    EXP_PARETO,
    IG_PARETO,
    InverseGammaDensity,
    ModelId,
    WeibullDensity,
    build,
    exp_pareto_normalizer,
    exp_pareto_spec,
    ig_pareto_normalizer,
    ig_pareto_spec,
    log_pdf_rows,
    moment_closed_form,
)
from test_special import find_root_bracketed

C_EXP = 0.57446386862890377
C_IG = 0.71138399605635839


# -- stored constants and exact helpers ------------------------------------


def exp_pareto_alpha_exact() -> float:
    """Machine-precision root of the continuity identity near the published
    alpha; useful when a spec with vanishing smoothness gaps is wanted."""
    return find_root_bracketed(
        lambda a: (a + 1.0) * math.exp(-(a + 1.0)) - a, 0.2, 0.5
    )


def ig_pareto_k_exact(alpha: float = IG_PARETO.alpha) -> float:
    """Machine-precision k solving the continuity condition
    k^alpha e^-k / Gamma(alpha) = alpha - k for the given alpha."""
    g = math.exp(math.lgamma(alpha))
    return find_root_bracketed(
        lambda k: k**alpha * math.exp(-k) / g - (alpha - k), 0.05, 0.3
    )


def test_exp_pareto_alpha_satisfies_continuity():
    a = EXP_PARETO.alpha
    assert abs((a + 1.0) * math.exp(-(a + 1.0)) - a) <= 5e-6


def test_ig_pareto_k_satisfies_continuity():
    a, k = IG_PARETO.alpha, IG_PARETO.k
    lhs = k**a * math.exp(-k) / math.gamma(a)
    assert lhs == pytest.approx(a - k, abs=5e-7)


def test_stored_tail_exponent_consistency():
    assert IG_PARETO.a == pytest.approx(IG_PARETO.alpha - IG_PARETO.k, abs=5e-7)


def test_normalizers_match_frozen_values():
    assert exp_pareto_normalizer() == pytest.approx(C_EXP, rel=1e-15)
    assert ig_pareto_normalizer() == pytest.approx(C_IG, rel=1e-15)


def test_normalizers_round_to_stored_constants():
    assert round(exp_pareto_normalizer(), 3) == EXP_PARETO.c
    assert round(ig_pareto_normalizer(), 6) == IG_PARETO.c


def test_exact_alpha_root():
    a = exp_pareto_alpha_exact()
    assert abs((a + 1.0) * math.exp(-(a + 1.0)) - a) < 1e-15
    assert a == pytest.approx(EXP_PARETO.alpha, abs=5e-7)


def test_exact_k_root():
    k = ig_pareto_k_exact()
    a = IG_PARETO.alpha
    assert k**a * math.exp(-k) / math.gamma(a) - (a - k) == pytest.approx(0.0, abs=1e-13)
    assert k == pytest.approx(IG_PARETO.k, abs=1e-6)


# -- catalog structure -----------------------------------------------------


def test_param_counts():
    assert ModelId.EXP_IG_PARETO.param_count == 2
    assert ModelId.EXP_EXP_PARETO.param_count == 2
    assert ModelId.IG_PARETO_1P.param_count == 1
    assert ModelId.EXP_PARETO_1P.param_count == 1
    assert ModelId.WEIBULL.param_count == 2
    assert ModelId.INVERSE_GAMMA.param_count == 2


def test_composite_flags_and_families():
    assert ModelId.EXP_IG_PARETO.composite_family == "ig"
    assert ModelId.IG_PARETO_1P.composite_family == "ig"
    assert ModelId.EXP_EXP_PARETO.composite_family == "exp"
    assert ModelId.EXP_PARETO_1P.composite_family == "exp"
    for m in (ModelId.WEIBULL, ModelId.INVERSE_GAMMA):
        assert not m.is_composite
        with pytest.raises(ValueError):
            m.composite_family
    assert ModelId.EXP_IG_PARETO.fixed_exponent is None
    assert ModelId.IG_PARETO_1P.fixed_exponent == 1.0
    assert ModelId.EXP_PARETO_1P.fixed_exponent == 1.0


def test_build_rejects_bad_parameters():
    with pytest.raises(ValueError):
        build(ModelId.EXP_EXP_PARETO, 0.0, 1.0)
    with pytest.raises(ValueError):
        build(ModelId.EXP_IG_PARETO, 1.0, -2.0)
    with pytest.raises(ValueError):
        build(ModelId.EXP_PARETO_1P, 1.0, 2.0)  # exponent is pinned at 1
    with pytest.raises(ValueError):
        WeibullDensity(-1.0, 1.0)
    for baseline in (ModelId.WEIBULL, ModelId.INVERSE_GAMMA):
        with pytest.raises(ValueError, match="not a composite family"):
            build(baseline, 1.7, 2.5)  # baselines take their own (shape, scale)
    for model in (ModelId.EXP_EXP_PARETO, ModelId.EXP_IG_PARETO):
        with pytest.raises(ValueError, match="finite"):
            build(model, math.inf, 1.0)
        with pytest.raises(ValueError, match="finite"):
            build(model, 1.0, math.inf)


def test_build_refuses_a_theta_that_underflows_the_ig_head_scale():
    # k * theta is 0 at the smallest subnormal; the exp head has no such product
    for model in (ModelId.EXP_IG_PARETO, ModelId.IG_PARETO_1P):
        with pytest.raises(ValueError, match=r"^theta = 5e-324 underflows the head scale k\*theta"):
            build(model, 5e-324)
    assert build(ModelId.EXP_IG_PARETO, 1e-320).parent.breakpoint == 1e-320


@pytest.mark.parametrize("density", [WeibullDensity, InverseGammaDensity])
@pytest.mark.parametrize("shape,scale", [(math.inf, 1.0), (1.0, math.inf), (math.nan, 1.0), (1.0, 0.0)])
def test_baselines_reject_non_finite_parameters(density, shape, scale):
    # WeibullDensity(inf, 1) once constructed, and InverseGammaDensity(1, inf)
    # gave a nan log_pdf with a RuntimeWarning
    with pytest.raises(ValueError, match="positive and finite"):
        density(shape, scale)


def test_calibrated_specs_verify():
    for spec in (exp_pareto_spec(1.0), ig_pareto_spec(2.5)):
        assert verify_composite(ExponentiatedComposite(spec, 1.0)).passed


# -- frozen density and distribution spot values ---------------------------


def test_exp_pareto_density_spots():
    d = build(ModelId.EXP_EXP_PARETO, 1.0, 1.0)
    assert d.pdf(0.5) == pytest.approx(0.39486187411811689, rel=1e-13)
    assert d.pdf(2.0) == pytest.approx(0.078871066293601472, rel=1e-13)
    assert d.cdf(0.5) == pytest.approx(0.28196839158478084, rel=1e-13)
    assert d.cdf(1.0) == pytest.approx(1.0 - C_EXP, rel=1e-13)


def test_ig_pareto_density_spots():
    d = build(ModelId.EXP_IG_PARETO, 1.0, 1.0)
    assert d.pdf(0.5) == pytest.approx(0.25000770711487385, rel=1e-12)
    assert d.pdf(2.0) == pytest.approx(0.052050463887385276, rel=1e-13)
    assert d.cdf(0.5) == pytest.approx(0.20420950610838956, rel=1e-12)
    assert d.cdf(1.0) == pytest.approx(1.0 - C_IG, rel=1e-13)


def test_exponentiated_density_spots():
    d = build(ModelId.EXP_EXP_PARETO, 1.5, 2.0)
    assert d.pdf(1.0) == pytest.approx(0.42040649582667317, rel=1e-13)
    assert d.pdf(1.5) == pytest.approx(0.23260122833335356, rel=1e-13)


def test_breakpoint_belongs_to_tail():
    d = build(ModelId.EXP_EXP_PARETO, 1.0, 1.0)
    assert d.pdf(1.0) == pytest.approx(C_EXP * EXP_PARETO.alpha, rel=1e-13)


# -- frozen spec pieces ----------------------------------------------------
#
# Every wired piece of both family specs, pinned bit for bit.  x runs over
# 0, theta/2, theta and 3 theta; the partial moments add u = inf and take
# r = 0.1 or r = the tail exponent (the tail's d == 0 branch); the log
# densities take log x for the three positive points; the ppfs take
# q = 0, 0.3 and 0.9.

PIECE_SPECS = {
    "ig": (ig_pareto_spec, 2.5, IG_PARETO.alpha - IG_PARETO.k),
    "exp": (exp_pareto_spec, 0.8, EXP_PARETO.alpha),
}

PIECES_FROZEN = (
    ("ig", "head_density", None, [0.0, 0.14057539022571283, 0.06557875980546558, 0.017153008826936027]),
    ("ig", "tail_density", None, [0.0, 0.1469421621155319, 0.06557879999999999, 0.018256587894824712]),
    ("ig", "head_cdf", None, [0.0, 0.28705946048891906, 0.4057105663658709, 0.5670452421632652]),
    ("ig", "tail_cdf", None, [0.0, 0.0, 0.0, 0.16482516172186534]),
    ("ig", "tail_sf", None, [1.0, 1.0, 1.0, 0.8351748382781347]),
    ("ig", "head_partial_moment", 0.1, [0.0, 0.26784695220687815, 0.39342817334509317, 0.5799062189389833, 1.3661358386896718]),
    ("ig", "head_partial_moment", "tail", [0.0, 0.256765238560354, 0.38701602194376056, 0.5916973797361048, 1.8850949894268423]),
    ("ig", "tail_partial_moment", 0.1, [0.0, 0.0, 0.0, 0.19062330626017135, 2.809812240467531]),
    ("ig", "tail_partial_moment", "tail", [0.0, 0.0, 0.0, 0.2093095274785184, math.inf]),
    ("ig", "head_log_density", None, [-1.9620113488823265, -2.724503418914542, -4.065581678954452]),
    ("ig", "tail_log_density", None, [-1.9177162246235084, -2.724502805994715, -4.003229283553095]),
    ("ig", "head_ppf", None, [0.0, 1.3456254696825067, 901.8803575328147]),
    ("ig", "tail_ppf", None, [2.5, 22.0175755971158, 3143924.981101502]),
    ("exp", "head_density", None, [1.68747, 0.8591964953787036, 0.43747066180201516, 0.02940185138999841]),
    ("exp", "tail_density", None, [0.0, 1.115145524072989, 0.43747, 0.09927640296358135]),
    ("exp", "head_cdf", None, [0.0, 0.4908374694787442, 0.7407535175131912, 0.9825763709043726]),
    ("exp", "tail_cdf", None, [0.0, 0.0, 0.0, 0.3192008391644132]),
    ("exp", "tail_sf", None, [1.0, 1.0, 1.0, 0.6807991608355868]),
    ("exp", "head_partial_moment", 0.1, [0.0, 0.400434432614014, 0.6365884979950062, 0.8834399703668395, 0.9028530466521809]),
    ("exp", "head_partial_moment", "tail", [0.0, 0.250385493504726, 0.45571566593790486, 0.7165644006169939, 0.7420369544001123]),
    ("exp", "tail_partial_moment", 0.1, [0.0, 0.0, 0.0, 0.328791963366878, 1.3691434321838094]),
    ("exp", "tail_partial_moment", "tail", [0.0, 0.0, 0.0, 0.35560391772579925, math.inf]),
    ("exp", "head_log_density", None, [-0.15175763417125654, -0.8267456341712566, -3.526697634171257]),
    ("exp", "tail_log_density", None, [0.10898491125942567, -0.8267471469641672, -2.3098473699711874]),
    ("exp", "head_ppf", None, [0.0, 0.21136668737146871, 1.3645191280402293]),
    ("exp", "tail_ppf", None, [0.8, 2.2166512277418344, 576.0083457529907]),
)


@pytest.mark.parametrize("family,piece,order,want", PIECES_FROZEN)
def test_spec_pieces_frozen(family, piece, order, want):
    make, theta, tail_exponent = PIECE_SPECS[family]
    f = getattr(make(theta), piece)
    xs = [0.0, theta / 2, theta, 3 * theta]
    if piece.endswith("partial_moment"):
        r = tail_exponent if order == "tail" else order
        got = [f(u, r) for u in xs + [math.inf]]
    elif piece.endswith("log_density"):
        got = [float(f(math.log(x))) for x in xs[1:]]
    elif piece.endswith("ppf"):
        got = [float(f(q)) for q in (0.0, 0.3, 0.9)]
    else:
        got = [f(x) for x in xs]
    assert got == want


BASELINES_FROZEN = (
    (WeibullDensity(0.5, 1.5), "pdf", [0.0, math.inf, 0.32411515375053684, 0.09097651676700885]),
    (WeibullDensity(0.5, 1.5), "cdf", [0.0, 0.0, 0.43861608620107184, 0.6848481013277976]),
    (WeibullDensity(1.0, 1.5), "pdf", [0.0, 0.6666666666666666, 0.47768754038252614, 0.1757314254104845]),
    (WeibullDensity(1.0, 1.5), "cdf", [0.0, 0.0, 0.28346868942621073, 0.7364028618842732]),
    (WeibullDensity(2.0, 1.5), "pdf", [0.0, 0.0, 0.3977063630286088, 0.3004681162774508]),
    (WeibullDensity(2.0, 1.5), "cdf", [0.0, 0.0, 0.10516068318563022, 0.8309866845939339]),
    (WeibullDensity(2.0, 1.5), "log_pdf", [-math.inf, -math.inf, -0.9220413273274398, -1.2024136328742159]),
    (InverseGammaDensity(2.5, 1.5), "pdf", [0.0, 0.0, 1.1676521599113945, 0.08654980657806856]),
    (InverseGammaDensity(2.5, 1.5), "log_pdf", [-math.inf, -math.inf, 0.1549950317572999, -2.447035232162317]),
    (InverseGammaDensity(2.5, 1.5), "cdf", [0.0, 0.0, 0.30621891841327875, 0.9130698145443954]),
)


@pytest.mark.parametrize("density,method,want", BASELINES_FROZEN)
def test_baseline_pieces_frozen(density, method, want):
    # y = 0 holds the Weibull zero conventions: inf below shape 1,
    # 1/scale at shape 1, 0 above
    assert [getattr(density, method)(y) for y in (-1.0, 0.0, 0.5, 2.0)] == want


# one density object per model id, named for stable test ids; the
# composites at exponents below, at and above 1, where the sign of the
# jacobian's log changes, and at 20, where y**eta leaves the float range
EDGE_DENSITIES = {
    **{f"{m.value}-eta{eta:g}": build(m, 1.3, eta)
       for m in (ModelId.EXP_IG_PARETO, ModelId.EXP_EXP_PARETO) for eta in (0.5, 1.0, 2.0, 20.0)},
    "ig-pareto-1p": build(ModelId.IG_PARETO_1P, 1.3),
    "exp-pareto-1p": build(ModelId.EXP_PARETO_1P, 1.3),
    **{f"weibull-shape{shape:g}": WeibullDensity(shape, 2.5) for shape in (0.5, 1.0, 1.7)},
    "weibull-shape30": WeibullDensity(30.0, 1.0),
    "weibull-scale1e-300": WeibullDensity(1.0, 1e-300),
    "inverse-gamma": InverseGammaDensity(3.0, 0.5),
    "inverse-gamma-shape2.5": InverseGammaDensity(2.5, 1.5),
}

# finite points where a density's formula over- or underflows, with the
# limits there of (pdf, log_pdf, cdf): scale/y, 1/y**eta and (y/scale)^shape
# reach inf, and the vanished exponential wins over z^(shape - 1)
EDGE_POINTS = {
    "exp-ig-pareto-eta1": [(5e-324, 0.0, -math.inf, 0.0)],
    "exp-ig-pareto-eta20": [(1e-300, 0.0, -math.inf, 0.0)],
    "ig-pareto-1p": [(5e-324, 0.0, -math.inf, 0.0)],
    "weibull-shape30": [(1e11, 0.0, -math.inf, 1.0)],
    "weibull-scale1e-300": [(1e10, 0.0, -math.inf, 1.0)],
    "inverse-gamma": [(5e-324, 0.0, -math.inf, 0.0)],
    "inverse-gamma-shape2.5": [(5e-324, 0.0, -math.inf, 0.0)],
}


@pytest.mark.parametrize("name", EDGE_DENSITIES)
def test_densities_at_inf_and_nan(name):
    # +inf is past all mass and NaN stays NaN, scalar or array; a nan from
    # inf * 0 or inf - inf would raise a RuntimeWarning here, as would an
    # overflow on the way to a limit at an EDGE_POINTS point
    density = EDGE_DENSITIES[name]
    want = {"pdf": 0.0, "log_pdf": -math.inf, "cdf": 1.0}
    for method, at_inf in want.items():
        f = getattr(density, method)
        assert f(math.inf) == at_inf
        assert math.isnan(f(math.nan))
        got = f(np.array([math.inf, math.nan, -math.inf]))
        assert got[0] == at_inf and math.isnan(got[1])
        assert got[2] == (-math.inf if method == "log_pdf" else 0.0)
    for y, *limits in EDGE_POINTS.get(name, ()):
        for method, limit in zip(want, limits):
            f = getattr(density, method)
            assert f(y) == limit and f(np.array([y]))[0] == limit, (method, y)


@pytest.mark.parametrize("family", ["ig", "exp"])
def test_spec_pieces_keep_nan(family):
    make, theta, _ = PIECE_SPECS[family]
    spec = make(theta)
    for piece in ("head_density", "tail_density", "head_cdf", "tail_cdf", "tail_sf"):
        assert math.isnan(getattr(spec, piece)(math.nan)), piece
    for piece in ("head_partial_moment", "tail_partial_moment"):
        assert math.isnan(getattr(spec, piece)(math.nan, 0.1)), piece


# -- closed-form moments ---------------------------------------------------


def test_moment_closed_form_frozen_values():
    cases = (
        (ModelId.EXP_EXP_PARETO, 1.3, 2.0, 0.5, 2.4828939497651342),
        (ModelId.EXP_IG_PARETO, 1.3, 5.0, 0.25, 1.3119117636904007),
        (ModelId.EXP_EXP_PARETO, 0.7, 0.8, 0.25, 5.0619792318777093),
        (ModelId.EXP_IG_PARETO, 5.0, 2.0, 0.25, 3.9650517125120009),
    )
    for model, theta, eta, t, want in cases:
        assert moment_closed_form(model, theta, eta, t) == pytest.approx(want, rel=1e-11)


def test_moment_diverges_at_and_above_tail_exponent():
    al = EXP_PARETO.alpha
    with pytest.raises(InfiniteMomentError):
        moment_closed_form(ModelId.EXP_EXP_PARETO, 1.0, 1.0, al)  # boundary
    with pytest.raises(InfiniteMomentError):
        moment_closed_form(ModelId.EXP_EXP_PARETO, 1.0, 2.0, 2.0 * al)
    with pytest.raises(InfiniteMomentError):
        moment_closed_form(ModelId.EXP_EXP_PARETO, 1.0, 1.0, 1.0)
    a2 = IG_PARETO.alpha - IG_PARETO.k
    with pytest.raises(InfiniteMomentError):
        moment_closed_form(ModelId.EXP_IG_PARETO, 1.0, 1.0, a2)
    # strictly below the boundary stays finite
    assert math.isfinite(moment_closed_form(ModelId.EXP_IG_PARETO, 1.0, 1.0, 0.16))


def test_moment_validations():
    with pytest.raises(ValueError):
        moment_closed_form(ModelId.EXP_EXP_PARETO, 1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        moment_closed_form(ModelId.WEIBULL, 1.0, 1.0, 0.5)


@given(
    theta=hst.floats(0.2, 8.0),
    eta=hst.floats(0.3, 6.0),
    frac=hst.floats(0.05, 0.9),
)
def test_moment_scale_equivariance(theta, eta, frac):
    # E[Y^t] scales as theta^(t/eta); checks both families in one draw
    for model, bound in (
        (ModelId.EXP_EXP_PARETO, EXP_PARETO.alpha),
        (ModelId.EXP_IG_PARETO, IG_PARETO.alpha - IG_PARETO.k),
    ):
        t = frac * eta * bound
        lhs = moment_closed_form(model, theta, eta, t)
        rhs = theta ** (t / eta) * moment_closed_form(model, 1.0, eta, t)
        assert lhs == pytest.approx(rhs, rel=1e-11)


# -- closed-form limited moments -------------------------------------------


LIMITED_FROZEN = (
    (ModelId.EXP_EXP_PARETO, 1.0, 1.0, 1.0, 0.5, 0.42163725416355131),
    (ModelId.EXP_EXP_PARETO, 1.0, 1.0, 1.0, 1.0, 0.74075368440248067),
    (ModelId.EXP_EXP_PARETO, 1.0, 1.0, 1.0, 3.0, 1.6619807320958945),
    (ModelId.EXP_IG_PARETO, 1.0, 1.0, 1.0, 0.5, 0.44563846637045098),
    (ModelId.EXP_IG_PARETO, 1.0, 1.0, 1.0, 1.0, 0.81976476079581543),
    (ModelId.EXP_IG_PARETO, 1.0, 1.0, 1.0, 3.0, 2.100791257350111),
    (ModelId.EXP_EXP_PARETO, 2.25, 2.0, 1.5, 0.9, 0.76574267666708214),
    (ModelId.EXP_EXP_PARETO, 2.25, 2.0, 1.5, 4.0, 3.7791422683323847),
    (ModelId.EXP_IG_PARETO, 2.25, 2.0, 1.5, 0.9, 0.79726284190904821),
    (ModelId.EXP_IG_PARETO, 2.25, 2.0, 1.5, 4.0, 5.1575946548258483),
)


@pytest.mark.parametrize("model,theta,eta,t,b,want", LIMITED_FROZEN)
def test_limited_moment_frozen_values(model, theta, eta, t, b, want):
    assert build(model, theta, eta).limited_moment(t, b) == pytest.approx(
        want, rel=1e-11
    )


def test_limited_moment_order_zero_is_one():
    grid = ((1.0, 1.0, 0.5), (1.0, 1.0, 1.0), (1.0, 1.0, 3.0), (2.25, 2.0, 0.9),
            (2.25, 2.0, 4.0), (0.5, 5.0, 0.871))
    for model in (ModelId.EXP_EXP_PARETO, ModelId.EXP_IG_PARETO):
        for theta, eta, b in grid:
            assert build(model, theta, eta).limited_moment(0.0, b) == 1.0


@given(theta=hst.floats(0.05, 50.0), eta=hst.floats(0.2, 10.0), b=hst.floats(1e-3, 1e3))
def test_limited_moment_order_zero_is_exactly_one(theta, eta, b):
    for model in (ModelId.EXP_EXP_PARETO, ModelId.EXP_IG_PARETO):
        assert build(model, theta, eta).limited_moment(0.0, b) == 1.0


# Caps far above the breakpoint, where forming 1 - tail_cdf loses digits.
# The first three values come from the per-family closed forms; the last
# two have b**t beyond the float range while the limited moment is not.
LARGE_CAP_FROZEN = (
    (ModelId.EXP_EXP_PARETO, 5.247, 5.905, 2.505, 4.49e6, 4830.650188066008),
    (ModelId.EXP_EXP_PARETO, 1.0, 5.0, 3.0, 1e5, 2454890.7388966545),
    (ModelId.EXP_EXP_PARETO, 1.0, 1.0, 1.0, 1e30, 2.79932502587738e19),
    (ModelId.EXP_EXP_PARETO, 1.0, 10.0, 11.0, 1e30, 8.566042861901727e224),
    (ModelId.EXP_IG_PARETO, 1.0, 10.0, 11.0, 1e30, 5.471373168545943e280),
)


@pytest.mark.parametrize("model,theta,eta,t,b,want", LARGE_CAP_FROZEN)
def test_limited_moment_large_caps(model, theta, eta, t, b, want):
    d = build(model, theta, eta)
    assert d.limited_moment(t, b) == pytest.approx(want, rel=1e-12)


def test_limited_moment_cap_power_overflow_raises():
    d = build(ModelId.EXP_EXP_PARETO, 1.0, 2.0)
    with pytest.raises(OverflowError):
        d.limited_moment(1.0, 1e200)  # b**eta overflows
    with pytest.raises(OverflowError):
        d.limited_moment(1.0, np.array([2.0, 1e200]))
    with pytest.raises(OverflowError):
        d.limited_moment(400.0, 1e10)  # the limited moment itself overflows


def test_limited_moment_smooth_through_tail_exponent():
    # t/eta next to the tail exponent: the tail partial moment must not lose
    # digits to cancellation on either side of its logarithmic case
    for model, a in (
        (ModelId.EXP_EXP_PARETO, EXP_PARETO.alpha),
        (ModelId.EXP_IG_PARETO, IG_PARETO.alpha - IG_PARETO.k),
    ):
        at = build(model, 1.0, 1.0).limited_moment(a, 1e12)
        for f in (-1e-11, -3e-12, 3e-12, 1e-11):
            near = build(model, 1.0, 1.0).limited_moment(a * (1.0 + f), 1e12)
            assert near == pytest.approx(at, rel=1e-9)


def test_limited_moment_validations():
    with pytest.raises(ValueError):
        build(ModelId.EXP_EXP_PARETO, 1.0, 1.0).limited_moment(-0.5, 1.0)
    with pytest.raises(ValueError):
        build(ModelId.EXP_EXP_PARETO, 1.0, 1.0).limited_moment(1.0, -1.0)
    assert build(ModelId.EXP_EXP_PARETO, 1.0, 1.0).limited_moment(1.0, 0.0) == 0.0


@given(
    theta=hst.floats(0.3, 5.0),
    eta=hst.floats(0.4, 5.0),
    t=hst.floats(0.1, 3.0),
    b1=hst.floats(0.05, 20.0),
    b2=hst.floats(0.05, 20.0),
)
def test_limited_moment_monotone_in_cap(theta, eta, t, b1, b2):
    lo, hi = sorted((b1, b2))
    for model in (ModelId.EXP_EXP_PARETO, ModelId.EXP_IG_PARETO):
        v_lo = build(model, theta, eta).limited_moment(t, lo)
        v_hi = build(model, theta, eta).limited_moment(t, hi)
        assert v_lo >= 0.0
        assert v_lo <= v_hi * (1.0 + 1e-12)


def test_limited_moment_capped_by_raw_moment():
    for model, bound in (
        (ModelId.EXP_EXP_PARETO, EXP_PARETO.alpha),
        (ModelId.EXP_IG_PARETO, IG_PARETO.alpha - IG_PARETO.k),
    ):
        eta = 4.0
        t = 0.5 * eta * bound
        full = moment_closed_form(model, 1.4, eta, t)
        for b in (0.3, 1.0, 6.0, 50.0):
            assert build(model, 1.4, eta).limited_moment(t, b) <= full * (1 + 1e-12)


# -- baseline densities ----------------------------------------------------


def test_weibull_matches_scipy():
    w = WeibullDensity(shape=1.7, scale=2.5)
    ref = st.weibull_min(1.7, scale=2.5)
    ys = np.array([0.1, 0.9, 2.5, 7.0])
    assert np.allclose(w.pdf(ys), ref.pdf(ys), rtol=1e-12)
    assert np.allclose(w.cdf(ys), ref.cdf(ys), rtol=1e-12)
    assert np.allclose(w.log_pdf(ys), ref.logpdf(ys), rtol=1e-12)


def test_inverse_gamma_matches_scipy():
    g = InverseGammaDensity(shape=2.2, scale=1.3)
    ref = st.invgamma(2.2, scale=1.3)
    ys = np.array([0.2, 0.6, 1.5, 9.0])
    assert np.allclose(g.pdf(ys), ref.pdf(ys), rtol=1e-12)
    assert np.allclose(g.cdf(ys), ref.cdf(ys), rtol=1e-12)
    assert np.allclose(g.log_pdf(ys), ref.logpdf(ys), rtol=1e-12)


def test_weibull_edge_conventions():
    assert WeibullDensity(0.5, 1.0).pdf(0.0) == math.inf
    assert WeibullDensity(1.0, 2.0).pdf(0.0) == 0.5
    assert WeibullDensity(2.0, 1.0).pdf(0.0) == 0.0
    assert WeibullDensity(2.0, 1.0).pdf(-1.0) == 0.0
    assert WeibullDensity(2.0, 1.0).cdf(0.0) == 0.0
    assert InverseGammaDensity(2.0, 1.0).pdf(0.0) == 0.0
    assert InverseGammaDensity(2.0, 1.0).cdf(-3.0) == 0.0


@pytest.mark.parametrize("shape,want", [(0.5, math.inf), (1.0, -math.log(1.5)), (2.0, -math.inf)])
def test_weibull_log_pdf_at_zero_is_the_log_of_pdf(shape, want):
    # pdf(0) is inf below shape 1, 1/scale at shape 1 and 0 above
    w = WeibullDensity(shape, 1.5)
    with np.errstate(divide="ignore"):
        log_of_pdf = np.log(w.pdf(0.0))
    for y in (0.0, -0.0):
        assert w.log_pdf(y) == want
        assert w.log_pdf(np.array([y, 1.0]))[0] == want
    assert want == pytest.approx(log_of_pdf, rel=1e-15)


def test_baseline_validations():
    with pytest.raises(ValueError):
        WeibullDensity(0.0, 1.0)
    with pytest.raises(ValueError):
        InverseGammaDensity(1.0, -1.0)


# -- log density dispatch --------------------------------------------------


def test_composite_log_pdf_consistent_with_pdf():
    for model in (ModelId.EXP_EXP_PARETO, ModelId.EXP_IG_PARETO):
        d = build(model, 1.4, 0.8)
        ys = np.array([0.2, 0.9, 1.4, 6.0])
        assert np.allclose(d.log_pdf(ys), np.log(d.pdf(ys)), rtol=1e-12)


@given(
    model=hst.sampled_from([m for m in ModelId if m.is_composite]),
    params=hst.lists(
        hst.tuples(hst.floats(1e-3, 5.0), hst.floats(0.3, 30.0), hst.integers(0, 2**16)),
        min_size=1,
        max_size=4,
    ),
    n=hst.integers(1, 300),
)
def test_log_pdf_rows_is_each_rows_log_pdf(model, params, n):
    # one pass over parameter columns gives every row the bits of its own
    # composite's log_pdf; rows are drawn from another row's parameters, so
    # both pieces occur, and left unsorted
    etas = [1.0 if model.fixed_exponent else eta for _, eta, _ in params]
    thetas = [theta for theta, _, _ in params]
    y = np.array([
        build(model, thetas[i - 1], etas[i - 1]).sample(n, seed=seed)
        for i, (_, _, seed) in enumerate(params)
    ])
    got = log_pdf_rows(model, thetas, etas, y)
    for got_row, theta, eta, row in zip(got, thetas, etas, y):
        assert got_row.tobytes() == build(model, theta, eta).log_pdf(row).tobytes()


def test_the_ig_normalizer_is_computed_once(monkeypatch):
    # once a model is built, building more and a log_pdf_rows sweep reuse
    # the ig normalizer instead of evaluating its incomplete gamma again
    build(ModelId.EXP_IG_PARETO, 1.0, 0.8)
    real = models.upper_incomplete_gamma
    calls = []

    def counting(a, x):
        calls.append((a, x))
        return real(a, x)

    monkeypatch.setattr(models, "upper_incomplete_gamma", counting)
    thetas = np.linspace(0.2, 5.0, 100).tolist()
    for theta in thetas:
        build(ModelId.EXP_IG_PARETO, theta, 0.8)
    y = np.geomspace(0.01, 100.0, 50 * 30).reshape(50, 30)
    log_pdf_rows(ModelId.EXP_IG_PARETO, thetas[:50], [0.8] * 50, y)
    assert ig_pareto_normalizer() == pytest.approx(C_IG, rel=1e-15)
    assert calls == []
    # the head partial moments still go through it
    build(ModelId.EXP_IG_PARETO, 1.0, 0.8).moment(0.1)
    assert calls
