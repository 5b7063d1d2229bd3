"""Policy-layer checks: score closed forms against a central finite-difference
oracle, clip semantics, and the policy's log-likelihood against scipy at the
policy's own parameterisation."""

import math
import re
import struct
import sys

import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings, strategies as st

from htpg.diagnostics import SmoothBump
from htpg.errors import ParameterError
from htpg.policy import (
    ADAPTIVE,
    FIXED,
    PolicyParams,
    _exp_scale,
    _float_sum,
    _score_coefs,
    _squared_norm,
    action_distribution,
    action_mode,
    clip_score,
    features,
    log_likelihood,
    param_vector,
    policy_scale,
    sample_action,
    score,
    with_param_vector,
)


def fd_score(p, s, a, h=1e-6):
    """Central finite differences of log_likelihood over the trainable vector."""
    base = param_vector(p)
    out = np.empty(base.size)
    for i in range(base.size):
        plus, minus = base.copy(), base.copy()
        plus[i] += h
        minus[i] -= h
        out[i] = (
            log_likelihood(with_param_vector(p, plus), s, a)
            - log_likelihood(with_param_vector(p, minus), s, a)
        ) / (2 * h)
    return out


def test_params_validation():
    # Three weights each, so every case reaches the check it names.
    with pytest.raises(ParameterError, match="alpha must be 1"):
        PolicyParams(np.zeros(3), np.zeros(3), alpha=1.5)
    with pytest.raises(ParameterError, match=r"must have shape \(3,\), got \(2,\) and \(3,\)$"):
        PolicyParams(np.zeros(2), np.zeros(3), alpha=1.0)
    with pytest.raises(ParameterError, match="unknown scale_mode 'other'"):
        PolicyParams(np.zeros(3), np.zeros(3), alpha=1.0, scale_mode="other")
    with pytest.raises(ParameterError, match="sigma0 must be positive, got 0.0"):
        PolicyParams(np.zeros(3), np.zeros(3), alpha=1.0, scale_mode=FIXED, sigma0=0.0)


# The cars' features are (x, v, 1): any other weight shape is the
# constructor's error, in either scale mode and either tail.
@pytest.mark.parametrize("theta_x0, theta_sigma", [
    (np.zeros(2), np.zeros(2)),
    (np.zeros(2), np.array([-800.0, 0.0])),
    (np.zeros(4), np.zeros(4)),
    (np.zeros(3), np.zeros(4)),
    (np.zeros((1, 3)), np.zeros(3)),
    (np.zeros(3), np.zeros((3, 1))),
    (np.float64(0.0), np.zeros(3)),
    (np.zeros(0), np.zeros(0)),
])
@pytest.mark.parametrize("alpha, scale_mode", [(1.0, ADAPTIVE), (2.0, ADAPTIVE), (1.0, FIXED),
                                              (2.0, FIXED)])
def test_a_policy_without_three_weights_is_a_construction_error(theta_x0, theta_sigma, alpha,
                                                                scale_mode):
    message = (rf"^theta_x0 and theta_sigma must have shape \(3,\), got "
               rf"{re.escape(str(np.shape(theta_x0)))} and "
               rf"{re.escape(str(np.shape(theta_sigma)))}$")
    with pytest.raises(ParameterError, match=message):
        PolicyParams(theta_x0, theta_sigma, alpha, scale_mode)


def test_features_appends_bias():
    s = features((1.5, -0.25))
    assert s.tolist() == [1.5, -0.25, 1.0]


def test_action_distribution_examples():
    p = PolicyParams(np.array([2.0, 0.0, 0.0]), np.zeros(3), alpha=1.0,
                     scale_mode=FIXED, sigma0=1.0)
    spec = action_distribution(p, np.array([3.0, 1.0, 1.0]))
    assert (spec.alpha, spec.location, spec.scale) == (1.0, 6.0, 1.0)

    p0 = PolicyParams.zeros(3, alpha=1.0)
    assert action_distribution(p0, features((0.3, -2.0))).location == 0.0

    p = PolicyParams(np.zeros(3), np.array([0.5, 0.5, 0.0]), alpha=1.0)
    assert policy_scale(p) == pytest.approx(math.e)

    # action_mode keeps its check on the features it is given.
    for feats in (np.array([1.0, 2.0]), np.array([1.0, 2.0, 3.0, 1.0]), np.ones((1, 3))):
        with pytest.raises(ParameterError, match=r"^feature dimension \(\d, ?\d?\) does not "
                                                 r"match theta_x0 \(3,\)$"):
            action_distribution(p, feats)


def test_gaussian_spec_uses_stable_convention():
    # Policy sigma is the Gaussian standard deviation; the stable-law scale
    # must be sigma/sqrt(2) so the sampled variance is sigma^2.
    p = PolicyParams(np.zeros(3), np.zeros(3), alpha=2.0, scale_mode=FIXED, sigma0=3.0)
    spec = action_distribution(p, features((0.0, 1.0)))
    assert spec.scale == pytest.approx(3.0 / math.sqrt(2))
    rng = np.random.default_rng(1)
    draws = [sample_action(p, features((0.0, 1.0)), rng) for _ in range(200_000)]
    assert np.var(draws) == pytest.approx(9.0, rel=0.02)


def test_log_likelihood_examples():
    s = features((1.0, 0.5))
    p = PolicyParams(np.array([2.0, 0.0, 3.0]), np.zeros(3), alpha=1.0,
                     scale_mode=FIXED, sigma0=1.0)
    assert log_likelihood(p, s, 5.0) == pytest.approx(-math.log(math.pi))

    # Cauchy with x0 = 3, sigma = 2 evaluated at a = 5 (u = 1).
    theta_sigma = np.full(3, math.log(2.0) / 3)
    p = PolicyParams(np.array([3.0, 0.0, 0.0]), theta_sigma, alpha=1.0)
    assert policy_scale(p) == pytest.approx(2.0)
    assert log_likelihood(p, np.array([1.0, 1.0, 1.0]), 5.0) == pytest.approx(
        -math.log(4 * math.pi))

    p = PolicyParams(np.zeros(3), np.zeros(3), alpha=2.0, scale_mode=FIXED, sigma0=1.0)
    assert log_likelihood(p, features((0.0, 1.0)), 1.0) == pytest.approx(
        -0.5 - 0.5 * math.log(2 * math.pi)
    )


def test_log_likelihood_agrees_with_stable_density():
    # log_likelihood is sas.log_density of action_distribution, so the
    # reference is scipy at the policy's own parameterisation: a Cauchy of
    # scale sigma, a Gaussian of standard deviation sigma.
    rng = np.random.default_rng(3)
    for alpha, law in ((1.0, scipy.stats.cauchy), (2.0, scipy.stats.norm)):
        for _ in range(50):
            p = PolicyParams(rng.normal(size=3), rng.normal(size=3) * 0.3, alpha=alpha)
            s = features(rng.normal(size=2))
            a = float(rng.normal() * 4)
            want = law(action_mode(p, s), policy_scale(p)).logpdf(a)
            assert log_likelihood(p, s, a) == pytest.approx(want, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("alpha", [1.0, 2.0])
@pytest.mark.parametrize("log_sigma", [-1000.0, math.nan])
def test_log_likelihood_at_a_scale_of_zero_or_nan_raises(alpha, log_sigma):
    # exp(-1000) underflows to a scale of 0.0; a NaN weight gives a NaN scale.
    p = PolicyParams(np.zeros(3), np.array([log_sigma, 0.0, 0.0]), alpha=alpha)
    with pytest.raises(ParameterError, match="scale must be positive"):
        log_likelihood(p, features((0.5, 0.0)), 1.0)


def test_score_at_mode():
    for alpha in (1.0, 2.0):
        p = PolicyParams(np.array([1.0, -2.0, 0.5]), np.zeros(3), alpha=alpha)
        s = features((0.5, 1.5))
        a = action_mode(p, s)
        g = score(p, s, a)
        assert np.allclose(g[:3], 0.0)
        assert np.allclose(g[3:], -1.0)


def test_score_cauchy_closed_form_at_u1():
    # sigma = 1, u = 1: mode block = s, scale block = 0.
    p = PolicyParams(np.zeros(3), np.zeros(3), alpha=1.0)
    s = np.array([1.0, 1.0, 1.0])
    g = score(p, s, 1.0)
    assert np.allclose(g[:3], [1.0, 1.0, 1.0])
    assert np.allclose(g[3:], 0.0)
    assert np.allclose(g, fd_score(p, s, 1.0), rtol=1e-5)


@pytest.mark.parametrize("alpha", [1.0, 2.0])
@pytest.mark.parametrize("mode", [FIXED, ADAPTIVE])
def test_score_matches_finite_differences(alpha, mode):
    rng = np.random.default_rng(int(alpha * 10) + (mode == FIXED))
    for _ in range(100):
        p = PolicyParams(rng.normal(size=3), rng.normal(size=3) * 0.2, alpha=alpha,
                         scale_mode=mode, sigma0=float(rng.uniform(0.5, 2.0)))
        s = features(rng.normal(size=2))
        a = action_mode(p, s) + float(rng.normal() * 2) + 0.05
        analytic = score(p, s, a)
        numeric = fd_score(p, s, a)
        assert np.allclose(analytic, numeric, rtol=1e-5, atol=1e-7)


def test_score_fixed_mode_has_no_scale_block():
    p = PolicyParams(np.zeros(3), np.ones(3), alpha=1.0, scale_mode=FIXED, sigma0=2.0)
    s = features((1.0, 2.0))
    assert score(p, s, 0.7).shape == (3,)
    assert param_vector(p).shape == (3,)


def test_clip_score_examples():
    assert clip_score(np.array([0.5, 1.0]), 0.2).tolist() == [0.5, 1.0]
    assert clip_score(np.array([2.0]), 0.2).tolist() == [1.2]
    assert clip_score(np.array([-3.0]), 0.2).tolist() == [-3.0]
    assert clip_score(np.array([-3.0]), 0.2, symmetric=True).tolist() == [-1.2]
    with pytest.raises(ParameterError):
        clip_score(np.array([1.0]), 0.0)
    with pytest.raises(ParameterError):
        clip_score(np.array([1.0]), 1.0)


@given(
    g=st.lists(st.floats(-50, 50), min_size=1, max_size=8),
    eps=st.floats(0.01, 0.99),
    symmetric=st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_clip_score_idempotent_and_never_increases(g, eps, symmetric):
    arr = np.array(g)
    once = clip_score(arr, eps, symmetric)
    twice = clip_score(once, eps, symmetric)
    assert np.array_equal(once, twice)
    if not symmetric:
        assert np.all(once <= arr)


def test_translation_equivariance_of_mode():
    # Adding c to the bias weight shifts sampled actions by exactly c under
    # the same stream (dyadic values keep the float sums exact).
    base = PolicyParams(np.array([0.5, -0.25, 0.125]), np.zeros(3), alpha=1.0)
    shifted_theta = base.theta_x0.copy()
    c = 0.75
    shifted_theta[-1] += c
    shifted = PolicyParams(shifted_theta, np.zeros(3), alpha=1.0)
    s = features((0.5, 0.25))
    a0 = sample_action(base, s, np.random.default_rng(9))
    a1 = sample_action(shifted, s, np.random.default_rng(9))
    assert a1 == a0 + c


def test_param_vector_roundtrip():
    p = PolicyParams(np.array([1.0, 2.0, 3.0]), np.array([4.0, 5.0, 6.0]), alpha=2.0)
    vec = param_vector(p)
    assert vec.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    q = with_param_vector(p, np.array([7.0, 8.0, 9.0, 10.0, 11.0, 12.0]))
    assert q.theta_x0.tolist() == [7.0, 8.0, 9.0]
    assert q.theta_sigma.tolist() == [10.0, 11.0, 12.0]
    assert (q.alpha, q.scale_mode) == (p.alpha, p.scale_mode)
    with pytest.raises(ParameterError):
        with_param_vector(p, np.zeros(3))


# Three parameters in fixed scale mode, six when adaptive: any other size is
# the constructor's shape error.
@pytest.mark.parametrize("scale_mode, size, shapes", [
    (FIXED, 0, "(0,) and (3,)"),
    (FIXED, 2, "(2,) and (3,)"),
    (FIXED, 4, "(4,) and (3,)"),
    (FIXED, 6, "(6,) and (3,)"),
    (ADAPTIVE, 3, "(3,) and (0,)"),
    (ADAPTIVE, 5, "(3,) and (2,)"),
    (ADAPTIVE, 7, "(3,) and (4,)"),
])
def test_with_param_vector_rejects_the_wrong_size(scale_mode, size, shapes):
    p = PolicyParams.zeros(3, 1.0, scale_mode)
    with pytest.raises(ParameterError, match=rf"must have shape \(3,\), got {re.escape(shapes)}$"):
        with_param_vector(p, np.arange(float(size)))


def _same_float(a: float, b: float) -> bool:
    """Equal, with the sign of a zero counted and NaN equal to NaN."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def _left_to_right(terms) -> float:
    total = terms[0]
    for term in terms[1:]:
        total = total + term
    return total


# Signed zeros, infinities, NaN, and magnitudes up to 1e300 (whose products
# overflow) as well as moderate ones (whose sums round).
_COMPONENT = st.one_of(
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]),
    st.floats(-1e300, 1e300),
    st.floats(-10.0, 10.0),
)


def _vectors(count: int):
    """``count`` lists of one length in 1..5."""
    return st.integers(1, 5).flatmap(
        lambda d: st.tuples(*[st.lists(_COMPONENT, min_size=d, max_size=d)] * count))


_THREE = st.lists(_COMPONENT, min_size=3, max_size=3)


@given(weights=_THREE, feats=_THREE)
@example(weights=[-0.0, 0.0, -0.0], feats=[1.0, -1.0, 1.0])  # every product -0.0
@settings(max_examples=500, deadline=None)
def test_action_mode_is_the_left_to_right_float_sum(weights, feats):
    p = PolicyParams(np.array(weights), np.zeros(3))
    want = _left_to_right([w * f for w, f in zip(weights, feats)])
    assert _same_float(action_mode(p, np.array(feats)), want)


@given(vectors=_vectors(1))
@settings(max_examples=500, deadline=None)
def test_smooth_bump_squared_norm_is_the_left_to_right_float_sum(vectors):
    (theta,) = vectors
    sq = _left_to_right([c * c for c in theta])
    e = math.exp(-sq)
    bump = SmoothBump(dim=len(theta))
    assert _same_float(bump.value(np.array(theta)), -(1.0 - e))
    with np.errstate(invalid="ignore"):
        grad = bump.grad(np.array(theta)).tolist()
    assert all(map(_same_float, grad, [(-2.0 * c) * e for c in theta]))
    assert _same_float(_squared_norm(np.array(theta)), sq)


@given(terms=st.lists(_COMPONENT, max_size=6))
@example(terms=[])  # the empty sum is +0.0
@settings(max_examples=500, deadline=None)
def test_float_sum_is_the_left_to_right_float_sum_from_plus_zero(terms):
    # Builtin sum starts from the int 0, which also gives +0.0 + v0; up to
    # Python 3.11 it adds the rest as _float_sum does (3.12 compensates).
    want = _left_to_right([0.0, *terms])
    assert _same_float(_float_sum(terms), want)
    assert _same_float(_float_sum(iter(terms)), want)
    if sys.version_info < (3, 12):
        assert _same_float(float(sum(terms)), want)


_LOG_SIGMA = st.one_of(st.just(-0.0), st.floats(-800.0, 800.0))


@given(theta_sigma=st.lists(_LOG_SIGMA, min_size=3, max_size=3),
       log_sigmas=st.lists(_LOG_SIGMA, min_size=1, max_size=10))
@example(theta_sigma=[-0.0, -0.0, -0.0], log_sigmas=[-0.0])
@example(theta_sigma=[400.0, 400.0, 0.0], log_sigmas=[400.0, 400.0])  # past exp's range
@example(theta_sigma=[-400.0, -400.0, 0.0], log_sigmas=[-400.0, -400.0])  # below it
@settings(max_examples=500, deadline=None)
def test_policy_scale_is_libm_exp_of_the_left_to_right_float_sum(theta_sigma, log_sigmas):
    # The sum policy_scale takes, over 1-10 terms, and the scale of three.
    assert _same_float(_float_sum(log_sigmas), _left_to_right([0.0, *log_sigmas]))
    p = PolicyParams(np.zeros(3), np.array(theta_sigma))
    total = _left_to_right([0.0, *theta_sigma])
    try:
        want = math.exp(total)
    except OverflowError:
        want = math.inf
    assert _same_float(policy_scale(p), want)


@pytest.mark.filterwarnings("error")
def test_policy_scale_past_exps_range_is_inf_below_it_zero_and_nan_stays_nan():
    def scale(*log_sigmas):
        return policy_scale(PolicyParams(np.zeros(3), np.array(log_sigmas)))

    assert scale(710.0, 0.0, 0.0) == math.inf  # math.exp raises OverflowError
    assert scale(math.inf, 0.0, 0.0) == math.inf
    assert scale(-746.0, 0.0, 0.0) == 0.0
    assert scale(-math.inf, 0.0, 0.0) == 0.0
    assert math.isnan(scale(math.nan, 0.0, 0.0))
    assert math.isnan(scale(math.inf, -math.inf, 0.0))


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


# Sums from exp's underflow to its overflow, and signed zeros, infinities
# and NaN, whose sum is NaN where an inf meets a -inf.
_SCALE_WEIGHTS = st.lists(_LOG_SIGMA | _COMPONENT, min_size=3, max_size=3)


@given(theta_sigma=_SCALE_WEIGHTS, scale_mode=st.sampled_from([FIXED, ADAPTIVE]))
@example(theta_sigma=[400.0, 400.0, 0.0], scale_mode=ADAPTIVE)  # overflows to inf
@example(theta_sigma=[-400.0, -400.0, 0.0], scale_mode=ADAPTIVE)  # underflows to 0.0
@example(theta_sigma=[math.nan, 0.0, 0.0], scale_mode=ADAPTIVE)
@example(theta_sigma=[math.inf, -math.inf, 0.0], scale_mode=FIXED)
@settings(max_examples=500, deadline=None)
def test_policy_stores_the_adaptive_scale_it_builds_with(theta_sigma, scale_mode):
    # The scale is computed once per policy; policy_scale reads it when
    # adaptive and sigma0 when fixed, and a policy with new weights has its
    # own.
    p = PolicyParams(np.zeros(3), np.array(theta_sigma), 2.0, scale_mode, 0.5)
    want = _exp_scale(_float_sum(theta_sigma))
    assert _bits(p._adaptive_scale) == _bits(want)
    assert _bits(policy_scale(p)) == _bits(want if scale_mode == ADAPTIVE else 0.5)
    updated = with_param_vector(PolicyParams.zeros(3, 1.0), np.array([0.0] * 3 + theta_sigma))
    assert _bits(updated._adaptive_scale) == _bits(want)


def _score_by_multiply(p, s, a):
    """The adaptive score as ``np.empty`` and ``np.multiply`` built it."""
    mode_coef, sigma_coef = _score_coefs(p.alpha, a, action_mode(p, s), policy_scale(p))
    out = np.empty(6)
    with np.errstate(over="ignore", invalid="ignore"):
        np.multiply(s, mode_coef, out=out[:3])
    out[3:] = sigma_coef
    return out


def _score_outcome(build, p, s, a):
    """The score's dtype, shape and bytes, or the error it raised.  A
    product of two NaNs is one of them, but which one CPython returns
    changes once it specialises the multiplication, so such a product is
    written as the one NaN (no NaN score reaches an output: the update it
    gives is a divergence)."""
    try:
        g = build(p, s, a)
    except ZeroDivisionError as err:  # a scale of 0.0, on Python floats
        return ("raised", str(err))
    mode_coef = _score_coefs(p.alpha, a, action_mode(p, s), policy_scale(p))[0]
    both_nan = math.isnan(mode_coef) & np.isnan(s)
    return g.dtype, g.shape, np.where(np.r_[both_nan, [False] * 3], math.nan, g).tobytes()


_NAN_COMPONENT = _COMPONENT | st.just(-math.nan)


@given(theta_x0=st.lists(_NAN_COMPONENT, min_size=3, max_size=3), theta_sigma=_SCALE_WEIGHTS,
       feats=st.lists(_NAN_COMPONENT, min_size=3, max_size=3), action=_NAN_COMPONENT,
       alpha=st.sampled_from([1.0, 2.0]))
@example(theta_x0=[0.0, 0.0, 0.0], theta_sigma=[-800.0, 0.0, 0.0], feats=[1.0, 2.0, 1.0],
         action=1.0, alpha=2.0)  # sigma 0.0
@example(theta_x0=[1.0, 0.0, 0.0], theta_sigma=[0.0, 0.0, 0.0], feats=[1e300, -0.0, 1.0],
         action=-1e300, alpha=2.0)  # products that overflow, and -0.0
@example(theta_x0=[0.0, 0.0, 0.0], theta_sigma=[-700.0, 0.0, 0.0], feats=[-math.nan, 0.0, 1.0],
         action=math.inf, alpha=1.0)  # a NaN coefficient times a NaN feature
@settings(max_examples=500, deadline=None)
def test_score_is_the_multiply_construction_byte_for_byte(theta_x0, theta_sigma, feats, action,
                                                          alpha):
    p = PolicyParams(np.array(theta_x0), np.array(theta_sigma), alpha)
    s = np.array(feats)
    assert _score_outcome(score, p, s, action) == _score_outcome(_score_by_multiply, p, s, action)
