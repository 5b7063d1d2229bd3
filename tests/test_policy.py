"""Policy-layer checks: score closed forms against a central finite-difference
oracle, clip semantics, and the policy's log-likelihood against scipy at the
policy's own parameterisation."""

import math
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
    _float_sum,
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
    with pytest.raises(ParameterError):
        PolicyParams(np.zeros(2), np.zeros(2), alpha=1.5)
    with pytest.raises(ParameterError):
        PolicyParams(np.zeros(2), np.zeros(3), alpha=1.0)
    with pytest.raises(ParameterError):
        PolicyParams(np.zeros(2), np.zeros(2), alpha=1.0, scale_mode="other")
    with pytest.raises(ParameterError):
        PolicyParams(np.zeros(2), np.zeros(2), alpha=1.0, scale_mode=FIXED, sigma0=0.0)


def test_features_appends_bias():
    s = features((1.5, -0.25))
    assert s.tolist() == [1.5, -0.25, 1.0]


def test_action_distribution_examples():
    p = PolicyParams(np.array([2.0, 0.0]), np.zeros(2), alpha=1.0,
                     scale_mode=FIXED, sigma0=1.0)
    spec = action_distribution(p, np.array([3.0, 1.0]))
    assert (spec.alpha, spec.location, spec.scale) == (1.0, 6.0, 1.0)

    p0 = PolicyParams.zeros(4, alpha=1.0)
    assert action_distribution(p0, features((0.3, -2.0, 5.0))).location == 0.0

    p = PolicyParams(np.zeros(2), np.array([0.5, 0.5]), alpha=1.0)
    assert policy_scale(p) == pytest.approx(math.e)

    with pytest.raises(ParameterError):
        action_distribution(p, np.array([1.0, 2.0, 3.0]))


def test_gaussian_spec_uses_stable_convention():
    # Policy sigma is the Gaussian standard deviation; the stable-law scale
    # must be sigma/sqrt(2) so the sampled variance is sigma^2.
    p = PolicyParams(np.zeros(2), np.zeros(2), alpha=2.0, scale_mode=FIXED, sigma0=3.0)
    spec = action_distribution(p, np.array([0.0, 1.0]))
    assert spec.scale == pytest.approx(3.0 / math.sqrt(2))
    rng = np.random.default_rng(1)
    draws = [sample_action(p, np.array([0.0, 1.0]), rng) for _ in range(200_000)]
    assert np.var(draws) == pytest.approx(9.0, rel=0.02)


def test_log_likelihood_examples():
    s = features((1.0,))
    p = PolicyParams(np.array([2.0, 3.0]), np.zeros(2), alpha=1.0,
                     scale_mode=FIXED, sigma0=1.0)
    assert log_likelihood(p, s, 5.0) == pytest.approx(-math.log(math.pi))

    # Cauchy with x0 = 3, sigma = 2 evaluated at a = 5 (u = 1).
    theta_sigma = np.full(2, math.log(2.0) / 2)
    p = PolicyParams(np.array([3.0, 0.0]), theta_sigma, alpha=1.0)
    assert policy_scale(p) == pytest.approx(2.0)
    assert log_likelihood(p, np.array([1.0, 1.0]), 5.0) == pytest.approx(-math.log(4 * math.pi))

    p = PolicyParams(np.array([0.0, 0.0]), np.zeros(2), alpha=2.0,
                     scale_mode=FIXED, sigma0=1.0)
    assert log_likelihood(p, np.array([0.0, 1.0]), 1.0) == pytest.approx(
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
    p = PolicyParams(np.array([0.0, 0.0]), np.zeros(2), alpha=1.0)
    s = np.array([1.0, 1.0])
    g = score(p, s, 1.0)
    assert np.allclose(g[:2], [1.0, 1.0])
    assert np.allclose(g[2:], 0.0)
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
    p = PolicyParams(np.array([1.0, 2.0]), np.array([3.0, 4.0]), alpha=2.0)
    vec = param_vector(p)
    assert vec.tolist() == [1.0, 2.0, 3.0, 4.0]
    q = with_param_vector(p, np.array([5.0, 6.0, 7.0, 8.0]))
    assert q.theta_x0.tolist() == [5.0, 6.0]
    assert q.theta_sigma.tolist() == [7.0, 8.0]
    assert (q.alpha, q.scale_mode) == (p.alpha, p.scale_mode)
    with pytest.raises(ParameterError):
        with_param_vector(p, np.zeros(3))


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


@given(pair=_vectors(2))
@settings(max_examples=500, deadline=None)
def test_action_mode_is_the_left_to_right_float_sum(pair):
    weights, feats = pair
    p = PolicyParams(np.array(weights), np.zeros(len(weights)))
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


@given(log_sigmas=st.lists(st.one_of(st.just(-0.0), st.floats(-800.0, 800.0)),
                           min_size=1, max_size=10))
@example(log_sigmas=[-0.0])
@example(log_sigmas=[400.0, 400.0])  # past exp's range
@example(log_sigmas=[-400.0, -400.0])  # below it
@settings(max_examples=500, deadline=None)
def test_policy_scale_is_libm_exp_of_the_left_to_right_float_sum(log_sigmas):
    p = PolicyParams(np.zeros(len(log_sigmas)), np.array(log_sigmas))
    total = _left_to_right([0.0, *log_sigmas])
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
