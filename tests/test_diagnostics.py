"""Diagnostics checks: the averaged-gradient bound formula (cross-checked
symbolically), the noisy-ascent testbed, first-exit summaries, and the
tail-exploration ratio."""

import math
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st

from htpg.diagnostics import (
    BoundParams,
    NoiseModel,
    SmoothBump,
    bound_rhs,
    check_bound,
    first_exit_statistics,
    synthetic_sga_run,
    tail_exploration_ratio,
)
from htpg.envs import EnvState, Trajectory, TrappedCar, rollout
from htpg.errors import DivergenceError, ParameterError, ScheduleError
from htpg.policy import FIXED, PolicyParams, action_mode, features, policy_scale
from htpg.training import Constant, LipschitzAware, PlainAscent, PowerDecay
from htpg.training import RunMetrics

from oracles import synthetic_sga_reference


def make_metrics(first_exit):
    return RunMetrics([], [], [], [], first_exit, 0, 0, False, None)


def test_bound_rhs_collapses_at_n1():
    p = BoundParams(u_r=1.0, gamma=0.5, l1j=1.0, y1=1.0, b=0.5)
    # N = 1 kills both the decay factor and the series term.
    assert bound_rhs(p, 1) == pytest.approx(2.0 * 1.0 / 0.5 + 1.0)


def test_bound_rhs_direct_substitution():
    p = BoundParams(u_r=1.0, gamma=0.5, l1j=1.0, y1=1.0, b=0.5)
    assert bound_rhs(p, 10_000) == pytest.approx(0.04 + 1.0 + 0.0099)


def test_bound_rhs_matches_symbolic():
    u_r, gamma, L, y1, b, n = sympy.symbols("u_r gamma L y1 b n", positive=True)
    expr = (
        2 * u_r / (1 - gamma) * n ** (b - 1)
        + L * y1
        + L * y1 * b / (n * (1 - b)) * (n ** (1 - b) - 1)
    )
    cases = [
        dict(u_r=1.0, gamma=0.5, l1j=1.0, y1=1.0, b=0.5, n=10_000),
        dict(u_r=100.0, gamma=0.97, l1j=2.0, y1=0.1, b=0.75, n=1_000),
        dict(u_r=0.5, gamma=0.5, l1j=2.0, y1=1.0, b=0.5, n=317),
    ]
    for case in cases:
        n_val = case.pop("n")
        p = BoundParams(**case)
        expected = float(
            expr.subs(
                {
                    u_r: sympy.Rational(str(case["u_r"])),
                    gamma: sympy.Rational(str(case["gamma"])),
                    L: sympy.Rational(str(case["l1j"])),
                    y1: sympy.Rational(str(case["y1"])),
                    b: sympy.Rational(str(case["b"])),
                    n: n_val,
                }
            ).evalf(30)
        )
        assert bound_rhs(p, n_val) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("build", [
    lambda bad: NoiseModel(y1=bad),
    lambda bad: NoiseModel(y1=0.1, y2=bad),
    lambda bad: BoundParams(u_r=bad, gamma=0.5, l1j=1.0, y1=1.0, b=0.5),
    lambda bad: BoundParams(u_r=1.0, gamma=0.5, l1j=bad, y1=1.0, b=0.5),
    lambda bad: BoundParams(u_r=1.0, gamma=0.5, l1j=1.0, y1=bad, b=0.5),
], ids=["noise-y1", "noise-y2", "bound-u_r", "bound-l1j", "bound-y1"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
def test_noise_and_bound_constants_must_be_finite_and_in_range(build, bad):
    with pytest.raises(ParameterError, match="finite"):
        build(bad)


@pytest.mark.parametrize("params, n", [
    (BoundParams(u_r=1e308, gamma=0.5, l1j=2.0, y1=0.1, b=0.5), 10),
    (BoundParams(u_r=0.5, gamma=0.5, l1j=2.0, y1=1e308, b=0.5), 10_000),
    # An infinite middle term times the vanishing series factor is NaN.
    (BoundParams(u_r=0.5, gamma=0.5, l1j=1e308, y1=1e308, b=0.5), 1),
], ids=["u_r", "y1", "nan-at-n1"])
def test_bound_rhs_rejects_a_ceiling_that_is_not_finite(params, n):
    with pytest.raises(ParameterError, match="not finite"):
        bound_rhs(params, n)
    # An infinite ceiling would let any sequence "hold".
    with pytest.raises(ParameterError, match="not finite"):
        check_bound(np.full(n, 1e300), params)


def test_bound_rhs_decreases_when_first_term_dominates():
    p = BoundParams(u_r=100.0, gamma=0.5, l1j=0.01, y1=0.01, b=0.5)
    assert bound_rhs(p, 10_000) < bound_rhs(p, 100)


def test_smooth_bump_shape():
    obj = SmoothBump(dim=3)
    assert obj.value(np.zeros(3)) == 0.0
    assert obj.value(np.full(3, 10.0)) == pytest.approx(-1.0)
    # Finite-difference oracle for the gradient.
    rng = np.random.default_rng(0)
    for _ in range(25):
        theta = rng.normal(size=3)
        g = obj.grad(theta)
        h = 1e-6
        for i in range(3):
            e = np.zeros(3)
            e[i] = h
            fd = (obj.value(theta + e) - obj.value(theta - e)) / (2 * h)
            assert g[i] == pytest.approx(fd, rel=1e-5, abs=1e-9)


def test_smooth_bump_gradient_lipschitz_constant():
    # Spectral norm of the Hessian: max(|4r - 2|, 2) * exp(-r) <= 2 with the
    # maximum attained at the origin.
    obj = SmoothBump(dim=2)
    rs = np.linspace(0.0, 10.0, 2001)
    hess_norm = np.maximum(np.abs(4 * rs - 2.0), 2.0) * np.exp(-rs)
    assert hess_norm.max() == pytest.approx(obj.grad_lipschitz)
    assert np.all(hess_norm <= obj.grad_lipschitz + 1e-12)


def test_synthetic_run_noiseless_monotone():
    obj = SmoothBump(dim=2)
    rng = np.random.default_rng(1)
    norms = synthetic_sga_run(obj, NoiseModel(0.0, 0.0), Constant(0.1),
                              PlainAscent(), 200, rng, theta0=[0.3, -0.2])
    assert all(a >= b for a, b in zip(norms, norms[1:]))
    assert norms[-1] < norms[0] * 1e-3


def test_synthetic_run_stationary_start_stays_zero():
    obj = SmoothBump(dim=2)
    rng = np.random.default_rng(2)
    norms = synthetic_sga_run(obj, NoiseModel(0.0, 0.0), PowerDecay(0.5),
                              PlainAscent(), 100, rng, theta0=[0.0, 0.0])
    assert np.all(norms == 0.0)


def test_synthetic_noise_moment():
    # E||w||^2 must equal y1 exactly in expectation (y2 = 0).  From the
    # stationary origin the first step is pure noise, theta_2 = alpha * w_1,
    # and ||grad J(theta_2)||^2 = 4 alpha^2 ||w_1||^2 exp(-2 alpha^2 ||w_1||^2)
    # gives ||w_1||^2 back to about 1e-8 relative.
    obj = SmoothBump(dim=2)
    y1, alpha, runs = 0.37, 1e-4, 25_000
    rng = np.random.default_rng(3)
    w_sq = np.array([
        synthetic_sga_run(obj, NoiseModel(y1), Constant(alpha), PlainAscent(), 2, rng,
                          theta0=(0.0, 0.0))[1] / (4 * alpha**2)
        for _ in range(runs)
    ])
    assert abs(w_sq.mean() - y1) <= 3 * w_sq.std(ddof=1) / math.sqrt(runs)


def test_synthetic_run_with_lipschitz_update():
    # The testbed runs plain ascent only: the Lipschitz-aware update is
    # rejected before any draw, whether or not its schedule keeps 1/alpha > L.
    obj, noise = SmoothBump(dim=2), NoiseModel(0.1, 0.0)
    update_rule = LipschitzAware(obj.grad_lipschitz)
    for step_rule in (Constant(0.2), PowerDecay(0.5)):
        rng = np.random.default_rng(4)
        with pytest.raises(ParameterError, match="^the testbed runs plain ascent"):
            synthetic_sga_run(obj, noise, step_rule, update_rule, 500, rng)
        assert rng.random() == np.random.default_rng(4).random()
    # The oracle runs the first and fails the second at the ceiling.
    norms = synthetic_sga_reference(obj, noise, Constant(0.2), update_rule,
                                    np.random.default_rng(4), np.full(2, 0.5), np.empty(500))
    assert np.isfinite(norms).all()
    with pytest.raises(ScheduleError):
        synthetic_sga_reference(obj, noise, PowerDecay(0.5), update_rule,
                                np.random.default_rng(4), np.full(2, 0.5), np.empty(10))


@pytest.mark.filterwarnings("error")
def test_diverging_synthetic_run_raises_without_warnings():
    # Overflow on the way is what the divergence guard is for: numpy must not
    # warn first.
    with pytest.raises(DivergenceError, match=r"^non-finite iterate at step 8$"):
        synthetic_sga_run(SmoothBump(), NoiseModel(0.1), Constant(1e308), PlainAscent(), 50,
                          np.random.default_rng(0))


def test_check_bound_trivial_and_adversarial():
    p = BoundParams(u_r=0.5, gamma=0.5, l1j=2.0, y1=0.1, b=0.5)
    report = check_bound(np.zeros(100), p)
    assert report.holds and report.lhs == 0.0

    # A wildly understated Lipschitz constant can flip the verdict while the
    # report stays well-formed.
    p_bad = BoundParams(u_r=1e-6, gamma=0.5, l1j=1e-4, y1=1e-6, b=0.5)
    report = check_bound(np.full(100, 5.0), p_bad)
    assert not report.holds
    assert report.lhs == pytest.approx(5.0)
    with pytest.raises(ParameterError):
        check_bound([], p)


def test_first_exit_statistics_identical_families():
    runs = [make_metrics(e) for e in (3, 5, 7, 9, 11)]
    summary = first_exit_statistics({"cauchy": runs, "gaussian": list(runs)})
    assert summary.sign_test_p == 1.0
    assert summary.median_exit["cauchy"] == summary.median_exit["gaussian"] == 7


def test_first_exit_statistics_dominant_family():
    a = [make_metrics(10) for _ in range(10)]
    b = [make_metrics(None) for _ in range(10)]
    summary = first_exit_statistics({"cauchy": a, "gaussian": b})
    assert summary.median_exit["cauchy"] == 10
    assert summary.median_exit["gaussian"] == math.inf
    assert summary.wins == 10
    assert summary.sign_test_p == pytest.approx(2.0 ** -10)
    # Past 1023 untied pairs 2.0 ** pairs overflows; the tail stays exact.
    a = [make_metrics(10)] * 600 + [make_metrics(None)] * 500 + [make_metrics(3)] * 7
    b = [make_metrics(None)] * 600 + [make_metrics(10)] * 500 + [make_metrics(3)] * 7
    summary = first_exit_statistics({"cauchy": a, "gaussian": b})
    assert (summary.wins, summary.losses, summary.ties) == (600, 500, 7)
    tail = sum(math.comb(1100, j) for j in range(600, 1101))
    assert summary.sign_test_p == float(Fraction(tail, 2 ** 1100))
    assert 0.0 < summary.sign_test_p < 0.01


def test_first_exit_statistics_validation():
    with pytest.raises(ParameterError):
        first_exit_statistics({"one": [make_metrics(1)]})
    with pytest.raises(ParameterError):
        first_exit_statistics({"a": [], "b": [make_metrics(1)]})
    with pytest.raises(ParameterError):
        first_exit_statistics({"a": [make_metrics(1)], "b": [make_metrics(1)] * 2})


def test_tail_exploration_ratio_zero_for_tight_policy():
    env = TrappedCar()
    pol = PolicyParams.zeros(3, alpha=2.0, scale_mode=FIXED, sigma0=1e-9)
    traj = rollout(env, pol, np.random.default_rng(0), horizon=100)
    assert tail_exploration_ratio(traj, pol, 5.0) == 0.0


@pytest.mark.parametrize("threshold", [0.0, -1.0, math.nan, -math.inf])
def test_tail_exploration_ratio_rejects_non_positive_thresholds(threshold):
    pol = PolicyParams.zeros(3, alpha=1.0)
    traj = rollout(TrappedCar(), pol, np.random.default_rng(0), horizon=10)
    with pytest.raises(ParameterError, match="threshold must be positive"):
        tail_exploration_ratio(traj, pol, threshold)


def test_tail_exploration_cauchy_vs_gaussian():
    env = TrappedCar()
    rng_c = np.random.default_rng(10)
    rng_g = np.random.default_rng(10)
    cauchy = PolicyParams.zeros(3, alpha=1.0, scale_mode=FIXED, sigma0=1.0)
    gauss = PolicyParams.zeros(3, alpha=2.0, scale_mode=FIXED, sigma0=1.0)
    extreme_c = extreme_g = total_c = total_g = 0
    for _ in range(40):
        tc = rollout(env, cauchy, rng_c, horizon=500)
        tg = rollout(env, gauss, rng_g, horizon=500)
        extreme_c += tail_exploration_ratio(tc, cauchy, 5.0) * len(tc)
        extreme_g += tail_exploration_ratio(tg, gauss, 5.0) * len(tg)
        total_c += len(tc)
        total_g += len(tg)
    ratio_c = extreme_c / total_c
    ratio_g = extreme_g / total_g
    assert ratio_c > ratio_g
    assert ratio_c == pytest.approx((2 / math.pi) * math.atan(0.2), rel=0.15)
    assert ratio_g < 1e-4


def _tail_ratio_by_action_mode(traj, policy, threshold_sigmas):
    """The ratio with each mode from ``action_mode`` at the state's features."""
    cut = threshold_sigmas * policy_scale(policy)
    extreme = sum(abs(a - action_mode(policy, features((s.position, s.velocity)))) > cut
                  for s, a in zip(traj.states, traj.actions))
    return extreme / len(traj)


@st.composite
def _tail_ratio_inputs(draw):
    special = st.sampled_from([0.0, -0.0, math.inf, math.nan])
    weights = draw(st.lists(st.floats(-50.0, 50.0) | special, min_size=3, max_size=3))
    # A scale far below an ulp of the mode makes an action at the mode count
    # as extreme under any other rounding of the mode.
    log_sigma = draw(st.floats(-3.0, 3.0) | st.floats(-700.0, -40.0))
    policy = PolicyParams(np.array(weights), np.array([log_sigma, 0.0, 0.0]),
                          draw(st.sampled_from([1.0, 2.0])))
    threshold = draw(st.floats(0.1, 10.0))
    cut = threshold * policy_scale(policy)
    states, actions = [], []
    for _ in range(draw(st.integers(1, 20))):
        state = EnvState(draw(st.floats(-5.0, 5.0)), draw(st.floats(-0.5, 0.5)))
        mode = action_mode(policy, features((state.position, state.velocity)))
        # Actions at the mode and at the cut, where a mode rounded otherwise
        # flips the count.
        offset = draw(st.sampled_from([-1.0, 0.0, 1.0]) | st.floats(-3.0, 3.0))
        states.append(state)
        actions.append(draw(st.just(mode + offset * cut) | st.floats(-30.0, 30.0) | special))
    traj = Trajectory(tuple(states), tuple(actions), (0.0,) * len(states), states[-1])
    return traj, policy, threshold


@given(inputs=_tail_ratio_inputs())
@settings(max_examples=150, deadline=None)
def test_tail_exploration_ratio_counts_by_action_mode(inputs):
    assert tail_exploration_ratio(*inputs) == _tail_ratio_by_action_mode(*inputs)


def test_tail_exploration_ratio_rejects_a_policy_without_three_weights():
    # Such a policy is the constructor's error: it never reaches the ratio.
    traj = rollout(TrappedCar(), PolicyParams.zeros(3, alpha=1.0), np.random.default_rng(0),
                   horizon=10)
    with pytest.raises(ParameterError, match=r"^theta_x0 and theta_sigma must have shape "
                                             r"\(3,\), got \(2,\) and \(2,\)$"):
        tail_exploration_ratio(traj, PolicyParams.zeros(2, alpha=1.0), 5.0)


_EMPTY = Trajectory((), (), (), EnvState(0.0, 0.0))


@pytest.mark.parametrize("call, message", [
    (lambda: BoundParams(u_r=1.0, gamma=1.0, l1j=1.0, y1=1.0, b=0.5),
     "gamma must lie in (0, 1), got 1.0"),
    (lambda: BoundParams(u_r=1.0, gamma=0.0, l1j=1.0, y1=1.0, b=0.5),
     "gamma must lie in (0, 1), got 0.0"),
    (lambda: BoundParams(u_r=1.0, gamma=math.nan, l1j=1.0, y1=1.0, b=0.5),
     "gamma must lie in (0, 1), got nan"),
    (lambda: synthetic_sga_run(SmoothBump(), NoiseModel(1.0), PowerDecay(0.5), PlainAscent(),
                               0, np.random.default_rng(0)),
     "n must be at least 1, got 0"),
    (lambda: tail_exploration_ratio(_EMPTY, PolicyParams.zeros(3, 1.0), 5.0),
     "empty trajectory"),
])
def test_diagnostics_reject_bad_arguments(call, message):
    with pytest.raises(ParameterError) as err:
        call()
    assert str(err.value) == message
