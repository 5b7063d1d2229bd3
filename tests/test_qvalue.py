"""Q-estimator checks: the geometric horizon law, unbiasedness against the
chain oracle, the hard boundedness guarantee, and exact weighting."""

import math
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from conftest import ChainEnv, chain_exact_q
from htpg import qvalue
from htpg.envs import EnvState, MountainCar, TrappedCar
from htpg.errors import ParameterError
from htpg.policy import ADAPTIVE, FIXED, PolicyParams, _float_sum
from htpg.qvalue import QEstimate, discounted_partial_return, draw_horizon, estimate_q


def dummy_policy():
    return PolicyParams.zeros(3, alpha=2.0, scale_mode=FIXED, sigma0=1e-12)


def test_draw_horizon_validation():
    rng = np.random.default_rng(0)
    for bad in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(ParameterError):
            draw_horizon(bad, rng)


def test_draw_horizon_tiny_gamma_is_zero():
    rng = np.random.default_rng(0)
    assert all(draw_horizon(1e-12, rng) == 0 for _ in range(1000))


def test_draw_horizon_geometric_law():
    rng = np.random.default_rng(1)
    n = 200_000
    draws = draw_horizon(0.81, rng, size=n)
    # E[T] = sqrt(gamma) / (1 - sqrt(gamma)) = 9 at gamma = 0.81.
    assert draws.mean() == pytest.approx(9.0, rel=0.01)
    p0 = 1.0 - math.sqrt(0.81)
    freq0 = np.mean(draws == 0)
    se = math.sqrt(p0 * (1 - p0) / n)
    assert abs(freq0 - p0) < 3 * se


def test_estimate_q_checks_gamma_before_any_draw(chain_env):
    # Also with a given horizon: the float walk's sum rests on gamma in (0, 1).
    for env in (chain_env, TrappedCar(), MountainCar()):
        for bad in (0.0, 1.0, -0.5, 1.5, math.nan):
            rng = np.random.default_rng(8)
            for horizon in (None, 3):
                with pytest.raises(ParameterError, match=r"^gamma must lie in \(0, 1\)"):
                    estimate_q(env, dummy_policy(), EnvState(0.0, 0.0), 0.0, bad, rng, horizon)
            assert rng.random() == np.random.default_rng(8).random()


@pytest.mark.parametrize("env", [ChainEnv(), TrappedCar()])
@pytest.mark.parametrize("horizon", [-1, -10**6])
def test_estimate_q_rejects_a_negative_horizon(env, horizon):
    rng = np.random.default_rng(0)
    start = rng.bit_generator.state
    with pytest.raises(ParameterError) as err:
        estimate_q(env, PolicyParams.zeros(3, 1.0), EnvState(0.0, 0.0), 0.0, 0.97, rng,
                   horizon=horizon)
    assert str(err.value) == f"horizon must be non-negative, got {horizon}"
    assert rng.bit_generator.state == start


def test_estimate_q_single_term(chain_env):
    rng = np.random.default_rng(2)
    est = estimate_q(chain_env, dummy_policy(), EnvState(0.0, 0.0), 0.0, 0.81, rng,
                     horizon=0)
    assert est == QEstimate(1.0, 0)


def test_estimate_q_unbiased_on_chain(chain_env):
    gamma = 0.81
    exact = chain_exact_q(chain_env, gamma)
    assert exact == pytest.approx(2.4661)
    rng = np.random.default_rng(3)
    pol = dummy_policy()
    n = 20_000
    values = [
        estimate_q(chain_env, pol, EnvState(0.0, 0.0), 0.0, gamma, rng).value
        for _ in range(n)
    ]
    mean = float(np.mean(values))
    se = float(np.std(values)) / math.sqrt(n)
    assert abs(mean - exact) < 3 * se
    assert mean == pytest.approx(exact, rel=0.02)


def test_estimate_q_bounded(chain_env):
    gamma = chain_env.spec.gamma
    bound = chain_env.spec.reward_bound / (1.0 - math.sqrt(gamma))
    rng = np.random.default_rng(4)
    pol = dummy_policy()
    for _ in range(5000):
        est = estimate_q(chain_env, pol, EnvState(0.0, 0.0), 0.0, gamma, rng)
        assert abs(est.value) <= bound


def _refuse_walk(*args):
    raise AssertionError("estimate_q took the object walk")


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(env=st.sampled_from([TrappedCar(), MountainCar()]), data=st.data())
def test_estimate_q_bounded_on_the_cars(env, data, monkeypatch):
    spec = env.spec
    weights = st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=3)
    policy = PolicyParams(data.draw(weights),
                          data.draw(st.lists(st.floats(-5.0, 5.0), min_size=3, max_size=3)),
                          data.draw(st.sampled_from([1.0, 2.0])),
                          data.draw(st.sampled_from([FIXED, ADAPTIVE])),
                          data.draw(st.floats(1e-3, 50.0)))
    s0 = EnvState(data.draw(st.floats(spec.state_low, spec.state_high)),
                  data.draw(st.floats(-env.max_speed, env.max_speed)),
                  data.draw(st.integers(0, spec.max_steps - 1)))
    a0 = data.draw(st.floats(spec.action_low, spec.action_high))
    gamma = data.draw(st.floats(0.01, 0.999))
    horizon = data.draw(st.none() | st.integers(0, 2 * spec.max_steps))
    monkeypatch.setattr(qvalue, "walk", _refuse_walk)
    est = estimate_q(env, policy, s0, a0, gamma,
                     np.random.default_rng(data.draw(st.integers(0, 2**32))), horizon)
    # The ceiling holds up to rounding: once gamma**(t/2) drops below an ulp
    # of the sum, the float sum can round past the float ceiling (MountainCar,
    # zero policy, gamma 0.78346, horizon 281: 8.705692700120313 against
    # 8.705692700120311).  Allow the error of summing max_steps + 1 rounded
    # terms and of 1 - sqrt(gamma).
    eps = np.finfo(float).eps
    slack = (spec.max_steps + 3) * eps + eps / (1.0 - math.sqrt(gamma))
    assert abs(est.value) <= spec.reward_bound / (1.0 - math.sqrt(gamma)) * (1.0 + slack)


def test_estimate_q_weighting_exact():
    env = ChainEnv(length=10_000)  # rewards of 1 forever within the budget
    pol = dummy_policy()
    rng = np.random.default_rng(5)
    gamma = 0.9
    for k in (0, 1, 5, 17):
        est = estimate_q(env, pol, EnvState(0.0, 0.0), 0.0, gamma, rng, horizon=k)
        expected = 0.0
        for t in range(k + 1):
            expected += gamma ** (0.5 * t) * 1.0
        assert est.value == expected


def test_discounted_partial_return_truncates_at_data():
    rewards = (1.0, 2.0, 3.0)
    gamma = 0.81
    full = 1.0 + gamma ** 0.5 * 2.0 + gamma * 3.0
    assert discounted_partial_return(rewards, gamma, 2) == pytest.approx(full)
    assert discounted_partial_return(rewards, gamma, 99) == pytest.approx(full)
    assert discounted_partial_return(rewards, gamma, 0) == 1.0


def test_discounted_partial_return_checks_gamma():
    # Unchecked, -0.5 ** 0.5 is complex and 2.0 ** 1500.0 overflows.
    late = [0.0] * 3000 + [1.0]
    for rewards, gamma in (([1.0, 1.0], -0.5), (late, 2.0), ([1.0, 1.0], math.nan),
                           ([1.0], 0.0), ([1.0], 1.0)):
        with pytest.raises(ParameterError, match=r"^gamma must lie in \(0, 1\)"):
            discounted_partial_return(rewards, gamma, len(rewards))


_REWARD = st.one_of(st.sampled_from([0.0, -0.0]), st.sampled_from([0.0, -0.0]),
                    st.sampled_from([math.inf, -math.inf, math.nan]), st.floats(-1e308, 1e308))


@given(rewards=st.lists(_REWARD, max_size=12), horizon=st.integers(0, 14),
       gamma=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
@example(rewards=[-0.0, -0.0], horizon=1, gamma=0.5)  # the sum stays +0.0
@example(rewards=[0.0, math.inf, -0.0], horizon=2, gamma=1e-300)  # 0 * inf past t = 0
@settings(max_examples=500, deadline=None)
def test_discounted_partial_return_skips_only_zero_rewards(rewards, horizon, gamma):
    # Every term summed, zeros included: the skip of a 0.0 or -0.0 reward
    # never changes a bit, whatever else the rewards hold.  (Which NaN a sum
    # of two NaNs keeps changes once CPython specialises the addition, so a
    # NaN sum is compared as NaN.)
    every_term = _float_sum(gamma ** (0.5 * t) * r for t, r in enumerate(rewards[: horizon + 1]))
    got = discounted_partial_return(rewards, gamma, horizon)
    if math.isnan(every_term):
        assert math.isnan(got)
    else:
        assert struct.pack("<d", got) == struct.pack("<d", every_term)


def test_estimate_q_mountain_car_no_goal_band():
    # A stationary policy never reaches the goal: E[Q] = -sum_t gamma^t over
    # the (long) episode, i.e. -1/(1-gamma) up to a tiny truncation bias.
    env = MountainCar()
    gamma = 0.97
    pol = dummy_policy()
    rng = np.random.default_rng(6)
    n = 3000
    values = [
        estimate_q(env, pol, env.reset(rng), 0.0, gamma, rng).value for _ in range(n)
    ]
    mean = float(np.mean(values))
    se = float(np.std(values)) / math.sqrt(n)
    target = -1.0 / (1.0 - gamma)
    truncation = gamma ** (env.spec.max_steps / 2) / (1.0 - gamma)
    assert abs(mean - target) <= 3 * se + truncation


def test_estimate_q_respects_a0_clamp(chain_env):
    rng = np.random.default_rng(7)
    a = estimate_q(chain_env, dummy_policy(), EnvState(0.0, 0.0), 99.0, 0.81, rng,
                   horizon=0)
    b = estimate_q(chain_env, dummy_policy(), EnvState(0.0, 0.0), 1.0, 0.81, rng,
                   horizon=0)
    assert a.value == b.value
