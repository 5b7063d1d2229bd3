"""Environment checks: reset intervals, clamping, reward placement, the
reward bound, and the gravity trap that makes exploration necessary; and
``walk``, which reads its policy once, against ``oracles.walk_reference``,
which draws every action through ``sample_action``."""

import math
import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import ChainEnv

from htpg.envs import (
    DEFAULT_MOUNTAIN_SPEC,
    DEFAULT_TRAPPED_SPEC,
    EnvSpec,
    EnvState,
    MountainCar,
    StepResult,
    TrappedCar,
    rollout,
    walk,
)
from htpg.errors import EnvUsageError, ParameterError
from htpg.policy import FIXED, PolicyParams

from oracles import walk_reference


class FixedUniform:
    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


def near_zero_policy():
    """Effectively deterministic stub: Gaussian with vanishing sigma."""
    return PolicyParams.zeros(3, alpha=2.0, scale_mode=FIXED, sigma0=1e-12)


def test_env_spec_validation():
    with pytest.raises(ParameterError):
        EnvSpec(1.0, 0.0, -1, 1, 0.2, 0.4, 0.97, 1.0, 10)
    with pytest.raises(ParameterError):
        EnvSpec(0.0, 1.0, -1, 1, 0.5, 2.0, 0.97, 1.0, 10)
    with pytest.raises(ParameterError):
        EnvSpec(0.0, 1.0, -1, 1, 0.2, 0.4, 1.5, 1.0, 10)


@pytest.mark.parametrize("car", [TrappedCar, MountainCar])
@pytest.mark.parametrize("max_speed", [0.0, -0.0, -0.5, math.nan])
def test_cars_reject_a_max_speed_that_is_not_positive(car, max_speed):
    with pytest.raises(ParameterError, match="max_speed must be positive"):
        car(max_speed=max_speed)


def test_reward_rule_places_goal_band_and_elsewhere():
    trapped = TrappedCar()
    # The band is closed at both edges; a NaN position earns the reward
    # elsewhere and is not at the goal.
    for x, want in [(3.6, (100.0, True)), (math.inf, (100.0, True)), (-4.0, (0.1, False)),
                    (-2.2, (0.1, False)), (-2.1999, (0.0, False)), (math.nan, (0.0, False)),
                    (-math.inf, (0.0, False))]:
        assert trapped.reward(x) == want
    mountain = MountainCar()
    for x, want in [(0.45, (0.0, True)), (math.inf, (0.0, True)), (0.4499, (-1.0, False)),
                    (-1.2, (-1.0, False)), (math.nan, (-1.0, False)),
                    (-math.inf, (-1.0, False))]:
        assert mountain.reward(x) == want


def test_trapped_reset_interval_endpoints():
    env = TrappedCar()
    assert env.reset(FixedUniform(0.0)).position == 1.15
    assert env.reset(FixedUniform(1.0)).position == 2.0
    st = env.reset(FixedUniform(0.3))
    assert st.velocity == 0.0 and st.step_count == 0 and not st.terminal


def test_trapped_false_start():
    env = TrappedCar(start_at_false_goal=True)
    st = env.reset(FixedUniform(0.5))
    assert st.position == env.false_start
    assert env.false_low <= st.position <= env.false_high
    # The start sits at the local potential minimum: a resting car barely
    # moves and keeps collecting the misleading reward.
    probe = st
    for _ in range(1000):
        probe = env.step(EnvState(probe.position, probe.velocity), 0.0).next_state
        assert env.false_low <= probe.position <= env.false_high


def test_trapped_rewards_and_termination():
    env = TrappedCar()
    # Push over the goal threshold: the step reward is the terminal bonus.
    st = EnvState(3.59, 0.5)
    res = env.step(st, 20.0)
    assert res.next_state.position >= env.true_goal
    assert res.reward == 100.0
    assert res.done and res.next_state.terminal
    assert res.reward <= env.spec.reward_bound

    res = env.step(EnvState(-2.6, 0.0), 0.0)
    assert res.reward == 0.1 and not res.done

    res = env.step(EnvState(0.0, 0.0), 0.0)
    assert res.reward == 0.0


def test_trapped_action_clamp():
    env = TrappedCar()
    st = EnvState(1.5, 0.0)
    assert env.step(st, 25.0) == env.step(st, 20.0)
    assert env.step(st, -1e9) == env.step(st, -20.0)


def test_step_on_terminal_state_raises():
    env = TrappedCar()
    with pytest.raises(EnvUsageError):
        env.step(EnvState(1.5, 0.0, 10, True), 0.0)
    with pytest.raises(EnvUsageError):
        MountainCar().step(EnvState(-0.5, 0.0, 10, True), 0.0)


def test_trapped_horizon_termination():
    env = TrappedCar()
    st = EnvState(1.5, 0.0, env.spec.max_steps - 1, False)
    res = env.step(st, 0.0)
    assert res.done and res.next_state.terminal


@pytest.mark.parametrize("env", [TrappedCar(), MountainCar()])
def test_reward_bound_and_state_containment(env):
    rng = np.random.default_rng(0)
    spec = env.spec
    for _ in range(100_000):
        x = rng.uniform(spec.state_low, spec.state_high)
        v = rng.uniform(-env.max_speed, env.max_speed)
        a = rng.uniform(3 * spec.action_low, 3 * spec.action_high)
        res = env.step(EnvState(float(x), float(v)), float(a))
        assert abs(res.reward) <= spec.reward_bound
        assert spec.state_low <= res.next_state.position <= spec.state_high


@settings(max_examples=400, deadline=None)
@given(env=st.sampled_from([TrappedCar(), MountainCar()]), data=st.data())
def test_advance_keeps_state_in_bounds_and_step_is_advance_then_reward(env, data):
    spec = env.spec
    x = data.draw(st.floats(spec.state_low, spec.state_high), label="x")
    v = data.draw(st.floats(-env.max_speed, env.max_speed), label="v")
    a = data.draw(st.floats(allow_nan=False, allow_infinity=False), label="a")
    steps = data.draw(st.integers(0, spec.max_steps - 1), label="steps")
    x1, v1 = env.advance(x, v, a)
    assert spec.state_low <= x1 <= spec.state_high
    assert abs(v1) <= env.max_speed
    if x1 in (spec.state_low, spec.state_high):
        assert v1 == 0.0
    # step clamps the action, then advances and scores the position reached.
    x1, v1 = env.advance(x, v, spec.clamp_action(a))
    reward, at_goal = env.reward(x1)
    done = at_goal or steps + 1 >= spec.max_steps
    assert env.step(EnvState(x, v, steps), a) == StepResult(
        EnvState(x1, v1, steps + 1, done), reward, done)


def test_trapped_zero_action_never_reaches_goal():
    # From anywhere in the start interval the central gravity well holds the
    # car; the true goal is unreachable without thrust.
    env = TrappedCar()
    for x0 in np.linspace(env.spec.init_low, env.spec.init_high, 12):
        st = EnvState(float(x0), 0.0)
        for _ in range(3000):
            res = env.step(EnvState(st.position, st.velocity), 0.0)
            st = res.next_state
            assert st.position < env.true_goal
        assert 0.5 < st.position < 2.7  # still inside the central basin


def test_trapped_false_start_stays_inside_basin_without_thrust():
    env = TrappedCar(start_at_false_goal=True)
    st = env.reset(FixedUniform(0.0))
    for _ in range(5000):
        res = env.step(EnvState(st.position, st.velocity), 0.0)
        st = res.next_state
        assert not env.outside_basin(st.position)


def test_mountain_car_dynamics():
    env = MountainCar()
    # cos(3x) = 0 at x = -pi/6: zero action keeps the car still.
    st = EnvState(-math.pi / 6, 0.0)
    res = env.step(st, 0.0)
    assert res.next_state.velocity == pytest.approx(0.0, abs=1e-15)
    assert res.next_state.position == pytest.approx(st.position)
    assert res.reward == -1.0

    # Reaching the goal ends the episode without the -1.
    res = env.step(EnvState(0.449, 0.07), 1.0)
    assert res.next_state.position >= env.goal_position
    assert res.done and res.reward == 0.0


def test_mountain_car_reset_interval():
    env = MountainCar()
    assert env.reset(FixedUniform(0.0)).position == -0.6
    assert env.reset(FixedUniform(1.0)).position == -0.4


def test_rollout_horizon_one():
    env = TrappedCar()
    traj = rollout(env, near_zero_policy(), np.random.default_rng(0), horizon=1)
    assert len(traj) == 1
    with pytest.raises(ParameterError):
        rollout(env, near_zero_policy(), np.random.default_rng(0), horizon=0)


def test_rollout_deterministic_across_equal_seeds():
    env = TrappedCar()
    pol = PolicyParams.zeros(3, alpha=1.0)
    t1 = rollout(env, pol, np.random.default_rng(123), horizon=200)
    t2 = rollout(env, pol, np.random.default_rng(123), horizon=200)
    assert t1 == t2


def test_rollout_mountain_car_return_is_minus_steps():
    env = MountainCar()
    traj = rollout(env, near_zero_policy(), np.random.default_rng(4), horizon=250)
    assert not env.at_goal(traj.final_state)
    assert traj.total_return() == -250.0
    assert len(traj) == 250


def test_rollout_actions_are_clamped():
    env = TrappedCar()
    pol = PolicyParams.zeros(3, alpha=1.0)  # Cauchy draws exceed +/-20 often
    traj = rollout(env, pol, np.random.default_rng(8), horizon=500)
    assert all(env.spec.action_low <= a <= env.spec.action_high for a in traj.actions)
    assert any(abs(a) == 20.0 for a in traj.actions)


# -- walk against its oracle ---------------------------------------------------

# Short budgets keep the walks small; a near goal lets some of them end there.
_WALK_ENVS = (
    TrappedCar(spec=replace(DEFAULT_TRAPPED_SPEC, max_steps=60), true_goal=2.3),
    MountainCar(spec=replace(DEFAULT_MOUNTAIN_SPEC, max_steps=60)),
    ChainEnv(length=40),
)


def _walk_outcome(walker, seed, env, policy, state, action, steps):
    """The trajectory's bytes, or the error the walk raised, and the
    generator's state after the walk."""
    rng = np.random.default_rng(seed)
    try:
        traj = walker(env, policy, rng, state, action, steps)
    except Exception as err:  # the comparison is on type and message
        return ("raised", type(err), str(err)), rng.bit_generator.state
    states = (*traj.states, traj.final_state)
    floats = [*(s.position for s in states), *(s.velocity for s in states),
              *traj.actions, *traj.rewards]
    return ((len(traj), struct.pack(f"<{len(floats)}d", *floats),
             [(s.step_count, s.terminal) for s in states]), rng.bit_generator.state)


def _assert_walk_matches_oracle(seed, *args):
    """``walk`` against ``walk_reference``; returns the outcome."""
    got = _walk_outcome(walk, seed, *args)
    assert got == _walk_outcome(walk_reference, seed, *args)
    return got[0]


def test_walk_matches_its_oracle_on_fixed_seeds():
    policies = [PolicyParams(np.array([0.5, 20.0, 0.1]), np.array([0.1, 0.0, -0.3]), tail)
                for tail in (1.0, 2.0)]
    policies += [PolicyParams.zeros(3, tail, FIXED, sigma0=3.0) for tail in (1.0, 2.0)]
    trailing = 0
    for seed, (env, policy) in enumerate(
            (env, policy) for env in _WALK_ENVS for policy in policies):
        state = env.reset(np.random.default_rng(seed))
        for action, steps in ((-30.0, 1), (0.0, 7), (30.0, 25), (0.5, 1000)):
            got = _assert_walk_matches_oracle(seed, env, policy, state, action, steps)
            length, _, marks = got
            # A walk cut by its step count, not by done, took the trailing draw.
            trailing += length == steps and not marks[-1][1]
    # Those of 1, 7 and 25 steps; of 1000, each ends at the goal or budget.
    assert trailing == 36


def _walk_inputs():
    def build(env, tail, weights, log_sigmas, data):
        spec = env.spec
        if isinstance(env, ChainEnv):
            position = float(data.draw(st.integers(0, env.length - 1)))
            velocity = 0.0
        else:
            position = data.draw(st.floats(spec.state_low, spec.state_high))
            velocity = data.draw(st.floats(-env.max_speed, env.max_speed))
        state = EnvState(position, velocity, data.draw(st.integers(0, spec.max_steps - 1)))
        action = data.draw(st.floats(-40.0, 40.0) | st.sampled_from([math.inf, math.nan]))
        policy = PolicyParams(np.array(weights), np.array(log_sigmas), tail)
        return (data.draw(st.integers(0, 2**32)), env, policy, state, action,
                data.draw(st.integers(1, 80)))

    weight = st.floats(-50.0, 50.0) | st.sampled_from([0.0, -0.0, math.inf, math.nan])
    log_sigma = st.floats(-3.0, 3.0) | st.sampled_from([-800.0, 800.0, math.nan])
    return st.builds(build, st.sampled_from(_WALK_ENVS), st.sampled_from([1.0, 2.0]),
                     st.lists(weight, min_size=3, max_size=3),
                     st.lists(log_sigma, min_size=3, max_size=3), st.data())


@given(inputs=_walk_inputs())
@settings(max_examples=200, deadline=None)
def test_walk_matches_its_oracle_on_drawn_inputs(inputs):
    _assert_walk_matches_oracle(*inputs)


_DIMENSION_ERROR = r"^feature dimension \(3,\) does not match theta_x0 \(2,\)$"


# The dimension error comes first, as in sample_action; exp(-800) is 0.0.
@pytest.mark.parametrize("policy, message", [
    (PolicyParams(np.zeros(2), np.zeros(2)), _DIMENSION_ERROR),
    (PolicyParams(np.zeros(2), np.array([-800.0, 0.0]), 2.0), _DIMENSION_ERROR),
    (PolicyParams(np.zeros(3), np.array([-800.0, 0.0, 0.0])), r"^scale must be positive, got 0.0$"),
    (PolicyParams(np.zeros(3), np.array([-800.0, 0.0, 0.0]), 2.0),
     r"^scale must be positive, got 0.0$"),
    (PolicyParams(np.zeros(3), np.array([math.nan, 0.0, 0.0])),
     r"^scale must be positive, got nan$"),
])
@pytest.mark.parametrize("env", _WALK_ENVS)
def test_walk_raises_its_oracles_error_at_the_first_draw(env, policy, message):
    state = env.reset(np.random.default_rng(0))
    for steps in (1, 10):
        rng = np.random.default_rng(3)
        with pytest.raises(ParameterError, match=message):
            walk(env, policy, rng, state, 0.0, steps)
        _assert_walk_matches_oracle(3, env, policy, state, 0.0, steps)


@pytest.mark.parametrize("policy", [
    PolicyParams(np.zeros(2), np.zeros(2)),
    PolicyParams(np.zeros(3), np.array([-800.0, 0.0, 0.0])),
    PolicyParams(np.zeros(3), np.array([math.nan, 0.0, 0.0]), 2.0),
])
@pytest.mark.parametrize("env", _WALK_ENVS)
def test_walk_done_after_its_first_transition_draws_nothing(env, policy):
    # One transition left in the step budget: done after it, so no draw comes.
    state = replace(env.reset(np.random.default_rng(0)), step_count=env.spec.max_steps - 1)
    rng = np.random.default_rng(3)
    start = rng.bit_generator.state
    traj = walk(env, policy, rng, state, 0.0, 10)
    assert len(traj) == 1 and traj.final_state.terminal
    assert rng.bit_generator.state == start
    _assert_walk_matches_oracle(3, env, policy, state, 0.0, 10)
